import hashlib
import json
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from gkmcobordism.coeff_series import QQ, direction

from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_model import (
    CongruenceConstraint,
    check_membership,
    congruence_system,
    congruence_system_json,
)
from gkmcobordism.horospherical import (
    PasquierTriple,
    UnresolvedSurfaceKindError,
    build_gkm,
    chi,
    point_weights,
    surface_scan,
)
from gkmcobordism import root_flag
from gkmcobordism.root_flag import inner
from gkmcobordism.torus_ring import Character, TorusRing

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_triple_validation():
    with pytest.raises(ValueError):
        PasquierTriple(family=1, n=2)
    with pytest.raises(ValueError):
        PasquierTriple(family=3, n=2, m=3)
    with pytest.raises(ValueError):
        PasquierTriple(family=6)
    PasquierTriple(family=3, n=4, m=2)


def test_chi_values():
    assert chi(PasquierTriple(family=3, n=3, m=3)) == Character((0, 0, 1))
    assert chi(PasquierTriple(family=3, n=2, m=2)) == Character((0, 1))
    half = QQ(1, 2)
    assert chi(PasquierTriple(family=1, n=3)) == Character((half, half, -half))
    assert chi(PasquierTriple(family=2)) == Character((half, -half, -half))
    assert chi(PasquierTriple(family=5)) == Character((1, 0, -1))
    assert chi(PasquierTriple(family=4)) == Character((half, half, half, -half))


def test_surface_scans():
    none_scan = surface_scan(PasquierTriple(family=1, n=3))
    assert none_scan.kind == "none" and none_scan.root is None

    p2_scan = surface_scan(PasquierTriple(family=3, n=2, m=2))
    assert p2_scan.kind == "P2"
    assert p2_scan.root == Character((0, 2))
    assert p2_scan.pairings == (1, 0)
    assert p2_scan.fixed_points == 3

    g2_scan = surface_scan(PasquierTriple(family=5))
    assert g2_scan.kind == "Fn" and g2_scan.n == 3
    assert g2_scan.pairings == (1, 3)
    assert g2_scan.fixed_points == 4

    f4_scan = surface_scan(PasquierTriple(family=4))
    assert f4_scan.kind == "unresolved"
    assert f4_scan.fixed_points == 4

    # family 2: no positive root is proportional to chi, so no surface at all
    b3_scan = surface_scan(PasquierTriple(family=2))
    assert b3_scan.kind == "none"


def test_ig25_points_and_surfaces():
    datum = build_gkm(PasquierTriple(family=3, n=2, m=2))
    assert datum.points == ("x12", "x13", "x14", "x23", "x25", "x34", "x35", "x45")
    assert "x15" not in datum.points and "x24" not in datum.points
    assert len(datum.edges) == 8
    assert len(datum.surfaces) == 4
    point_sets = {frozenset(s.points) for s in datum.surfaces}
    assert point_sets == {
        frozenset({"x12", "x13", "x14"}),
        frozenset({"x12", "x23", "x25"}),
        frozenset({"x14", "x34", "x45"}),
        frozenset({"x25", "x35", "x45"}),
    }
    for s in datum.surfaces:
        assert s.kind == "P2"


def test_ig25_congruences_match_fixture_bytes():
    datum = build_gkm(PasquierTriple(family=3, n=2, m=2))
    built = congruence_system_json(congruence_system(datum))
    raw = json.loads((FIXTURES / "ig25_congruences.json").read_text())
    fixture = [CongruenceConstraint.from_json_obj(obj) for obj in raw]
    fixture_canonical = congruence_system_json(sorted(fixture, key=lambda c: c.sort_key()))
    assert built == fixture_canonical


def test_ig25_build_is_byte_stable():
    a = build_gkm(PasquierTriple(family=3, n=2, m=2)).dumps()
    b = build_gkm(PasquierTriple(family=3, n=2, m=2)).dumps()
    assert a == b


def test_family1_no_surfaces():
    datum = build_gkm(PasquierTriple(family=1, n=3))
    assert datum.surfaces == ()
    # 12 cosets in the flag orbit, 8 in the spinor orbit
    assert len(datum.points) == 20
    assert all(p.startswith(("y(", "z(")) for p in datum.points)
    # joining lines: one per coset of W modulo the joint stabilizer W_{a1}
    lines = [e for e in datum.edges if {e.a[0], e.b[0]} == {"y", "z"}]
    assert len(lines) == 24


def test_family2_builds_without_surfaces():
    datum = build_gkm(PasquierTriple(family=2))
    assert datum.surfaces == ()
    assert len(datum.points) == 14


def test_family5_f3_surfaces():
    datum = build_gkm(PasquierTriple(family=5))
    assert len(datum.points) == 12
    assert len(datum.surfaces) == 6
    for s in datum.surfaces:
        assert s.kind == "Fn" and s.n == 3
        # top and bottom points come from the second closed orbit
        assert s.points[0].startswith("z(") and s.points[3].startswith("z(")
        assert s.points[1].startswith("y(") and s.points[2].startswith("y(")
    system = congruence_system(datum)
    fn = [c for c in system if c.kind == "fn"]
    assert len(fn) == 6 and all(c.n == 3 for c in fn)


def test_family4_requires_override():
    with pytest.raises(UnresolvedSurfaceKindError):
        build_gkm(PasquierTriple(family=4))
    datum = build_gkm(PasquierTriple(family=4), force_kind="fn:2")
    assert datum.surfaces and all(s.kind == "Fn" and s.n == 2 for s in datum.surfaces)


def test_builder_reads_curves_without_flag_curves(monkeypatch):
    # The builder reads curve_scan's integer pairs; FlagCurves, with their
    # rational weights and degrees, are for `flag curves` alone.
    def refuse(*args, **kwargs):
        raise AssertionError("build_gkm made a FlagCurve")

    monkeypatch.setattr(root_flag.FlagCurve, "__init__", refuse)
    for args, kind in (SWEEP["g2"], SWEEP["c3-m2"]):
        assert build_gkm(PasquierTriple(**args), force_kind=kind).edges


def test_rebuild_shares_the_systems_cosets(monkeypatch):
    # The coset tables of both closed orbits belong to the root system's
    # one Weyl group, so a second build enumerates only its surface orbit
    # (of (omega_Y, omega_Z, root)) and its joining-line orbit.
    triple = PasquierTriple(family=4)
    first = build_gkm(triple, force_kind="fn:2")
    seeds = []
    orbit = root_flag.WeylGroup.orbit

    def counted(self, seed, canonical=None):
        seeds.append(seed)
        return orbit(self, seed, canonical)

    monkeypatch.setattr(root_flag.WeylGroup, "orbit", counted)
    second = build_gkm(triple, force_kind="fn:2")
    assert [len(seed) for seed in seeds] == [3, 2]
    assert second.dumps() == first.dumps()


def test_surface_edges_absorbed():
    # curves inside a surface with weight proportional to its root are not
    # duplicated as explicit edges
    datum = build_gkm(PasquierTriple(family=3, n=2, m=2))
    surface_pairs = set()
    for s in datum.surfaces:
        for a in s.points:
            for b in s.points:
                if a < b:
                    surface_pairs.add((a, b))
    for e in datum.edges:
        pair = tuple(sorted((e.a, e.b)))
        if pair in surface_pairs:
            for s in datum.surfaces:
                if set(pair) <= set(s.points):
                    assert direction(e.weight.coords) != direction(s.alpha.coords)


@pytest.mark.parametrize(
    "args, order",
    [
        (dict(family=3, n=2, m=2), 8),
        (dict(family=5), 6),
        (dict(family=1, n=3), 5),
        (dict(family=2), 5),
    ],
    ids=("ig25", "g2", "b3-spinor", "b3-quadric"),
)
def test_hyperplane_class_tuple_is_member(args, order):
    """The restriction of the hyperplane class of the defining projective
    embedding: point -> chern(point weight).  It must satisfy every edge and
    surface congruence of the built datum, which exercises the orderings and
    the correction factors against actual geometry."""
    triple = PasquierTriple(**args)
    datum = build_gkm(triple)
    ring = TorusRing(FormalGroupLaw.universal(order), datum.rank)
    weights = point_weights(triple)
    assert set(weights) == set(datum.points)
    values = {p: ring.chern(weights[p]) for p in datum.points}
    certificate = check_membership(datum, values, ring)
    assert certificate.is_member


def test_surface_points_connected_by_proportional_congruences():
    # inside each surface the chain congruences connect all its points, with
    # moduli proportional to the surface root
    for triple in (PasquierTriple(family=3, n=2, m=2), PasquierTriple(family=5)):
        datum = build_gkm(triple)
        system = congruence_system(datum)
        for s in datum.surfaces:
            inside = [
                c
                for c in system
                if c.kind == "edge"
                and set(c.points) <= set(s.points)
                and direction(c.character.coords) == direction(s.alpha.coords)
            ]
            reached = {s.points[0]}
            changed = True
            while changed:
                changed = False
                for c in inside:
                    a, b = c.points
                    if a in reached and b not in reached:
                        reached.add(b)
                        changed = True
                    elif b in reached and a not in reached:
                        reached.add(a)
                        changed = True
            assert reached == set(s.points)


def test_build_validates():
    datum = build_gkm(PasquierTriple(family=3, n=3, m=2))  # the datum checked itself when built
    assert len(datum.surfaces) == 12
    for s in datum.surfaces:
        assert s.kind == "P2" and len(s.points) == 3


def test_family1_n4_orders_by_another_covector():
    # The Weyl vector of B4 is orthogonal to the joining weight (1,-1,-1,1)/2,
    # so the builder falls back to sum_k 2^(k-1) omega_k.
    triple = PasquierTriple(family=1, n=4)
    rho = triple.group().weyl_vector()
    half = QQ(1, 2)
    assert inner(rho, (half, -half, -half, half)) == 0
    datum = build_gkm(triple)
    assert len(datum.points) == 48 and len(datum.edges) == 336
    assert datum.ordering == (11, 10, 8, 4)
    for edge in datum.edges:
        assert inner(datum.ordering, edge.weight.coords)


# Every buildable triple of the classification; family 3 for n <= 4.
SWEEP = {
    "b3-spinor": (dict(family=1, n=3), None),
    "b4-spinor": (dict(family=1, n=4), None),
    "b5-spinor": (dict(family=1, n=5), None),
    "b3-quadric": (dict(family=2), None),
    "c2-m2": (dict(family=3, n=2, m=2), None),
    "c3-m2": (dict(family=3, n=3, m=2), None),
    "c3-m3": (dict(family=3, n=3, m=3), None),
    "c4-m2": (dict(family=3, n=4, m=2), None),
    "c4-m3": (dict(family=3, n=4, m=3), None),
    "c4-m4": (dict(family=3, n=4, m=4), None),
    "g2": (dict(family=5), None),
    "f4-fn2": (dict(family=4), "fn:2"),
}

# sha256 of build_gkm(...).dumps(): a change to the root-system or builder
# code must leave every swept datum byte-identical.
SWEEP_SHA256 = {
    "b3-spinor": "efe57daf52bc564e3ad84b0beedc6e5609996f4d5c2662c2a91eb432904fd6ac",
    "b4-spinor": "905e445d03ac11320e969795c4724acd14f34079dd791b5ec31724ad5b7523e6",
    "b5-spinor": "b99f03c82f4bbf3ced51432ef4a3b4a4dd9daa32dbf278d39489b0937b5d6a7c",
    "b3-quadric": "e9a3de272f0a502b7cbcd297d6380cf2e1e64bb55f4f830e4f8b673c598d78e2",
    "c2-m2": "077418eb783a052df8fe5d76fd44f55c4617126c18675560994b92e2d64398c1",
    "c3-m2": "e7c3027120e33132b60588db72c6047f92656df8dad579c891bd86a06218ae19",
    "c3-m3": "be7343ecfcdfcd13f48edd58b1c8308de7d55403c2b7798ec0ac97cc5bf100a3",
    "c4-m2": "213050ce539c979c6b6deb66c383d05eb2cb4cd58fd2e5ba89cf6bcfc8cafa8d",
    "c4-m3": "274047e3f987558dbc056562a4d04bea62680968126c8fd47b03f87a269bde7b",
    "c4-m4": "4c38426810aa78350f6bb4b4691249a33c0065fdb7dfa292bcecc31386533c98",
    "g2": "486ae5af6875290c97e2ce787526b665f9e1531870e2713f84ca80912fdd4132",
    "f4-fn2": "84caab899f73b8052ef30d391c0c7da1e4d67e1add831c7365239d4b6dd2f07d",
}


# Larger triples, checked for bytes and for hyperplane membership under the
# additive law at order 4 only: checks under other laws would add tens of
# seconds to the suite.
LARGE_SWEEP = {
    "b7-spinor": (dict(family=1, n=7), None),  # 576 points, 10080 edges
    "c6-m3": (dict(family=3, n=6, m=3), None),  # 220 points, 2250 edges
}

LARGE_SWEEP_SHA256 = {
    "b7-spinor": "b0a90b270244dc4ed81f990e137ed844fca6cc3a06a755cadf3107d3c3ed9f92",
    "c6-m3": "1b2b1ad92edf273862171767ef0036533f924b3a4213cf6efe92bd0e4ddbaf93",
}


@pytest.fixture(scope="module", params=sorted(SWEEP))
def swept(request):
    args, kind = SWEEP[request.param]
    triple = PasquierTriple(**args)
    return request.param, triple, build_gkm(triple, force_kind=kind)


def test_sweep_datum_bytes(swept):
    name, _, datum = swept
    assert hashlib.sha256(datum.dumps().encode()).hexdigest() == SWEEP_SHA256[name]


@pytest.mark.parametrize("name", sorted(LARGE_SWEEP))
def test_large_sweep_datum_bytes(name):
    args, kind = LARGE_SWEEP[name]
    datum = build_gkm(PasquierTriple(**args), force_kind=kind)
    assert hashlib.sha256(datum.dumps().encode()).hexdigest() == LARGE_SWEEP_SHA256[name]


@pytest.mark.parametrize("name", sorted(LARGE_SWEEP))
def test_large_sweep_hyperplane_tuple_is_member(name):
    args, kind = LARGE_SWEEP[name]
    triple = PasquierTriple(**args)
    datum = build_gkm(triple, force_kind=kind)
    weights = point_weights(triple)
    assert set(weights) == set(datum.points)
    ring = TorusRing(FormalGroupLaw.additive(4), datum.rank)
    values = {p: ring.chern(weights[p]) for p in datum.points}
    assert check_membership(datum, values, ring).is_member


def test_sweep_hyperplane_tuple_is_member(swept):
    """The hyperplane tuple of every buildable triple is a member: under the
    additive law at order 4, and under the universal law at order 5 for data
    with at most 56 points."""
    _, triple, datum = swept
    weights = point_weights(triple)
    assert set(weights) == set(datum.points)
    laws = [FormalGroupLaw.additive(4)]
    if len(datum.points) <= 56:
        laws.append(FormalGroupLaw.universal(5))
    for law in laws:
        ring = TorusRing(law, datum.rank)
        values = {p: ring.chern(weights[p]) for p in datum.points}
        assert check_membership(datum, values, ring).is_member


def chi_disagreements(datum, weights) -> list:
    """Where a datum disagrees with its point weights chi: an edge (a, b, w)
    whose chi_b - chi_a is not a nonzero rational multiple of w, or two
    points of a surface whose chi difference is not a nonzero multiple of
    its alpha.  Proportionality is read off the 2x2 minors, so the check
    uses no engine helper and none of the builder's curve or surface code."""

    def along(p, q, w):
        d = [y - x for x, y in zip(weights[p].coords, weights[q].coords)]
        w = w.coords
        return any(d) and all(
            d[i] * w[j] == d[j] * w[i] for i, j in combinations(range(len(d)), 2)
        )

    out = [("edge", e.a, e.b) for e in datum.edges if not along(e.a, e.b, e.weight)]
    out += [
        ("surface", p, q)
        for s in datum.surfaces
        for p, q in combinations(s.points, 2)
        if not along(p, q, s.alpha)
    ]
    return out


def test_sweep_edges_and_surfaces_follow_point_weights(swept):
    _, triple, datum = swept
    assert chi_disagreements(datum, point_weights(triple)) == []


def test_point_weight_oracle_rejects_swapped_edge_weights():
    triple = PasquierTriple(family=3, n=2, m=2)
    datum = build_gkm(triple)
    first = datum.edges[0]
    k, other = next(
        (k, e)
        for k, e in enumerate(datum.edges)
        if direction(e.weight.coords) != direction(first.weight.coords)
    )
    edges = list(datum.edges)
    edges[0], edges[k] = replace(first, weight=other.weight), replace(other, weight=first.weight)
    mutated = replace(datum, edges=tuple(edges))
    assert chi_disagreements(datum, point_weights(triple)) == []
    assert chi_disagreements(mutated, point_weights(triple)) == [
        ("edge", first.a, first.b),
        ("edge", other.a, other.b),
    ]
