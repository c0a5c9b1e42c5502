import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gkmcobordism.coeff_series import QQ, direction

from gkmcobordism.cli import main
from gkmcobordism.coeff_series import TruncatedSeries
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_model import (
    CongruenceConstraint,
    DecompositionError,
    GkmDatum,
    GkmEdge,
    GkmValidationError,
    SurfaceComponent,
    check_membership,
    congruence_system,
    parse_surface_kind,
    reconstruct,
    surface_decompose,
    surface_generators,
)
from gkmcobordism.torus_ring import Character, TorusRing

from conftest import random_series

TS = TruncatedSeries


def C(*coords):
    return Character(coords)


ALPHA = C(2, 0)

KINDS = [
    SurfaceComponent("P2", ("x", "y", "z"), ALPHA, model="V0V1"),
    SurfaceComponent("P2", ("x", "y", "z"), ALPHA, model="V2"),
    SurfaceComponent("F0", ("w", "x", "y", "z"), ALPHA),
    SurfaceComponent("Fn", ("w", "x", "y", "z"), ALPHA, n=1),
    SurfaceComponent("Fn", ("w", "x", "y", "z"), ALPHA, n=2),
    SurfaceComponent("Fn", ("w", "x", "y", "z"), ALPHA, n=3),
    SurfaceComponent("Fn", ("w", "x", "y", "z"), ALPHA, n=4),
]


@pytest.fixture(scope="module")
def ring():
    return TorusRing(FormalGroupLaw.universal(8), 2)


def surface_datum(surface):
    return GkmDatum(rank=2, points=surface.points, edges=(), surfaces=(surface,))


def test_single_edge_datum():
    datum = GkmDatum(
        rank=2, points=("a", "b"), edges=(GkmEdge("a", "b", C(1, 0)),)
    )
    system = congruence_system(datum)
    assert len(system) == 1
    assert system[0].kind == "edge" and system[0].points == ("a", "b")


def test_f0_congruence_shape():
    surface = SurfaceComponent("F0", ("w", "x", "y", "z"), ALPHA)
    system = congruence_system(surface_datum(surface))
    kinds = [c.kind for c in system]
    assert kinds.count("edge") == 4
    assert kinds.count("f0") == 1
    f0 = next(c for c in system if c.kind == "f0")
    assert f0.points == ("w", "x", "y", "z") and f0.power == 2


@pytest.mark.parametrize(
    "text, parsed",
    [
        ("p2:v0v1", ("P2", "V0V1", None)),
        ("P2:V2", ("P2", "V2", None)),
        (" f0 ", ("F0", None, None)),
        ("fn:3", ("Fn", None, 3)),
        ("FN:1", ("Fn", None, 1)),
    ],
)
def test_surface_kind_spellings(text, parsed):
    assert parse_surface_kind(text) == parsed


@pytest.mark.parametrize(
    "text, message",
    [
        ("p2", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("p2:v1", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("p2-v0v1", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("p2-v2", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("f0:1", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("fn", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("f1", "use p2:v0v1, p2:v2, f0 or fn:<k>"),
        ("fn:x", "fn:<k> takes an integer k >= 1"),
        ("fn:0", "Hirzebruch index must be >= 1"),
    ],
)
def test_surface_kind_misspellings_are_refused(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_surface_kind(text)


def test_datum_validation():
    with pytest.raises(GkmValidationError):
        GkmDatum(rank=2, points=("a",), edges=(GkmEdge("a", "a", C(1, 0)),))
    with pytest.raises(GkmValidationError):
        GkmDatum(rank=2, points=("a", "b"), edges=(GkmEdge("a", "b", C(0, 0)),))
    with pytest.raises(GkmValidationError):
        SurfaceComponent("P2", ("x", "y", "z"), ALPHA)  # missing model
    with pytest.raises(GkmValidationError):
        SurfaceComponent("Fn", ("w", "x", "y", "z"), ALPHA)  # missing n


def test_duplicate_edges_are_rejected():
    # (1, 0) and (-2, 0) span one line, in either endpoint order
    duplicate = (GkmEdge("a", "b", C(1, 0)), GkmEdge("b", "a", C(-2, 0)))
    with pytest.raises(GkmValidationError, match="duplicate edge between a and b"):
        GkmDatum(rank=2, points=("a", "b"), edges=duplicate)
    # two curves through one pair of points with independent weights are kept
    two_lines = (GkmEdge("a", "b", C(1, 0)), GkmEdge("a", "b", C(1, 1)))
    GkmDatum(rank=2, points=("a", "b"), edges=two_lines)


def _valid_datum_obj() -> dict:
    return {
        "rank": 2,
        "points": ["a", "b", "c", "d"],
        "edges": [{"a": "a", "b": "d", "weight": ["1", "1"]}],
        "surfaces": [{"kind": "P2", "points": ["a", "b", "c"], "alpha": ["2", "0"], "model": "V0V1"}],
        "lambda": ["2", "1"],
    }


def _four_point(kind, **keys):
    return {"kind": kind, "points": ["a", "b", "c", "d"], "alpha": ["1", "0"], **keys}


# Each rule of a datum once: the edit that breaks a valid datum, and the refusal's message.
_INVALID = {
    "rank-zero": (lambda o: o.update(rank=0), "datum rank must be at least 1, got 0"),
    "rank-negative": (lambda o: o.update(rank=-3), "datum rank must be at least 1, got -3"),
    "duplicate-point": (lambda o: o["points"].append("a"), "duplicate fixed-point names"),
    "self-edge": (
        lambda o: o["edges"].append({"a": "b", "b": "b", "weight": ["1", "0"]}),
        "edge endpoints must differ (b)",
    ),
    "zero-weight": (
        lambda o: o["edges"][0].update(weight=["0", "0"]),
        "edge weight must be nonzero",
    ),
    "weight-rank": (lambda o: o["edges"][0].update(weight=["1"]), "edge weight rank mismatch"),
    "edge-endpoint": (
        lambda o: o["edges"][0].update(b="q"),
        "edge endpoint not in the point list: a, q",
    ),
    "two-edges-one-line": (
        lambda o: o["edges"].append({"a": "d", "b": "a", "weight": ["-2", "-2"]}),
        "duplicate edge between a and d",
    ),
    "lambda-length": (
        lambda o: o.update({"lambda": ["1"]}),
        "'lambda' has length 1, but the datum has rank 2",
    ),
    "surface-point": (
        lambda o: o["surfaces"][0].update(points=["a", "b", "q"]),
        "surface point q not in the point list",
    ),
    "surface-root-rank": (
        lambda o: o["surfaces"][0].update(alpha=["2"]),
        "surface root rank mismatch",
    ),
    "surface-kind": (lambda o: o["surfaces"][0].update(kind="P3"), "unknown surface kind 'P3'"),
    "point-count": (
        lambda o: o["surfaces"][0].update(points=["a", "b"]),
        "P2 component must list 3 points, got 2",
    ),
    "repeated-surface-point": (
        lambda o: o["surfaces"][0].update(points=["a", "b", "a"]),
        "surface component points must be distinct",
    ),
    "zero-root": (
        lambda o: o["surfaces"][0].update(alpha=["0", "0"]),
        "surface root must be nonzero",
    ),
    "p2-without-model": (
        lambda o: o["surfaces"][0].pop("model"),
        "P2 component needs a model tag V0V1 or V2",
    ),
    "fn-without-n": (
        lambda o: o["surfaces"].append(_four_point("Fn")),
        "Fn component needs an index n >= 1",
    ),
    "fn-n0": (
        lambda o: o["surfaces"].append(_four_point("Fn", n=0)),
        "Fn component needs an index n >= 1",
    ),
    "p2-n": (lambda o: o["surfaces"][0].update(n=7), "P2 component takes no key 'n'"),
    "f0-n": (
        lambda o: o["surfaces"].append(_four_point("F0", n=1)),
        "F0 component takes no key 'n'",
    ),
    "f0-model": (
        lambda o: o["surfaces"].append(_four_point("F0", model="V2")),
        "F0 component takes no key 'model'",
    ),
    "fn-model": (
        lambda o: o["surfaces"].append(_four_point("Fn", n=2, model="V2")),
        "Fn component takes no key 'model'",
    ),
}


def _construct(obj) -> GkmDatum:
    """The datum of a file, built by the constructors alone."""
    surfaces = [
        SurfaceComponent(**{**s, "points": tuple(s["points"]), "alpha": Character(s["alpha"])})
        for s in obj["surfaces"]
    ]
    edges = [GkmEdge(e["a"], e["b"], Character(e["weight"])) for e in obj["edges"]]
    return GkmDatum(obj["rank"], obj["points"], edges, surfaces, obj["lambda"])


@pytest.mark.parametrize("edit, message", list(_INVALID.values()), ids=list(_INVALID))
def test_an_invalid_datum_is_refused_everywhere(tmp_path, capsys, edit, message):
    obj = _valid_datum_obj()
    edit(obj)
    with pytest.raises(GkmValidationError) as built:
        _construct(obj)
    with pytest.raises(GkmValidationError) as read:
        GkmDatum.from_json_obj(obj)
    assert message in str(built.value) and str(read.value) == str(built.value)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["gkm", "congruences", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {built.value}\n"


def test_the_table_starts_from_a_valid_datum(tmp_path, capsys):
    obj = _valid_datum_obj()
    assert congruence_system(_construct(obj)) == congruence_system(GkmDatum.from_json_obj(obj))
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj))
    assert main(["gkm", "congruences", str(path)]) == 0


def test_constant_tuples_are_members(ring):
    for surface in KINDS[:3]:
        datum = surface_datum(surface)
        values = {p: ring.one() for p in surface.points}
        assert check_membership(datum, values, ring).is_member


def test_missing_point_raises(ring):
    datum = surface_datum(KINDS[0])
    with pytest.raises(GkmValidationError):
        check_membership(datum, {"x": ring.zero()}, ring)


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: f"{s.kind}{s.n or ''}{s.model or ''}")
def test_generators_pass_membership(surface, ring):
    datum = surface_datum(surface)
    for gen in surface_generators(surface, ring):
        assert check_membership(datum, gen, ring).is_member


def test_p2_models_differ_in_generators(ring):
    v01 = surface_generators(KINDS[0], ring)
    v2 = surface_generators(KINDS[1], ring)
    assert v01[1]["y"] == ring.chern(C(1, 0))
    assert v01[1]["z"] == ring.chern(C(2, 0))
    assert v2[1]["y"] == ring.chern(C(2, 0))
    assert v2[1]["z"] == ring.chern(C(4, 0))
    assert v2[2]["z"] == ring.chern(C(2, 0)) * ring.chern(C(4, 0))


def test_fn_and_f0_point_generators(ring):
    f0 = surface_generators(KINDS[2], ring)
    cm = ring.chern(C(-2, 0))
    assert f0[3]["w"] == cm * cm
    f3 = surface_generators(KINDS[5], ring)
    assert f3[3]["w"] == cm * ring.chern(C(-3, 0))


def test_known_non_member(ring):
    surface = KINDS[0]
    datum = surface_datum(surface)
    values = {
        "x": ring.zero(),
        "y": ring.chern(C(1, 0)),
        "z": ring.zero(),
    }
    certificate = check_membership(datum, values, ring)
    assert not certificate.is_member
    failed = {r.constraint.kind for r in certificate.failures()}
    assert "p2" in failed
    with pytest.raises(DecompositionError):
        surface_decompose(surface, values, ring)


@pytest.mark.parametrize(
    "surface", [KINDS[0], KINDS[1], KINDS[3], KINDS[6]], ids=["P2V0V1", "P2V2", "Fn1", "Fn4"]
)
def test_member_known_through_too_few_degrees_is_refused(surface):
    """One value known only through order 2 on an order-6 ring: a P2 or Fn
    coefficient over three Chern factors would be known through no degree,
    which is a DecompositionError, not a bare ValueError."""
    ring = TorusRing(FormalGroupLaw.universal(6), 2)
    member = reconstruct(surface, [ring.one()] * len(surface_generators(surface, ring)), ring)
    for p in surface.points:
        with pytest.raises(DecompositionError, match="determines no degree of the quotient"):
            surface_decompose(surface, {**member, p: member[p].truncated(2)}, ring)


def test_generator_decomposes_to_unit_vector(ring):
    for surface in (KINDS[1], KINDS[2], KINDS[4]):
        gens = surface_generators(surface, ring)
        for i, gen in enumerate(gens):
            dec = surface_decompose(surface, gen, ring)
            for j, coeff in enumerate(dec.coefficients):
                expected = ring.one() if j == i else ring.zero()
                assert coeff.agrees_through(expected, dec.certified_order)


def test_decompose_linearity_example(ring):
    surface = KINDS[0]
    gens = surface_generators(surface, ring)
    alpha_class = ring.chern(ALPHA)
    values = {
        p: gens[0][p] + alpha_class * gens[1][p] for p in surface.points
    }
    dec = surface_decompose(surface, values, ring)
    assert dec.coefficients[0].agrees_through(ring.one(), dec.certified_order)
    assert dec.coefficients[1].agrees_through(alpha_class, dec.certified_order)
    assert dec.coefficients[2].agrees_through(ring.zero(), dec.certified_order)


@pytest.mark.parametrize("surface", KINDS, ids=lambda s: f"{s.kind}{s.n or ''}{s.model or ''}")
def test_decompose_round_trip_random(surface, ring, rng):
    gens = surface_generators(surface, ring)
    for _ in range(5):
        coeffs = [random_series(rng, 2, 8, terms=3) for _ in gens]
        values = reconstruct(surface, coeffs, ring)
        dec = surface_decompose(surface, values, ring)
        rebuilt = reconstruct(surface, dec.coefficients, ring)
        for p in surface.points:
            assert values[p].agrees_through(rebuilt[p], dec.certified_order)


def test_membership_invariant_under_global_multiplication(ring, rng):
    surface = KINDS[3]
    datum = surface_datum(surface)
    gens = surface_generators(surface, ring)
    coeffs = [random_series(rng, 2, 8, terms=2) for _ in gens]
    values = reconstruct(surface, coeffs, ring)
    scale = random_series(rng, 2, 8, terms=3)
    scaled = {p: v * scale for p, v in values.items()}
    assert check_membership(datum, scaled, ring).is_member


INVARIANCE_LAWS = {
    "universal": FormalGroupLaw.universal,
    "additive": FormalGroupLaw.additive,
    "multiplicative:-2/3": lambda order: FormalGroupLaw.multiplicative(QQ(-2, 3), order),
}


@pytest.mark.parametrize("law", sorted(INVARIANCE_LAWS))
@pytest.mark.parametrize("kinds", [KINDS[:2], KINDS[2:]], ids=["p2-models", "f0-fn"])
def test_membership_is_kind_invariant(law, kinds):
    """Members built from one kind's generators, and copies of them
    corrupted at one point by a series or by c(alpha) times a series, get
    the same verdict under every kind on the same points.  The surface's
    edge congruences make its points congruent mod c(alpha), and
    rho_{n/m}(c(alpha)) = n/m mod c(alpha), so the power-2 congruences of
    F0 and of every Fn agree, and P2's does not read its model."""
    kinds = [replace(kind, alpha=C(1, -2)) for kind in kinds]
    ring = TorusRing(INVARIANCE_LAWS[law](5), 2)
    rng = random.Random(len(kinds))
    rational = law != "universal"
    seen = []
    for source in kinds:
        gens = surface_generators(source, ring)
        for _ in range(4):
            coeffs = [random_series(rng, 2, 5, terms=2, rational_only=rational) for _ in gens]
            member = reconstruct(source, coeffs, ring)
            bump = random_series(rng, 2, 5, terms=2, rational_only=rational) + ring.one()
            for change in (None, bump, ring.chern(source.alpha) * bump):
                values = dict(member)
                if change is not None:
                    point = rng.choice(source.points)
                    values[point] = values[point] + change
                verdicts = {
                    check_membership(surface_datum(kind), values, ring).is_member for kind in kinds
                }
                assert len(verdicts) == 1, (source, change is not None)
                seen.append((change is None, verdicts.pop()))
    assert all(verdict for is_member, verdict in seen if is_member)
    assert not any(verdict for is_member, verdict in seen if not is_member)


def test_additive_reduction_of_surface_conditions():
    """Under the additive law the correction factors are the constants
    1/2 and +-n/2, so the surface conditions become linear congruences."""
    ring = TorusRing(FormalGroupLaw.additive(8), 2)
    rng = random.Random(31)
    values = {
        p: random_series(rng, 2, 8, terms=3, rational_only=True)
        for p in ("w", "x", "y", "z")
    }
    half = TS.constant(QQ(1, 2), 2, 8)
    assert ring.rho_factor(1, 2, ALPHA) == half
    p2 = CongruenceConstraint("p2", ("x", "y", "z"), ALPHA, 2)
    expected = (values["x"] - values["y"]) + half * (values["z"] - values["x"])
    assert p2.residual(values, ring) == expected
    for n in (1, 2, 3, 4):
        fn = CongruenceConstraint("fn", ("w", "x", "y", "z"), ALPHA, 2, n=n)
        assert ring.rho_factor(n, 2, ALPHA) == TS.constant(QQ(n, 2), 2, 8)
        assert ring.rho_factor(-n, 2, ALPHA) == TS.constant(QQ(-n, 2), 2, 8)
        expected = TS.constant(QQ(n, 2), 2, 8) * (values["y"] - values["z"]) + TS.constant(
            QQ(-n, 2), 2, 8
        ) * (values["w"] - values["x"])
        assert fn.residual(values, ring) == expected


def test_certificate_json_round_trip(ring):
    surface = KINDS[0]
    datum = surface_datum(surface)
    gens = surface_generators(surface, ring)
    certificate = check_membership(datum, gens[1], ring)
    obj = json.loads(certificate.dumps())
    assert obj["member"] is True
    assert len(obj["constraints"]) == len(congruence_system(datum))
    reparsed = [CongruenceConstraint.from_json_obj(c["constraint"]) for c in obj["constraints"]]
    assert reparsed == congruence_system(datum)


def _congruence_obj(**keys) -> dict:
    return {"kind": "p2", "points": ["x", "y", "z"], "character": ["2", "0"], "power": 2, **keys}


# Each rule of a congruence once: the bad object and its refusal's message.
_INVALID_CONGRUENCES = {
    # the rule that `describe` read as an fn congruence before it was checked
    "unknown-kind": (
        _congruence_obj(kind="bogus", points=["w", "x", "y", "z"]),
        "unknown congruence kind 'bogus'",
    ),
    "edge-points": (
        _congruence_obj(kind="edge", power=1),
        "edge congruence must list 2 points, got 3",
    ),
    "fn-points": (_congruence_obj(kind="fn", n=2), "fn congruence must list 4 points, got 3"),
    "edge-power": (
        _congruence_obj(kind="edge", points=["x", "y"]),
        "edge congruence has power 1, got 2",
    ),
    "p2-power": (_congruence_obj(power=1), "p2 congruence has power 2, got 1"),
    "zero-character": (
        _congruence_obj(character=["0", "0"]),
        "congruence character must be nonzero",
    ),
    "fn-without-n": (
        _congruence_obj(kind="fn", points=["w", "x", "y", "z"]),
        "fn congruence needs an index n",
    ),
    "fn-n0": (
        _congruence_obj(kind="fn", points=["w", "x", "y", "z"], n=0),
        "fn congruence index n must be >= 1, got 0",
    ),
    "p2-n": (_congruence_obj(n=1), "p2 congruence takes no index n"),
    "missing-key": (
        {"kind": "p2", "points": ["x", "y", "z"], "power": 2},
        "congruence is missing the key(s) 'character'",
    ),
    "unknown-key": (_congruence_obj(model="V2"), "congruence has unknown key(s) 'model'"),
    "power-string": (_congruence_obj(power="2"), "congruence 'power' must be an integer"),
    "kind-type": (_congruence_obj(kind=2), "congruence 'kind' must be a string"),
    "points-type": (
        _congruence_obj(points=["x", "y", 3]),
        "congruence 'points' must be a list of strings",
    ),
    "character-type": (
        _congruence_obj(character=[0.5, 1]),
        "congruence 'character' must be a list of rationals",
    ),
}


@pytest.mark.parametrize(
    "obj, message", list(_INVALID_CONGRUENCES.values()), ids=list(_INVALID_CONGRUENCES)
)
def test_an_invalid_congruence_is_refused(obj, message):
    with pytest.raises(ValueError) as refused:
        CongruenceConstraint.from_json_obj(obj)
    assert str(refused.value).startswith(message)


def test_each_congruence_rule_has_its_own_message():
    messages = [message for _, message in _INVALID_CONGRUENCES.values()]
    assert len(set(messages)) == len(messages)
    for kind, points, power, n in (("edge", 2, 1, None), ("p2", 3, 2, None), ("f0", 4, 2, None), ("fn", 4, 2, 3)):
        obj = _congruence_obj(kind=kind, points=["w", "x", "y", "z"][:points], power=power)
        if n is not None:
            obj["n"] = n
        assert CongruenceConstraint.from_json_obj(obj).to_json_obj() == obj


def test_datum_json_round_trip():
    datum = GkmDatum(
        rank=2,
        points=("a", "b", "c"),
        edges=(GkmEdge("a", "b", C(1, 0)), GkmEdge("b", "c", C(0, 1))),
        surfaces=(SurfaceComponent("P2", ("a", "b", "c"), ALPHA, model="V2"),),
        ordering=(QQ(2), QQ(1)),
    )
    clone = GkmDatum.from_json_obj(json.loads(datum.dumps()))
    assert clone.points == tuple(sorted(datum.points))
    assert clone.rank == datum.rank
    assert congruence_system(clone) == congruence_system(datum)
    assert clone.dumps() == GkmDatum.from_json_obj(json.loads(clone.dumps())).dumps()


def _reference_json_obj(datum: GkmDatum) -> dict:
    """The datum's JSON object, built field by field: the oracle for dumps."""

    def surface(s):
        obj = {"kind": s.kind, "points": list(s.points), "alpha": s.alpha.to_json_obj()}
        if s.n is not None:
            obj["n"] = s.n
        if s.model is not None:
            obj["model"] = s.model
        return obj

    edges = []
    for e in datum.edges:
        a, b = sorted((e.a, e.b))
        edges.append({"a": a, "b": b, "weight": e.weight.to_json_obj()})
    obj = {
        "rank": datum.rank,
        "points": sorted(datum.points),
        "edges": sorted(edges, key=lambda o: (o["a"], o["b"], o["weight"])),
        "surfaces": [surface(s) for s in sorted(datum.surfaces, key=lambda s: s.points)],
    }
    if datum.ordering is not None:
        obj["lambda"] = [str(c) for c in datum.ordering]
    return obj


# names with quotes, backslashes, control and non-ASCII characters
_NAMES = st.text(max_size=3) | st.sampled_from(
    ["x12", "x2", "é", "点", 'say "hi"', "back\\slash", "tab\t", ""]
)
_RATIONALS = st.sampled_from(["-1/2", "3", "0", "2/4", -1]) | st.fractions(max_denominator=4).map(str)


def _line(a, b, weight) -> tuple:
    """The curve an edge lies on: its two endpoints and its weight's line."""
    return frozenset((a, b)), direction(Character(weight).coords)


_SURFACE_SIZES = {"P2": 3, "F0": 4, "Fn": 4}


@st.composite
def _datum_files(draw):
    """A valid datum file with arbitrary names and rationals, parsed by
    from_json_obj; some weights are then shared as one Character object."""
    rank = draw(st.integers(1, 3))
    points = draw(st.lists(_NAMES, min_size=draw(st.integers(0, 5)), max_size=5, unique=True))
    weight = st.lists(_RATIONALS, min_size=rank, max_size=rank)
    nonzero = weight.filter(lambda w: not Character(w).is_zero())
    edges, surfaces = [], []
    if len(points) > 1:
        pairs = st.tuples(st.sampled_from(points), st.sampled_from(points)).filter(
            lambda pair: pair[0] != pair[1]
        )
        lines = set()
        for a, b in draw(st.lists(pairs, max_size=6)):  # a > b as often as a < b
            w = draw(nonzero)
            if _line(a, b, w) not in lines:  # two edges on one curve are one edge
                lines.add(_line(a, b, w))
                edges.append({"a": a, "b": b, "weight": w})
        if edges and draw(st.booleans()):  # an equal, distinct Character on another curve
            w = edges[0]["weight"]
            free = [(a, b) for a in points for b in points if a != b and _line(a, b, w) not in lines]
            if free:
                a, b = draw(st.sampled_from(free))
                edges.append({"a": a, "b": b, "weight": list(w)})
        for kind in draw(st.lists(st.sampled_from(sorted(_SURFACE_SIZES)), max_size=4)):
            if len(points) >= _SURFACE_SIZES[kind]:
                surface = {"kind": kind, "alpha": draw(nonzero)}
                surface["points"] = draw(st.permutations(points))[: _SURFACE_SIZES[kind]]
                if kind == "P2":
                    surface["model"] = draw(st.sampled_from(["V0V1", "V2"]))
                if kind == "Fn":
                    surface["n"] = draw(st.integers(1, 4))
                surfaces.append(surface)
    obj = {"rank": rank, "points": points, "edges": edges}
    if surfaces or draw(st.booleans()):
        obj["surfaces"] = surfaces
    if draw(st.booleans()):
        obj["lambda"] = draw(weight)
    datum = GkmDatum.from_json_obj(json.loads(json.dumps(obj)))
    if datum.edges and draw(st.booleans()):
        shared = datum.edges[0].weight
        edges, lines = [], set()
        for k, e in enumerate(datum.edges):
            e = e if k % 2 else replace(e, weight=shared)
            if _line(e.a, e.b, e.weight.coords) not in lines:
                lines.add(_line(e.a, e.b, e.weight.coords))
                edges.append(e)
        surfaces = [replace(s, alpha=shared) for s in datum.surfaces]
        datum = replace(datum, edges=edges, surfaces=surfaces)
    return datum


@settings(max_examples=300, deadline=None)
@given(_datum_files())
def test_datum_writer_matches_the_json_encoder(datum):
    text = datum.dumps()
    assert text == json.dumps(_reference_json_obj(datum), indent=2, sort_keys=True) + "\n"
    assert GkmDatum.from_json_obj(json.loads(text)).dumps() == text
