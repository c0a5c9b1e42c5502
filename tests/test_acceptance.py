"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact rational arithmetic; every identity is checked through
the stated truncation order (certified orders are reported where division
reduces them).  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from gkmcobordism.coeff_series import QQ

from gkmcobordism.coeff_series import (
    LazardCoefficient,
    TruncatedSeries,
    compose_univariate,
)
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_datum import (
    CongruenceConstraint,
    SurfaceComponent,
    congruence_system,
    congruence_system_json,
)
from gkmcobordism.gkm_model import (
    GkmDatum,
    check_membership,
    reconstruct,
    surface_decompose,
    surface_generators,
)
from gkmcobordism.horospherical import PasquierTriple, build_gkm, surface_scan
from gkmcobordism.multiplicities import (
    load_ig25_resolution,
    load_ig25_subvarieties,
    load_ig25_tangent,
    point_class,
    singular_class_pullback,
    subvariety_class,
)
from gkmcobordism.root_flag import enumerate_curves, root_system
from gkmcobordism.torus_ring import Character, LocalizedElement, TorusRing
from gkmcobordism import cli

ROOT = Path(__file__).resolve().parent.parent
ORDER = 8

TS = TruncatedSeries


def C(*coords):
    return Character(coords)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def law():
    return FormalGroupLaw.universal(ORDER)


@pytest.fixture(scope="module")
def ring(law):
    return TorusRing(law, 2)


@pytest.fixture(scope="module")
def ig25_datum():
    return build_gkm(PasquierTriple(family=3, n=2, m=2))


def test_criterion_1_fgl_axioms(law):
    start = time.monotonic()
    u1 = TS.variable(0, 3, ORDER)
    u2 = TS.variable(1, 3, ORDER)
    u3 = TS.variable(2, 3, ORDER)
    # unit
    assert law.sum(u1, TS.zero(3, ORDER)) == u1
    assert law.sum(TS.zero(3, ORDER), u1) == u1
    # commutativity, both on the expansion table and on generic arguments
    table = law.pair_table()
    assert all(table.coefficient((j, i)) == c for (i, j), c in table.terms.items())
    s = law.sum(u1, u2) + u3
    t = law.sum(u2, u3)
    assert law.sum(s, t) == law.sum(t, s)
    # three-variable associativity through order 8
    left = law.sum(u1, law.sum(u2, u3))
    right = law.sum(law.sum(u1, u2), u3)
    assert left == right
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"formal group law axioms through order {ORDER} in {elapsed:.2f}s")


def test_criterion_2_division_inverts_multiples(law):
    u = TS.variable(0, 1, ORDER)
    for b in (2, 3, 4):
        g = law.divide_series(b)  # e(l(x)/b)
        assert compose_univariate(g, law.multiple(b, u)) == u
        assert law.multiple(b, compose_univariate(g, u)) == u
    report(2, "g([b]u) = u for b in {2, 3, 4} through order 8")


def test_criterion_3_rho_consistency(ring):
    rng = random.Random(33)
    pairs = ((1, 2), (3, 2), (-3, 2), (2, 1))
    for n, m in pairs:
        for _ in range(3):
            chi = Character(
                (
                    QQ(rng.randint(-3, 3), rng.choice([1, 2])),
                    QQ(rng.randint(-3, 3), rng.choice([1, 2])),
                )
            )
            if chi.is_zero():
                chi = C(1, QQ(1, 2))
            lhs = ring.rho_factor(n, m, chi) * ring.chern(chi)
            assert lhs == ring.chern(chi.scale(QQ(n, m)))
    additive = TorusRing(FormalGroupLaw.additive(ORDER), 2)
    for n, m in pairs:
        rho = additive.rho_factor(n, m, C(1, -1))
        assert rho == TS.constant(QQ(n, m), 2, ORDER)
    report(3, "rho_(n/m) consistency for (1,2), (3,2), (-3,2), (2,1); additive constants exact")


def _random_low_degree_series(rng, order=ORDER):
    out = TS.zero(2, order)
    for _ in range(3):
        exps = (rng.randint(0, 2), rng.randint(0, 1))
        if sum(exps) > 3:
            continue
        coeff = LazardCoefficient.rational(QQ(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.4:
            coeff = coeff + LazardCoefficient.generator(rng.randint(1, 2))
        out = out + TS.monomial(exps, coeff, 2, order)
    return out


def test_criterion_4_surface_generator_tables(ring):
    start = time.monotonic()
    alpha = C(2, 0)
    kinds = [
        SurfaceComponent("P2", ("x", "y", "z"), alpha, model="V0V1"),
        SurfaceComponent("P2", ("x", "y", "z"), alpha, model="V2"),
        SurfaceComponent("F0", ("w", "x", "y", "z"), alpha),
        SurfaceComponent("Fn", ("w", "x", "y", "z"), alpha, n=1),
        SurfaceComponent("Fn", ("w", "x", "y", "z"), alpha, n=2),
        SurfaceComponent("Fn", ("w", "x", "y", "z"), alpha, n=3),
        SurfaceComponent("Fn", ("w", "x", "y", "z"), alpha, n=4),
    ]
    rng = random.Random(44)
    for surface in kinds:
        datum = GkmDatum(rank=2, points=surface.points, edges=(), surfaces=(surface,))
        generators = surface_generators(surface, ring)
        for gen in generators:
            assert check_membership(datum, gen, ring).is_member
        for _ in range(50):
            coeffs = [_random_low_degree_series(rng) for _ in generators]
            values = reconstruct(surface, coeffs, ring)
            decomposition = surface_decompose(surface, values, ring)
            # low-degree coefficients are recovered exactly; re-embedding them
            # at the full order makes the round trip exact through order 8
            lifted = [c.at_order(ORDER) for c in decomposition.coefficients]
            assert lifted == coeffs
            rebuilt = reconstruct(surface, lifted, ring)
            for p in surface.points:
                assert rebuilt[p] == values[p]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"generator tables and 50 decompositions per kind in {elapsed:.1f}s")


def test_criterion_5_chow_reduction():
    additive = TorusRing(FormalGroupLaw.additive(ORDER), 2)
    alpha = C(2, 0)
    rng = random.Random(55)
    values = {
        p: _random_low_degree_series(rng) for p in ("w", "x", "y", "z")
    }
    half = TS.constant(QQ(1, 2), 2, ORDER)
    assert additive.rho_factor(1, 2, alpha) == half
    p2 = CongruenceConstraint("p2", ("x", "y", "z"), alpha, 2)
    linear = (values["x"] - values["y"]) + half * (values["z"] - values["x"])
    assert p2.residual(values, additive) == linear
    for n in (1, 2, 3, 4):
        fn = CongruenceConstraint("fn", ("w", "x", "y", "z"), alpha, 2, n=n)
        assert additive.rho_factor(n, 2, alpha) == TS.constant(QQ(n, 2), 2, ORDER)
        assert additive.rho_factor(-n, 2, alpha) == TS.constant(QQ(-n, 2), 2, ORDER)
        linear = TS.constant(QQ(n, 2), 2, ORDER) * (values["y"] - values["z"]) + TS.constant(
            QQ(-n, 2), 2, ORDER
        ) * (values["w"] - values["x"])
        assert fn.residual(values, additive) == linear
    report(5, "additive specialization turns the surface conditions into linear congruences")


def test_criterion_6_ig25_end_to_end(tmp_path, ig25_datum, capsys):
    datum_path = tmp_path / "ig25.json"
    code = cli.main(
        ["horo", "build", "--family", "3", "--n", "2", "--m", "2", "-o", str(datum_path)]
    )
    capsys.readouterr()
    assert code == 0
    datum = GkmDatum.from_json_obj(json.loads(datum_path.read_text()))
    assert datum.points == ("x12", "x13", "x14", "x23", "x25", "x34", "x35", "x45")
    assert "x15" not in datum.points and "x24" not in datum.points

    built = congruence_system_json(congruence_system(datum))
    raw = json.loads((ROOT / "fixtures" / "ig25_congruences.json").read_text())
    fixture = [CongruenceConstraint.from_json_obj(obj) for obj in raw]
    assert sum(1 for c in fixture if c.kind == "edge") == 16
    assert sum(1 for c in fixture if c.kind == "p2") == 4
    canonical = congruence_system_json(sorted(fixture, key=lambda c: c.sort_key()))
    assert built == canonical
    report(6, "IG(2,5) build: 8 points, 16 + 4 congruences, byte-equal to the fixture")


def test_criterion_7_g2_flag_curves():
    g2 = root_system("G2")
    points = g2.weyl_group.cosets({1})
    curves = enumerate_curves(g2, {1})
    assert len(points) == 6
    assert len(curves) == 15
    multiset = Counter(c.total_degree for c in curves)
    assert multiset == {QQ(1): 6, QQ(3): 6, QQ(2): 3}
    report(7, "G2 quadric: 6 fixed points, 15 curves, degrees {1x6, 3x6, 2x3}")


def test_criterion_8_multiplicity_tables(ring, ig25_datum):
    tangent = load_ig25_tangent()
    displayed_points = {
        "x45": [(-1, -1), (0, -2), (0, -1), (-2, 0), (-1, 0)],
        "x35": [(0, -1), (0, 1), (-2, 0), (-1, -1), (-1, 1)],
        "x34": [(-1, 0), (1, 0), (-1, -1), (0, -2), (1, -1)],
        "x25": [(0, 1), (0, 2), (-2, 0), (-1, 0), (-1, 1)],
        "x23": [(-1, 1), (0, 2), (1, 1), (-1, 0), (1, 0)],
        "x14": [(1, -1), (1, 0), (2, 0), (0, -2), (0, -1)],
        "x13": [(1, -1), (1, 1), (2, 0), (0, -1), (0, 1)],
        "x12": [(1, 0), (1, 1), (2, 0), (0, 1), (0, 2)],
    }
    for point, factors in displayed_points.items():
        values = point_class(ring, point, tangent)
        assert values[point] == ring.chern_product([C(*f) for f in factors])
        for other in tangent.points():
            if other != point:
                assert values[other].is_zero()
        assert check_membership(ig25_datum, values, ring).is_member

    subs = load_ig25_subvarieties()
    displayed_subs = {
        "X0": {"x12": [(1, 0), (1, 1), (2, 0), (0, 1), (0, 2)]},
        "X1": {
            "x12": [(1, 0), (1, 1), (2, 0), (0, 2)],
            "x13": [(1, -1), (1, 1), (2, 0), (0, 1)],
        },
        "X2": {
            "x12": [(1, 0), (1, 1), (2, 0)],
            "x13": [(1, -1), (1, 1), (2, 0)],
            "x14": [(1, -1), (1, 0), (2, 0)],
        },
        "X2p": {
            "x12": [(1, 1), (2, 0), (0, 2)],
            "x13": [(1, 1), (2, 0), (0, 1)],
            "x23": [(1, 1), (1, 0), (0, 2)],
        },
    }
    for name, table in displayed_subs.items():
        values = subvariety_class(ring, subs[name], all_points=ig25_datum.points)
        for point, factors in table.items():
            assert values[point] == ring.chern_product([C(*f) for f in factors])
        for point in ig25_datum.points:
            if point not in table:
                assert values[point].is_zero()
        assert check_membership(ig25_datum, values, ring).is_member
    report(8, "eight point classes and X0, X1, X2, X2' match the tables and are members")


def test_criterion_9_x4tilde_pullback():
    work_order = 14  # six denominator factors: certifies the quotient through 8
    tangent = load_ig25_tangent()
    point, fiber = load_ig25_resolution("x4tilde")
    _, fiber_star = load_ig25_resolution("x4tilde_star")

    universal = TorusRing(FormalGroupLaw.universal(work_order), 2)
    result = singular_class_pullback(universal, point, tangent, fiber)

    def displayed_terms(ring):
        def term(nums, dens):
            return LocalizedElement(
                ring.chern_product([C(*x) for x in nums]), tuple(C(*x) for x in dens)
            )

        return [
            term([(1, 0), (1, 1), (0, 1), (0, 2)], [(-1, 0), (-1, 1)]),
            term([(1, 1), (2, 0), (0, 1), (0, 2)], [(1, 0), (-1, 1)]),
            term([(1, 0), (1, 1), (2, 0), (0, 1)], [(0, -1), (1, -1)]),
            term([(1, 0), (1, 1), (2, 0), (0, 2)], [(0, 1), (1, -1)]),
        ]

    def key(t):
        return tuple(ch.coords for ch in t.denominator)

    mine = sorted(result.terms, key=key)
    theirs = sorted(displayed_terms(universal), key=key)
    assert [t.denominator for t in mine] == [t.denominator for t in theirs]
    assert [t.numerator for t in mine] == [t.numerator for t in theirs]

    assert result.cleared.ok
    assert result.cleared.certified_order >= ORDER

    star = singular_class_pullback(universal, point, tangent, fiber_star)
    assert star.cleared.ok
    assert not result.series.agrees_through(star.series, ORDER)

    additive = TorusRing(FormalGroupLaw.additive(work_order), 2)
    add_first = singular_class_pullback(additive, point, tangent, fiber)
    add_star = singular_class_pullback(additive, point, tangent, fiber_star)
    assert add_first.cleared.ok and add_star.cleared.ok
    assert add_first.series.agrees_through(add_star.series, ORDER)
    report(
        9,
        "resolved-cone pullback: four displayed terms, denominators clear through 8, "
        "resolutions agree additively and differ universally",
    )


def test_criterion_10_surface_scans():
    none_scan = surface_scan(PasquierTriple(family=1, n=3))
    assert none_scan.kind == "none" and none_scan.root is None
    p2 = surface_scan(PasquierTriple(family=3, n=2, m=2))
    assert p2.kind == "P2" and p2.pairings == (1, 0)
    f3 = surface_scan(PasquierTriple(family=5))
    assert f3.kind == "Fn" and f3.n == 3 and f3.pairings == (1, 3)
    report(10, "surface scans: family 1 none, family 3 P2 (1,0), family 5 F3 (1,3)")
