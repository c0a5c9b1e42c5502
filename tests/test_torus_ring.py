import random

import pytest
from gkmcobordism.coeff_series import QQ, direction

from gkmcobordism.coeff_series import LazardCoefficient, TruncatedSeries
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.torus_ring import Character, LocalizedElement, TorusRing

from conftest import random_character, random_series

LC = LazardCoefficient
TS = TruncatedSeries


@pytest.fixture(scope="module")
def ring():
    return TorusRing(FormalGroupLaw.universal(8), 2)


def C(*coords):
    return Character(coords)


def test_character_basics():
    ch = C(QQ(1, 2), -1)
    assert not ch.is_zero()
    assert C(0, 0).is_zero()
    assert (ch + (-ch)).is_zero()
    assert ch.scale(2) == C(1, -2)
    assert direction(ch.coords) == (1, -2)
    assert direction(C(-2, 4).coords) == (1, -2)
    assert direction(C(-1, 2).coords) == (1, -2)
    assert Character.from_json_obj(ch.to_json_obj()) == ch
    with pytest.raises(ValueError):
        direction(C(0, 0).coords)


def test_values_of_another_rank_are_refused(ring):
    with pytest.raises(ValueError, match="^character rank does not match the ring rank$"):
        ring.chern((1, 2, 3))
    rank3 = TS.variable(0, 3, 8)
    with pytest.raises(ValueError, match="^series rank does not match the ring rank$"):
        ring.reduce_mod(rank3, C(1, 0))
    with pytest.raises(ValueError, match="^series rank does not match the ring rank$"):
        ring.clear_denominators(LocalizedElement(rank3, (C(1, 0),)))


def test_chern_basis_and_zero(ring):
    assert ring.chern(C(0, 0)).is_zero()
    assert ring.chern(C(1, 0)) == ring.variable(0)
    assert ring.chern(C(0, 1)) == ring.variable(1)
    assert ring.chern(C(3, 0)) == ring.law.multiple(3, ring.variable(0))


def test_chern_is_fgl_homomorphism(ring):
    rng = random.Random(21)
    for _ in range(4):
        chi = random_character(rng, 2)
        mu = random_character(rng, 2)
        assert ring.chern(chi + mu) == ring.law.sum(ring.chern(chi), ring.chern(mu))
        assert ring.chern(-chi) == ring.law.inverse(ring.chern(chi))


def test_chern_of_difference_factors(ring):
    # e(l(t1) - l(t2)) = (t1 - t2)(1 + 2 m1 t2 + ...)
    diff = ring.chern(C(1, -1))
    t1, t2 = ring.variable(0), ring.variable(1)
    unit_start = ring.one() + (t2 * TS.constant(LC.generator(1, scale=2), 2, 8))
    assert diff.truncated(2) == ((t1 - t2) * unit_start).truncated(2)
    # exact divisibility by the linear form: vanishing on t1 = t2
    assert diff.substitute(0, t2).is_zero()
    quotient, remainder = ring.divide_exact(diff, C(1, -1))
    assert remainder is None
    assert quotient == ring.one().truncated(quotient.order)


def test_reduce_mod_examples(ring):
    t1, t2 = ring.variable(0), ring.variable(1)
    assert ring.reduce_mod(t1 - t2, C(1, -1), 1).is_zero
    report = ring.reduce_mod(ring.one(), C(1, 0), 1)
    assert not report.is_zero
    assert report.components[0] == ring.one()
    report2 = ring.reduce_mod(t1, C(1, 0), 2)
    assert not report2.is_zero
    assert report2.components[1].constant_term() == LC.one()
    half = ring.law.divide(2, ring.chern(C(1, 0)))
    assert ring.reduce_mod(half, C(1, 0), 1).is_zero
    assert not ring.reduce_mod(half, C(1, 0), 2).is_zero
    with pytest.raises(ValueError):
        ring.reduce_mod(t1, C(0, 0), 1)
    with pytest.raises(ValueError):
        ring.reduce_mod(t1, C(1, 0), 3)


def test_reduce_mod_ideal_membership(ring):
    rng = random.Random(22)
    for power in (1, 2):
        chi = random_character(rng, 2)
        f = random_series(rng, 2, 8, terms=3)
        member = f * ring.chern(chi) ** power
        assert ring.reduce_mod(member, chi, power).is_zero
    assert ring.reduce_mod(ring.chern(C(1, 1)), C(2, 2), 1).is_zero


def test_rho_identity_in_ring(ring):
    rng = random.Random(23)
    for n, m in ((1, 2), (3, 2), (-3, 2), (2, 1)):
        chi = random_character(rng, 2)
        lhs = ring.rho_factor(n, m, chi) * ring.chern(chi)
        assert lhs == ring.chern(chi.scale(QQ(n, m)))


def test_divide_exact_and_failures(ring):
    t1 = ring.variable(0)
    quotient, remainder = ring.divide_exact(t1 * t1, C(1, 0))
    assert remainder is None and quotient == t1.truncated(7)
    failed, report = ring.divide_exact(ring.one(), C(1, 0))
    assert failed is None and not report.is_zero


def test_certified_order_is_capped_by_the_ring_order():
    # phi is solved only to the ring order, so a finer f certifies no more.
    small = TorusRing(FormalGroupLaw.universal(4), 2)
    f = TS.monomial((0, 6), 1, 2, 10)
    report = small.reduce_mod(f, C(1, 0), 1)
    assert report.certified_order == 3
    assert small.reduce_mod(f, C(1, 0), 2).certified_order == 2
    g = f + TS.monomial((0, 2), 1, 2, 10)
    failed, report = small.divide_exact(g, C(1, 0))
    assert failed is None and not report.is_zero
    assert report.certified_order == 3
    cleared = small.clear_denominators(LocalizedElement(g, (C(1, 0),)))
    assert not cleared.ok and cleared.certified_order == 3


def test_divide_exact_refuses_exactly_when_its_report_fails():
    # t2^4 at order 4 is nonzero on t1 = 0 only at the top degree: the
    # report, certified through 3, passes, so f truncated at order 3 is
    # divided.
    small = TorusRing(FormalGroupLaw.universal(4), 2)
    f = TS.monomial((0, 4), 1, 2, 4)
    assert small.reduce_mod(f, C(1, 0), 1).is_zero
    quotient, report = small.divide_exact(f, C(1, 0))
    assert report is None and quotient == TS.zero(2, 2)
    cleared = small.clear_denominators(LocalizedElement(f, (C(1, 0),)))
    assert cleared.ok and cleared.certified_order == 2


def test_clear_denominators(ring):
    t1 = ring.variable(0)
    ok = ring.clear_denominators(LocalizedElement(t1 * t1, (C(1, 0),)))
    assert ok.ok and ok.series == t1.truncated(7)
    bad = ring.clear_denominators(LocalizedElement(ring.one(), (C(1, 0),)))
    assert not bad.ok
    assert bad.obstruction.character == C(1, 0)


def test_localized_arithmetic(ring):
    rng = random.Random(24)
    a = random_series(rng, 2, 8, terms=3)
    u = C(1, 0)
    frac = LocalizedElement(a, (u,))
    total = ring.loc_add(frac, -frac)
    assert total.numerator.is_zero()
    # common-factor cancellation under cross-multiplication
    v = C(0, 1)
    x = LocalizedElement(a, (u,))
    y = LocalizedElement(a * ring.chern(v), (u, v))
    assert ring.loc_eq(x, y)
    # 1/c * c = 1
    inv = LocalizedElement(ring.one(), (u,))
    prod = LocalizedElement(inv.numerator * ring.chern(u), inv.denominator)
    assert ring.loc_eq(prod, LocalizedElement(ring.one(), ()))
    with pytest.raises(ValueError):
        LocalizedElement(a, (C(0, 0),))


def test_loc_eq_is_equivalence(ring):
    rng = random.Random(25)
    a = random_series(rng, 2, 8, terms=2)
    u, v = C(1, 0), C(0, 1)
    samples = [
        LocalizedElement(a, (u,)),
        LocalizedElement(a * ring.chern(v), (u, v)),
        LocalizedElement(a * ring.chern(u), (u, u)),
    ]
    for s in samples:
        assert ring.loc_eq(s, s)
    assert ring.loc_eq(samples[0], samples[1])
    assert ring.loc_eq(samples[1], samples[0])
    # transitivity on the sample chain
    if ring.loc_eq(samples[0], samples[1]) and ring.loc_eq(samples[1], samples[2]):
        assert ring.loc_eq(samples[0], samples[2])


def test_chern_cache_grows_once_per_new_character():
    # bench/spans.py tells a computed Chern class from a hit by len(ring._chern)
    ring = TorusRing(FormalGroupLaw.universal(5), 2)
    before = len(ring._chern)
    first = ring.chern(C(3, -2))
    assert len(ring._chern) == before + 1
    assert ring.chern(C(3, -2)) is first
    assert ring.chern((3, -2)) is first
    assert len(ring._chern) == before + 1
