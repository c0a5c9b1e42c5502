"""Independent oracles for the series set-up: Chern classes, law series,
pivot solutions, inverses, logarithmic coordinates and reduction modulo
Chern classes.

Two kinds of check.  Closed forms expanded by sympy: under the additive law
e(sum chi_i l(t_i)) = sum chi_i t_i, and under the multiplicative law with
parameter b, l(u) = -log(1 - b u)/b, so e(y) = (1 - exp(-b y))/b and
chern(chi) = (1 - prod_i (1 - b t_i)^chi_i)/b.  And property tests against
reference copies of the loops the engine used before its closed forms:
Chern classes composed by Horner, pivots solved by fixed-point sweeps, the
exponential solved one composition per degree, inverses by geometric series,
reduction by substituting the pivot solution into the residual and its
pivot derivative (the shear reduction), and exact division by the shear
t_j -> t_j + phi, which splits off the quotient.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkmcobordism.coeff_series import (
    QQ,
    LazardCoefficient,
    TruncatedSeries,
    compose_univariate,
    compositional_inverse,
    series_inverse,
)
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_model import (
    GkmDatum,
    SurfaceComponent,
    check_membership,
    surface_generators,
)
from gkmcobordism.torus_ring import Character, LocalizedElement, RemainderReport, TorusRing

from conftest import divided_by_variable

LC = LazardCoefficient
TS = TruncatedSeries

# -- reference copies of the loops the closed forms replace --------------------------


def horner_chern(law, chi, order):
    """e(sum chi_i l(t_i)) by composing e with the multivariate argument."""
    rank = len(chi)
    log = law.log_series(order)
    terms = {}
    for i, c in enumerate(chi):
        if c:
            for (k,), coeff in log.terms.items():
                terms[tuple(k if j == i else 0 for j in range(rank))] = coeff.scale(c)
    return compose_univariate(law.exp_series(order), TS(rank, order, terms))


def fixed_point_phi(ring, chi):
    """The pivot solution of chern(chi)(t_j = phi) = 0 by order - 1 sweeps."""
    line = chi.primitive_direction()
    pivot = next(i for i, c in enumerate(line) if c)
    u = horner_chern(ring.law, Character(line).coords, ring.order)
    scale = -1 / QQ(line[pivot])
    linear = {
        tuple(1 if j == i else 0 for j in range(ring.rank)): LC.rational(scale * v)
        for i, v in enumerate(line)
        if v and i != pivot
    }
    phi = TS(ring.rank, ring.order, linear)
    for _ in range(ring.order - 1):
        phi = phi + u.substitute(pivot, phi).scale(scale)
    return pivot, phi


def shear_reduce_mod(ring, f, chi, power):
    """(pivot, components, certified order) of f modulo chern(chi)^power:
    f and, for power 2, its pivot derivative, with t_j -> phi substituted."""
    pivot, phi = fixed_point_phi(ring, Character(chi))
    components = [f.substitute(pivot, phi)]
    if power == 2:
        components.append(f.partial(pivot).substitute(pivot, phi))
    return pivot, components, min(f.order, ring.order) - power


def shear_divide(ring, f, chi):
    """f / chern(chi) by the shear t_j -> t_j + phi, or None when refused.

    f(t_j + phi) = t_j h + f(t_j = phi).  f is refused when f(t_j = phi) is
    nonzero below min(f.order, ring order); when it is nonzero only at that
    top degree, f truncated one order lower is divided.  Otherwise h times
    the inverse of the sheared unit chern(chi)(t_j + phi) / t_j, sheared
    back, is the quotient.  A quotient known through no degree (f known
    only through degree 0) raises ValueError.
    """
    pivot, phi = fixed_point_phi(ring, Character(chi))
    shear = TS.variable(pivot, ring.rank, f.order) + phi.truncated(f.order)
    sheared = f.substitute(pivot, shear)
    order = sheared.order
    stuck = TS(ring.rank, order, {k: c for k, c in sheared.terms.items() if not k[pivot]})
    if not stuck.is_zero_through(order - 1):
        return None
    if order == 0:
        raise ValueError("the quotient is known through no degree")
    if not stuck.is_zero():
        return shear_divide(ring, f.truncated(order - 1), chi)
    h = divided_by_variable(sheared, pivot)
    unit = ring.chern(chi).substitute(pivot, TS.variable(pivot, ring.rank, ring.order) + phi)
    quotient = h * series_inverse(divided_by_variable(unit, pivot))
    unshear = TS.variable(pivot, ring.rank, quotient.order) - phi.truncated(quotient.order)
    return quotient.substitute(pivot, unshear)


def shear_clear(ring, f, chars):
    """(quotient, None) after dividing f by every chern(chi) in turn, or
    (None, report JSON) of the shear reduction of the partial quotient
    modulo the first factor that refuses it."""
    for chi in chars:
        quotient = shear_divide(ring, f, chi)
        if quotient is None:
            pivot, components, certified = shear_reduce_mod(ring, f, chi, 1)
            report = RemainderReport(Character(chi), 1, pivot, components, certified)
            return None, report.to_json_obj()
        f = quotient
    return f, None


def degreewise_inverse(f):
    """The compositional inverse solved from the defect of e(f(u)), one
    composition per degree."""
    c1 = f.coefficient((1,)).rational_value()
    inv = {1: LC.rational(1 / c1)}
    for n in range(2, f.order + 1):
        partial = TS(1, n, {(k,): c for k, c in inv.items() if k <= n})
        defect = compose_univariate(partial, f.truncated(n)).coefficient((n,))
        if not defect.is_zero():
            inv[n] = defect.scale(-(QQ(1) / c1**n))
    return TS(1, f.order, {(k,): c for k, c in inv.items()})


def geometric_inverse(w):
    """1/w as (1/c) sum_k (1 - w/c)^k, one full product per degree."""
    c = w.constant_term().rational_value()
    one = TS.one(w.rank, w.order)
    rest = one - w.scale(QQ(1) / c)
    acc = one
    for _ in range(w.order):
        acc = acc * rest + one
    return acc.scale(QQ(1) / c)


# -- strategies ------------------------------------------------------------------------

small_rationals = st.builds(QQ, st.integers(-3, 3), st.integers(1, 3))
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def laws(draw, max_order=6):
    """A law at a drawn order: universal, additive, multiplicative or custom."""
    order = draw(st.integers(1, max_order))
    kind = draw(st.sampled_from(["universal", "additive", "multiplicative", "custom"]))
    if kind == "universal":
        return FormalGroupLaw.universal(order)
    if kind == "additive":
        return FormalGroupLaw.additive(order)
    if kind == "multiplicative":
        return FormalGroupLaw.multiplicative(draw(nonzero_rationals), order)
    values = draw(st.lists(small_rationals, min_size=order, max_size=order))
    return FormalGroupLaw.with_assignment(order, dict(enumerate(values, start=1)))


@st.composite
def characters(draw, rank):
    coords = draw(st.lists(small_rationals, min_size=rank, max_size=rank))
    return tuple(coords)


@st.composite
def law_and_character(draw, max_rank=3):
    rank = draw(st.integers(1, max_rank))
    law = draw(laws(max_order=6 if rank < 3 else 5))
    return law, draw(characters(rank))


# -- property tests against the reference loops ---------------------------------------


@settings(max_examples=60, deadline=None)
@given(law_and_character())
def test_chern_matches_horner_composition(case):
    law, chi = case
    ring = TorusRing(law, len(chi))
    assert ring.chern(chi) == horner_chern(law, chi, law.order)


@settings(max_examples=40, deadline=None)
@given(law_and_character(), st.sampled_from([(1, 2), (3, 2), (-1, 1), (2, 3)]))
def test_rho_factor_matches_rho_of_the_chern_class(case, ratio):
    law, chi = case
    if not any(chi):
        return
    ring = TorusRing(law, len(chi))
    n, m = ratio
    expected = law.rho(n, m, horner_chern(law, chi, law.order))
    assert ring.rho_factor(n, m, chi) == expected


@settings(max_examples=40, deadline=None)
@given(laws(max_order=8), st.data())
def test_compositional_inverse_matches_degreewise_solve(law, data):
    f = law.log_series()
    c1 = data.draw(nonzero_rationals)
    f = f.scale(c1) if data.draw(st.booleans()) else f
    e = compositional_inverse(f)
    assert e == degreewise_inverse(f)
    assert compose_univariate(e, f) == TS.variable(0, 1, f.order)


@st.composite
def units(draw):
    """A series with a nonzero rational constant term, ranks 1-3, orders 0-8."""
    rank = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    rationals = st.builds(QQ, st.integers(-50, 50), st.integers(1, 12))
    m_monomials = st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    )
    coefficients = st.dictionaries(m_monomials, rationals, max_size=2).map(
        lambda d: LC({m: q for m, q in d.items() if q})
    )
    exponents = st.tuples(*[st.integers(0, order)] * rank)
    drawn = draw(st.dictionaries(exponents, coefficients, max_size=6))
    terms = {k: c for k, c in drawn.items() if 0 < sum(k) <= order and not c.is_zero()}
    constant = draw(st.builds(QQ, st.integers(1, 30), st.integers(1, 30)))
    terms[(0,) * rank] = LC.rational(constant * draw(st.sampled_from([1, -1])))
    return TS(rank, order, terms)


@settings(max_examples=80, deadline=None)
@given(units())
def test_series_inverse_is_exact_and_matches_geometric_series(w):
    inv = series_inverse(w)
    assert inv.order == w.order
    assert w * inv == TS.one(w.rank, w.order)
    assert inv == geometric_inverse(w)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_series_inverse_low_orders(rank):
    for order in (0, 1):
        w = TS.constant(QQ(-3, 7), rank, order) + TS.variable(0, rank, order).scale(5)
        inv = series_inverse(w)
        assert inv.order == order
        assert w * inv == TS.one(rank, order)


def test_log_powers_and_pair_table_match_direct_composition():
    law = FormalGroupLaw.universal(7)
    log = law.log_series()
    for a, row in enumerate(law.log_powers()):
        assert row == log**a
    u, v = TS.variable(0, 2, 7), TS.variable(1, 2, 7)
    lu, lv = compose_univariate(log, u), compose_univariate(log, v)
    assert law.pair_table() == compose_univariate(law.exp_series(), lu + lv)


def test_universal_chern_is_a_homomorphism_at_rank_3():
    ring = TorusRing(FormalGroupLaw.universal(5), 3)
    cases = [
        ((1, -1, 0), (0, 1, 2)),
        ((QQ(1, 2), 1, -1), (1, QQ(-1, 3), 2)),
        ((2, 1, 1), (-1, 0, 1)),
    ]
    for a, b in cases:
        total = tuple(x + y for x, y in zip(a, b))
        assert ring.law.sum(ring.chern(a), ring.chern(b)) == ring.chern(total)


@st.composite
def series(draw, rank, order):
    """A series with coefficients in Q[m1, m2], constant term included."""
    rationals = st.builds(QQ, st.integers(-9, 9), st.integers(1, 4))
    m_monomials = st.dictionaries(st.integers(1, 2), st.integers(1, 2), max_size=1).map(
        lambda d: tuple(sorted(d.items()))
    )
    coefficients = st.dictionaries(m_monomials, rationals, min_size=1, max_size=2).map(
        lambda d: LC({m: q for m, q in d.items() if q})
    )
    exponents = st.tuples(*[st.integers(0, order)] * rank)
    drawn = draw(st.dictionaries(exponents, coefficients, max_size=5))
    return TS(rank, order, {k: c for k, c in drawn.items() if sum(k) <= order and not c.is_zero()})


@settings(max_examples=50, deadline=None)
@given(law_and_character(), st.data())
def test_log_coordinates_round_trip(case, data):
    law, chi = case
    ring = TorusRing(law, len(chi))
    f = data.draw(series(ring.rank, data.draw(st.integers(0, law.order))))
    g = ring.to_log(f)
    assert g.order == f.order
    assert ring.from_log(g) == f
    # a Chern class is e of a linear form in logarithmic coordinates
    linear = TS(ring.rank, law.order, {
        tuple(int(i == j) for j in range(ring.rank)): LC.rational(c) for i, c in enumerate(chi) if c
    })  # fmt: skip
    assert ring.to_log(ring.chern(chi)) == compose_univariate(law.exp_series(), linear)


def assert_reports_agree(report, reference):
    pivot, components, certified = reference
    passed = all(c.is_zero_through(certified) for c in components)
    assert (report.pivot, report.certified_order, report.is_zero) == (pivot, certified, passed)
    if not passed:
        assert report.components == components


@settings(max_examples=80, deadline=None)
@given(law_and_character(), st.sampled_from([1, 2]), st.booleans(), st.data())
def test_reduce_mod_matches_the_shear_reduction(case, power, member, data):
    law, chi = case
    if not any(chi):
        return
    ring = TorusRing(law, len(chi))
    f = data.draw(series(ring.rank, data.draw(st.integers(0, law.order + 2))))
    if member:
        f = f * ring.chern(chi) ** power
    report = ring.reduce_mod(f, chi, power)
    assert_reports_agree(report, shear_reduce_mod(ring, f, chi, power))
    if member:
        assert report.is_zero


@st.composite
def division_cases(draw, max_factors=3):
    """(ring, f, characters): f at an order below, at or above the ring
    order; a member (1 + q) * prod chern(chi), such a product over some of
    the characters, or any series."""
    rank = draw(st.integers(1, 3))
    law = draw(laws(max_order=6 if rank < 3 else 5))
    nonzero = characters(rank).filter(any)
    chars = draw(st.lists(nonzero, min_size=1, max_size=max_factors))
    ring = TorusRing(law, rank)
    f = draw(series(rank, draw(st.integers(0, law.order + 2))))
    shape = draw(st.sampled_from(["member", "some factors", "any"]))
    if shape == "member":
        f = (f + 1) * ring.chern_product(chars)
    elif shape == "some factors":
        f = (f + 1) * ring.chern_product([chi for chi in chars if draw(st.booleans())])
    return ring, f, chars


NO_DEGREE = "refused: the quotient would be known through no degree"


def outcome(division, *args):
    """division(*args), or NO_DEGREE when it refuses a quotient known
    through no degree."""
    try:
        return division(*args)
    except ValueError as exc:
        if "no degree" not in str(exc):
            raise
        return NO_DEGREE


@settings(max_examples=120, deadline=None)
@given(division_cases(max_factors=1))
# nonzero on the hyperplane only at the top degree 1: the quotient would be
# known through no degree, so both divisions refuse it
@example((TorusRing(FormalGroupLaw.universal(1), 3), TS.variable(0, 3, 1), [(1, 0, 1)]))
def test_divide_exact_matches_the_shear_division(case):
    ring, f, chars = case
    expected = outcome(shear_clear, ring, f, chars)
    if expected == NO_DEGREE:
        assert outcome(ring.divide_exact, f, chars[0]) == NO_DEGREE
        return
    quotient, report = ring.divide_exact(f, chars[0])
    expected, expected_report = expected
    assert quotient == expected
    if expected is None:
        assert report.to_json_obj() == expected_report
    else:
        assert report is None


@settings(max_examples=100, deadline=None)
@given(division_cases())
def test_clear_denominators_matches_iterated_shear_division(case):
    ring, f, chars = case
    elem = LocalizedElement(f, tuple(Character(c) for c in chars))
    expected = outcome(shear_clear, ring, f, sorted(chars))
    if expected == NO_DEGREE:
        assert outcome(ring.clear_denominators, elem) == NO_DEGREE
        return
    result = ring.clear_denominators(elem)
    expected, expected_report = expected
    assert result.series == expected
    if expected is None:
        _, report = result.obstruction
        assert report.to_json_obj() == expected_report
        assert result.certified_order == report.certified_order
    else:
        assert result.certified_order == expected.order


@pytest.mark.parametrize(
    "law", [FormalGroupLaw.universal(5), FormalGroupLaw.multiplicative(QQ(-2, 3), 5)]
)
@pytest.mark.parametrize(
    "chi", [(2, -4), (QQ(1, 2), QQ(3, 2)), (0, 3), (-1, 1), (0, QQ(-2, 3), 1), (2, 0, -6)]
)
def test_reduce_mod_non_primitive_and_rational_characters(law, chi):
    ring = TorusRing(law, len(chi))
    t = [ring.variable(i) for i in range(ring.rank)]
    m1 = TS.constant(LC.generator(1), ring.rank, 7)
    # a series finer than the ring: its order 7 is above the ring order 5
    finer = (t[-1] * t[0] + m1 * t[0] * t[0] * t[-1]).at_order(7)
    finer = finer + TS.constant(QQ(3, 4), ring.rank, 7)
    for f in (ring.one(), t[0] * t[-1], ring.chern(chi) * (t[0] + ring.one()), finer):
        for power in (1, 2):
            reference = shear_reduce_mod(ring, f, chi, power)
            assert_reports_agree(ring.reduce_mod(f, chi, power), reference)
    assert ring.reduce_mod(ring.chern(chi) ** 2 * t[-1], chi, 2).is_zero


SURFACE = "w x y z".split()


@settings(max_examples=40, deadline=None)
@given(laws(max_order=6), st.sampled_from(["P2:V0V1", "P2:V2", "Fn:1", "Fn:2", "Fn:3"]), st.data())
def test_surface_congruences_match_their_residuals(law, kind, data):
    ring = TorusRing(law, 2)
    alpha = Character(data.draw(st.sampled_from([(2, 0), (0, 1), (1, -1), (QQ(1, 2), 1)])))
    name, tag = kind.split(":")
    if name == "P2":
        surface = SurfaceComponent("P2", tuple(SURFACE[1:]), alpha, model=tag)
    else:
        surface = SurfaceComponent("Fn", tuple(SURFACE), alpha, n=int(tag))
    values = {p: ring.zero() for p in surface.points}
    for generator in surface_generators(surface, ring):
        coeff = data.draw(series(2, law.order))
        values = {p: values[p] + coeff * generator[p] for p in values}
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from(surface.points))
        values[p] = values[p] + data.draw(series(2, law.order))
    datum = GkmDatum(rank=2, points=surface.points, edges=(), surfaces=(surface,))
    results = check_membership(datum, values, ring).results
    surface_results = [r for r in results if r.constraint.power == 2]
    assert len(surface_results) == 1
    constraint, report = surface_results[0].constraint, surface_results[0].report
    residual = constraint.residual(values, ring)
    assert_reports_agree(report, shear_reduce_mod(ring, residual, alpha.coords, 2))
    one_point = ring.reduce_mod(residual, alpha, 2)
    assert one_point.is_zero == report.is_zero
    if not report.is_zero:
        assert one_point.components == report.components


# -- sympy closed forms --------------------------------------------------------------

ORACLE_ORDER = 5
BETAS = (1, QQ(-2, 3))


def sympy_series(expr, symbols, order):
    """Expand expr in the given symbols through total degree `order`."""
    s = sp.Symbol("s")
    scaled = expr.subs({x: s * x for x in symbols}, simultaneous=True)
    expanded = sp.expand(sp.series(scaled, s, 0, order + 1).removeO().subs(s, 1))
    terms = {}
    if expanded != 0:
        for monomial, c in sp.Poly(expanded, *symbols).terms():
            terms[tuple(monomial)] = LC.rational(QQ(int(c.p), int(c.q)))
    return TS(len(symbols), order, terms)


def law_for(beta, order):
    if beta is None:
        return FormalGroupLaw.additive(order)
    return FormalGroupLaw.multiplicative(beta, order)


def chern_closed_form(beta, chi, symbols):
    if beta is None:
        return sum((sp.Rational(str(c)) * t for c, t in zip(chi, symbols)), sp.Integer(0))
    b = sp.Rational(str(beta))
    product = sp.Integer(1)
    for c, t in zip(chi, symbols):
        product *= (1 - b * t) ** sp.Rational(str(c))
    return (1 - product) / b


ORACLE_CHARACTERS = [
    (3,),
    (QQ(-1, 2),),
    (1, -1),
    (QQ(2, 3), 2),
    (0, QQ(-3, 2)),
    (1, QQ(1, 2), -2),
]


@pytest.mark.parametrize("beta", (None,) + BETAS)
@pytest.mark.parametrize("chi", ORACLE_CHARACTERS)
def test_chern_matches_sympy_closed_form(beta, chi):
    symbols = sp.symbols(f"t1:{len(chi) + 1}")
    ring = TorusRing(law_for(beta, ORACLE_ORDER), len(chi))
    expected = sympy_series(chern_closed_form(beta, chi, symbols), symbols, ORACLE_ORDER)
    assert ring.chern(chi) == expected


@pytest.mark.parametrize("beta", (None,) + BETAS)
def test_law_series_match_sympy_closed_forms(beta):
    x = sp.Symbol("x")
    law = law_for(beta, ORACLE_ORDER)
    b = None if beta is None else sp.Rational(str(beta))

    def power(q):  # [q]x = e(q l(x))
        if b is None:
            return sp.Rational(str(q)) * x
        return (1 - (1 - b * x) ** sp.Rational(str(q))) / b

    def expand(expr, order=ORACLE_ORDER):
        return sympy_series(expr, (x,), order)

    exp_form = x if b is None else (1 - sp.exp(-b * x)) / b
    assert law.exp_series() == expand(exp_form)
    for n in (2, -3):
        assert law.multiple_series(n) == expand(power(n))
    for m in (2, 3):
        assert law.divide_series(m) == expand(power(Fraction(1, m)))
    for n, m in ((3, 2), (-1, 3)):
        # rho_{n/m} x = [n/m]x / x, one order past the quotient's order
        shifted = expand(power(Fraction(n, m)), ORACLE_ORDER + 1)
        assert law.rho_series(n, m) == divided_by_variable(shifted, 0)
