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
pivot derivative (the shear reduction), exact division by the shear
t_j -> t_j + phi, which splits off the quotient, and the membership check's
full-order route through the logarithmic coordinates (s_route_reduce), which
read every verdict from values converted through the ring order and
converted every failing remainder back; and Chern products, with and without
a series to multiply by, against one() times each factor in turn, every
partial product through the full order.  The references compose and
substitute by a schoolbook Horner rule made of series products and sums
(conftest.horner_substitute), not by the engine's change-of-variables
routine, which a property test checks against that rule.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from gkmcobordism.coeff_series import (
    QQ,
    LazardCoefficient,
    TruncatedSeries,
    combination,
    compose_univariate,
    compositional_inverse,
    embed,
    series_inverse,
    series_powers,
)
from gkmcobordism.common import direction
from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_datum import SurfaceComponent
from gkmcobordism.gkm_model import (
    GkmDatum,
    check_membership,
    surface_generators,
)
from gkmcobordism.horospherical import PasquierTriple, build_gkm, point_weights
from gkmcobordism.multiplicities import (
    load_ig25_subvarieties,
    load_ig25_tangent,
    point_class,
    subvariety_class,
)
from gkmcobordism.torus_ring import Character, LocalizedElement, RemainderReport, TorusRing

from conftest import (
    corrupted_hyperplane_tuple,
    divided_by_variable,
    horner_compose,
    horner_substitute,
    series_power,
)

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
    return horner_compose(law.exp_series(order), TS(rank, order, terms))


def fixed_point_phi(ring, chi):
    """The pivot solution of chern(chi)(t_j = phi) = 0 by order - 1 sweeps."""
    line = direction(chi.coords)
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
        phi = phi + horner_substitute(u, pivot, phi).scale(scale)
    return pivot, phi


def shear_reduce_mod(ring, f, chi, power):
    """(pivot, components, certified order) of f modulo chern(chi)^power:
    f and, for power 2, its pivot derivative, with t_j -> phi substituted."""
    pivot, phi = fixed_point_phi(ring, Character(chi))
    components = [horner_substitute(f, pivot, phi)]
    if power == 2:
        components.append(horner_substitute(f.partial(pivot), pivot, phi))
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
    sheared = horner_substitute(f, pivot, shear)
    order = sheared.order
    stuck = TS(ring.rank, order, {k: c for k, c in sheared.terms.items() if not k[pivot]})
    if not stuck.is_zero_through(order - 1):
        return None
    if order == 0:
        raise ValueError("the quotient is known through no degree")
    if not stuck.is_zero():
        return shear_divide(ring, f.truncated(order - 1), chi)
    h = divided_by_variable(sheared, pivot)
    shift = TS.variable(pivot, ring.rank, ring.order) + phi
    unit = horner_substitute(ring.chern(chi), pivot, shift)
    quotient = h * series_inverse(divided_by_variable(unit, pivot))
    unshear = TS.variable(pivot, ring.rank, quotient.order) - phi.truncated(quotient.order)
    return horner_substitute(quotient, pivot, unshear)


def shear_clear(ring, f, chars):
    """(quotient, None) after dividing f by every chern(chi) in turn, or
    (None, report JSON) of the shear reduction of the partial quotient
    modulo the first factor that refuses it."""
    for chi in chars:
        quotient = shear_divide(ring, f, chi)
        if quotient is None:
            pivot, components, certified = shear_reduce_mod(ring, f, chi, 1)
            # held as the engine holds them: through max(certified, 0)
            components = [c.truncated(max(certified, 0)) for c in components]
            report = RemainderReport(Character(chi), 1, pivot, components, certified)
            return None, report.to_json_obj()
        f = quotient
    return f, None


def s_route_reduce(ring, values, weights, chi, power):
    """(pivot, components, certified order) of sum_P w_P values[P] modulo
    chern(chi)^power, for weights as in TorusRing.reduce_combination, by
    the full-order route: each value converted to s_i = l(t_i) through
    min(its order, ring order + power - 1), restricted to the hyperplane s_j
    = y and, for power 2, differentiated there; a failing remainder's
    derivative is divided by e'(s_j) on the hyperplane and both components
    are converted back to t."""
    chi = Character(chi)
    line = direction(chi.coords)
    pivot = next(i for i, c in enumerate(line) if c)
    rank, law = ring.rank, ring.law
    order = min(values[p].order for p, _, _ in weights)
    if any(rho is not None for _, _, rho in weights):
        order = min(order, ring.order)
    orders = [min(order, ring.order), min(max(order - 1, 0), ring.order)]
    certified = orders[0] - power
    top = ring.order + 1
    y = TS(rank, top, {
        tuple(int(i == j) for j in range(rank)): LC.rational(QQ(-c, line[pivot]))
        for i, c in enumerate(line) if c and i != pivot
    })  # fmt: skip
    ys = series_powers(y)
    slopes = [TS.zero(rank, top)] + [ys[k - 1].scale(k) for k in range(1, top + 1)]
    terms = [[], []]
    for point, sign, rho in weights:
        f = values[point]
        g = law.convert(f.truncated(min(f.order, ring.order + power - 1)), "exp")
        value = g.substitute(pivot, ys)
        q = sign if rho is None else sign * QQ(*rho)
        terms[0].append((q, value))
        if power == 2:
            terms[1].append((q, g.substitute(pivot, slopes).truncated(max(g.order - 1, 0))))
            if rho is not None:
                # h'(0) of rho_{n/m}(e(y)) = h(y), from the full rho series
                slope = law.rho_series(*rho).coefficient((1,)).scale(sign * chi.coords[pivot])
                terms[1].append((1, value.scale(slope)))
    components = [combination(terms[i], rank, orders[i]) for i in range(power)]
    if all(c.is_zero_through(certified) for c in components):
        return pivot, [TS.zero(rank, max(certified, 0))] * power, certified
    if power == 2:
        unit = series_inverse(law.exp_series(orders[1] + 1).partial(0))
        components[1] = components[1] * embed(unit, pivot, rank).substitute(pivot, ys)
    return pivot, [law.convert(c, "log") for c in components], certified


def degreewise_inverse(f):
    """The compositional inverse solved from the defect of e(f(u)), one
    composition per degree."""
    c1 = f.coefficient((1,)).rational_value()
    inv = {1: LC.rational(1 / c1)}
    for n in range(2, f.order + 1):
        partial = TS(1, n, {(k,): c for k, c in inv.items() if k <= n})
        defect = horner_compose(partial, f.truncated(n)).coefficient((n,))
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
def law_and_character(draw, max_rank=4):
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
        assert row == series_power(log, a)
    u, v = TS.variable(0, 2, 7), TS.variable(1, 2, 7)
    lu, lv = horner_compose(log, u), horner_compose(log, v)
    assert law.pair_table() == horner_compose(law.exp_series(), lu + lv)


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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 6), st.booleans(), st.data())
def test_substitute_and_compose_match_schoolbook_horner(rank, order, constant, data):
    f = data.draw(series(rank, order))
    replacement = data.draw(series(rank, data.draw(st.integers(0, 6))))
    if not constant:
        replacement = replacement - replacement.constant_term()
    index = data.draw(st.integers(0, rank - 1))
    common = min(f.order, replacement.order)
    powers = series_powers(replacement.truncated(common))
    assert f.truncated(common).substitute(index, powers) == horner_substitute(f, index, replacement)
    outer = data.draw(series(1, order))
    inner = replacement - replacement.constant_term()
    assert compose_univariate(outer, inner) == horner_compose(outer, inner)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_the_stored_form_is_canonical(rank, data):
    """A series built along two paths is stored alike: ==, the terms view and
    the JSON form agree on each pair.  Orders up to 20 cross a change of
    the t-monomial packing."""
    a, b, c = (data.draw(series(rank, data.draw(st.integers(0, 20)))) for _ in range(3))
    q = data.draw(st.builds(QQ, st.integers(-9, 9).filter(bool), st.integers(1, 4)))
    pairs = [
        ((a * b) * c, a * (b * c)),
        ((a + b) - b, a.truncated(b.order)),
        (a.scale(q).scale(1 / q), a),
        (TS.from_json_obj(a.to_json_obj()), a),
        (a.at_order(a.order + 17).at_order(a.order), a),
    ]
    for left, right in pairs:
        assert left == right
        assert left.terms == right.terms
        assert left.to_json_obj() == right.to_json_obj()


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
    assert ring.to_log(ring.chern(chi)) == horner_compose(law.exp_series(), linear)


def assert_reports_agree(report, reference):
    """The report's verdict and certified order are the reference's, its
    components are known through max(certified, 0), and a failing report's
    components are the reference's there."""
    pivot, components, certified = reference
    top = max(certified, 0)
    passed = all(c.is_zero_through(certified) for c in components)
    assert (report.pivot, report.certified_order, report.is_zero) == (pivot, certified, passed)
    assert [c.order for c in report.components] == [top] * len(components)
    if not passed:
        assert report.components == [c.truncated(top) for c in components]


@settings(max_examples=80, deadline=None)
@given(law_and_character(), st.sampled_from([1, 2]), st.booleans(), st.data())
def test_reduce_mod_matches_the_shear_reduction(case, power, member, data):
    law, chi = case
    if not any(chi):
        return
    ring = TorusRing(law, len(chi))
    f = data.draw(series(ring.rank, data.draw(st.integers(0, law.order + 2))))
    if member:
        f = f * series_power(ring.chern(chi), power)
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


def division_case(law, rank: int, chars, times, member: bool = True):
    """(ring, f, chars) for f = times(ring, t) * prod chern(chi), or times
    alone when not a member, t the ring's variables."""
    ring = TorusRing(law, rank)
    t = [ring.variable(i) for i in range(rank)]
    f = times(ring, t) * (ring.chern_product(chars) if member else ring.one())
    return ring, f, chars


# Pinned edge cases of division in t, shared by both division oracles.
DIVISION_EDGE_CASES = {
    # numerators known only through degree 0: both divisions refuse, before
    # any Chern class is asked for its linear part
    "order 0": (TorusRing(FormalGroupLaw.universal(3), 2), TS.one(2, 0), [(1, 2)]),
    "order 0, zero": (TorusRing(FormalGroupLaw.additive(2), 1), TS.zero(1, 0), [(QQ(-1, 2),)]),
    # pivot coefficients other than +-1: L = 2 t1 + t2 divides with exact
    # integer steps, t1 alone is refused at an inexact one
    "pivot 2": division_case(FormalGroupLaw.universal(4), 3, [(2, 1, 0)], lambda r, t: r.one() + t[2]),
    "pivot 2, refused": division_case(
        FormalGroupLaw.universal(4), 3, [(2, 1, 0)], lambda r, t: t[0], member=False
    ),
    # l = (1/2) (t1 + 6 t2) under a law whose Chern class has denominators
    "pivot 1/2": division_case(
        FormalGroupLaw.multiplicative(QQ(-2, 3), 4), 2, [(QQ(1, 2), 3)], lambda r, t: r.one() + t[0]
    ),
    # additive Chern classes are linear: no part of degree >= 2
    "additive": division_case(FormalGroupLaw.additive(4), 2, [(1, -1)], lambda r, t: t[0] * t[1]),
}


def two_factor_top_failure():
    """c(1,1) (t2^3 + c(2,1) t1) at universal order 4 over c(1,1) c(2,1): the
    first quotient, known through 3, is nonzero on the zero locus of c(2,1)
    only at degree 3, so it is divided one order lower, to t1 through 1."""
    ring = TorusRing(FormalGroupLaw.universal(4), 2)
    t1, t2 = ring.variable(0), ring.variable(1)
    f = ring.chern((1, 1)) * (t2 * t2 * t2 + ring.chern((2, 1)) * t1)
    return ring, f, [(1, 1), (2, 1)]


def with_edge_cases(test):
    """test with every DIVISION_EDGE_CASES case pinned as an @example."""
    for case in DIVISION_EDGE_CASES.values():
        test = example(case)(test)
    return test


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
@with_edge_cases
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
@example(two_factor_top_failure())
@with_edge_cases
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
        report = result.obstruction
        assert report.to_json_obj() == expected_report
        assert result.certified_order == report.certified_order
    else:
        assert result.certified_order == expected.order


# -- Chern products against the plain left-to-right product --------------------------

PRODUCT_LAWS = {
    "universal": FormalGroupLaw.universal,
    "additive": FormalGroupLaw.additive,
    "multiplicative:1": lambda order: FormalGroupLaw.multiplicative(1, order),
    "multiplicative:-2/3": lambda order: FormalGroupLaw.multiplicative(QQ(-2, 3), order),
}
_PRODUCT_RINGS: dict = {}


def product_ring(law: str, rank: int, order: int) -> TorusRing:
    """One ring per (law, rank, order), so that its Chern classes are built once."""
    key = (law, rank, order)
    if key not in _PRODUCT_RINGS:
        _PRODUCT_RINGS[key] = TorusRing(PRODUCT_LAWS[law](order), rank)
    return _PRODUCT_RINGS[key]


def plain_chern_product(ring, chars, f=None):
    """one() times the Chern class of each character in turn, and then times
    f: every partial product through the full order."""
    product = ring.one()
    for chi in chars:
        product = product * ring.chern(chi)
    return product if f is None else product * f


@st.composite
def chern_product_cases(draw):
    """(ring, characters, f): 0 to order + 2 characters drawn from a pool of
    one to three, maybe with the zero character, so that repeats are common;
    f None, zero, of t-order 0 or of a t-order v >= 1, at an order below, at
    or above the ring order."""
    rank = draw(st.integers(1, 3))
    order = draw(st.integers(3, 10))
    ring = product_ring(draw(st.sampled_from(sorted(PRODUCT_LAWS))), rank, order)
    coords = st.tuples(*[st.integers(-2, 2)] * rank)
    pool = draw(st.lists(coords.filter(any), min_size=1, max_size=3))
    if draw(st.booleans()):
        pool.append((0,) * rank)
    chars = draw(st.lists(st.sampled_from(pool), max_size=order + 2))
    shape = draw(st.sampled_from(["none", "zero", "t-order 0", "t-order v"]))
    f_order = draw(st.integers(0, order + 2))
    if shape == "none":
        return ring, chars, None
    if shape == "zero":
        return ring, chars, TS.zero(rank, f_order)
    # a monomial of degree v and terms above it: t-order v, or the zero
    # series when v exceeds the order of f
    v = 0 if shape == "t-order 0" else draw(st.integers(1, max(f_order, 1)))
    tail = draw(series(rank, f_order))
    high = TS(rank, f_order, {k: c for k, c in tail.terms.items() if sum(k) > v})
    return ring, chars, high + TS.monomial((v,) + (0,) * (rank - 1), 1, rank, f_order)


@settings(max_examples=200, deadline=None)
@given(chern_product_cases())
# the t-orders add up to the order exactly: every partial product is nonzero
@example((product_ring("universal", 2, 4), [(1, 0), (1, 1), (0, 1)], TS.variable(0, 2, 4)))
def test_chern_product_matches_the_plain_left_to_right_product(case):
    ring, chars, f = case
    got, expected = ring.chern_product(chars), plain_chern_product(ring, chars)
    assert (got.order, got.den, got.rows) == (expected.order, expected.den, expected.rows)
    if f is not None:
        got, expected = ring.chern_product(chars, f), plain_chern_product(ring, chars, f)
        assert (got.order, got.den, got.rows) == (expected.order, expected.den, expected.rows)


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
    assert ring.reduce_mod(series_power(ring.chern(chi), 2) * t[-1], chi, 2).is_zero


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


def assert_check_matches_the_s_route(datum, values, ring):
    """Every congruence of the datum: the verdict, the certified order and the
    remainder components of check_membership equal s_route_reduce's, each
    known through max(certified, 0)."""
    for result in check_membership(datum, values, ring).results:
        c, report = result.constraint, result.report
        pivot, components, certified = s_route_reduce(
            ring, values, c.weights(), c.character.coords, c.power
        )
        top = max(certified, 0)
        passed = all(part.is_zero_through(certified) for part in components)
        assert (report.pivot, report.certified_order, report.is_zero) == (pivot, certified, passed)
        assert [part.order for part in report.components] == [top] * c.power, c.constraint_id
        assert report.components == [part.truncated(top) for part in components], c.constraint_id


def ig25_members(ring):
    """The 13 known members of IG(2,5): the hyperplane tuple, the eight point
    classes and the classes of X0, X1, X2 and X2'."""
    tangent = load_ig25_tangent()
    weights = point_weights(PasquierTriple(3, n=2, m=2))
    members = [{p: ring.chern(w) for p, w in weights.items()}]
    members += [point_class(ring, p, tangent) for p in tangent.points()]
    members += [
        subvariety_class(ring, normal, tangent.points())
        for normal in load_ig25_subvarieties().values()
    ]
    return members


IG25_DATUM = build_gkm(PasquierTriple(3, n=2, m=2))
ORACLE_LAWS = {
    "universal": FormalGroupLaw.universal,
    "additive": FormalGroupLaw.additive,
    "multiplicative:-2/3": lambda order: FormalGroupLaw.multiplicative(QQ(-2, 3), order),
}


# No shrink phase (nor explain, which reads a shrunk example): a failing
# example is reported as drawn, in seconds, not after minutes of shrinking
# IG(2,5)-sized tuples.
@settings(
    max_examples=12,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
@given(st.sampled_from(sorted(ORACLE_LAWS)), st.integers(3, 6), st.data())
def test_ig25_combinations_match_the_s_route(law, order, data):
    """S(T)-combinations of the 13 members, one value corrupted and one
    truncated: a member keeps passing, and every congruence through the
    changed points reads the same verdict and remainder as the s-route."""
    ring = TorusRing(ORACLE_LAWS[law](order), 2)
    points = sorted(IG25_DATUM.points)
    values = {p: ring.zero() for p in points}
    for member in ig25_members(ring):
        coeff = data.draw(series(2, data.draw(st.integers(0, 1))))
        values = {p: values[p] + coeff.at_order(order) * member[p] for p in points}
    assert_check_matches_the_s_route(IG25_DATUM, values, ring)
    bad = data.draw(st.sampled_from(points))
    values[bad] = values[bad] + data.draw(series(2, order))
    cut = data.draw(st.sampled_from(points))
    values[cut] = values[cut].truncated(data.draw(st.integers(0, order)))
    assert_check_matches_the_s_route(IG25_DATUM, values, ring)


@pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
@pytest.mark.parametrize(
    "args, kind, order",
    [(dict(family=5), None, 4), (dict(family=3, n=3, m=2), None, 4), (dict(family=5), None, 2)],
    ids=("g2", "c3-m2", "g2-low"),
)
def test_small_data_match_the_s_route(law, args, kind, order):
    """The corrupted hyperplane tuples of G2 and of c3-m2 (P2 surfaces):
    power-2 congruences with rho factors fail with both components."""
    triple = PasquierTriple(**args)
    datum = build_gkm(triple, force_kind=kind)
    ring = TorusRing(ORACLE_LAWS[law](order), datum.rank)
    assert_check_matches_the_s_route(datum, corrupted_hyperplane_tuple(triple, ring, 3), ring)


@pytest.mark.parametrize("law", sorted(ORACLE_LAWS))
def test_values_above_the_ring_order_match_the_s_route(law):
    """1 + u^2 known through order 2 on a ring of order 1, and values known
    one and two orders above the ring on rank 2, with and without rho
    weights: a failing remainder is read through the ring order only."""
    ring = TorusRing(ORACLE_LAWS[law](1), 1)
    u = TS.variable(0, 1, 2)
    f = TS.one(1, 2) + u * u
    for power in (1, 2):
        reference = s_route_reduce(ring, {0: f}, [(0, 1, None)], (1,), power)
        assert_reports_agree(ring.reduce_mod(f, (1,), power), reference)
    ring = TorusRing(ORACLE_LAWS[law](3), 2)
    t = [TS.variable(i, 2, 5) for i in range(2)]
    values = {
        "x": TS.one(2, 5) + t[0] * t[1] * t[1] * t[1] + t[1] * t[1],
        "y": (t[0] + t[1] * t[1] * t[0]).at_order(4),
        "z": ring.chern((1, 1)).at_order(5),
    }
    weights = [
        [("x", 1, None), ("y", -1, None)],
        [("x", 1, None), ("y", -1, None), ("z", 1, (1, 2)), ("x", -1, (1, 2))],
        [("y", 1, (3, 2)), ("z", -1, (3, 2)), ("x", 1, (-3, 2)), ("y", -1, (-3, 2))],
    ]
    for chi in ((1, 0), (0, 1), (1, -2)):
        for ws in weights:
            # a residual is never claimed above what its values determine
            assert ring.weighted_sum(values, ws, chi).order <= min(values[p].order for p, _, _ in ws)
            for power in (1, 2):
                reference = s_route_reduce(ring, values, ws, chi, power)
                assert_reports_agree(ring.reduce_combination(values, ws, chi, power), reference)


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
