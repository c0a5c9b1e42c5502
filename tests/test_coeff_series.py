import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gkmcobordism.coeff_series import QQ

from gkmcobordism.coeff_series import (
    LazardCoefficient,
    TruncatedSeries,
    compose_univariate,
    compositional_inverse,
    series_inverse,
)

from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.torus_ring import TorusRing

from conftest import divided_by_variable, random_series

LC = LazardCoefficient
TS = TruncatedSeries


def u(order=6):
    return TS.variable(0, 1, order)


def test_one_has_single_entry():
    one = TS.one(2, 5)
    assert len(one.terms) == 1
    assert one.constant_term() == LC.one()


def test_add_identity_and_inverse():
    rng = random.Random(1)
    a = random_series(rng, 2, 6)
    assert a + TS.zero(2, 6) == a
    t1 = TS.variable(0, 2, 6)
    assert (t1 + (-t1)).is_zero()


def test_add_disjoint_support():
    t1 = u()
    quad = TS.monomial((2,), LC.generator(1), 1, 6)
    s = t1 + quad
    assert s.coefficient((1,)) == LC.one()
    assert s.coefficient((2,)) == LC.generator(1)


def test_add_result_order_is_min():
    a = random_series(random.Random(2), 2, 8)
    b = random_series(random.Random(3), 2, 5)
    assert (a + b).order == 5


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        TS.one(2, 5) + TS.one(3, 5)
    with pytest.raises(ValueError):
        TS.one(2, 5) * TS.one(3, 5)


def test_mul_identity_and_binomial():
    rng = random.Random(4)
    a = random_series(rng, 3, 6)
    assert a * TS.one(3, 6) == a
    t1, t2 = TS.variable(0, 2, 6), TS.variable(1, 2, 6)
    assert (t1 * t2).coefficient((1, 1)) == LC.one()
    sq = (t1 + t2) * (t1 + t2)
    assert sq.coefficient((2, 0)) == LC.one()
    assert sq.coefficient((1, 1)) == LC.rational(2)
    assert sq.coefficient((0, 2)) == LC.one()


def test_ring_axioms_randomized():
    rng = random.Random(5)
    for rank in (1, 2, 4):
        a = random_series(rng, rank, 8)
        b = random_series(rng, rank, 8)
        c = random_series(rng, rank, 8)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_grading_of_products():
    # homogeneous (t-degree + m-degree) inputs multiply to homogeneous output
    a = TS.monomial((1, 1), LC.generator(1), 2, 8)  # degree 2 - 1 = 1
    b = TS.monomial((3, 0), LC.generator(2), 2, 8)  # degree 3 - 2 = 1
    prod = a * b

    def degrees(series):
        out = set()
        for key, coeff in series.terms.items():
            out |= {sum(key) + d for d in coeff.degrees()}
        return out

    assert degrees(a) == {1}
    assert degrees(b) == {1}
    assert degrees(prod) == {2}


def test_compose_identity_and_square():
    g = random_series(random.Random(6), 2, 6, min_degree=1)
    assert compose_univariate(u(), g) == g
    f = TS.monomial((2,), 1, 1, 6)
    t1, t2 = TS.variable(0, 2, 6), TS.variable(1, 2, 6)
    assert compose_univariate(f, t1 + t2) == (t1 + t2) * (t1 + t2)


def test_compose_relabels_univariate():
    f = u() + TS.monomial((2,), LC.generator(1), 1, 6)
    assert compose_univariate(f, u()) == f


def test_compose_rejects_constant_term():
    with pytest.raises(ValueError):
        compose_univariate(u(), TS.one(2, 6))


def test_compositional_inverse_known_coefficients():
    # f = u + m1 u^2 inverts to u - m1 u^2 + 2 m1^2 u^3 + ...
    f = u(4) + TS.monomial((2,), LC.generator(1), 1, 4)
    e = compositional_inverse(f)
    assert e.coefficient((1,)) == LC.one()
    assert e.coefficient((2,)) == -LC.generator(1)
    assert e.coefficient((3,)) == LC.generator(1, 2, scale=2)

    # f = u + m1 u^2 + m2 u^3 inverts to u - m1 u^2 + (2 m1^2 - m2) u^3 + ...
    f2 = f + TS.monomial((3,), LC.generator(2), 1, 4)
    e2 = compositional_inverse(f2)
    assert e2.coefficient((2,)) == -LC.generator(1)
    assert e2.coefficient((3,)) == LC.generator(1, 2, scale=2) - LC.generator(2)


def test_compositional_inverse_identity():
    assert compositional_inverse(u()) == u()


def test_compositional_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        f = u(7)
        for k in range(2, 8):
            coeff = LC.rational(QQ(rng.randint(-3, 3), rng.randint(1, 2)))
            f = f + TS.monomial((k,), coeff, 1, 7)
        e = compositional_inverse(f)
        assert compose_univariate(e, f) == u(7)
        assert compose_univariate(f, e) == u(7)


def test_compositional_inverse_matches_lagrange_inversion():
    """Independent oracle: for f = u + c2 u^2 + ..., the inverse g satisfies
    n [u^n] g = [x^(n-1)] (x/f(x))^n (classical inversion formula)."""
    order = 7
    f = u(order)
    f = f + TS.monomial((2,), LC.generator(1), 1, order)
    f = f + TS.monomial((3,), LC.generator(2), 1, order)
    f = f + TS.monomial((4,), LC.rational(QQ(5, 3)), 1, order)
    g = compositional_inverse(f)
    ratio = series_inverse(divided_by_variable(f, 0))  # x/f(x)
    power = TS.one(1, order)
    for n in range(1, order + 1):
        power = power * ratio
        expected = power.coefficient((n - 1,)).scale(QQ(1, n))
        assert g.coefficient((n,)) == expected


def test_compositional_inverse_requires_unit_linear_term():
    with pytest.raises(ValueError):
        compositional_inverse(TS.monomial((2,), 1, 1, 5))
    with pytest.raises(ValueError):
        compositional_inverse(TS.monomial((1,), LC.generator(1), 1, 5))


def test_series_inverse():
    rng = random.Random(8)
    w = TS.one(2, 6) + random_series(rng, 2, 6, min_degree=1)
    assert w * series_inverse(w) == TS.one(2, 6)
    with pytest.raises(ValueError):
        series_inverse(random_series(rng, 2, 6, min_degree=1))


def test_substitute():
    t1, t2 = TS.variable(0, 2, 6), TS.variable(1, 2, 6)
    f = t1 * t1 + t1 * t2
    assert f.substitute(0, t2) == (t2 * t2).scale(2)


def test_partial_derivative():
    t1, t2 = TS.variable(0, 2, 6), TS.variable(1, 2, 6)
    f = t1 * t1 * t2
    assert f.partial(0) == (t1 * t2).scale(2).truncated(5)
    assert f.partial(1) == (t1 * t1).truncated(5)


def test_json_round_trip_and_canonical_sorting():
    rng = random.Random(9)
    s = random_series(rng, 3, 5)
    obj = s.to_json_obj()
    assert TS.from_json_obj(obj) == s
    keys = [tuple(term["t_exponents"]) for term in obj["terms"]]
    assert keys == sorted(keys)


def test_json_rejects_malformed_terms():
    base = {"vars": 2, "order": 3, "terms": []}
    overflow = dict(base, terms=[{"t_exponents": [2, 2], "m_exponents": [], "coeff": "1"}])
    with pytest.raises(ValueError):
        TS.from_json_obj(overflow)
    negative = dict(base, terms=[{"t_exponents": [-1, 0], "m_exponents": [], "coeff": "1"}])
    with pytest.raises(ValueError):
        TS.from_json_obj(negative)
    bad_m = dict(base, terms=[{"t_exponents": [1, 0], "m_exponents": [[0, 1]], "coeff": "1"}])
    with pytest.raises(ValueError):
        TS.from_json_obj(bad_m)


def test_json_skips_zero_coefficients():
    obj = {
        "vars": 2,
        "order": 3,
        "terms": [{"t_exponents": [1, 0], "m_exponents": [[1, 1]], "coeff": "0/5"}],
    }
    loaded = TS.from_json_obj(obj)
    assert loaded.is_zero()
    assert loaded == TS.zero(2, 3)


# -- the product kernel against a reference product, one Fraction at a time --


def reference_product(a, b):
    """{t-key: {m-key: Fraction}} of a * b by the schoolbook rule."""
    order = min(a.order, b.order)
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if sum(key) > order:
                continue
            slot = out.setdefault(key, {})
            for ma, qa in ca.terms.items():
                for mb, qb in cb.terms.items():
                    merged = dict(ma)
                    for k, e in mb:
                        merged[k] = merged.get(k, 0) + e
                    m = tuple(sorted(merged.items()))
                    slot[m] = slot.get(m, Fraction(0)) + Fraction(qa) * Fraction(qb)
    cleaned = {k: {m: q for m, q in c.items() if q} for k, c in out.items()}
    return {k: c for k, c in cleaned.items() if c}


rationals = st.builds(QQ, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
m_monomials = st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2).map(
    lambda d: tuple(sorted(d.items()))
)
coefficients = st.dictionaries(m_monomials, rationals, max_size=3).map(
    lambda d: LC({m: q for m, q in d.items() if q})
)


@st.composite
def series(draw, rank, order, coefficients=coefficients):
    exponents = st.tuples(*[st.integers(0, order)] * rank)
    drawn = draw(st.dictionaries(exponents, coefficients, max_size=8))
    terms = {k: c for k, c in drawn.items() if sum(k) <= order and not c.is_zero()}
    return TS(rank, order, terms)


@st.composite
def series_pairs(draw):
    """Two series of one rank and independent orders; some built to cancel."""
    rank = draw(st.integers(1, 3))
    a = draw(series(rank, draw(st.integers(0, 6))))
    b = draw(series(rank, draw(st.integers(0, 6))))
    if draw(st.booleans()):
        a, b = a + b, a - b  # (a + b)(a - b): the cross terms cancel
    return a, b


def assert_product_invariants(product, a, b):
    order = min(a.order, b.order)
    assert product.order == order
    for key, coeff in product.terms.items():
        assert sum(key) <= order
        assert coeff.terms
        assert all(q for q in coeff.terms.values())


@settings(max_examples=150, deadline=None)
@given(series_pairs())
def test_series_product_matches_reference(pair):
    a, b = pair
    product = a * b
    assert {k: c.terms for k, c in product.terms.items()} == reference_product(a, b)
    assert_product_invariants(product, a, b)


@settings(max_examples=100, deadline=None)
@given(series_pairs())
def test_cancelling_product_is_difference_of_squares(pair):
    a, b = pair
    s, d = a + b, a - b
    product = s * d
    assert product == a * a - b * b
    assert_product_invariants(product, s, d)


@settings(max_examples=150, deadline=None)
@given(coefficients, coefficients, st.booleans())
def test_coefficient_product_matches_reference(x, y, cancel):
    if cancel:
        x, y = x + y, x - y
    product = x * y
    expected = reference_product(TS(1, 0, {(0,): x}), TS(1, 0, {(0,): y}))
    assert product.terms == expected.get((0,), {})
    assert all(q for q in product.terms.values())


# -- interned m-monomials: large exponents, many generators, any order --------

big_m_monomials = st.dictionaries(st.integers(1, 12), st.integers(1, 400), min_size=1, max_size=4).map(
    lambda d: tuple(sorted(d.items()))
)


@st.composite
def big_coefficients(draw):
    """A coefficient over large-exponent m-monomials, stored in a drawn
    order, which is the order in which a product first interns them."""
    monomials = draw(st.lists(big_m_monomials, min_size=1, max_size=3, unique=True))
    monomials = draw(st.permutations(monomials))
    values = draw(st.lists(rationals.filter(bool), min_size=len(monomials), max_size=len(monomials)))
    return LC(dict(zip(monomials, values)))


def intern_decoys(data):
    """Let unrelated monomials, and their pairwise products, reach the
    intern table first."""
    decoys = data.draw(st.lists(big_m_monomials, max_size=6))
    LC({m: QQ(1) for m in decoys}) * LC({m: QQ(1) for m in reversed(decoys)})


def test_large_exponent_coefficient_product():
    x = LC({((1, 300), (7, 2)): QQ(1), ((12, 1),): QQ(1, 2)})
    y = LC({((1, 5),): QQ(1), ((7, 1),): QQ(-1)})
    assert (x * y).terms == {
        ((1, 305), (7, 2)): QQ(1),
        ((1, 300), (7, 3)): QQ(-1),
        ((1, 5), (12, 1)): QQ(1, 2),
        ((7, 1), (12, 1)): QQ(-1, 2),
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_of_late_interned_monomials_match_reference(data):
    intern_decoys(data)
    rank = data.draw(st.integers(1, 3))
    a = data.draw(series(rank, data.draw(st.integers(0, 4)), big_coefficients()))
    b = data.draw(series(rank, data.draw(st.integers(0, 4)), big_coefficients()))
    product = a * b
    assert {k: c.terms for k, c in product.terms.items()} == reference_product(a, b)
    assert_product_invariants(product, a, b)
    x, y = data.draw(big_coefficients()), data.draw(big_coefficients())
    expected = reference_product(TS(1, 0, {(0,): x}), TS(1, 0, {(0,): y}))
    assert (x * y).terms == expected.get((0,), {})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_log_coordinates_round_trip_with_large_monomials(data):
    intern_decoys(data)
    rank = data.draw(st.integers(1, 2))
    ring = TorusRing(FormalGroupLaw.universal(data.draw(st.integers(1, 4))), rank)
    f = data.draw(series(rank, ring.order, big_coefficients()))
    assert ring.from_log(ring.to_log(f)) == f


def test_specialize_series():
    s = TS.monomial((1,), LC.generator(1), 1, 4) + TS.monomial((2,), LC.generator(2), 1, 4)
    sp = s.specialize({1: QQ(1, 2), 2: QQ(0)})
    assert sp == TS.monomial((1,), QQ(1, 2), 1, 4)
