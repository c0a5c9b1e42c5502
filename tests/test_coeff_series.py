import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from gkmcobordism.coeff_series import QQ

from gkmcobordism.coeff_series import (
    _INT,
    _INTS,
    _LIST,
    _M_PAIRS,
    _RATIONAL,
    LazardCoefficient,
    TruncatedSeries,
    _check_keys,
    _checked,
    as_rational,
    combination,
    compose_univariate,
    compositional_inverse,
    linear_form,
    series_inverse,
    series_powers,
)
from gkmcobordism.common import dumps

from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.torus_ring import TorusRing

from conftest import (
    coefficient_scale,
    coefficient_sum,
    divided_by_variable,
    horner_substitute,
    random_series,
    series_power,
)

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
    assert f.substitute(0, series_powers(t2)) == (t2 * t2).scale(2)


@pytest.mark.parametrize("known", (2, 3, 5))
def test_substitute_refuses_a_table_known_below_the_series_order(known):
    """A power table of u known through a lower order than the series would
    drop the terms of u above it from a result claimed through the series'
    order, so it is refused."""
    t1, t2 = TS.variable(0, 2, 6), TS.variable(1, 2, 6)
    f = t1 * t1 + t1
    u = t2 + t2 * t2 * t2 * t2
    with pytest.raises(ValueError, match="known through the series' order"):
        f.substitute(0, series_powers(u.truncated(known)))
    assert f.truncated(known).substitute(0, series_powers(u.truncated(known))) == (u + u * u).truncated(known)


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


def _one_term(**fields):
    term = dict({"t_exponents": [1, 0], "m_exponents": [], "coeff": 1}, **fields)
    return {"vars": 2, "order": 3, "terms": [term]}


@pytest.mark.parametrize(
    "obj, message",
    [
        (None, "series must be a JSON object"),
        ({"vars": 2, "order": 3}, "series is missing the key(s) 'terms'"),
        ({"vars": 2, "order": 3, "terms": [], "rank": 2}, "series has unknown key(s) 'rank'"),
        ({"vars": "2", "order": 3, "terms": []}, "series 'vars' must be an integer"),
        ({"vars": 2, "order": 3, "terms": {}}, "series 'terms' must be a list"),
        ({"vars": 2, "order": 3, "terms": [[1, 0]]}, "series term must be a JSON object"),
        (_one_term(coeff=0.5), "series term 'coeff' must be an integer or a string"),
        (_one_term(m_exponents=[1]), "'m_exponents' must be a list of [generator, exponent]"),
        (_one_term(t_exponents=[1, True]), "series term 't_exponents' must be a list of integers"),
        (_one_term(m_exponents=[[1, 1], [1, 2]]), "malformed m-monomial"),
    ],
)
def test_json_rejects_keys_and_types_outside_the_format(obj, message):
    with pytest.raises(ValueError) as excinfo:
        TS.from_json_obj(obj)
    assert message in str(excinfo.value)


def _constant_obj(coeff):
    return {"vars": 1, "order": 0, "terms": [{"t_exponents": [0], "m_exponents": [], "coeff": coeff}]}


@pytest.mark.parametrize(
    "text, value",
    [("0.5", QQ(1, 2)), ("1e2", QQ(100)), (" 3/4 ", QQ(3, 4)), ("1_0", QQ(10)), ("-6/4", QQ(-3, 2))],
)
def test_json_coefficient_spellings_beyond_digits_still_parse(text, value):
    assert TS.from_json_obj(_constant_obj(text)).constant_term() == LC.rational(value)


@pytest.mark.parametrize("text", ["3 /4", "1/-2", "1/0", "x", "", "+", "1/"])
def test_json_coefficient_spellings_outside_the_format_are_rejected(text):
    with pytest.raises(ValueError):
        TS.from_json_obj(_constant_obj(text))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-/ _.e", max_size=6))
def test_json_coefficient_strings_read_as_fraction_reads_them(text):
    """The int() reading of plain spellings accepts and rejects exactly
    what Fraction does, with the same values."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            TS.from_json_obj(_constant_obj(text))
        return
    assert TS.from_json_obj(_constant_obj(text)).constant_term() == LC.rational(expected)


def test_json_skips_zero_coefficients():
    obj = {
        "vars": 2,
        "order": 3,
        "terms": [{"t_exponents": [1, 0], "m_exponents": [[1, 1]], "coeff": "0/5"}],
    }
    loaded = TS.from_json_obj(obj)
    assert loaded.is_zero()
    assert loaded == TS.zero(2, 3)


# -- the one-pass JSON reader against the Fraction reader it replaced ---------


def _reference_rational(text):
    """A JSON coefficient string as the Fraction reader read it: plain
    `[+-]digits[/digits]` by int(), any other spelling by Fraction."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        if not slash:
            return QQ(int(num))
        if int(den):
            return QQ(int(num), int(den))
    return as_rational(text)


def reference_from_json_obj(obj):
    """The series of a JSON object by Fractions and LazardCoefficients
    through the dict constructor: the reader before the one-pass one."""
    _check_keys(obj, "series", ("vars", "order", "terms"))
    rank, order = _checked(obj, "vars", "series", _INT), _checked(obj, "order", "series", _INT)
    coeffs = {}
    for term in _checked(obj, "terms", "series", _LIST):
        _check_keys(term, "series term", ("t_exponents", "m_exponents", "coeff"))
        key = tuple(_checked(term, "t_exponents", "series term", _INTS))
        m = tuple(sorted(map(tuple, _checked(term, "m_exponents", "series term", _M_PAIRS))))
        if any(k < 1 or e < 1 for k, e in m) or len(dict(m)) != len(m):
            raise ValueError("malformed m-monomial")
        q = _checked(term, "coeff", "series term", _RATIONAL)
        q = _reference_rational(q) if isinstance(q, str) else QQ(q)
        c = coeffs.setdefault(key, {})
        c[m] = c[m] + q if m in c else q
    return TS(rank, order, {k: LC(c) for k, c in coeffs.items()})


def _stored(s):
    """Everything a series stores, the order of its rows and their entries included."""
    return s.rank, s.order, s.den, [(k, list(row.items())) for k, row in s.rows.items()], s.rational


def _read(reader, obj):
    """("ok", stored form) of reader(obj), or the class and message it raises."""
    try:
        return "ok", _stored(reader(obj))
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _t_exponents(draw, rank, order):
    out = []
    for _ in range(rank):
        out.append(draw(st.integers(0, order - sum(out))))
    return draw(st.permutations(out))


_SPELLINGS = st.one_of(
    st.integers(-(10**40), 10**40),
    st.integers(-(10**40), 10**40).map(str),
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 60), st.integers(1, 12)).map(
        lambda p: f"{p[0]}{p[1]}/{p[2]}"
    ),
    st.sampled_from(["-0", "+0", "0", "0/7", "+3", "2/4", "-6/4", "7/1", "0.5", "1e2", " 3/4 ", "1_0"]),
)


@st.composite
def json_series(draw, min_terms=0):
    """A valid series object whose terms repeat t-monomials and m-monomials
    (the latter spelt in any pair order), with zero, unreduced, big and
    Fraction-only coefficients."""
    rank, order = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    t_pool = draw(st.lists(_t_exponents(rank, order), min_size=1, max_size=4))
    monomials = st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3)
    m_pool = draw(st.lists(monomials.map(lambda m: [[k, e] for k, e in m.items()]), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(min_terms, 12))):
        terms.append(
            {
                "t_exponents": draw(st.sampled_from(t_pool)),
                "m_exponents": draw(st.permutations(draw(st.sampled_from(m_pool)))),
                "coeff": draw(_SPELLINGS),
            }
        )
    return {"vars": rank, "order": order, "terms": terms}


@settings(max_examples=400, deadline=None)
@given(json_series())
def test_json_reader_stores_what_the_fraction_reader_stores(obj):
    expected = _stored(reference_from_json_obj(obj))
    assert _stored(TS.from_json_obj(obj)) == expected
    assert _stored(TS.from_json_obj(json.loads(json.dumps(obj)))) == expected


class _List(list):
    pass


class _Dict(dict):
    pass


# Replacement values per field, off the format or only beside it: subclasses
# of list and dict are JSON values of their base type to the Fraction reader.
_SERIES_EDITS = {
    None: [None, [], "x", 3],
    "vars": ["2", True, 0, -1, None, 2.0],
    "order": ["3", False, -1, None],
    "terms": [{}, None, "[]", _List()],
}
_TERM_EDITS = {
    None: [None, [1, 0], "t", 3],
    "t_exponents": [None, "0", [True, 0], [0, False], [-1, 0], [9, 0], [0], [0, 0, 0, 0], [1.0, 0], _List([0, 0])],
    "m_exponents": [
        None, {}, [1], [[1]], [[1, 1, 1]], [[True, 1]], [[1, False]], [[0, 1]], [[1, 0]],
        [[1, 1], [1, 2]], [["1", 1]], [[1.0, 1]], [_List([1, 1])], _List(),
    ],
    "coeff": [
        0.5, True, None, [1], "1/0", "x", "", "1/-2", "3 /4", "+", "1/", "0/0",
        "x/" + "1" * 4400, "2/" + "1" * 4400, "1" * 4500 + "/" + "1" * 4400,
    ],
}  # fmt: skip


@st.composite
def malformed_json_series(draw):
    """A valid series object with one to three edits: a field of the series
    or of a term replaced, deleted or joined by an unknown key, or a term
    replaced or made a dict subclass."""
    obj = draw(json_series(min_terms=1))
    terms = obj["terms"] = [dict(term) for term in obj["terms"]]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(terms) - 1)) if terms and draw(st.booleans()) else None
        target, edits = (obj, _SERIES_EDITS) if i is None else (terms[i], _TERM_EDITS)
        if not isinstance(target, dict):
            continue
        field = draw(st.sampled_from(sorted(edits, key=str)))
        action = draw(st.sampled_from(["replace", "delete", "add", "subclass"]))
        if field is not None:
            if action == "delete":
                target.pop(field, None)
            elif action == "add":
                target["extra"] = 1
            else:
                target[field] = draw(st.sampled_from(edits[field]))
        elif i is None:
            if action == "replace":
                return draw(st.sampled_from(edits[None]))
        elif action == "replace":
            terms[i] = draw(st.sampled_from(edits[None]))
        elif action == "subclass":
            terms[i] = _Dict(target)
    return obj


@settings(max_examples=600, deadline=None)
@given(malformed_json_series())
def test_json_reader_refuses_as_the_fraction_reader_refuses(obj):
    """The same result, or the same exception class and message: every
    term's own error in term order, then the rank, the order and each
    t-monomial in first-seen order."""
    assert _read(TS.from_json_obj, obj) == _read(reference_from_json_obj, obj)


@pytest.mark.parametrize(
    "text", ["1" * 4400, "2/" + "1" * 4400, "1" * 4500 + "/" + "1" * 4400, "x/" + "1" * 4400]
)
def test_json_reader_refuses_overlong_digits_as_the_fraction_reader_does(text):
    """int() refuses more than 4300 digits (where Python limits them); the
    reader reaches it on the same spellings as the Fraction reader."""
    obj = _constant_obj(text)
    assert _read(TS.from_json_obj, obj) == _read(reference_from_json_obj, obj)


def _terms_series(*terms, rank=2, order=3):
    keys = ("t_exponents", "m_exponents", "coeff")
    return {"vars": rank, "order": order, "terms": [dict(zip(keys, term)) for term in terms]}


@pytest.mark.parametrize(
    "obj, message",
    [
        (
            _terms_series(([1, 0], [[1, 1]], 1), ([0, 1], [[True, 1]], 1)),
            "series term 'm_exponents' must be a list of [generator, exponent] integer pairs, got [[true, 1]]",
        ),
        (
            _terms_series(([1, 0], [], 1), ([True, 0], [], 1)),
            "series term 't_exponents' must be a list of integers, got [true, 0]",
        ),
        (
            _terms_series(([1, 0], [], 0.5), rank=0),
            'series term \'coeff\' must be an integer or a string like "3/4", got 0.5',
        ),
        (_terms_series(([1, 0, 0], [], 1), rank=0), "variable count must be >= 1"),
        (_terms_series(([1, 0, 0], [], 1), order=-1), "truncation order must be >= 0"),
        (
            _terms_series(([4, 0], [], 1), ([1], [], 1)),
            "a stored t-monomial exceeds the truncation order",
        ),
        (
            _terms_series(([1], [], 1), ([4, 0], [], 1), ([1], [], -1)),
            "t-exponent length does not match the variable count",
        ),
    ],
    ids=(
        "bool-generator-after-int-pair",
        "bool-exponent-after-int-key",
        "term-type-before-rank",
        "rank-before-key",
        "order-before-key",
        "keys-in-first-seen-order",
        "cancelled-key-still-checked",
    ),
)
def test_json_reader_refusal_order(obj, message):
    with pytest.raises(ValueError) as excinfo:
        TS.from_json_obj(obj)
    assert str(excinfo.value) == message
    assert _read(reference_from_json_obj, obj) == (ValueError, message)


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
rational_coefficients = rationals.map(LC.rational)


def assert_rational_flag(f):
    """The stored flag that selects the flat product loop says exactly
    whether every coefficient is a rational."""
    assert f.rational == all(c.is_rational() for c in f.terms.values())


@st.composite
def series(draw, rank, order, coefficients=coefficients):
    exponents = st.tuples(*[st.integers(0, order)] * rank)
    drawn = draw(st.dictionaries(exponents, coefficients, max_size=8))
    terms = {k: c for k, c in drawn.items() if sum(k) <= order and not c.is_zero()}
    return TS(rank, order, terms)


@st.composite
def series_pairs(draw):
    """Two series of one rank and independent orders up to 24, so that a
    pair may straddle the packing change at order 16.  Each operand is
    rational (the flat loop) or over Q[m]; some are rational only after
    their m-terms cancel, and some pairs are built to cancel."""
    rank = draw(st.integers(1, 3))
    pair = []
    for _ in range(2):
        coeffs = draw(st.sampled_from((coefficients, rational_coefficients)))
        f = draw(series(rank, draw(st.integers(0, 24)), coeffs))
        if draw(st.booleans()):
            g = draw(series(rank, draw(st.integers(0, 24)), coeffs))
            m1 = TS.constant(LC.generator(1), rank, g.order)
            f = (f + m1 * g) - m1 * g  # f through the lower order, with Q[m] on the way
        pair.append(f)
    a, b = pair
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
    for f in (product, a, b):
        assert_rational_flag(f)


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


@st.composite
def linear_forms(draw, rank, index, order, coeffs):
    """c_0 + sum_j c_j t_j over j != index: a linear form free of t_{index+1}."""
    terms = {(0,) * rank: draw(coeffs)}
    if order:
        for j in range(rank):
            if j != index:
                terms[tuple(int(i == j) for i in range(rank))] = draw(coeffs)
    return TS(rank, order, {k: c for k, c in terms.items() if not c.is_zero()})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_of_a_rational_series_matches_horner(data):
    """A rational series at a replacement u (the table of powers u^k, both
    cut to the smaller order) and at a linear form y (the hyperplane table
    y^k), each with rational or Q[m] coefficients, against Horner's rule
    from products and sums."""
    rank = data.draw(st.integers(1, 3))
    index = data.draw(st.integers(0, rank - 1))
    order = data.draw(st.integers(0, 20))
    f = data.draw(series(rank, order, rational_coefficients))
    assert f.rational
    u_coeffs = data.draw(st.sampled_from((rational_coefficients, coefficients)))
    u = data.draw(series(rank, data.draw(st.integers(0, 20)), u_coeffs))
    common = min(order, u.order)
    result = f.truncated(common).substitute(index, series_powers(u.truncated(common)))
    assert result == horner_substitute(f, index, u)
    assert_rational_flag(result)
    y = data.draw(linear_forms(rank, index, order, u_coeffs))
    table = [series_power(y, k) for k in range(order + 1)]
    result = f.substitute(index, table)
    assert result == horner_substitute(f, index, y)
    assert_rational_flag(result)


# -- rational combinations against a Fraction reference -----------------------

scalars = st.one_of(st.just(0), st.integers(-3, 3), rationals)


def reference_combination(terms, order):
    """{t-key: {m-key: Fraction}} of sum q * f through `order`, from the
    `terms` view one Fraction at a time."""
    out = {}
    for q, f in terms:
        for k, c in f.terms.items():
            if sum(k) > order:
                continue
            slot = out.setdefault(k, {})
            for m, x in c.terms.items():
                slot[m] = slot.get(m, Fraction(0)) + Fraction(q) * x
    cleaned = {k: {m: x for m, x in c.items() if x} for k, c in out.items()}
    return {k: c for k, c in cleaned.items() if c}


@st.composite
def combination_terms(draw):
    """(rank, order, [(q, f)]): ranks 1-4, each f of its own order (some
    with terms above `order`), zero scalars among the q, and sometimes
    every term paired with its negative so that the sum cancels."""
    rank = draw(st.integers(1, 4))
    order = draw(st.integers(0, 5))
    terms = draw(st.lists(st.tuples(scalars, series(rank, draw(st.integers(0, order + 3)))), max_size=5))
    if draw(st.booleans()):
        terms += [(-q, f) for q, f in draw(st.permutations(terms))]
    return rank, order, terms


@settings(max_examples=200, deadline=None)
@given(combination_terms())
def test_combination_matches_fraction_reference(drawn):
    rank, order, terms = drawn
    result = combination(terms, rank, order)
    expected = reference_combination(terms, order)
    assert (result.rank, result.order) == (rank, order)
    assert {k: c.terms for k, c in result.terms.items()} == expected
    assert_rational_flag(result)
    # the stored form is canonical: the constructor's form of the same terms
    assert result == TS(rank, order, {k: LC(c) for k, c in expected.items()})
    if not expected:
        assert result.is_zero() and result.den == 1 and result == TS.zero(rank, order)


@settings(max_examples=100, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=4), st.integers(0, 20))
@example([0], 3)
@example([0, 0, 0, 0], 5)
@example([0, QQ(-2, 3), 0], 1)
def test_linear_form_matches_the_series_of_its_terms(coeffs, order):
    """linear_form, on rational vectors of rank 1-4 with zero entries and
    the zero vector, against the series the constructor builds from the
    terms c_i t_i."""
    rank = len(coeffs)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    terms = {unit: LC.rational(c) for unit, c in zip(units, coeffs) if c} if order else {}
    result = linear_form(coeffs, order)
    assert (result.rank, result.order) == (rank, order)
    assert result == TS(rank, order, terms)
    assert_rational_flag(result)


@settings(max_examples=150, deadline=None)
@given(coefficients, coefficients, scalars, st.booleans())
def test_coefficient_linear_operations_match_merge_oracle(x, y, q, cancel):
    if cancel:
        y = coefficient_scale(x, -1)
    assert (x + y).terms == coefficient_sum(x, y).terms
    assert (x - y).terms == coefficient_sum(x, coefficient_scale(y, -1)).terms
    assert (-x).terms == coefficient_scale(x, -1).terms
    assert x.scale(q).terms == coefficient_scale(x, Fraction(q)).terms
    assert (q * x).terms == (x * q).terms == coefficient_scale(x, Fraction(q)).terms
    assert (x + q).terms == (q + x).terms == coefficient_sum(x, LC.rational(q)).terms
    assert (x - q).terms == coefficient_sum(x, LC.rational(-q)).terms


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


def test_zero_coefficients_are_not_stored():
    assert LazardCoefficient({(): 0}).is_zero()
    assert LazardCoefficient({((1, 1),): QQ(0), (): QQ(2)}) == LazardCoefficient.rational(2)
    for coeff in (LazardCoefficient.zero(), LazardCoefficient({((2, 1),): 0})):
        series = TruncatedSeries(1, 2, {(0,): coeff})
        assert series.is_zero()
        assert series == TruncatedSeries(1, 2)


@pytest.mark.parametrize(
    "key, message",
    [((0, 0), "length"), ((-1,), "non-negative"), ((5,), "exceeds the truncation order")],
    ids=("wrong-length", "negative", "above-order"),
)
def test_dict_constructor_rejects_bad_keys(key, message):
    with pytest.raises(ValueError, match=message):
        TruncatedSeries(1, 2, {key: LazardCoefficient.one()})


# -- the JSON writer ----------------------------------------------------------------

# Strings with non-ASCII characters, quotes, backslashes and control characters.
_json_text = st.text(
    st.sampled_from('aZ0 "\\/\x00\x1f\x7f\n\té€\u2028\U0001f600'), max_size=6
) | st.text(max_size=4)
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _json_text
)
_json_trees = st.recursive(
    _json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_json_text, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_json_trees)
def test_dumps_matches_the_indented_sorted_json_encoder(obj):
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_dumps_writes_empty_containers_and_scalars_inside_blocks():
    obj = {"": [[], {}, ()], "b": [True, False, None, -0, -(2**70)], "a": {"\\\"": "\x01é"}}
    assert dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [
        1.5,
        [0.0],
        Fraction(1, 2),
        {"q": Fraction(3)},
        {1, 2},
        [frozenset()],
        {1: "a"},
        {"a": {None: 1}},
    ],
    ids=[
        "float",
        "nested-float",
        "fraction",
        "nested-fraction",
        "set",
        "nested-set",
        "int-key",
        "none-key",
    ],
)
def test_dumps_refuses_what_is_not_plain_json(obj):
    with pytest.raises(TypeError):
        dumps(obj)
