import random

import pytest
from gkmcobordism.coeff_series import QQ

from gkmcobordism.coeff_series import LazardCoefficient, TruncatedSeries, compose_univariate
from gkmcobordism.fgl import FormalGroupLaw

from conftest import random_series

LC = LazardCoefficient
TS = TruncatedSeries


@pytest.fixture(scope="module")
def law():
    return FormalGroupLaw.universal(8)


def u(order=8):
    return TS.variable(0, 1, order)


def test_sum_with_zero_is_identity(law):
    rng = random.Random(11)
    s = random_series(rng, 2, 8, min_degree=1)
    assert law.sum(s, TS.zero(2, 8)) == s
    assert law.sum(TS.zero(2, 8), s) == s


def test_known_a_coefficients(law):
    assert law.a_coefficient(1, 0) == LC.one()
    assert law.a_coefficient(0, 1) == LC.one()
    assert law.a_coefficient(2, 0).is_zero()
    assert law.a_coefficient(1, 1) == LC.generator(1, scale=-2)
    expected = LC.generator(1, 2, scale=4) - LC.generator(2, scale=3)
    assert law.a_coefficient(2, 1) == expected
    assert law.a_coefficient(1, 2) == expected
    with pytest.raises(ValueError):
        law.a_coefficient(5, 4)


def test_pair_table_symmetric(law):
    table = law.pair_table()
    for (i, j), coeff in table.terms.items():
        assert table.coefficient((j, i)) == coeff


def test_associativity_small():
    law = FormalGroupLaw.universal(5)
    t1 = TS.variable(0, 3, 5)
    t2 = TS.variable(1, 3, 5)
    t3 = TS.variable(2, 3, 5)
    left = law.sum(t1, law.sum(t2, t3))
    right = law.sum(law.sum(t1, t2), t3)
    assert left == right


def test_inverse_known_series(law):
    chi = law.inverse(u())
    assert chi.coefficient((1,)) == LC.rational(-1)
    assert chi.coefficient((2,)) == LC.generator(1, scale=-2)
    assert chi.coefficient((3,)) == LC.generator(1, 2, scale=-4)
    assert law.inverse(TS.zero(1, 8)).is_zero()
    assert law.sum(u(), chi).is_zero()


def test_multiple_known_series_and_recursion(law):
    two = law.multiple(2, u())
    assert two.coefficient((1,)) == LC.rational(2)
    assert two.coefficient((2,)) == LC.generator(1, scale=-2)
    assert two.coefficient((3,)) == LC.generator(1, 2, scale=8) - LC.generator(2, scale=6)
    # recursive definition agrees: [2]u = F(u, u), [3]u = F(u, [2]u)
    assert two == law.sum(u(), u())
    assert law.multiple(3, u()) == law.sum(u(), two)
    assert law.multiple(1, u()) == u()
    assert law.multiple(0, u()).is_zero()
    # [-2]u = [-1]([2]u), two routes agree
    assert law.multiple(-2, u()) == law.inverse(two)


def test_divide_known_series(law):
    half = law.divide(2, u())
    assert half.coefficient((1,)) == LC.rational(QQ(1, 2))
    assert half.coefficient((2,)) == LC.generator(1, scale=QQ(1, 4))
    expected3 = LC.generator(2, scale=QQ(3, 8)) - LC.generator(1, 2, scale=QQ(1, 4))
    assert half.coefficient((3,)) == expected3
    assert law.divide(1, u()) == u()
    assert law.multiple(2, half) == u()
    with pytest.raises(ValueError):
        law.divide(0, u())


def test_division_inverts_multiples(law):
    # for each b there is a univariate g with g([b]u) = u
    for b in (2, 3, 4):
        g = law.divide_series(b)
        assert compose_univariate(g, law.multiple(b, u())) == u()


def test_multiple_homomorphism(law):
    rng = random.Random(12)
    s = random_series(rng, 2, 8, min_degree=1, terms=3)
    t = random_series(rng, 2, 8, min_degree=1, terms=3)
    for a in (-3, 2, 4):
        assert law.multiple(a, law.sum(s, t)) == law.sum(law.multiple(a, s), law.multiple(a, t))
    for a, b in ((2, 3), (-2, 2)):
        assert law.multiple(a, law.multiple(b, u())) == law.multiple(a * b, u())


def test_rho_known_series(law):
    r = law.rho(1, 2, u())
    assert r.coefficient((0,)) == LC.rational(QQ(1, 2))
    assert r.coefficient((1,)) == LC.generator(1, scale=QQ(1, 4))
    assert r.coefficient((2,)) == LC.generator(2, scale=QQ(3, 8)) - LC.generator(
        1, 2, scale=QQ(1, 4)
    )
    # rho * u = [n]([1/m]u) at every stored order
    for n, m in ((1, 2), (3, 2), (-3, 2), (2, 1)):
        rho = law.rho(n, m, u())
        assert rho.coefficient((0,)) == LC.rational(QQ(n, m))
        assert rho * u() == law.multiple(n, law.divide(m, u()))


def test_rho_requires_order_one(law):
    with pytest.raises(ValueError):
        law.rho(1, 2, TS.monomial((2,), 1, 1, 8))
    with pytest.raises(ValueError):
        law.rho(1, 2, TS.one(1, 8))
    with pytest.raises(ValueError):
        law.rho(0, 2, u())


def test_additive_specialization():
    law = FormalGroupLaw.additive(8)
    t1, t2 = TS.variable(0, 2, 8), TS.variable(1, 2, 8)
    assert law.sum(t1, t2) == t1 + t2
    assert law.rho(1, 2, u()) == TS.constant(QQ(1, 2), 1, 8)
    rng = random.Random(14)
    z0 = random_series(rng, 2, 8, min_degree=1, terms=3, rational_only=True)
    zinf = random_series(rng, 2, 8, min_degree=1, terms=3, rational_only=True)
    assert law.sum(z0, law.inverse(zinf)) == z0 - zinf


def test_multiplicative_specialization():
    beta = QQ(2, 3)
    law = FormalGroupLaw.multiplicative(beta, 8)
    t1, t2 = TS.variable(0, 2, 8), TS.variable(1, 2, 8)
    assert law.sum(t1, t2) == t1 + t2 - (t1 * t2).scale(beta)
    assert law.a_coefficient(1, 1) == LC.rational(-beta)
    assert law.a_coefficient(2, 1).is_zero()
    # 4 m1^2 - 3 m2 vanishes for mk = beta^k/(k+1)
    a21 = FormalGroupLaw.universal(8).a_coefficient(2, 1)
    assert a21.evaluate({1: beta / 2, 2: beta**2 / 3}) == 0


def test_specialize_factory(law):
    assert FormalGroupLaw.additive(law.order).label == "additive"
    assert FormalGroupLaw.multiplicative(QQ(1), law.order).label == "multiplicative:1"
    with pytest.raises(ValueError):
        FormalGroupLaw.with_assignment(8, {1: QQ(1)})  # incomplete
    full = {k: QQ(0) for k in range(1, 8)}
    assert FormalGroupLaw.with_assignment(8, full).sum(
        TS.variable(0, 2, 8), TS.variable(1, 2, 8)
    ) == TS.variable(0, 2, 8) + TS.variable(1, 2, 8)


def test_series_one_order_up_need_m_order():
    # m1..m4 define the law at order 5; rho works one order up and needs m5.
    partial = {1: QQ(1), 2: QQ(-2), 3: QQ(1, 3), 4: QQ(0)}
    law = FormalGroupLaw.with_assignment(5, partial)
    with pytest.raises(ValueError, match="m5"):
        law.rho_series(3, 2)
    with pytest.raises(ValueError, match="m5"):
        law.rho(1, 2, law.exp_linear((1, 1)))
    with pytest.raises(ValueError, match="m5"):
        law.rho_series(1, 2)
    # everything at the law's own order still works
    t1, t2 = TS.variable(0, 2, 5), TS.variable(1, 2, 5)
    assert law.sum(t1, t2) == law.exp_linear((1, 1))
    assert law.exp_linear((2, -1)).coefficient((1, 0)) == LC.rational(2)
    full = FormalGroupLaw.with_assignment(5, {**partial, 5: QQ(7)})
    assert full.rho_series(3, 2).coefficient((0,)) == LC.rational(QQ(3, 2))
    assert full.rho(1, 2, full.exp_linear((1, 1))).order == 5


@pytest.mark.parametrize(
    "make",
    [
        FormalGroupLaw.universal,
        FormalGroupLaw.additive,
        lambda order: FormalGroupLaw.multiplicative(QQ(-2, 3), order),
    ],
    ids=("universal", "additive", "multiplicative"),
)
def test_rho_series_is_q_plus_e2_q_q_minus_1_to_first_order(make):
    """rho_{n/m}(x) = q + q (q - 1) e_2 x + O(x^2) for q = n/m: the first
    order to which congruence checks read rho."""
    law = make(6)
    e2 = law.exp_series().coefficient((2,))
    for n, m in ((1, 2), (3, 2), (-3, 2), (2, 3), (2, 2)):
        q = QQ(n, m)
        h = law.rho_series(n, m)
        assert h.coefficient((0,)) == LC.rational(q)
        assert h.coefficient((1,)) == e2.scale(q * (q - 1))


def test_arguments_must_kill_constant_term(law):
    with pytest.raises(ValueError):
        law.sum(TS.one(1, 8), u())
    with pytest.raises(ValueError):
        law.inverse(TS.one(1, 8))


def test_derived_series_are_built_once_and_shared():
    law = FormalGroupLaw.universal(6)
    for build in (law.exp_series, law.exp_powers, law.pair_table):
        assert build() is build()
        assert build(4) is build(4) and build(4) is not build()
    # [n]x and [1/m]x are one series e(q l(x)), cached by the rational q
    assert law.multiple_series(1) is law.divide_series(1)
    assert law.multiple_series(QQ(1, 3)) is law.divide_series(3)
    assert law.multiple_series(0) == TS.zero(1, 6)
