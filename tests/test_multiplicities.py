from fractions import Fraction
from math import comb, factorial, prod

import pytest
from gkmcobordism.coeff_series import QQ

from gkmcobordism.fgl import FormalGroupLaw
from gkmcobordism.gkm_model import check_membership
from gkmcobordism.horospherical import PasquierTriple, build_gkm, point_weights
from gkmcobordism.multiplicities import (
    TangentData,
    fiber_multiplicity,
    load_ig25_resolution,
    load_ig25_subvarieties,
    load_ig25_tangent,
    point_class,
    singular_class_pullback,
    smooth_multiplicity,
    subvariety_class,
)
from gkmcobordism.torus_ring import Character, LocalizedElement, TorusRing


def C(*coords):
    return Character(coords)


@pytest.fixture(scope="module")
def ring():
    return TorusRing(FormalGroupLaw.universal(8), 2)


@pytest.fixture(scope="module")
def ig25():
    return build_gkm(PasquierTriple(family=3, n=2, m=2))


def test_tangent_data_validation():
    with pytest.raises(ValueError):
        TangentData({"p": (C(0, 0),)})
    with pytest.raises(ValueError):
        TangentData({"p": (C(1, 0),)}, dimension=2)
    with pytest.raises(ValueError):
        TangentData({"p": (C(1, 0),)}, tag="weird")
    data = TangentData({"p": (C(1, 0), C(0, 1))}, tag="normal", dimension=2)
    assert data.points() == ["p"]
    assert TangentData.from_json_obj(data.to_json_obj()).weights == data.weights


def test_smooth_multiplicity(ring):
    assert smooth_multiplicity(ring, ()).denominator == ()
    single = smooth_multiplicity(ring, (C(1, 0),))
    assert single.denominator == (C(-1, 0),)
    with pytest.raises(ValueError):
        smooth_multiplicity(ring, (C(0, 0),))


def test_smooth_multiplicity_additive_matches_linear_forms():
    ring = TorusRing(FormalGroupLaw.additive(8), 2)
    elem = smooth_multiplicity(ring, (C(1, 0), C(0, 1)))
    t1, t2 = ring.variable(0), ring.variable(1)
    assert ring.chern_product(elem.denominator) == (-t1) * (-t2)


def test_point_class_zero_dimensional(ring):
    data = TangentData({"p": ()})
    values = point_class(ring, "p", data)
    assert values["p"] == ring.one()


def test_point_classes_match_displayed_products(ring):
    tangent = load_ig25_tangent()
    p45 = point_class(ring, "x45", tangent)
    assert p45["x45"] == ring.chern_product(
        [C(-1, -1), C(0, -2), C(0, -1), C(-2, 0), C(-1, 0)]
    )
    assert p45["x12"].is_zero()
    p12 = point_class(ring, "x12", tangent)
    assert p12["x12"] == ring.chern_product([C(1, 0), C(1, 1), C(2, 0), C(0, 1), C(0, 2)])
    with pytest.raises(KeyError):
        point_class(ring, "x99", tangent)


def test_point_class_factor_counts():
    tangent = load_ig25_tangent()
    for point in tangent.points():
        assert len(tangent.at(point)) == 5


def test_point_classes_are_members(ring, ig25):
    tangent = load_ig25_tangent()
    for point in tangent.points():
        values = point_class(ring, point, tangent)
        assert check_membership(ig25, values, ring).is_member


def test_subvariety_classes_match_and_are_members(ring, ig25):
    subs = load_ig25_subvarieties()
    assert sorted(subs) == ["X0", "X1", "X2", "X2p"]
    x1 = subvariety_class(ring, subs["X1"], all_points=ig25.points)
    assert x1["x12"] == ring.chern_product([C(1, 0), C(1, 1), C(2, 0), C(0, 2)])
    assert x1["x13"] == ring.chern_product([C(1, -1), C(1, 1), C(2, 0), C(0, 1)])
    assert x1["x45"].is_zero()
    x2 = subvariety_class(ring, subs["X2"], all_points=ig25.points)
    assert x2["x14"] == ring.chern_product([C(1, -1), C(1, 0), C(2, 0)])
    x2p = subvariety_class(ring, subs["X2p"], all_points=ig25.points)
    assert x2p["x23"] == ring.chern_product([C(1, 1), C(1, 0), C(0, 2)])
    for data in subs.values():
        values = subvariety_class(ring, data, all_points=ig25.points)
        assert check_membership(ig25, values, ring).is_member


def test_only_the_bundled_resolutions_load():
    with pytest.raises(ValueError, match="^available resolutions: x4tilde, x4tilde_star$"):
        load_ig25_resolution("x5")


def test_full_space_class_is_unit(ring):
    data = TangentData({"x12": (), "x13": ()}, tag="normal")
    values = subvariety_class(ring, data)
    assert values["x12"] == ring.one() and values["x13"] == ring.one()


def test_subvariety_requires_normal_tag(ring):
    with pytest.raises(ValueError):
        subvariety_class(ring, load_ig25_tangent())


def test_fiber_multiplicity_single_point_reduces_to_smooth(ring):
    weights = (C(1, 0), C(1, 1))
    fiber = TangentData({"q": weights}, tag="fiber")
    total = fiber_multiplicity(ring, fiber)
    single = smooth_multiplicity(ring, weights)
    assert ring.loc_eq(total, single)


def test_pullback_consistent_with_smooth_route(ring, rng):
    # a one-point fiber carrying the subvariety's tangent weights gives the
    # subvariety class back
    tangent = load_ig25_tangent()
    for _ in range(10):
        point = rng.choice(tangent.points())
        ambient = tangent.at(point)
        split = rng.randint(1, 4)
        normal, tangent_part = tuple(ambient[:split]), tuple(ambient[split:])
        fiber = TangentData({"q": tangent_part}, tag="fiber")
        smooth_value = ring.chern_product([-ch for ch in normal])
        result = singular_class_pullback(ring, point, tangent, fiber)
        assert result.cleared.ok
        assert result.series.agrees_through(smooth_value, result.cleared.certified_order)


def test_x4tilde_terms_match_displayed_sum(ring):
    tangent = load_ig25_tangent()
    point, fiber = load_ig25_resolution("x4tilde")
    assert point == "x12"
    result = singular_class_pullback(ring, point, tangent, fiber)

    def term(nums, dens):
        return LocalizedElement(
            ring.chern_product([C(*x) for x in nums]), tuple(C(*x) for x in dens)
        )

    displayed = [
        term([(1, 0), (1, 1), (0, 1), (0, 2)], [(-1, 0), (-1, 1)]),
        term([(1, 1), (2, 0), (0, 1), (0, 2)], [(1, 0), (-1, 1)]),
        term([(1, 0), (1, 1), (2, 0), (0, 1)], [(0, -1), (1, -1)]),
        term([(1, 0), (1, 1), (2, 0), (0, 2)], [(0, 1), (1, -1)]),
    ]

    def key(t):
        return tuple(ch.coords for ch in t.denominator)

    mine = sorted(result.terms, key=key)
    theirs = sorted(displayed, key=key)
    assert [t.denominator for t in mine] == [t.denominator for t in theirs]
    assert [t.numerator for t in mine] == [t.numerator for t in theirs]
    assert result.cleared.ok


def test_resolutions_agree_additively_disagree_universally():
    tangent = load_ig25_tangent()
    point, fiber = load_ig25_resolution("x4tilde")
    _, fiber_star = load_ig25_resolution("x4tilde_star")

    additive = TorusRing(FormalGroupLaw.additive(10), 2)
    first = singular_class_pullback(additive, point, tangent, fiber)
    second = singular_class_pullback(additive, point, tangent, fiber_star)
    assert first.cleared.ok and second.cleared.ok
    order = min(first.cleared.certified_order, second.cleared.certified_order)
    assert first.series.agrees_through(second.series, order)

    # the cleared classes agree through degree 4 and first differ in degree 5,
    # so the universal comparison needs a certified order of at least 5
    universal = TorusRing(FormalGroupLaw.universal(12), 2)
    u_first = singular_class_pullback(universal, point, tangent, fiber)
    u_second = singular_class_pullback(universal, point, tangent, fiber_star)
    order = min(u_first.cleared.certified_order, u_second.cleared.certified_order)
    assert not u_first.series.agrees_through(u_second.series, order)
    difference = u_first.series - u_second.series.truncated(u_first.series.order)
    assert difference.t_order() == 5


def test_degenerate_fiber_rejected(ring):
    with pytest.raises(ValueError):
        fiber_multiplicity(ring, TangentData({}, tag="fiber"))


def test_member_tuples_close_under_pointwise_product(ring, ig25):
    # the image of restriction is a subring, so pointwise products of member
    # tuples must again satisfy every congruence
    subs = load_ig25_subvarieties()
    x1 = subvariety_class(ring, subs["X1"], all_points=ig25.points)
    x2p = subvariety_class(ring, subs["X2p"], all_points=ig25.points)
    product = {p: x1[p] * x2p[p] for p in ig25.points}
    assert check_membership(ig25, product, ring).is_member


def test_point_class_membership_survives_specialization(ig25):
    # the congruences are identities in the group law, so members stay members
    # under any specialization of the coefficients
    tangent = load_ig25_tangent()
    for law in (FormalGroupLaw.additive(6), FormalGroupLaw.multiplicative(1, 6)):
        ring = TorusRing(law, 2)
        values = point_class(ring, "x45", tangent)
        assert check_membership(ig25, values, ring).is_member


def test_point_class_restriction_decomposes_over_surface(ring, ig25):
    # restricting the most attractive point's class to the plane through it
    # gives a multiple of the plane's point generator
    from gkmcobordism.gkm_model import surface_decompose

    tangent = load_ig25_tangent()
    values = point_class(ring, "x45", tangent)
    surface = next(s for s in ig25.surfaces if "x45" in s.points and "x25" in s.points)
    restricted = {p: values[p] for p in surface.points}
    decomposition = surface_decompose(surface, restricted, ring)
    certified = decomposition.certified_order
    assert decomposition.coefficients[0].agrees_through(ring.zero(), certified)
    assert decomposition.coefficients[1].agrees_through(ring.zero(), certified)
    # coefficient * point-generator value reproduces the class at x45
    point_generator_value = ring.chern_product([surface.alpha.scale(QQ(1, 2)), surface.alpha])
    rebuilt = decomposition.coefficients[2] * point_generator_value
    assert rebuilt.agrees_through(values["x45"], certified)


def test_invariant_plane_class_from_normal_weights(ring, ig25):
    """The class of the invariant plane through x14, x34, x45.

    The congruence algebra alone pins this class down only up to degree-zero
    unit factors; the normal weights determine it outright.  The normal data
    below is the ambient tangent weights minus the plane's own tangent
    weights (steps of e1 between consecutive fixed-point weights).
    """
    normal = TangentData(
        {
            "x14": (C(-1, 1), C(0, 2), C(0, 1)),
            "x34": (C(1, 1), C(0, 2), C(-1, 1)),
            "x45": (C(1, 1), C(0, 2), C(0, 1)),
        },
        tag="normal",
    )
    values = subvariety_class(ring, normal, all_points=ig25.points)
    assert check_membership(ig25, values, ring).is_member
    # each value sits in the ideal shape the congruences allow: one factor
    # along e1 - e2 or e1 + e2, and a double factor along e2
    assert ring.reduce_mod(values["x14"], C(1, -1), 1).is_zero
    assert ring.reduce_mod(values["x14"], C(0, 2), 2).is_zero
    assert ring.reduce_mod(values["x34"], C(1, -1), 1).is_zero
    assert ring.reduce_mod(values["x34"], C(1, 1), 1).is_zero
    assert ring.reduce_mod(values["x34"], C(0, 2), 1).is_zero
    assert ring.reduce_mod(values["x45"], C(1, 1), 1).is_zero
    assert ring.reduce_mod(values["x45"], C(0, 2), 2).is_zero
    # the degree-zero prefactors are genuine units, visible additively:
    # at x14 the class specializes to (t1 - t2) * (2 t2) * t2 = 1 * shape
    additive = TorusRing(FormalGroupLaw.additive(8), 2)
    add_values = subvariety_class(additive, normal, all_points=ig25.points)
    t1, t2 = additive.variable(0), additive.variable(1)
    assert add_values["x14"] == (t1 - t2) * (t2 + t2) * t2


# -- Oracle A: the Hilbert function of IG(2,5) by localization -----------------------
#
# With no engine code: the bundled tangent weights a_i(p) and the point
# weights chi_p pair with a generic covector lam, and by Atiyah-Bott
# chi(X, O(k)) is the constant term in s of
#     sum_p e^(k <chi_p, lam> s) prod_i 1 / (1 - e^(-a_i s)),
# taken from the Todd series x / (1 - e^(-x)) = sum_n B_n^+ x^n / n!.  At -k
# it must equal sum_{i+j=k} dim V(i omega_1 + j omega_2) of C2, by the Weyl
# dimension formula over the coroots of RootSystem.roots.

IG25_DIM = 5
IG25_HILBERT = [1, 9, 40, 125, 315, 686, 1344]  # k = 0..6


def _todd(degree: int) -> list:
    """The coefficients of x / (1 - e^(-x)) through x^degree, from the
    Bernoulli numbers with B_1 = +1/2."""
    bernoulli = [Fraction(1)]
    for m in range(1, degree + 1):
        bernoulli.append(-sum(comb(m + 1, k) * bernoulli[k] for k in range(m)) / (m + 1))
    bernoulli[1] = Fraction(1, 2)  # the recursion gives B_1 = -1/2
    return [b / factorial(n) for n, b in enumerate(bernoulli)]


def _localized_euler_characteristic(k: int, covector, chis: dict, tangent: dict) -> Fraction:
    d = IG25_DIM
    todd = _todd(d)
    total = Fraction(0)
    for point, weights in tangent.items():
        a = [sum(x * y for x, y in zip(w.coords, covector)) for w in weights]
        c = k * sum(x * y for x, y in zip(chis[point].coords, covector))
        series = [Fraction(c**n, factorial(n)) for n in range(d + 1)]  # e^(c s)
        for ai in a:
            factor = [t * ai**n for n, t in enumerate(todd)]  # Todd(ai s)
            series = [sum(series[j] * factor[n - j] for j in range(n + 1)) for n in range(d + 1)]
        total += series[d] / prod(a)
    return total


def _weyl_dimensions(rs, degree: int) -> Fraction:
    """sum_{i+j=degree} dim V(i omega_1 + j omega_2), with <omega_j, gamma^vee> =
    coroot_j and <rho, gamma^vee> = sum(coroot)."""
    total = 0
    for i in range(degree + 1):
        dim = Fraction(1)
        for root in rs.roots:
            c = root.coroot
            dim *= Fraction(i * c[0] + (degree - i) * c[1] + sum(c), sum(c))
        total += dim
    return total


@pytest.mark.parametrize("covector", [(1, 3), (2, 5)])
def test_ig25_localization_gives_the_weyl_dimension_hilbert_function(covector):
    triple = PasquierTriple(family=3, n=2, m=2)
    chis, tangent = point_weights(triple), load_ig25_tangent().weights
    assert len(tangent) == 8 and all(len(ws) == IG25_DIM for ws in tangent.values())
    weyl = [_weyl_dimensions(triple.group(), k) for k in range(len(IG25_HILBERT))]
    assert weyl == IG25_HILBERT
    euler = [
        _localized_euler_characteristic(-k, covector, chis, tangent)
        for k in range(len(IG25_HILBERT))
    ]
    assert euler == IG25_HILBERT
    # the fifth difference of a degree-5 Hilbert polynomial is deg X
    for _ in range(IG25_DIM):
        euler = [b - a for a, b in zip(euler, euler[1:])]
    assert euler == [5, 5]


def test_ig25_localization_sees_one_flipped_tangent_weight():
    chis = point_weights(PasquierTriple(family=3, n=2, m=2))
    tangent = dict(load_ig25_tangent().weights)
    first, *rest = tangent["x12"]
    tangent["x12"] = (-first, *rest)
    euler = [_localized_euler_characteristic(-k, (1, 3), chis, tangent) for k in range(7)]
    assert euler != IG25_HILBERT
