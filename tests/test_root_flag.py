from collections import Counter
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gkmcobordism.coeff_series import QQ
from gkmcobordism.common import direction

from gkmcobordism.root_flag import (
    FlagCurve,
    WeylGroup,
    curve_degree,
    curve_scan,
    enumerate_curves,
    inner,
    pairing,
    reflect,
    root_system,
    vadd,
    vec,
    vscale,
    vsub,
)

STANDARD_CARTAN = {
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    # convention: entry (i, j) is 2(a_i, a_j)/(a_i, a_i), rows indexed by coroots
    "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -3], [-1, 2]],
}

POSITIVE_COUNTS = {"A2": 3, "A3": 6, "B2": 4, "B3": 9, "C2": 4, "C3": 9, "C4": 16, "F4": 24, "G2": 6}

WEYL_ORDERS = {"A2": 6, "B2": 8, "B3": 48, "C2": 8, "C3": 48, "G2": 12, "F4": 1152}


@pytest.mark.parametrize("label", sorted(STANDARD_CARTAN))
def test_cartan_matrices(label):
    system = root_system(label)
    # system.cartan[j][i] = <alpha_j, alpha_i^vee> = 2(a_i, a_j)/(a_i, a_i)
    assert [list(column) for column in zip(*system.cartan)] == STANDARD_CARTAN[label]
    assert system.cartan == tuple(
        tuple(pairing(b, a) for b in system.simple_roots) for a in system.simple_roots
    )


@pytest.mark.parametrize("label", sorted(POSITIVE_COUNTS))
def test_positive_root_counts(label):
    system = root_system(label)
    assert len(system.positive_roots) == POSITIVE_COUNTS[label]
    # every positive root is a nonnegative integer combination of simple roots
    for root in system.positive_roots:
        coeffs = system.decompose_in_simple_roots(root)
        assert all(c >= 0 and c.denominator == 1 for c in coeffs)


@pytest.mark.parametrize("label", sorted(WEYL_ORDERS))
def test_weyl_group_orders(label):
    assert root_system(label).weyl_group.order == WEYL_ORDERS[label]


def test_each_root_system_owns_one_weyl_group():
    f4 = root_system("F4")
    assert f4.weyl_group is root_system("F4").weyl_group
    assert f4.weyl_group.system is f4
    assert isinstance(f4.weyl_group, WeylGroup)
    assert root_system("B4").weyl_group is not f4.weyl_group


def test_fundamental_weight_duality():
    for label in ("A3", "B3", "C3", "G2", "F4"):
        system = root_system(label)
        for i in range(1, system.rank + 1):
            for j in range(1, system.rank + 1):
                expected = QQ(1) if i == j else QQ(0)
                assert pairing(system.simple_root(i), system.fundamental_weight(j)) == expected


def test_pairing_worked_values():
    c2 = root_system("C2")
    # alpha = 2 eps_m against omega_m and omega_{m-1} for m = 2
    alpha = vec((0, 2))
    assert pairing(alpha, c2.fundamental_weight(2)) == 1
    assert pairing(alpha, c2.fundamental_weight(1)) == 0
    g2 = root_system("G2")
    assert pairing(vec((-1, 0, 1)), g2.fundamental_weight(2)) == 3
    with pytest.raises(ValueError):
        pairing(vec((0, 0)), vec((1, 1)))


def test_reflections_are_involutions():
    for label in ("B3", "C3", "G2", "F4"):
        system = root_system(label)
        for alpha in system.positive_roots:
            for omega in system.fundamental_weights:
                image = reflect(alpha, omega)
                assert reflect(alpha, image) == omega
                if pairing(alpha, omega) == 0:
                    assert image == omega
                else:
                    assert image != omega


def test_curve_degree_simple_root():
    c3 = root_system("C3")
    degree = curve_degree(c3, c3.simple_root(2), parabolic={1, 3})
    assert degree == {2: QQ(1)}
    with pytest.raises(ValueError):
        curve_degree(c3, c3.simple_root(1), parabolic={1, 3})


def test_curve_degree_weyl_invariance():
    g2 = root_system("G2")
    parabolic = {1}
    alpha = vec((-1, 0, 1))  # alpha_1 + alpha_2
    assert alpha in g2.positive_roots
    for i in parabolic:
        image = reflect(g2.simple_root(i), alpha)
        if image in g2.positive_roots:
            assert curve_degree(g2, image, parabolic) == curve_degree(g2, alpha, parabolic)


def test_fixed_point_counts():
    g2 = root_system("G2")
    assert len(g2.weyl_group.cosets({1})) == 6
    c2 = root_system("C2")
    assert len(c2.weyl_group.cosets({1})) == 4
    assert len(c2.weyl_group.cosets({1, 2})) == 1


def test_rank_one_single_curve():
    a1 = root_system("A1")
    curves = enumerate_curves(a1, set())
    assert len(curves) == 1


def test_g2_quadric_curves():
    g2 = root_system("G2")
    curves = enumerate_curves(g2, {1})
    assert len(curves) == 15
    multiset = Counter(c.total_degree for c in curves)
    assert multiset == {QQ(1): 6, QQ(3): 6, QQ(2): 3}


def test_curve_weights_are_root_multiples():
    for label, parabolic in (("C2", {1}), ("C2", {2}), ("B3", {1, 2}), ("G2", {2})):
        system = root_system(label)
        for curve in enumerate_curves(system, parabolic):
            assert direction(curve.weight) == direction(curve.root)
            # v = s_root u on the defining anchors
            assert reflect(curve.root, curve.u.anchor) == curve.v.anchor


def test_c2_curve_weight_proportional_to_long_root():
    c2 = root_system("C2")
    curves = enumerate_curves(c2, {1})
    # the curve joining the identity coset and s_{2 eps2} has weight ~ 2 eps2
    omega2 = c2.fundamental_weight(2)
    target = vsub(omega2, reflect(vec((0, 2)), omega2))
    found = [
        c
        for c in curves
        if {c.u.anchor, c.v.anchor} == {omega2, reflect(vec((0, 2)), omega2)}
    ]
    assert len(found) == 1
    assert direction(found[0].weight) == direction(vec((0, 2)))
    assert found[0].weight in (target, vscale(-1, target))


def test_adjacency_complete_for_g2_quadric():
    # every pair of fixed points is joined by a curve there
    g2 = root_system("G2")
    points = g2.weyl_group.cosets({1})
    assert len(enumerate_curves(g2, {1})) == len(points) * (len(points) - 1) // 2


def pair_scan_curves(system, parabolic):
    """Reference enumeration: scan every pair of cosets for a positive root
    along the anchor difference with v = s_gamma u, and take the degree of
    the root w^-1 gamma, reflected back along the word of u, from
    curve_degree."""
    cosets = system.weyl_group.cosets(parabolic)
    out = []
    for a, b in combinations(range(len(cosets)), 2):
        u, v = cosets[a], cosets[b]
        delta = vsub(u.anchor, v.anchor)
        line = direction(delta)
        gamma = next((r.vector for r in system.roots if r.direction == line), None)
        if gamma is None or vscale(pairing(gamma, u.anchor), gamma) != delta:
            continue
        base = gamma
        for i in u.word:
            base = reflect(system.simple_root(i), base)
        if base not in system.positive_roots:
            base = vscale(-1, base)
        assert base in system.positive_roots
        degree = curve_degree(system, base, parabolic)
        index = system.positive_roots.index(gamma)
        out.append(
            FlagCurve(u=u, v=v, root=gamma, weight=delta, degree=degree, root_index=index)
        )
    return out


ORACLE_CASES = [
    (label, frozenset(parabolic))
    for label in ("A2", "A3", "B2", "B3", "C2", "C3", "G2")
    for size in range(int(label[1]) + 1)
    for parabolic in combinations(range(1, int(label[1]) + 1), size)
] + [("F4", frozenset({1, 3, 4})), ("F4", frozenset({1, 2, 4}))]


@pytest.mark.parametrize(
    "label, parabolic",
    ORACLE_CASES,
    ids=[f"{label}-{''.join(map(str, sorted(p)))}" for label, p in ORACLE_CASES],
)
def test_curves_match_pair_scan(label, parabolic):
    system = root_system(label)
    group = system.weyl_group
    # Shortest words of W_I use only letters of I.
    stabilizer = sum(1 for w in group.elements() if set(w.word) <= parabolic)
    assert len(group.cosets(parabolic)) == group.order // stabilizer
    curves = enumerate_curves(system, parabolic)
    reference = pair_scan_curves(system, parabolic)
    assert curves == reference
    # The integer scan itself: coset indices, root index and pairing.
    cosets = group.cosets(parabolic)
    scanned = curve_scan(system, parabolic)
    assert all(a < b and p > 0 for a, b, _, p in scanned)
    assert [(cosets[a], cosets[b], k) for a, b, k, _ in scanned] == [
        (c.u, c.v, c.root_index) for c in reference
    ]
    assert [vscale(p, system.roots[k].vector) for _, _, k, p in scanned] == [
        c.weight for c in reference
    ]
    assert [list(c.degree.items()) for c in curves] == [
        list(c.degree.items()) for c in reference
    ]


def test_apply_word_matches_reflections():
    # Vectors off the root span (A2 and G2 live in three coordinates) and
    # non-integral ones must move exactly as under the epsilon reflections.
    cases = (
        ("A2", (1, 0, 0)),
        ("G2", (QQ(1, 3), 2, -5)),
        ("F4", (QQ(1, 2), 0, 3, QQ(-7, 5))),
    )
    for label, v in cases:
        system = root_system(label)
        group = system.weyl_group
        v = vec(v)
        for word in (w.word for w in group.elements()[:40]):
            expected = v
            for i in reversed(word):
                expected = reflect(system.simple_root(i), expected)
            assert group.apply_word(word, v) == expected
    with pytest.raises(ValueError):
        root_system("B2").weyl_group.apply_word((0,), vec((1, 0)))


# -- the integer weight path ------------------------------------------------------

INTEGER_PATH_GROUPS = {
    label: root_system(label).weyl_group for label in ("A3", "B4", "C4", "F4", "G2")
}


def rational_weight(system, labels):
    """sum_j labels_j omega_j, summed over the rational fundamental weights."""
    out = (QQ(0),) * system.dim
    for x, omega in zip(labels, system.fundamental_weights):
        out = tuple(a + x * w for a, w in zip(out, omega))
    return out


def rational_inner(a, b):
    return sum((QQ(x) * QQ(y) for x, y in zip(a, b)), start=QQ(0))


def sign(x):
    return (x > 0) - (x < 0)


@st.composite
def labelled_weights(draw):
    """A group, a covector and a few weights, all by integer labels."""
    label = draw(st.sampled_from(sorted(INTEGER_PATH_GROUPS)))
    rank = INTEGER_PATH_GROUPS[label].system.rank
    labels = st.tuples(*[st.integers(-6, 6)] * rank)
    return label, draw(labels), draw(st.lists(labels, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(labelled_weights())
def test_integer_weight_path_matches_rationals(case):
    label, covector, weights = case
    group = INTEGER_PATH_GROUPS[label]
    system = group.system
    for labels in (covector, *weights):
        numerators = system.numerators(labels)
        assert all(type(n) is int for n in numerators)
        # numerators over den are the weight, and vector() is that quotient
        reference = rational_weight(system, labels)
        assert tuple(QQ(n, system.den) for n in numerators) == reference
        assert system.vector(labels) == reference
        if any(labels):
            d = direction(numerators)
            assert d == direction(reference)
            # a primitive integer vector, first nonzero entry positive, along the weight
            assert gcd(*d) == 1 and next(x for x in d if x) > 0
            assert all(
                d[i] * reference[j] == d[j] * reference[i]
                for i, j in combinations(range(system.dim), 2)
            )
    # integer covector pairings: the signs and the order of the rational ones
    lam = system.numerators(covector)
    integer = [inner(lam, system.numerators(w)) for w in weights]
    rational = [
        rational_inner(rational_weight(system, covector), rational_weight(system, w))
        for w in weights
    ]
    assert [sign(x) for x in integer] == [sign(x) for x in rational]
    order = lambda values: sorted(range(len(values)), key=values.__getitem__)
    assert order(integer) == order(rational)


@pytest.mark.parametrize("label", sorted(INTEGER_PATH_GROUPS))
def test_root_table_matches_rational_pairings(label):
    system = INTEGER_PATH_GROUPS[label].system
    for root in system.roots:
        gamma = root.vector
        assert root.labels == tuple(pairing(a, gamma) for a in system.simple_roots)
        assert root.coroot == tuple(pairing(gamma, w) for w in system.fundamental_weights)
        assert root.direction == direction(gamma)
        assert system.numerators(root.labels) == tuple(x * system.den for x in gamma)


# -- the positive roots, derived from the simple roots ---------------------------


def unit(i, dim):
    return tuple(QQ(int(j == i)) for j in range(dim))


def classical_positive_roots(letter, n):
    """Bourbaki's closed forms: e_i - e_j for A_n; e_i -+ e_j and e_i for B_n;
    e_i -+ e_j and 2 e_i for C_n."""
    if letter == "A":
        dim = n + 1
        return {vsub(unit(i, dim), unit(j, dim)) for i in range(dim) for j in range(i + 1, dim)}
    pairs = {
        op(unit(i, n), unit(j, n)) for i in range(n) for j in range(i + 1, n) for op in (vsub, vadd)
    }
    return pairs | {vscale(1 if letter == "B" else 2, unit(i, n)) for i in range(n)}


CLASSICAL_LABELS = [f"{letter}{n}" for letter in "ABC" for n in range(1 if letter == "A" else 2, 8)]


@pytest.mark.parametrize("label", CLASSICAL_LABELS)
def test_positive_roots_match_closed_forms(label):
    system = root_system(label)
    assert len(set(system.positive_roots)) == len(system.positive_roots)
    assert set(system.positive_roots) == classical_positive_roots(label[0], system.rank)


@pytest.mark.parametrize("label", CLASSICAL_LABELS + ["F4", "G2"])
def test_simple_reflections_permute_the_other_positive_roots(label):
    system = root_system(label)
    positive = set(system.positive_roots)
    assert len(positive) == len(system.positive_roots)
    for alpha in system.simple_roots:
        others = positive - {alpha}
        assert {reflect(alpha, gamma) for gamma in others} == others
