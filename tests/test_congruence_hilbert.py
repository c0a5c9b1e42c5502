"""Oracle C: the congruence system of a datum has the Hilbert function of H_T(X).

Under the additive law the Chern class of a character chi is the linear form
chi.t, and rho_{n/m} c(alpha) is the constant n/m.  So each congruence is a
rational linear condition sum_P q_P f_P = 0 mod (chi.t)^power on homogeneous
polynomials, with q_P = sign * n/m read from CongruenceConstraint.weights().
Its degree-k solutions are counted here by an exact elimination over the
rationals of its own: the residual must vanish on the hyperplane chi.t = 0,
after substituting for the pivot variable, and for power 2 so must its pivot
derivative.

H_T(X) is free over the polynomial ring in r = datum.rank variables with
Poincare polynomial P_X(q) = sum_i b_i q^i, so its degree-k part has
dimension sum_i b_i C(k - i + r - 1, r - 1).  P_X comes from the coset word
lengths of the Weyl group alone: X minus the closed orbit Y is a vector
bundle over the closed orbit Z, so P_X = P_Y + q^(dim X - dim Z) P_Z, with
dim X = dim G/(P_Y cap P_Z) + 1.

This module reads the built datum, its congruence system and the cosets of
root_flag, and no series arithmetic.  F4 and b5-spinor are left out: each
takes tens of seconds at degree 3.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from gkmcobordism.gkm_datum import GkmDatum, congruence_system
from gkmcobordism.horospherical import PasquierTriple, build_gkm

# name -> (triple, forced surface kind, the highest degree checked)
TRIPLES = {
    "c2-m2": (dict(family=3, n=2, m=2), None, 5),
    "g2": (dict(family=5), None, 4),
    "g2-f0": (dict(family=5), "f0", 4),
    "b3-quadric": (dict(family=2), None, 3),
    "b3-spinor": (dict(family=1, n=3), None, 3),
    "c3-m2": (dict(family=3, n=3, m=2), None, 3),
    "c3-m2-v2": (dict(family=3, n=3, m=2), "p2:v2", 3),
    "c3-m3": (dict(family=3, n=3, m=3), None, 3),
}


def betti_numbers(triple: PasquierTriple) -> list:
    """b_0, b_1, ... of X, from the word lengths of the cosets of W."""
    rs = triple.group()
    iy, iz = triple.weight_indices()
    simple = set(range(1, rs.rank + 1))

    def lengths(parabolic) -> list:
        return [len(c.word) for c in rs.weyl_group.cosets(frozenset(parabolic))]

    y, z = lengths(simple - {iy}), lengths(simple - {iz})
    shift = max(lengths(simple - {iy, iz})) + 1 - max(z)
    betti = [0] * (max(max(y), max(z) + shift) + 1)
    for i in y:
        betti[i] += 1
    for i in z:
        betti[i + shift] += 1
    return betti


def expected_dimension(betti: list, rank: int, k: int) -> int:
    return sum(b * comb(k - i + rank - 1, rank - 1) for i, b in enumerate(betti) if i <= k)


def _monomials(rank: int, k: int) -> list:
    """The exponent vectors of degree k in rank variables."""
    out = []
    for chosen in combinations_with_replacement(range(rank), k):
        e = [0] * rank
        for i in chosen:
            e[i] += 1
        out.append(tuple(e))
    return out


def _restriction(coords: tuple, k: int) -> dict:
    """Monomial of degree k -> {monomial: coefficient} of its restriction to
    chi.t = 0, with t_j = sum_{i != j} a_i t_i for the first nonzero chi_j."""
    rank = len(coords)
    j = next(i for i, c in enumerate(coords) if c)
    a = [-Fraction(c) / coords[j] for c in coords]
    powers = {}  # (sum_{i != j} a_i t_i)^p as {monomial: coefficient}
    power = {tuple([0] * rank): Fraction(1)}
    for p in range(k + 1):
        powers[p] = power
        nxt: dict = {}
        for e, c in power.items():
            for i in range(rank):
                if i != j and a[i]:
                    f = list(e)
                    f[i] += 1
                    f = tuple(f)
                    nxt[f] = nxt.get(f, 0) + c * a[i]
        power = nxt
    out = {}
    for e in _monomials(rank, k):
        rest = list(e)
        rest[j] = 0
        image = {}
        for f, c in powers[e[j]].items():
            m = tuple(x + y for x, y in zip(f, rest))
            image[m] = image.get(m, 0) + c
        out[e] = image
    return out


def _derivative(coords: tuple, k: int) -> dict:
    """Monomial of degree k -> {monomial: coefficient} of its pivot
    derivative restricted to chi.t = 0."""
    j = next(i for i, c in enumerate(coords) if c)
    restrict = _restriction(coords, k - 1)
    out = {}
    for e in _monomials(len(coords), k):
        if e[j]:
            lower = list(e)
            lower[j] -= 1
            out[e] = {m: e[j] * c for m, c in restrict[tuple(lower)].items()}
        else:
            out[e] = {}
    return out


def _conditions(constraint, k: int):
    """The rows of one congruence in degree k, one per monomial of its
    restrictions: each {(point, monomial): coefficient}."""
    coords = tuple(constraint.character.coords)
    q = [
        (point, sign * (1 if rho is None else Fraction(*rho)))
        for point, sign, rho in constraint.weights()
    ]
    maps = [_restriction(coords, k)]
    if constraint.power == 2 and k >= 1:
        maps.append(_derivative(coords, k))
    for image_of in maps:
        rows: dict = {}
        for e, image in image_of.items():
            for point, w in q:
                for m, c in image.items():
                    row = rows.setdefault(m, {})
                    row[(point, e)] = row.get((point, e), 0) + w * c
        yield from rows.values()


def solution_dimension(datum: GkmDatum, k: int, constraints=None) -> int:
    """The dimension of the degree-k tuples that satisfy every congruence."""
    constraints = congruence_system(datum) if constraints is None else constraints
    monomials = _monomials(datum.rank, k)
    column = {
        (p, e): i for i, (p, e) in enumerate((p, e) for e in monomials for p in datum.points)
    }
    pivots: dict = {}  # column -> row with 1 there and no smaller column
    for constraint in constraints:
        for raw in _conditions(constraint, k):
            row = {column[key]: c for key, c in raw.items() if c}
            while row:
                col = min(row)
                pivot = pivots.get(col)
                if pivot is None:
                    scale = row[col]
                    pivots[col] = {i: c / scale for i, c in row.items()}
                    break
                factor = row[col]
                for i, c in pivot.items():
                    value = row.get(i, 0) - factor * c
                    if value:
                        row[i] = value
                    else:
                        row.pop(i, None)
    return len(column) - len(pivots)


def _built(name: str):
    args, kind, top = TRIPLES[name]
    triple = PasquierTriple(**args)
    return triple, build_gkm(triple, force_kind=kind), top


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_congruences_have_the_hilbert_function_of_the_variety(name):
    triple, datum, top = _built(name)
    betti = betti_numbers(triple)
    assert sum(betti) == len(datum.points)
    assert betti == betti[::-1]
    for k in range(top + 1):
        expected = expected_dimension(betti, datum.rank, k)
        assert solution_dimension(datum, k) == expected, f"degree {k}"


@pytest.mark.parametrize("name, count", [("c2-m2", 3), ("g2", 2)])
def test_dropping_the_surfaces_admits_more_constants(name, count):
    _, datum, _ = _built(name)
    bare = GkmDatum(datum.rank, datum.points, datum.edges, (), datum.ordering)
    assert solution_dimension(datum, 0) == 1
    assert solution_dimension(bare, 0) == count


class _Rewritten:
    """A congruence whose weights a rewrite has changed."""

    def __init__(self, constraint, rewrite):
        self.character, self.power = constraint.character, constraint.power
        self._weights = rewrite(constraint.weights())

    def weights(self) -> list:
        return self._weights


# Each surface congruence's weights rewritten: its P2 rho set to 1, or its Fn
# rho factors given one sign.  Either admits fewer tuples in degree 1.
REWRITES = {
    "c2-m2-p2-rho-one": ("c2-m2", lambda w: [(p, s, rho and (1, 1)) for p, s, rho in w]),
    "g2-fn-rho-positive": ("g2", lambda w: [(p, s, rho and (abs(rho[0]), 2)) for p, s, rho in w]),
}


@pytest.mark.parametrize("rewrite", sorted(REWRITES))
def test_rewritten_surface_weights_change_the_count(rewrite):
    name, change = REWRITES[rewrite]
    triple, datum, _ = _built(name)
    system = [c if c.power == 1 else _Rewritten(c, change) for c in congruence_system(datum)]
    expected = expected_dimension(betti_numbers(triple), datum.rank, 1)
    assert solution_dimension(datum, 1) == expected
    assert solution_dimension(datum, 1, system) < expected
