"""Root systems in Bourbaki epsilon-coordinates, Weyl groups, and flag curves.

Types A, B, C, F4 and G2 are supported.  The Weyl group acts on weights
written by their labels <v, alpha_j^vee>, by integer arithmetic through the
Cartan matrix.  Each root system owns one Weyl group
(RootSystem.weyl_group), built on first use and shared by every caller.
Every orbit it walks is a coset table of W/W_I, found exactly by BFS over
the simple reflections and kept once per parabolic: the whole group is the
table of the empty parabolic, and the orbit of a tuple of fundamental
weights is the table of their joint stabilizer.
Invariant curves in G/P_I connect fixed-point cosets swapped by a
reflection.  One integer scan finds them (curve_scan), as the neighbours
s_gamma u of each coset u: each curve is two coset indices, a root index
and the pairing <u, gamma^vee>, and the GKM builder reads these integer
pairs as they are.  enumerate_curves, for `flag curves`, makes FlagCurves
of them, each with the reflection root, the weight difference of its
endpoints, and its degree over the one-dimensional Schubert classes.

Each root system is built once per label from its simple roots, the only
hand-written root data.  Its integer Cartan matrix is computed once, and the
positive roots are derived from it: in simple-root coordinates they are the
closure of the simple roots under the simple reflections.  Each is tabulated
with its integer labels, coroot row and direction (RootSystem.roots), so
the curve scan does no rational arithmetic.  Weights stay integer
vectors: labels, and epsilon-coordinate numerators over one common
denominator per system (RootSystem.numerators).  Rationals remain where
they are emitted or solved for: the simple roots and fundamental weights,
root vectors, coset anchors (built on first use), the weights and degrees
of enumerate_curves, and solve_linear.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

from .common import QQ, _by_value, as_rational, direction

Vector = tuple


def vec(values) -> Vector:
    return tuple(as_rational(v) for v in values)


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vscale(q, a: Vector) -> Vector:
    q = as_rational(q)
    return tuple(q * x for x in a)


def inner(a: Vector, b: Vector):
    """The Euclidean inner product: an int for integer vectors, exact always."""
    return sum(map(mul, a, b))


def pairing(alpha: Vector, lam: Vector) -> QQ:
    """The coroot pairing 2(alpha, lam)/(alpha, alpha)."""
    norm = inner(alpha, alpha)
    if not norm:
        raise ValueError("pairing requires a nonzero root")
    return QQ(2 * inner(alpha, lam), norm)


def reflect(alpha: Vector, v: Vector) -> Vector:
    return vsub(v, vscale(pairing(alpha, v), alpha))


def solve_linear(matrix, rhs):
    """Exact Gaussian elimination; `matrix` is a list of rows over rationals."""
    n = len(matrix)
    m = len(matrix[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for c in range(m):
        pivot_row = next((i for i in range(r, n) if aug[i][c]), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        scale = aug[r][c]
        aug[r] = [x / scale for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if aug[i][m]:
            raise ValueError("inconsistent linear system")
    solution = [QQ(0)] * m
    for row, c in enumerate(pivots):
        solution[c] = aug[row][m]
    return solution


def _simple_roots(letter: str, rank: int):
    e = lambda i, dim: tuple(QQ(1) if j == i else QQ(0) for j in range(dim))
    if letter == "A":
        if rank < 1:
            raise ValueError("type A needs rank >= 1")
        dim = rank + 1
        return [vsub(e(i, dim), e(i + 1, dim)) for i in range(rank)], dim
    if letter == "B":
        if rank < 2:
            raise ValueError("type B needs rank >= 2")
        roots = [vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        roots.append(e(rank - 1, rank))
        return roots, rank
    if letter == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        roots = [vsub(e(i, rank), e(i + 1, rank)) for i in range(rank - 1)]
        roots.append(vscale(2, e(rank - 1, rank)))
        return roots, rank
    if letter == "F":
        if rank != 4:
            raise ValueError("type F has rank 4")
        h = QQ(1, 2)
        return [
            vsub(e(1, 4), e(2, 4)),
            vsub(e(2, 4), e(3, 4)),
            e(3, 4),
            (h, -h, -h, -h),
        ], 4
    if letter == "G":
        if rank != 2:
            raise ValueError("type G has rank 2")
        return [vec((1, -1, 0)), vec((-2, 1, 1))], 3
    raise ValueError(f"unsupported Cartan type {letter!r}")


def _positive_coordinates(cartan) -> dict:
    """The positive roots in simple-root coordinates, mapped to their labels.

    s_i sends c to c - <c, alpha_i^vee> e_i and permutes the positive roots
    other than alpha_i, so the positive roots are the closure of the simple
    roots under the simple reflections.  Sorted by height, then with the
    lower simple roots first.
    """
    rank = len(cartan)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    found = dict(zip(simple, cartan))
    queue = deque(simple)
    while queue:
        coords = queue.popleft()
        labels = found[coords]
        for i, p in enumerate(labels):
            if p and coords != simple[i]:
                image = coords[:i] + (coords[i] - p,) + coords[i + 1 :]
                if image not in found:
                    found[image] = tuple(x - p * r for x, r in zip(labels, cartan[i]))
                    queue.append(image)
    order = sorted(found, key=lambda c: (sum(c), tuple(-x for x in c)))
    return {coords: found[coords] for coords in order}


class PositiveRoot(NamedTuple):
    """A positive root gamma with its integer data, tabulated once per system."""

    vector: Vector  # gamma in epsilon-coordinates
    labels: tuple  # <gamma, alpha_j^vee>, j = 1..rank
    coroot: tuple  # <omega_j, gamma^vee>, so <v, gamma^vee> = coroot . labels(v)
    direction: tuple  # direction(gamma), from its integer numerators


class RootSystem:
    """A root system, with its integer Cartan matrix and positive-root table.

    Weights are written by their labels <v, alpha_j^vee>; their
    epsilon-coordinates are integer numerators over the common denominator
    den of the fundamental weights (numerators), and rational vectors are
    built only for results (vector).  Built once per label (root_system) and
    immutable by convention; its __dict__ holds the cached weyl_group.
    """

    __slots__ = (
        "letter",
        "rank",
        "dim",
        "simple_roots",
        "fundamental_weights",
        "cartan",  # row i holds the labels of alpha_i: <alpha_i, alpha_j^vee>
        "den",
        "columns",  # column k holds the k-th coordinates of the omega_j, times den
        "roots",  # the PositiveRoot table
        "__dict__",
    )

    def __init__(
        self,
        letter: str,
        rank: int,
        dim: int,
        simple_roots: tuple,
        fundamental_weights: tuple,
        cartan: tuple,
        den: int,
        columns: tuple,
    ):
        self.letter, self.rank, self.dim = letter, rank, dim
        self.simple_roots, self.fundamental_weights = simple_roots, fundamental_weights
        self.cartan, self.den, self.columns = cartan, den, columns
        # <omega_j, gamma^vee> = c_j |alpha_j|^2 / |gamma|^2 for gamma = sum c_i alpha_i,
        # and 2 |gamma|^2 = sum_i c_i <gamma, alpha_i^vee> |alpha_i|^2; every
        # supported type has integer |alpha_i|^2.
        norms = [int(inner(a, a)) for a in simple_roots]
        table = []
        for coords, labels in _positive_coordinates(cartan).items():
            twice = sum(c * x * n for c, x, n in zip(coords, labels, norms))
            coroot = tuple(2 * c * n // twice for c, n in zip(coords, norms))
            numerators = self.numerators(labels)
            vector = tuple(QQ(x, den) for x in numerators)
            table.append(PositiveRoot(vector, labels, coroot, direction(numerators)))
        self.roots = tuple(table)

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def positive_roots(self) -> tuple:
        return tuple(root.vector for root in self.roots)

    @cached_property
    def weyl_group(self) -> "WeylGroup":
        """The Weyl group of the system, built on first use; one per system."""
        return WeylGroup(self)

    def weyl_vector(self) -> Vector:
        return self.vector((1,) * self.rank)

    def simple_root(self, i: int) -> Vector:
        """Bourbaki-numbered simple root, i in 1..rank."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range for {self.label}")
        return self.simple_roots[i - 1]

    def fundamental_weight(self, i: int) -> Vector:
        if not 1 <= i <= self.rank:
            raise ValueError(f"fundamental weight index {i} out of range for {self.label}")
        return self.fundamental_weights[i - 1]

    def numerators(self, labels) -> tuple:
        """The epsilon-coordinates of sum_j labels_j omega_j, times den.

        Integers, proportional to the weight by a positive factor: signs of
        pairings, their order and directions are those of the weight.
        """
        return tuple([sum(map(mul, labels, column)) for column in self.columns])

    def vector(self, labels) -> Vector:
        """The weight sum_j labels_j omega_j in epsilon-coordinates."""
        den = self.den
        return tuple(QQ(n, den) for n in self.numerators(labels))

    def decompose_in_simple_roots(self, root: Vector):
        """Coefficients n_i with root = sum n_i alpha_i."""
        matrix = [
            [self.simple_roots[j][i] for j in range(self.rank)] for i in range(self.dim)
        ]
        return solve_linear(matrix, list(root))


@lru_cache(maxsize=None)
def root_system(label: str) -> RootSystem:
    """The root system of a label like "G2", "C2", "B3", "F4", "A3".

    Built once per label from its simple roots: RootSystem is immutable, so
    every caller shares it.
    """
    letter = label[:1].upper()
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise ValueError(f"cannot parse Cartan type {label!r}") from exc
    simple, dim = _simple_roots(letter, rank)
    cartan = tuple(tuple(int(pairing(b, a)) for b in simple) for a in simple)
    # Fundamental weights inside the root span: omega_i = sum_k c_k alpha_k with
    # <omega_i, alpha_j^vee> = sum_k c_k cartan[k][j] = delta_ij.
    matrix = [[QQ(x) for x in column] for column in zip(*cartan)]
    weights = []
    for i in range(rank):
        coeffs = solve_linear(matrix, [QQ(int(j == i)) for j in range(rank)])
        w = (QQ(0),) * dim
        for c, a in zip(coeffs, simple):
            w = vadd(w, vscale(c, a))
        weights.append(w)
    den = lcm(*(int(c.denominator) for w in weights for c in w))
    return RootSystem(
        letter=letter,
        rank=rank,
        dim=dim,
        simple_roots=tuple(simple),
        fundamental_weights=tuple(weights),
        cartan=cartan,
        den=den,
        columns=tuple(tuple(int(w[k] * den) for w in weights) for k in range(dim)),
    )


@_by_value("word", "labels")
class Coset:
    """A coset of W/W_I: shortest word and its action on the defining weight.

    Compared by word and labels; its __dict__ holds the cached anchor."""

    __slots__ = (
        "word",  # composition of simple reflections, leftmost applied last
        "labels",  # the anchor's labels <anchor, alpha_j^vee>, j = 1..rank
        "system",
        "__dict__",
    )

    def __init__(self, word: tuple, labels: tuple, system: RootSystem):
        self.word, self.labels, self.system = word, labels, system

    @cached_property
    def anchor(self) -> Vector:
        """The word applied to the coset's defining dominant weight, in
        epsilon-coordinates; built on first use, as most callers need only
        the labels."""
        return self.system.vector(self.labels)

    def name(self, prefix: str) -> str:
        return f"{prefix}({''.join(str(i) for i in self.word)})"


class WeylGroup:
    """The Weyl group of a root system, acting on weights by their labels.

    A weight v is written by its labels l_j = <v, alpha_j^vee>.  The simple
    reflection s_i acts as l_j <- l_j - l_i <alpha_i, alpha_j^vee>, so on
    integral weights the group acts by integer arithmetic through the Cartan
    matrix of the system.  Coset tables of W/W_I are enumerated on demand
    and kept, one per parabolic, the whole group being the table of the
    empty parabolic; each system has one, RootSystem.weyl_group.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self._cosets = {}

    @property
    def order(self) -> int:
        return len(self.elements())

    def elements(self):
        """All elements, as the cosets of the empty parabolic: each a
        shortest word with the labels of its image of the Weyl vector."""
        return self.cosets(())

    def _reflect(self, labels: tuple, i: int) -> tuple:
        c = labels[i]
        if not c:
            return labels
        return tuple([x - c * r for x, r in zip(labels, self.system.cartan[i])])

    def apply_word(self, word, v: Vector) -> Vector:
        """The word applied to any rational vector v, exactly.

        The reflections act on the labels of v; the image is v plus
        sum_j (l'_j - l_j) omega_j, which is exact also off the root span.
        """
        before = tuple(pairing(a, v) for a in self.system.simple_roots)
        after = before
        for i in reversed(word):
            if not 1 <= i <= self.system.rank:
                raise ValueError(f"simple root index {i} out of range for {self.system.label}")
            after = self._reflect(after, i - 1)
        for x, y, omega in zip(after, before, self.system.fundamental_weights):
            if x != y:
                v = vadd(v, vscale(x - y, omega))
        return v

    def orbit(self, seed: tuple) -> list:
        """The orbit of a tuple of label vectors, as (word, image) pairs.

        BFS over the simple reflections, acting on every vector of the tuple
        at once: images come in BFS order, each with a shortest word, built by
        left action (leftmost letter applied last).  coset_orbit runs it once
        per parabolic and keeps the result.
        """
        start = ((), seed)
        seen = {seed}
        queue = deque([start])
        out = [start]
        step = self._reflect
        while queue:
            word, point = queue.popleft()
            for i in range(self.system.rank):
                image = tuple([step(labels, i) for labels in point])
                if image not in seen:
                    seen.add(image)
                    nxt = ((i + 1,) + word, image)
                    queue.append(nxt)
                    out.append(nxt)
        return out

    def cosets(self, parabolic) -> list:
        """Shortest representatives of W/W_I for I given by 1-based indices."""
        return list(self.coset_orbit(parabolic)[0])

    def coset_orbit(self, parabolic):
        """Cosets of W/W_I and, for each coset w W_I, the labels of w.omega_i
        for every i outside I, in increasing i; memoised per parabolic."""
        parabolic = frozenset(parabolic)
        cached = self._cosets.get(parabolic)
        if cached is not None:
            return cached
        rank = self.system.rank
        for i in parabolic:
            if not 1 <= i <= rank:
                raise ValueError(f"parabolic index {i} out of range")
        if len(parabolic) == rank:
            cached = [Coset((), (1,) * rank, self.system)], [()]
        else:
            # The tuple (omega_i)_{i not in I} has stabilizer W_I, like their sum.
            seed = tuple(
                tuple(int(j == i) for j in range(1, rank + 1))
                for i in range(1, rank + 1)
                if i not in parabolic
            )
            cosets, images = [], []
            for word, image in self.orbit(seed):
                labels = tuple(map(sum, zip(*image)))
                cosets.append(Coset(word, labels, self.system))
                images.append(image)
            cached = cosets, images
        self._cosets[parabolic] = cached
        return cached


@_by_value()
class FlagCurve:
    """An invariant curve in G/P_I between the fixed points of two cosets."""

    __slots__ = (
        "u",
        "v",
        "root",  # positive root of the connecting reflection
        "weight",  # difference of the endpoint weights; a multiple of root
        "degree",  # Schubert-class coefficients, keyed by simple index
        "root_index",  # position of root in system.roots
    )

    def __init__(
        self, u: Coset, v: Coset, root: Vector, weight: Vector, degree: dict, root_index: int
    ):
        self.u, self.v, self.root, self.weight = u, v, root, weight
        self.degree, self.root_index = degree, root_index

    @property
    def total_degree(self) -> QQ:
        return sum(self.degree.values(), start=QQ(0))


def curve_degree(system: RootSystem, alpha: Vector, parabolic) -> dict:
    """Degree of the curve attached to a positive root, over sigma(s_beta).

    The coefficient on the class of the curve for simple root beta outside
    the parabolic is n_{alpha,beta} (beta,beta)/(alpha,alpha).
    """
    parabolic = frozenset(parabolic)
    coeffs = system.decompose_in_simple_roots(alpha)
    outside = [i for i in range(1, system.rank + 1) if i not in parabolic]
    if all(not coeffs[i - 1] for i in outside):
        raise ValueError("root lies in the parabolic subsystem; no curve degree")
    norm = inner(alpha, alpha)
    out = {}
    for i in outside:
        n = coeffs[i - 1]
        if n:
            beta = system.simple_root(i)
            out[i] = n * inner(beta, beta) / norm
    return out


def curve_scan(system: RootSystem, parabolic) -> list:
    """Every invariant curve of G/P_I, as integers: (a, b, k, p).

    a < b are the indices in system.weyl_group.cosets(parabolic) of the
    cosets the curve joins, k the position of its root gamma in
    system.roots, and p = <u, gamma^vee> the pairing of the lower coset u =
    w.lambda, so that the other endpoint is s_gamma u = u - p gamma and the
    curve's weight is p gamma.  The scan is integer arithmetic on the root
    table: one dot product over the labels of u per (coset, root) pair.  The
    cosets come in BFS order, which is the order of their lengths, and
    s_gamma u is the longer coset exactly when p > 0; so each curve is found
    once, from its lower endpoint, and only then is its upper endpoint
    looked up.  Curves come sorted by (a, b).
    """
    cosets = system.weyl_group.coset_orbit(parabolic)[0]
    if len(cosets) < 2:  # G/P_I is a point
        return []
    index = {c.labels: k for k, c in enumerate(cosets)}
    table = [(k, root.coroot, root.labels) for k, root in enumerate(system.roots)]
    out = []
    for a, u in enumerate(cosets):
        labels = u.labels
        found = []
        for k, coroot, gamma in table:
            # <v, gamma^vee> = sum_j c_j <v, alpha_j^vee> with c_j = <omega_j, gamma^vee>.
            p = sum(map(mul, coroot, labels))
            if p > 0:
                found.append((index[tuple([x - p * g for x, g in zip(labels, gamma)])], k, p))
        found.sort()
        out += [(a, b, k, p) for b, k, p in found]
    return out


def enumerate_curves(system: RootSystem, parabolic) -> list:
    """All invariant curves of G/P_I with roots, weights and degrees.

    The curves of curve_scan, in its order, as FlagCurves.  The weight of a
    curve is p gamma, and its degree on sigma(s_i) is |<w.omega_i, gamma^vee>|,
    which is curve_degree(w^-1 gamma) by W-invariance, read off the images
    of the omega_i that the coset orbit keeps.  Each distinct weight and
    degree value is built once and shared between curves.
    """
    cosets, images = system.weyl_group.coset_orbit(parabolic)
    outside = [i for i in range(1, system.rank + 1) if i not in parabolic]
    weights = {}  # (root index, p) -> p gamma
    values = {}  # |q| -> QQ(|q|)
    out = []
    for a, b, k, p in curve_scan(system, parabolic):
        root = system.roots[k]
        weight = weights.get((k, p))
        if weight is None:
            weight = weights[k, p] = vscale(p, root.vector)
        degree = {}
        for i, omega in zip(outside, images[a]):
            q = abs(sum(map(mul, root.coroot, omega)))
            if q:
                degree[i] = values.get(q) or values.setdefault(q, QQ(q))
        out.append(FlagCurve(cosets[a], cosets[b], root.vector, weight, degree, k))
    return out
