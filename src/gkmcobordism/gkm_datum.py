"""GKM data, their surface kinds and their congruence systems.

A datum records isolated fixed points, weighted edges (one per invariant
curve), and surface components: projective planes and Hirzebruch surfaces
sitting inside the fixed locus of a codimension-one subtorus.  This module
holds the datum and the congruence system it generates, on the bottom layer
(common) and with no series arithmetic, so that the builders of data
(horospherical) and `gkm congruences` load none; gkm_model checks tuples
against the system and decomposes them over the surface generators.

A datum and each of its surfaces check their rules when they are made, in
code or from JSON, and are immutable afterwards: every datum that exists is
valid, so nothing downstream checks one again.  The per-edge rules run in
the datum's own loop, not in each edge.

A surface kind is stated once, in two tables: SURFACE_KINDS (its point
count, its one required key, its invariant curves and its congruence's
rows), read by the surface constructor, the congruence kinds, the congruence
system and parse_surface_kind (the spellings --force-kind takes); and
SURFACE_GENERATORS (each generator's Chern factors and pivot), read through
generator_table by gkm_model's surface_generators and surface_decompose.
No other module spells a kind, a congruence kind or a P2 model.
"""

from __future__ import annotations

import functools

from .common import (
    _INT,
    _LIST,
    _RATIONALS,
    _STR,
    _STRINGS,
    QQ,
    Character,
    _block,
    _by_value,
    _check_keys,
    _checked,
    _object,
    _quote,
    as_rational,
    direction,
    dumps,
)

# A congruence row (point index, sign, rho) is the term sign * f[point] of
# the residual, times rho_{a/b}(c) for (a, b) = rho(n), a function of the index
# n, and c = c(character); read modulo c^2 as q + q (q - 1) e_2 c, q = a/b.
_HALF, _UP, _DOWN = (lambda n: (1, 2)), (lambda n: (n, 2)), (lambda n: (-n, 2))

# The surface kinds: kind -> (its point count, the one key it requires, its
# invariant curves as index pairs into its points, its congruence's rows).
# Its congruence kind is the kind in lower case, modulo c(alpha)^2.
SURFACE_KINDS = {
    "P2": (
        3,
        "model",
        ((0, 1), (1, 2)),
        ((0, 1, None), (1, -1, None), (2, 1, _HALF), (0, -1, _HALF)),
    ),
    "F0": (
        4,
        None,
        ((0, 1), (0, 2), (1, 3), (2, 3)),
        ((0, 1, None), (1, -1, None), (2, -1, None), (3, 1, None)),
    ),
    "Fn": (
        4,
        "n",
        ((0, 1), (1, 2), (2, 3), (0, 3)),
        ((2, 1, _UP), (3, -1, _UP), (0, 1, _DOWN), (1, -1, _DOWN)),
    ),
}

# Each P2 model's step: its lines have weights step * alpha and 2 step * alpha.
P2_STEPS = {"V0V1": QQ(1, 2), "V2": 1}

# Each kind's generators, unit first, given the surface's step u (its P2
# model's, or n/2): per generator its pivot point and, at each point where it
# is nonzero, its Chern factors as multiples of alpha; points by index.  The
# generators nonzero at a pivot can be solved without that pivot's generator.
SURFACE_GENERATORS = {
    "P2": lambda u: (
        (0, {0: (), 1: (), 2: ()}),
        (1, {1: (u,), 2: (2 * u,)}),
        (2, {2: (u, 2 * u)}),
    ),
    "F0": lambda u: (
        (3, {0: (), 1: (), 2: (), 3: ()}),
        (1, {0: (-1,), 1: (-1,)}),
        (2, {0: (-1,), 2: (-1,)}),
        (0, {0: (-1, -1)}),
    ),
    "Fn": lambda u: (
        (3, {0: (), 1: (), 2: (), 3: ()}),
        (1, {0: (-1,), 1: (-1,)}),
        (2, {1: (u,), 2: (-u,)}),
        (0, {0: (-1, -u)}),
    ),
}


class GkmValidationError(ValueError):
    pass


@_by_value()
class SurfaceComponent:
    """A surface in the fixed locus of a codimension-one subtorus.

    kind is a key of SURFACE_KINDS: "P2" (3 points, needs a model tag),
    "F0" or "Fn" (4 points, "Fn" needs the index n >= 1); a kind takes no
    other key.  Points are stored in weight order, top first; alpha is the
    root attached to the subtorus.
    """

    __slots__ = ("kind", "points", "alpha", "n", "model")

    def __init__(
        self,
        kind: str,
        points: tuple,
        alpha: Character,
        n: int | None = None,
        model: str | None = None,
    ):
        if kind not in SURFACE_KINDS:
            raise GkmValidationError(f"unknown surface kind {kind!r}")
        expected, required, _, _ = SURFACE_KINDS[kind]
        if len(points) != expected:
            raise GkmValidationError(
                f"{kind} component must list {expected} points, got {len(points)}"
            )
        if len(set(points)) != len(points):
            raise GkmValidationError("surface component points must be distinct")
        if alpha.is_zero():
            raise GkmValidationError("surface root must be nonzero")
        if required == "model" and model not in P2_STEPS:
            raise GkmValidationError(f"{kind} component needs a model tag {' or '.join(P2_STEPS)}")
        if required == "n" and (n is None or n < 1):
            raise GkmValidationError(f"{kind} component needs an index n >= 1")
        for key, value in (("n", n), ("model", model)):
            if value is not None and key != required:
                raise GkmValidationError(f"{kind} component takes no key {key!r}")
        self.kind, self.points, self.alpha, self.n, self.model = kind, points, alpha, n, model

    @classmethod
    def from_json_obj(cls, obj) -> "SurfaceComponent":
        _check_keys(obj, "surface", ("kind", "points", "alpha"), ("n", "model"))
        return cls(
            kind=_checked(obj, "kind", "surface", _STR),
            points=tuple(_checked(obj, "points", "surface", _STRINGS)),
            alpha=Character.from_json_obj(_checked(obj, "alpha", "surface", _RATIONALS)),
            n=_checked(obj, "n", "surface", _INT),
            model=_checked(obj, "model", "surface", _STR),
        )


def parse_surface_kind(text: str) -> tuple:
    """(kind, model, n) of a surface kind spelled p2:v0v1, p2:v2, f0 or
    fn:<k> in any case: the kind in lower case, then its required key's value
    after a colon."""
    text = text.strip().lower()
    name, colon, value = text.partition(":")
    kind = {k.lower(): k for k in SURFACE_KINDS}.get(name)
    required = kind and SURFACE_KINDS[kind][1]
    if required == "n" and colon:
        try:
            n = int(value)
        except ValueError:
            raise ValueError(
                f"cannot parse surface kind {text!r}; fn:<k> takes an integer k >= 1"
            ) from None
        if n < 1:
            raise ValueError("Hirzebruch index must be >= 1")
        return kind, None, n
    models = {m.lower(): m for m in P2_STEPS}
    if required == "model" and value in models:
        return kind, models[value], None
    if kind and not required and not colon:
        return kind, None, None
    raise ValueError(f"cannot parse surface kind {text!r}; use p2:v0v1, p2:v2, f0 or fn:<k>")


@_by_value()
class GkmEdge:
    __slots__ = ("a", "b", "weight")

    def __init__(self, a: str, b: str, weight: Character):
        self.a, self.b, self.weight = a, b, weight

    @classmethod
    def from_json_obj(cls, obj) -> "GkmEdge":
        _check_keys(obj, "edge", ("a", "b", "weight"))
        return cls(
            _checked(obj, "a", "edge", _STR),
            _checked(obj, "b", "edge", _STR),
            Character.from_json_obj(_checked(obj, "weight", "edge", _RATIONALS)),
        )


@_by_value()
class GkmDatum:
    __slots__ = ("rank", "points", "edges", "surfaces", "ordering")

    def __init__(
        self,
        rank: int,
        points: tuple,
        edges: tuple,
        surfaces: tuple = (),
        ordering: tuple | None = None,  # covector used to order surface points
    ):
        if rank < 1:
            raise GkmValidationError(f"datum rank must be at least 1, got {rank}")
        self.rank = rank
        self.points = tuple(points)
        self.edges = tuple(edges)
        self.surfaces = tuple(surfaces)
        self.ordering = None if ordering is None else tuple(as_rational(c) for c in ordering)
        seen = set(self.points)
        if len(seen) != len(self.points):
            raise GkmValidationError("duplicate fixed-point names")
        if self.ordering is not None and len(self.ordering) != self.rank:
            raise GkmValidationError(
                f"ordering covector 'lambda' has length {len(self.ordering)}, "
                f"but the datum has rank {self.rank}"
            )
        by_pair: dict = {}
        for e in self.edges:
            if e.a == e.b:
                raise GkmValidationError(f"edge endpoints must differ ({e.a})")
            if e.a not in seen or e.b not in seen:
                raise GkmValidationError(f"edge endpoint not in the point list: {e.a}, {e.b}")
            if e.weight.is_zero():
                raise GkmValidationError("edge weight must be nonzero")
            if e.weight.rank != self.rank:
                raise GkmValidationError("edge weight rank mismatch")
            by_pair.setdefault((e.a, e.b) if e.a < e.b else (e.b, e.a), []).append(e.weight)
        # two edges on one pair of points are one curve when their weights
        # span one line; directions are computed only for shared pairs
        for (a, b), weights in by_pair.items():
            if len(weights) > 1:
                lines = [direction(w.coords) for w in weights]
                for line in lines:
                    if lines.count(line) > 1:
                        raise GkmValidationError(
                            f"duplicate edge between {a} and {b}: two weights on the line {line}"
                        )
        for s in self.surfaces:
            if s.alpha.rank != self.rank:
                raise GkmValidationError("surface root rank mismatch")
            for p in s.points:
                if p not in seen:
                    raise GkmValidationError(f"surface point {p} not in the point list")

    @classmethod
    def from_json_obj(cls, obj) -> "GkmDatum":
        _check_keys(obj, "datum", ("rank", "points", "edges"), ("surfaces", "lambda"))
        ordering = _checked(obj, "lambda", "datum", _RATIONALS)
        return cls(
            rank=_checked(obj, "rank", "datum", _INT),
            points=tuple(_checked(obj, "points", "datum", _STRINGS)),
            edges=tuple(GkmEdge.from_json_obj(e) for e in _checked(obj, "edges", "datum", _LIST)),
            surfaces=tuple(
                SurfaceComponent.from_json_obj(s)
                for s in _checked(obj, "surfaces", "datum", _LIST, default=[])
            ),
            ordering=None if ordering is None else tuple(ordering),
        )

    def dumps(self) -> str:
        """The datum file: byte-identical to common.dumps(obj) + "\\n",
        that is json.dumps(obj, indent=2, sort_keys=True) + "\\n", where obj
        lists the points sorted, each edge as {a, b, weight} with a <= b
        sorted by (a, b, weight strings), the surfaces sorted by their
        points, and "lambda", "n" and "model" when set.  Its layout is
        written directly, with the writer's block helpers: each distinct
        string is escaped once, and each weight's block built once per
        Character object."""
        quoted = functools.cache(_quote)
        blocks = {}  # id(character) -> (its strings, its array at edge depth)
        for ch in [e.weight for e in self.edges] + [s.alpha for s in self.surfaces]:
            if id(ch) not in blocks:
                strings = [str(c) for c in ch.coords]
                blocks[id(ch)] = strings, _block([quoted(s) for s in strings], 6)
        edges = []
        edge = _object({"a": "%s", "b": "%s", "weight": "%s"}, 4)  # filled in per edge
        for e in self.edges:
            a, b = (e.a, e.b) if e.a <= e.b else (e.b, e.a)
            strings, weight = blocks[id(e.weight)]
            edges.append(((a, b, strings), edge % (quoted(a), quoted(b), weight)))
        edges.sort(key=lambda item: item[0])
        surfaces = []
        for s in sorted(self.surfaces, key=lambda s: s.points):
            surface = {"alpha": blocks[id(s.alpha)][1], "kind": quoted(s.kind)}
            surface["model"] = None if s.model is None else quoted(s.model)
            surface["n"] = None if s.n is None else dumps(s.n)
            surface["points"] = _block([quoted(p) for p in s.points], 6)
            surfaces.append(_object(surface, 4))
        ordering = self.ordering
        datum = {
            "edges": _block([text for _, text in edges], 2),
            "lambda": None if ordering is None else _block([quoted(str(c)) for c in ordering], 2),
            "points": _block([quoted(p) for p in sorted(self.points)], 2),
            "rank": dumps(self.rank),
            "surfaces": _block(surfaces, 2),
        }
        return _object(datum, 0) + "\n"


# -- congruence systems ------------------------------------------------------------

# Congruence kind -> (its point count, its power, whether it takes the index
# n, its rows): the edge congruence, then each surface kind's in
# SURFACE_KINDS order, which is also the sort order of a congruence system.
_CONGRUENCE_KINDS = {"edge": (2, 1, False, ((0, 1, None), (1, -1, None)))} | {
    kind.lower(): (count, 2, key == "n", rows) for kind, (count, key, _, rows) in SURFACE_KINDS.items()
}
_KIND_ORDER = {kind: i for i, kind in enumerate(_CONGRUENCE_KINDS)}


@_by_value()
class CongruenceConstraint:
    """One congruence on a tuple of fixed-point values.

    kind "edge": f_a - f_b = 0 mod c(chi).
    kind "p2":   (f_x - f_y) + rho_{1/2} c(alpha) (f_z - f_x) = 0 mod c(alpha)^2.
    kind "f0":   f_w - f_x - f_y + f_z = 0 mod c(alpha)^2.
    kind "fn":   rho_{n/2} c(a)(f_y - f_z) + rho_{-n/2} c(a)(f_w - f_x) = 0 mod c(a)^2.

    A constraint checks these shapes when it is made: the kind, its point
    count, its power, a nonzero character, and an index n >= 1 exactly for
    "fn".
    """

    __slots__ = ("kind", "points", "character", "power", "n")

    def __init__(
        self, kind: str, points: tuple, character: Character, power: int, n: int | None = None
    ):
        if kind not in _CONGRUENCE_KINDS:
            raise GkmValidationError(f"unknown congruence kind {kind!r}")
        count, expected, takes_n, _ = _CONGRUENCE_KINDS[kind]
        if len(points) != count:
            raise GkmValidationError(
                f"{kind} congruence must list {count} points, got {len(points)}"
            )
        if power != expected:
            raise GkmValidationError(f"{kind} congruence has power {expected}, got {power}")
        if character.is_zero():
            raise GkmValidationError("congruence character must be nonzero")
        if takes_n and n is None:
            raise GkmValidationError(f"{kind} congruence needs an index n")
        if takes_n and n < 1:
            raise GkmValidationError(f"{kind} congruence index n must be >= 1, got {n}")
        if not takes_n and n is not None:
            raise GkmValidationError(f"{kind} congruence takes no index n")
        self.kind, self.points, self.character = kind, points, character
        self.power, self.n = power, n

    def sort_key(self):
        coords = tuple(str(c) for c in self.character.coords)
        return _KIND_ORDER[self.kind], self.points, coords, self.power

    @property
    def constraint_id(self) -> str:
        return f"{self.kind}[{','.join(self.points)}]mod{self.character.render()}^{self.power}"

    def weights(self) -> list:
        """The congruence as (point, sign, rho) triples, its kind's rows in
        its points: the residual is the sum of sign * f[point], times
        rho_{n/m}(c) for rho = (n, m), exact to first order in c."""
        return [
            (self.points[i], sign, None if rho is None else rho(self.n))
            for i, sign, rho in _CONGRUENCE_KINDS[self.kind][3]
        ]

    def residual(self, values: dict, ring):
        """The series whose divisibility by c(character)^power is required,
        from a torus_ring.TorusRing, with each rho read to first order in c:
        the full-rho sum differs by a multiple of c^2."""
        return ring.weighted_sum(values, self.weights(), self.character)

    def describe(self) -> str:
        """The congruence as text, read from weights(): per rho group its
        signed values, in parentheses beside another group, after rho_(n/m)c*."""
        c = f"c(L_{self.character.render()})"
        if self.kind == "edge":
            a, b = self.points
            return f"f[{a}] = f[{b}] mod {c}"
        groups: dict = {}
        for point, sign, rho in self.weights():
            groups.setdefault(rho, []).append(f"{'-' if sign < 0 else '+'}f[{point}]")
        parts = []
        for rho, terms in groups.items():
            text = "".join(terms).removeprefix("+")
            text = text if len(groups) == 1 else f"({text})"
            parts.append(text if rho is None else f"rho_({rho[0]}/{rho[1]}){c}*{text}")
        return " + ".join(parts) + f" = 0 mod {c}^{self.power}"

    def to_json_obj(self) -> dict:
        obj = {
            "kind": self.kind,
            "points": list(self.points),
            "character": self.character.to_json_obj(),
            "power": self.power,
        }
        if self.n is not None:
            obj["n"] = self.n
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "CongruenceConstraint":
        what = "congruence"
        _check_keys(obj, what, ("kind", "points", "character", "power"), ("n",))
        return cls(
            kind=_checked(obj, "kind", what, _STR),
            points=tuple(_checked(obj, "points", what, _STRINGS)),
            character=Character.from_json_obj(_checked(obj, "character", what, _RATIONALS)),
            power=_checked(obj, "power", what, _INT),
            n=_checked(obj, "n", what, _INT),
        )


def congruence_system(datum: GkmDatum) -> list:
    """All congruences of a datum, canonically ordered and deduplicated."""
    out = []
    for e in datum.edges:
        a, b = sorted((e.a, e.b))
        out.append(CongruenceConstraint("edge", (a, b), e.weight, 1))
    for s in datum.surfaces:
        for i, j in SURFACE_KINDS[s.kind][2]:
            a, b = sorted((s.points[i], s.points[j]))
            out.append(CongruenceConstraint("edge", (a, b), s.alpha, 1))
        out.append(CongruenceConstraint(s.kind.lower(), s.points, s.alpha, 2, n=s.n))
    unique = {c.sort_key(): c for c in out}
    return [unique[k] for k in sorted(unique)]


def congruence_system_json(constraints) -> str:
    return dumps([c.to_json_obj() for c in constraints]) + "\n"


def generator_table(surface: SurfaceComponent) -> list:
    """The surface's rows of SURFACE_GENERATORS, in its point names and
    characters: (pivot, {point: Chern factors}) per generator."""
    step = P2_STEPS[surface.model] if surface.model else QQ(surface.n or 0, 2)
    points, alpha = surface.points, surface.alpha
    return [
        (points[pivot], {points[k]: tuple(alpha.scale(q) for q in qs) for k, qs in factors.items()})
        for pivot, factors in SURFACE_GENERATORS[surface.kind](step)
    ]
