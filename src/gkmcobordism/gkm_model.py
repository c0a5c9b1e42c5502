"""GKM data with two-dimensional surface corrections.

A datum records isolated fixed points, weighted edges (one per invariant
curve), and surface components: projective planes and Hirzebruch surfaces
sitting inside the fixed locus of a codimension-one subtorus.  The datum
generates a congruence system; a tuple of series indexed by the fixed points
belongs to the image of restriction iff every congruence holds, and the
checker returns a machine-readable certificate either way.

A datum and each of its surfaces check their rules when they are made, in
code or from JSON, and are immutable afterwards: every datum that exists is
valid, so nothing downstream checks one again.  The per-edge rules run in
the datum's own loop, not in each edge.

Each congruence is a list of per-point weights, +-1 or +-rho_factor, and
its residual is built from that list (TorusRing.weighted_sum).  The checker
builds a residual only for a failing congruence: it converts each point
value to logarithmic coordinates once and reads every verdict from a
combination of the values' restrictions to the congruence's hyperplane
(TorusRing.reduce_combination), so a passing congruence costs rational
linear maps, not series products.

Surface components carry generator tuples, and a member decomposes over
them by a triangular solve.

A surface kind is stated once, in two tables: SURFACE_KINDS (its point
count, its one required key and its invariant curves), read by the surface
constructor, the congruence system and parse_surface_kind (the spellings
--force-kind takes); and SURFACE_GENERATORS (each generator's Chern factors
and pivot), read by surface_generators and surface_decompose.  A
congruence's formula is stated once, in CongruenceConstraint.weights().
No other module spells a kind.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .coeff_series import (
    _INT,
    _LIST,
    _RATIONALS,
    _STR,
    _STRINGS,
    QQ,
    TruncatedSeries,
    _check_keys,
    _checked,
    as_rational,
    direction,
)
from .torus_ring import Character, RemainderReport, LocalizedElement, TorusRing

# The surface kinds: kind -> (its point count, the one key it requires, its
# invariant curves as index pairs into its points).  Its congruence kind is
# the kind in lower case.
SURFACE_KINDS = {
    "P2": (3, "model", ((0, 1), (1, 2))),
    "F0": (4, None, ((0, 1), (0, 2), (1, 3), (2, 3))),
    "Fn": (4, "n", ((0, 1), (1, 2), (2, 3), (0, 3))),
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


class DecompositionError(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceComponent:
    """A surface in the fixed locus of a codimension-one subtorus.

    kind is a key of SURFACE_KINDS: "P2" (3 points, needs a model tag),
    "F0" or "Fn" (4 points, "Fn" needs the index n >= 1); a kind takes no
    other key.  Points are stored in weight order, top first; alpha is the
    root attached to the subtorus.
    """

    kind: str
    points: tuple
    alpha: Character
    n: int | None = None
    model: str | None = None

    def __post_init__(self):
        if self.kind not in SURFACE_KINDS:
            raise GkmValidationError(f"unknown surface kind {self.kind!r}")
        expected, required, _ = SURFACE_KINDS[self.kind]
        if len(self.points) != expected:
            raise GkmValidationError(
                f"{self.kind} component must list {expected} points, got {len(self.points)}"
            )
        if len(set(self.points)) != len(self.points):
            raise GkmValidationError("surface component points must be distinct")
        if self.alpha.is_zero():
            raise GkmValidationError("surface root must be nonzero")
        if required == "model" and self.model not in P2_STEPS:
            raise GkmValidationError(
                f"{self.kind} component needs a model tag {' or '.join(P2_STEPS)}"
            )
        if required == "n" and (self.n is None or self.n < 1):
            raise GkmValidationError(f"{self.kind} component needs an index n >= 1")
        for key in ("n", "model"):
            if getattr(self, key) is not None and key != required:
                raise GkmValidationError(f"{self.kind} component takes no key {key!r}")

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


@dataclass(frozen=True)
class GkmEdge:
    a: str
    b: str
    weight: Character

    @classmethod
    def from_json_obj(cls, obj) -> "GkmEdge":
        _check_keys(obj, "edge", ("a", "b", "weight"))
        return cls(
            _checked(obj, "a", "edge", _STR),
            _checked(obj, "b", "edge", _STR),
            Character.from_json_obj(_checked(obj, "weight", "edge", _RATIONALS)),
        )


@dataclass(frozen=True)
class GkmDatum:
    rank: int
    points: tuple
    edges: tuple
    surfaces: tuple = ()
    ordering: tuple | None = None  # covector used to order surface points

    def __post_init__(self):
        if self.rank < 1:
            raise GkmValidationError(f"datum rank must be at least 1, got {self.rank}")
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "surfaces", tuple(self.surfaces))
        if self.ordering is not None:
            object.__setattr__(self, "ordering", tuple(as_rational(c) for c in self.ordering))
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
        """The datum file: byte-identical to json.dumps(obj, indent=2,
        sort_keys=True) + "\\n", where obj lists the points sorted, each edge
        as {a, b, weight} with a <= b sorted by (a, b, weight strings), the
        surfaces sorted by their points, and "lambda", "n" and "model" when
        set.  Its layout is written directly: each distinct string is escaped
        once, and each weight's block built once per Character object."""
        quoted = functools.cache(json.dumps)
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
            surface["n"] = None if s.n is None else json.dumps(s.n)
            surface["points"] = _block([quoted(p) for p in s.points], 6)
            surfaces.append(_object(surface, 4))
        ordering = self.ordering
        datum = {
            "edges": _block([text for _, text in edges], 2),
            "lambda": None if ordering is None else _block([quoted(str(c)) for c in ordering], 2),
            "points": _block([quoted(p) for p in sorted(self.points)], 2),
            "rank": json.dumps(self.rank),
            "surfaces": _block(surfaces, 2),
        }
        return _object(datum, 0) + "\n"


def _block(items, pad: int, brackets: str = "[]") -> str:
    """Encoded items in the json.dumps(indent=2) layout of a block at indent pad."""
    if not items:
        return brackets
    indent = "\n" + " " * (pad + 2)
    return brackets[0] + indent + ("," + indent).join(items) + "\n" + " " * pad + brackets[1]


def _object(fields: dict, pad: int) -> str:
    """An object of encoded values, keys in the (sorted) order given, None values left out."""
    return _block([f'"{k}": {v}' for k, v in fields.items() if v is not None], pad, "{}")


# -- congruence constraints ----------------------------------------------------

# Congruence kind -> (its point count, whether it takes the index n): the
# edge congruence, then each surface kind's in SURFACE_KINDS order, which is
# also the sort order of a congruence system.
_CONGRUENCE_KINDS = {
    "edge": (2, False),
    **{kind.lower(): (count, key == "n") for kind, (count, key, _) in SURFACE_KINDS.items()},
}
_KIND_ORDER = {kind: i for i, kind in enumerate(_CONGRUENCE_KINDS)}


@dataclass(frozen=True)
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

    kind: str
    points: tuple
    character: Character
    power: int
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _CONGRUENCE_KINDS:
            raise GkmValidationError(f"unknown congruence kind {self.kind!r}")
        count, takes_n = _CONGRUENCE_KINDS[self.kind]
        if len(self.points) != count:
            raise GkmValidationError(
                f"{self.kind} congruence must list {count} points, got {len(self.points)}"
            )
        power = 1 if self.kind == "edge" else 2
        if self.power != power:
            raise GkmValidationError(f"{self.kind} congruence has power {power}, got {self.power}")
        if self.character.is_zero():
            raise GkmValidationError("congruence character must be nonzero")
        if takes_n and self.n is None:
            raise GkmValidationError(f"{self.kind} congruence needs an index n")
        if takes_n and self.n < 1:
            raise GkmValidationError(f"{self.kind} congruence index n must be >= 1, got {self.n}")
        if not takes_n and self.n is not None:
            raise GkmValidationError(f"{self.kind} congruence takes no index n")

    def sort_key(self):
        return (
            _KIND_ORDER[self.kind],
            self.points,
            tuple(str(c) for c in self.character.coords),
            self.power,
        )

    @property
    def constraint_id(self) -> str:
        return f"{self.kind}[{','.join(self.points)}]mod{self.character.render()}^{self.power}"

    def weights(self) -> list:
        """The congruence as (point, sign, rho) triples: the residual is the
        sum of sign * f[point], times rho_factor(n, m, character) when rho is
        (n, m) rather than None."""
        if self.kind == "edge":
            a, b = self.points
            return [(a, 1, None), (b, -1, None)]
        if self.kind == "p2":
            x, y, z = self.points
            half = (1, 2)
            return [(x, 1, None), (y, -1, None), (z, 1, half), (x, -1, half)]
        if self.kind == "f0":
            w, x, y, z = self.points
            return [(w, 1, None), (x, -1, None), (y, -1, None), (z, 1, None)]
        w, x, y, z = self.points
        up, down = (self.n, 2), (-self.n, 2)
        return [(y, 1, up), (z, -1, up), (w, 1, down), (x, -1, down)]

    def residual(self, values: dict, ring: TorusRing) -> TruncatedSeries:
        """The series whose divisibility by c(character)^power is required."""
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
    return json.dumps([c.to_json_obj() for c in constraints], indent=2, sort_keys=True) + "\n"


# -- membership certificates -----------------------------------------------------


@dataclass
class ConstraintResult:
    constraint: CongruenceConstraint
    report: RemainderReport

    @property
    def passed(self) -> bool:
        return self.report.is_zero

    def to_json_obj(self) -> dict:
        obj = {
            "id": self.constraint.constraint_id,
            "constraint": self.constraint.to_json_obj(),
            "status": "pass" if self.passed else "fail",
            "certified_order": self.report.certified_order,
        }
        if not self.passed:
            obj["remainder"] = [
                c.truncated(self.report.certified_order).to_json_obj()
                for c in self.report.components
            ]
        return obj


@dataclass
class MembershipCertificate:
    results: list
    law_label: str
    order: int

    @property
    def is_member(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def to_json_obj(self) -> dict:
        return {
            "member": self.is_member,
            "law": self.law_label,
            "order": self.order,
            "constraints": [r.to_json_obj() for r in self.results],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def check_membership(datum: GkmDatum, values: dict, ring: TorusRing) -> MembershipCertificate:
    """Evaluate every congruence of the datum on a tuple of series."""
    points = set(datum.points)
    missing = [p for p in datum.points if p not in values]
    if missing:
        raise GkmValidationError(f"tuple is missing values at {', '.join(sorted(missing))}")
    extra = [p for p in values if p not in points]
    if extra:
        raise GkmValidationError(f"tuple has values at unknown points {', '.join(sorted(extra))}")
    results = []
    cache: dict = {}  # each value is converted to logarithmic coordinates once
    for constraint in congruence_system(datum):
        report = ring.reduce_combination(
            values, constraint.weights(), constraint.character, constraint.power, cache
        )
        results.append(ConstraintResult(constraint, report))
    return MembershipCertificate(results, ring.law.label, ring.order)


# -- surface generators and decomposition ------------------------------------------


def _generator_table(surface: SurfaceComponent) -> list:
    """The surface's rows of SURFACE_GENERATORS, in its point names and
    characters: (pivot, {point: Chern factors}) per generator."""
    step = P2_STEPS[surface.model] if surface.model else QQ(surface.n or 0, 2)
    points, alpha = surface.points, surface.alpha
    return [
        (points[pivot], {points[k]: tuple(alpha.scale(q) for q in qs) for k, qs in factors.items()})
        for pivot, factors in SURFACE_GENERATORS[surface.kind](step)
    ]


def surface_generators(surface: SurfaceComponent, ring: TorusRing) -> list:
    """The generator tuples of one surface, unit first, keyed by point name:
    each generator's Chern products where it is nonzero, zero elsewhere."""
    return [
        {p: ring.chern_product(factors[p]) if p in factors else ring.zero() for p in surface.points}
        for _, factors in _generator_table(surface)
    ]


@dataclass
class Decomposition:
    coefficients: list
    certified_order: int


def surface_decompose(surface: SurfaceComponent, values: dict, ring: TorusRing) -> Decomposition:
    """Coefficients of a member tuple over the surface generators.

    A triangular solve over the generator table: at a generator's pivot its
    coefficient is the value there, less the other generators' terms, over
    its own Chern factors there; each is a LocalizedElement, cleared once.
    Congruence failure, a division remainder or a coefficient known through
    no degree raises DecompositionError.
    """
    datum = GkmDatum(ring.rank, surface.points, (), (surface,))
    certificate = check_membership(datum, values, ring)
    if not certificate.is_member:
        failed = certificate.failures()[0]
        raise DecompositionError(
            f"tuple violates the surface congruences: {failed.constraint.describe()}"
        )
    table = _generator_table(surface)
    fractions: dict = {}

    # solved on demand: a generator nonzero at a pivot may come later in the
    # table (Fn's third generator is nonzero at its second one's pivot)
    def solve(i: int) -> LocalizedElement:
        if i not in fractions:
            pivot, factors = table[i]
            rest = LocalizedElement(values[pivot])
            for j, (_, other) in enumerate(table):
                if j != i and pivot in other:
                    rest = ring.loc_add(rest, -ring.loc_times(solve(j), other[pivot]))
            fractions[i] = LocalizedElement(rest.numerator, rest.denominator + factors[pivot])
        return fractions[i]

    coefficients = []
    for i in range(len(table)):
        fraction = solve(i)
        try:
            result = ring.clear_denominators(fraction)
        except ValueError as exc:  # the quotient would be known through no degree
            raise DecompositionError(str(exc)) from None
        if not result.ok:
            raise DecompositionError(
                "tuple is not decomposable: numerator not divisible by "
                f"c(L_{result.obstruction.character.render()})"
            )
        coefficients.append(result.series)
    return Decomposition(coefficients, min(c.order for c in coefficients))


def reconstruct(surface: SurfaceComponent, coefficients, ring: TorusRing) -> dict:
    """Sum coefficient * generator over the surface's generator list."""
    generators = surface_generators(surface, ring)
    if len(coefficients) != len(generators):
        raise ValueError("coefficient count does not match the generator count")
    out = {p: ring.zero() for p in surface.points}
    for coeff, gen in zip(coefficients, generators):
        for p, value in gen.items():
            out[p] = out[p] + coeff.truncated(value.order) * value
    return out
