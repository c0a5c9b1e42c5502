"""GKM data with two-dimensional surface corrections.

A datum records isolated fixed points, weighted edges (one per invariant
curve), and surface components: projective planes and Hirzebruch surfaces
sitting inside the fixed locus of a codimension-one subtorus.  The datum
generates a congruence system; a tuple of series indexed by the fixed points
belongs to the image of restriction iff every congruence holds, and the
checker returns a machine-readable certificate either way.

Each congruence is a list of per-point weights, +-1 or +-rho_factor, and
its residual is built from that list.  The checker does not build
residuals: it converts each point value to logarithmic coordinates once
and reduces every congruence as a combination of the values' restrictions
to the congruence's hyperplane (TorusRing.reduce_combination), so a
congruence costs rational linear maps, not series products.

Surface components also carry explicit generator tuples and a closed-form
decomposition of any member over those generators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .coeff_series import QQ, TruncatedSeries, as_rational
from .torus_ring import Character, RemainderReport, LocalizedElement, TorusRing

P2_MODELS = ("V0V1", "V2")
QQ_HALF = QQ(1, 2)


class GkmValidationError(ValueError):
    pass


class DecompositionError(ValueError):
    pass


def _check_keys(obj, what: str, required: tuple, optional: tuple = ()) -> None:
    """Reject a JSON object with a missing or an unknown key: a misspelt
    optional key would otherwise drop its part of the datum silently."""
    if not isinstance(obj, dict):
        raise GkmValidationError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise GkmValidationError(f"{what} is missing the key(s) {', '.join(map(repr, missing))}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise GkmValidationError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")


@dataclass(frozen=True)
class SurfaceComponent:
    """A surface in the fixed locus of a codimension-one subtorus.

    kind is "P2" (3 points, needs a model tag), "F0" or "Fn" (4 points,
    "Fn" needs the index n >= 1).  Points are stored in weight order, top
    first; alpha is the root attached to the subtorus.
    """

    kind: str
    points: tuple
    alpha: Character
    n: int | None = None
    model: str | None = None

    def validate(self):
        if self.kind not in ("P2", "F0", "Fn"):
            raise GkmValidationError(f"unknown surface kind {self.kind!r}")
        expected = 3 if self.kind == "P2" else 4
        if len(self.points) != expected:
            raise GkmValidationError(
                f"{self.kind} component must list {expected} points, got {len(self.points)}"
            )
        if len(set(self.points)) != len(self.points):
            raise GkmValidationError("surface component points must be distinct")
        if self.alpha.is_zero():
            raise GkmValidationError("surface root must be nonzero")
        if self.kind == "P2" and self.model not in P2_MODELS:
            raise GkmValidationError("P2 component needs a model tag V0V1 or V2")
        if self.kind == "Fn" and (self.n is None or self.n < 1):
            raise GkmValidationError("Fn component needs an index n >= 1")

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "points": list(self.points), "alpha": self.alpha.to_json_obj()}
        if self.n is not None:
            obj["n"] = self.n
        if self.model is not None:
            obj["model"] = self.model
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "SurfaceComponent":
        _check_keys(obj, "surface", ("kind", "points", "alpha"), ("n", "model"))
        return cls(
            kind=obj["kind"],
            points=tuple(obj["points"]),
            alpha=Character.from_json_obj(obj["alpha"]),
            n=obj.get("n"),
            model=obj.get("model"),
        )


@dataclass(frozen=True)
class GkmEdge:
    a: str
    b: str
    weight: Character

    def to_json_obj(self) -> dict:
        return {"a": self.a, "b": self.b, "weight": self.weight.to_json_obj()}

    @classmethod
    def from_json_obj(cls, obj) -> "GkmEdge":
        _check_keys(obj, "edge", ("a", "b", "weight"))
        return cls(obj["a"], obj["b"], Character.from_json_obj(obj["weight"]))


@dataclass
class GkmDatum:
    rank: int
    points: tuple
    edges: tuple
    surfaces: tuple = ()
    ordering: tuple | None = None  # covector used to order surface points

    def __post_init__(self):
        self.points = tuple(self.points)
        self.edges = tuple(self.edges)
        self.surfaces = tuple(self.surfaces)
        if self.ordering is not None:
            self.ordering = tuple(as_rational(c) for c in self.ordering)

    def validate(self):
        seen = set(self.points)
        if len(seen) != len(self.points):
            raise GkmValidationError("duplicate fixed-point names")
        if self.ordering is not None and len(self.ordering) != self.rank:
            raise GkmValidationError(
                f"ordering covector 'lambda' has length {len(self.ordering)}, "
                f"but the datum has rank {self.rank}"
            )
        for e in self.edges:
            if e.a == e.b:
                raise GkmValidationError(f"edge endpoints must differ ({e.a})")
            if e.a not in seen or e.b not in seen:
                raise GkmValidationError(f"edge endpoint not in the point list: {e.a}, {e.b}")
            if e.weight.is_zero():
                raise GkmValidationError("edge weight must be nonzero")
            if e.weight.rank != self.rank:
                raise GkmValidationError("edge weight rank mismatch")
        for s in self.surfaces:
            s.validate()
            if s.alpha.rank != self.rank:
                raise GkmValidationError("surface root rank mismatch")
            for p in s.points:
                if p not in seen:
                    raise GkmValidationError(f"surface point {p} not in the point list")

    def to_json_obj(self) -> dict:
        obj = {
            "rank": self.rank,
            "points": sorted(self.points),
            "edges": [e.to_json_obj() for e in _canonical_edges(self.edges)],
            "surfaces": [s.to_json_obj() for s in sorted(self.surfaces, key=lambda s: s.points)],
        }
        if self.ordering is not None:
            obj["lambda"] = [str(c) for c in self.ordering]
        return obj

    @classmethod
    def from_json_obj(cls, obj) -> "GkmDatum":
        _check_keys(obj, "datum", ("rank", "points", "edges"), ("surfaces", "lambda"))
        return cls(
            rank=int(obj["rank"]),
            points=tuple(obj["points"]),
            edges=tuple(GkmEdge.from_json_obj(e) for e in obj["edges"]),
            surfaces=tuple(SurfaceComponent.from_json_obj(s) for s in obj.get("surfaces", [])),
            ordering=tuple(obj["lambda"]) if "lambda" in obj else None,
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"


def _canonical_edges(edges):
    def key(e):
        a, b = sorted((e.a, e.b))
        return (a, b, tuple(str(c) for c in e.weight.coords))

    ordered = []
    for e in edges:
        if e.a > e.b:
            e = GkmEdge(e.b, e.a, e.weight)
        ordered.append(e)
    return sorted(ordered, key=key)


# -- congruence constraints ----------------------------------------------------

_KIND_ORDER = {"edge": 0, "p2": 1, "f0": 2, "fn": 3}


@dataclass(frozen=True)
class CongruenceConstraint:
    """One congruence on a tuple of fixed-point values.

    kind "edge": f_a - f_b = 0 mod c(chi).
    kind "p2":   (f_x - f_y) + rho_{1/2} c(alpha) (f_z - f_x) = 0 mod c(alpha)^2.
    kind "f0":   f_w - f_x - f_y + f_z = 0 mod c(alpha)^2.
    kind "fn":   rho_{n/2} c(a)(f_y - f_z) + rho_{-n/2} c(a)(f_w - f_x) = 0 mod c(a)^2.
    """

    kind: str
    points: tuple
    character: Character
    power: int
    n: int | None = None

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
        if self.kind == "fn":
            w, x, y, z = self.points
            up, down = (self.n, 2), (-self.n, 2)
            return [(y, 1, up), (z, -1, up), (w, 1, down), (x, -1, down)]
        raise GkmValidationError(f"unknown constraint kind {self.kind!r}")

    def residual(self, values: dict, ring: TorusRing) -> TruncatedSeries:
        """The series whose divisibility by c(character)^power is required."""
        groups: dict = {}
        for point, sign, rho in self.weights():
            f = values[point] if sign > 0 else -values[point]
            groups[rho] = groups[rho] + f if rho in groups else f
        total = None
        for rho, f in groups.items():
            if rho is not None:
                f = ring.rho_factor(*rho, self.character) * f
            total = f if total is None else total + f
        return total

    def describe(self) -> str:
        c = f"c(L_{self.character.render()})"
        if self.kind == "edge":
            a, b = self.points
            return f"f[{a}] = f[{b}] mod {c}"
        if self.kind == "p2":
            x, y, z = self.points
            return f"(f[{x}]-f[{y}]) + rho_(1/2){c}*(f[{z}]-f[{x}]) = 0 mod {c}^2"
        if self.kind == "f0":
            w, x, y, z = self.points
            return f"f[{w}]-f[{x}]-f[{y}]+f[{z}] = 0 mod {c}^2"
        w, x, y, z = self.points
        return (
            f"rho_({self.n}/2){c}*(f[{y}]-f[{z}])"
            f" + rho_(-{self.n}/2){c}*(f[{w}]-f[{x}]) = 0 mod {c}^2"
        )

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
        return cls(
            kind=obj["kind"],
            points=tuple(obj["points"]),
            character=Character.from_json_obj(obj["character"]),
            power=int(obj["power"]),
            n=obj.get("n"),
        )


def _surface_chain_edges(surface: SurfaceComponent):
    """The invariant curves inside a surface, as ordered point pairs."""
    p = surface.points
    if surface.kind == "P2":
        return [(p[0], p[1]), (p[1], p[2])]
    if surface.kind == "F0":
        w, x, y, z = p
        return [(w, x), (w, y), (x, z), (y, z)]
    w, x, y, z = p
    return [(w, x), (x, y), (y, z), (w, z)]


def congruence_system(datum: GkmDatum) -> list:
    """All congruences of a datum, canonically ordered and deduplicated."""
    datum.validate()
    out = []
    for e in datum.edges:
        a, b = sorted((e.a, e.b))
        out.append(CongruenceConstraint("edge", (a, b), e.weight, 1))
    for s in datum.surfaces:
        for a, b in _surface_chain_edges(s):
            a, b = sorted((a, b))
            out.append(CongruenceConstraint("edge", (a, b), s.alpha, 1))
        if s.kind == "P2":
            out.append(CongruenceConstraint("p2", s.points, s.alpha, 2))
        elif s.kind == "F0":
            out.append(CongruenceConstraint("f0", s.points, s.alpha, 2))
        else:
            out.append(CongruenceConstraint("fn", s.points, s.alpha, 2, n=s.n))
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
    missing = [p for p in datum.points if p not in values]
    if missing:
        raise GkmValidationError(f"tuple is missing values at {', '.join(sorted(missing))}")
    extra = [p for p in values if p not in set(datum.points)]
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


def surface_generators(surface: SurfaceComponent, ring: TorusRing) -> list:
    """The generator tuples of one surface, unit first, keyed by point name."""
    surface.validate()
    alpha = surface.alpha
    one, zero = ring.one(), ring.zero()
    c = ring.chern
    if surface.kind == "P2":
        x, y, z = surface.points
        if surface.model == "V0V1":
            line_y, line_z = c(alpha.scale(QQ_HALF)), c(alpha)
        else:
            line_y, line_z = c(alpha), c(alpha.scale(2))
        return [
            {x: one, y: one, z: one},
            {x: zero, y: line_y, z: line_z},
            {x: zero, y: zero, z: line_y * line_z},
        ]
    w, x, y, z = surface.points
    if surface.kind == "F0":
        cm = c(-alpha)
        return [
            {w: one, x: one, y: one, z: one},
            {w: cm, x: cm, y: zero, z: zero},
            {w: cm, x: zero, y: cm, z: zero},
            {w: cm * cm, x: zero, y: zero, z: zero},
        ]
    half = alpha.scale(QQ_HALF * surface.n)
    cm, cp, cn = c(-alpha), c(half), c(-half)
    return [
        {w: one, x: one, y: one, z: one},
        {w: cm, x: cm, y: zero, z: zero},
        {w: zero, x: cp, y: cn, z: zero},
        {w: cm * cn, x: zero, y: zero, z: zero},
    ]


@dataclass
class Decomposition:
    coefficients: list
    certified_order: int


def _divide_all(ring: TorusRing, numerator: TruncatedSeries, chars) -> TruncatedSeries:
    result = ring.clear_denominators(LocalizedElement(numerator, tuple(chars)))
    if not result.ok:
        ch, _ = result.obstruction
        raise DecompositionError(
            f"tuple is not decomposable: numerator not divisible by c(L_{ch.render()})"
        )
    return result.series


def surface_decompose(surface: SurfaceComponent, values: dict, ring: TorusRing) -> Decomposition:
    """Coefficients of a member tuple over the surface generators.

    The closed forms are exact divisions; congruence failure or a division
    remainder raises DecompositionError.
    """
    surface.validate()
    datum = GkmDatum(
        rank=ring.rank,
        points=surface.points,
        edges=(),
        surfaces=(surface,),
    )
    certificate = check_membership(datum, values, ring)
    if not certificate.is_member:
        failed = certificate.failures()[0]
        raise DecompositionError(
            f"tuple violates the surface congruences: {failed.constraint.describe()}"
        )
    alpha = surface.alpha
    c = ring.chern
    if surface.kind == "P2":
        x, y, z = surface.points
        fx, fy, fz = values[x], values[y], values[z]
        step = alpha.scale(QQ_HALF) if surface.model == "V0V1" else alpha
        double = alpha if surface.model == "V0V1" else alpha.scale(2)
        coeff1 = fx
        coeff2 = _divide_all(ring, fy - fx, [step])
        numerator = (fx - fy) * c(double) + c(step) * (fz - fx)
        coeff3 = _divide_all(ring, numerator, [step, step, double])
        coeffs = [coeff1, coeff2, coeff3]
    elif surface.kind == "F0":
        w, x, y, z = surface.points
        fw, fx, fy, fz = values[w], values[x], values[y], values[z]
        coeffs = [
            fz,
            _divide_all(ring, fx - fz, [-alpha]),
            _divide_all(ring, fy - fz, [-alpha]),
            _divide_all(ring, fw - fx - fy + fz, [-alpha, -alpha]),
        ]
    else:
        w, x, y, z = surface.points
        fw, fx, fy, fz = values[w], values[x], values[y], values[z]
        half = alpha.scale(QQ_HALF * surface.n)
        coeff2_num = (fz - fy) * c(half) + (fx - fz) * c(-half)
        coeff4_num = (fy - fz) * c(half) + c(-half) * (fw - fx)
        coeffs = [
            fz,
            _divide_all(ring, coeff2_num, [-half, -alpha]),
            _divide_all(ring, fy - fz, [-half]),
            _divide_all(ring, coeff4_num, [-half, -half, -alpha]),
        ]
    certified = min(cf.order for cf in coeffs)
    return Decomposition(coeffs, certified)


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
