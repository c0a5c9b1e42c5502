"""Congruence systems, membership certificates and surface decompositions.

The GKM datum (gkm_datum) generates a congruence system; a tuple of series
indexed by the fixed points belongs to the image of restriction iff every
congruence holds, and the checker returns a machine-readable certificate
either way.

Each congruence is a list of per-point weights, +-1 or +-rho_factor, and
its residual is built from that list (TorusRing.weighted_sum).  The checker
builds a residual only for a failing congruence: it converts each point
value to logarithmic coordinates once and reads every verdict from a
combination of the values' restrictions to the congruence's hyperplane
(TorusRing.reduce_combination), so a passing congruence costs rational
linear maps, not series products.  A congruence's formula is stated once,
in CongruenceConstraint.weights().

Surface components carry generator tuples (gkm_datum.SURFACE_GENERATORS),
and a member decomposes over them by a triangular solve.
"""

from __future__ import annotations

from .coeff_series import TruncatedSeries
from .common import _INT, _RATIONALS, _STR, _STRINGS, QQ, Character, _by_value, _check_keys, _checked, dumps
from .gkm_datum import (
    P2_STEPS,
    SURFACE_GENERATORS,
    SURFACE_KINDS,
    GkmDatum,
    GkmValidationError,
    SurfaceComponent,
)
from .torus_ring import LocalizedElement, RemainderReport, TorusRing


class DecompositionError(ValueError):
    pass


# -- congruence constraints ----------------------------------------------------

# Congruence kind -> (its point count, whether it takes the index n): the
# edge congruence, then each surface kind's in SURFACE_KINDS order, which is
# also the sort order of a congruence system.
_CONGRUENCE_KINDS = {
    "edge": (2, False),
    **{kind.lower(): (count, key == "n") for kind, (count, key, _) in SURFACE_KINDS.items()},
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
        count, takes_n = _CONGRUENCE_KINDS[kind]
        if len(points) != count:
            raise GkmValidationError(
                f"{kind} congruence must list {count} points, got {len(points)}"
            )
        expected = 1 if kind == "edge" else 2
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
    return dumps([c.to_json_obj() for c in constraints]) + "\n"


# -- membership certificates -----------------------------------------------------


class ConstraintResult:
    __slots__ = ("constraint", "report")

    def __init__(self, constraint: CongruenceConstraint, report: RemainderReport):
        self.constraint, self.report = constraint, report

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


class MembershipCertificate:
    __slots__ = ("results", "law_label", "order")

    def __init__(self, results: list, law_label: str, order: int):
        self.results, self.law_label, self.order = results, law_label, order

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
        return dumps(self.to_json_obj()) + "\n"


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


class Decomposition:
    __slots__ = ("coefficients", "certified_order")

    def __init__(self, coefficients: list, certified_order: int):
        self.coefficients, self.certified_order = coefficients, certified_order


def surface_decompose(surface: SurfaceComponent, values: dict, ring: TorusRing) -> Decomposition:
    """Coefficients of a member tuple over the surface generators.

    A triangular solve over the generator table: at a generator's pivot its
    coefficient is the value there, less the other generators' terms, over
    its own Chern factors there; each is a LocalizedElement, cleared once.
    Congruence failure or a coefficient known through no degree raises
    DecompositionError.  A member's numerators always divide: every factor
    is a multiple of alpha, each division reads the numerator only below its
    order, and there the certified congruences are the conditions the
    divisions test.
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
        try:
            coefficients.append(ring.clear_denominators(solve(i)).series)
        except ValueError as exc:  # the quotient would be known through no degree
            raise DecompositionError(str(exc)) from None
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
