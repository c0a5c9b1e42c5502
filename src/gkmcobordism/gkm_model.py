"""Membership certificates and surface decompositions: the series half of
the congruence system.

The GKM datum generates a congruence system (gkm_datum.congruence_system);
a tuple of series indexed by the fixed points belongs to the image of
restriction iff every congruence holds, and the checker returns a
machine-readable certificate either way.  Each congruence is a list of
per-point weights, +-1 or +-rho_{n/m}(c) (CongruenceConstraint.weights()),
each read modulo c^2 to first order, q + b e_2 c, which is exact there.
The checker builds no residual: it converts each point value to
logarithmic coordinates once and reads every verdict from a combination of
the values' restrictions to the congruence's hyperplane
(TorusRing.reduce_combination), so a passing congruence costs rational
linear maps, not series products, and a failing one's remainder is its
verdict converted back to t.

Surface components carry generator tuples (gkm_datum.generator_table), and
a member decomposes over them by a triangular solve.
"""

from __future__ import annotations

from .common import dumps
from .gkm_datum import GkmDatum, GkmValidationError, congruence_system, generator_table
from .torus_ring import LocalizedElement, RemainderReport, TorusRing


class DecompositionError(ValueError):
    pass


# -- membership certificates -----------------------------------------------------


class ConstraintResult:
    __slots__ = ("constraint", "report")

    def __init__(self, constraint, report: RemainderReport):
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


def surface_generators(surface, ring: TorusRing) -> list:
    """The generator tuples of one surface, unit first, keyed by point name:
    each generator's Chern products where it is nonzero, zero elsewhere."""
    return [
        {p: ring.chern_product(factors[p]) if p in factors else ring.zero() for p in surface.points}
        for _, factors in generator_table(surface)
    ]


class Decomposition:
    __slots__ = ("coefficients", "certified_order")

    def __init__(self, coefficients: list, certified_order: int):
        self.coefficients, self.certified_order = coefficients, certified_order


def surface_decompose(surface, values: dict, ring: TorusRing) -> Decomposition:
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
    table = generator_table(surface)
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


def reconstruct(surface, coefficients, ring: TorusRing) -> dict:
    """Sum coefficient * generator over the surface's generator list."""
    generators = surface_generators(surface, ring)
    if len(coefficients) != len(generators):
        raise ValueError("coefficient count does not match the generator count")
    out = {p: ring.zero() for p in surface.points}
    for coeff, gen in zip(coefficients, generators):
        for p, value in gen.items():
            out[p] = out[p] + coeff.truncated(value.order) * value
    return out
