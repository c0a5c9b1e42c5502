"""Output checks for the benchmark workloads.

Every check works on the JSON form of an output and raises CheckFailed with
a reason when the output is wrong.  The references come from outside the
program: the hand-transcribed IG(2,5) congruence fixture, closed forms of the
resolved-cone pullback computed with sympy, and Weyl-group orders from the
Dynkin diagram.  Only the exit code and JSON layout of the `gkmcob` command
are assumed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# -- series in the JSON file format ------------------------------------------------


def specialize(series_obj: dict, m_value, through: int) -> dict:
    """Evaluate every m_k of a series object at m_value(k); keep t-degree <= through.

    Returns {t-exponent tuple: Fraction} without zero entries.
    """
    out: dict = {}
    for term in series_obj["terms"]:
        key = tuple(term["t_exponents"])
        if sum(key) > through:
            continue
        value = Fraction(term["coeff"])
        for k, e in term["m_exponents"]:
            value *= m_value(k) ** e
        out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v}


def truncate(poly: dict, through: int) -> dict:
    return {k: v for k, v in poly.items() if sum(k) <= through and v}


def chow_m(k: int) -> Fraction:
    """The additive law: every m_k vanishes."""
    return Fraction(0)


def k_theory_m(k: int) -> Fraction:
    """The multiplicative law with beta = 1: m_k = 1/(k+1)."""
    return Fraction(1, k + 1)


# -- closed forms of the resolved-cone pullback --------------------------------------


def pullback_closed_forms(tangent: dict, fiber: dict) -> tuple:
    """Chow and K-theory closed forms of a fiber-sum pullback, as t-polynomials.

    The pullback at the singular point is the sum over fiber points of
    prod c(-a) over the ambient weights a, divided by prod c(-b) over the
    fiber weights b.  With c(chi) = chi . t (Chow) and
    c(chi) = 1 - prod (1 - t_i)^chi_i (K-theory) the sum is a polynomial,
    which sympy finds by cancelling the rational function.
    """
    import sympy as sp

    t = sp.symbols("t1 t2")
    x = sp.symbols("x1 x2")  # x_i = 1 - t_i

    def chow(ch):
        return sum(-sp.Rational(c) * ti for c, ti in zip(ch, t))

    def k_theory(ch):
        return 1 - sp.Mul(*[xi ** (-sp.Rational(c)) for c, xi in zip(ch, x)])

    ambient = tangent["weights"][fiber["singular_point"]]
    forms = []
    for chern in (chow, k_theory):
        numerator = sp.Mul(*[chern(ch) for ch in ambient])
        total = sum(
            numerator / sp.Mul(*[chern(ch) for ch in chars])
            for chars in fiber["weights"].values()
        )
        total = sp.cancel(sp.together(total))
        require(sp.denom(total).free_symbols == set(), "closed form is not a polynomial")
        poly = sp.Poly(sp.expand(total.subs({xi: 1 - ti for xi, ti in zip(x, t)})), *t)
        forms.append({k: Fraction(int(v.p), int(v.q)) for k, v in poly.terms()})
    return forms[0], forms[1]


def denominator_factors(tangent: dict, fiber: dict) -> int:
    """Chern factors left in the common denominator of the fiber sum.

    A fiber point's term keeps the fiber weights that are not ambient
    weights at the singular point (as multisets); the common denominator
    takes each weight with its largest multiplicity over the terms.
    """
    ambient = [tuple(ch) for ch in tangent["weights"][fiber["singular_point"]]]
    common: dict = {}
    for chars in fiber["weights"].values():
        left = list(ambient)
        rest: dict = {}
        for ch in map(tuple, chars):
            if ch in left:
                left.remove(ch)
            else:
                rest[ch] = rest.get(ch, 0) + 1
        for ch, mult in rest.items():
            common[ch] = max(common.get(ch, 0), mult)
    return sum(common.values())


def require_exit(exit_code: int | None, expected: int) -> None:
    """A command's exit code; None for a library call, which has none."""
    require(exit_code is None or exit_code == expected, f"exit code {exit_code}")


def check_pullback(
    obj: dict,
    law: str,
    order: int,
    factors: int,
    chow: dict,
    k_theory: dict,
    exit_code: int | None = None,
) -> None:
    """A `mult fiber-sum --ambient --point` JSON output.

    The command must exit 0 and the division must clear.  The certificate
    must read order - factors (one order per denominator factor), and the
    cleared series must match the closed forms through that order: both of
    them after specializing the universal law, the K-theory form under
    `multiplicative:1`.
    """
    require_exit(exit_code, 0)
    require(len(obj["sum"]["den"]) == factors, f"expected {factors} denominator factors")
    require(obj["cleared"] is not None, "the denominators did not clear")
    certified = order - factors
    require(obj["certified_order"] == certified, f"certified order is not {certified}")
    series = obj["cleared"]
    require(series["order"] == certified, "cleared series order differs from its certificate")
    if law == "universal":
        targets = ((chow_m, chow, "Chow"), (k_theory_m, k_theory, "K-theory"))
    else:
        require(
            all(not term["m_exponents"] for term in series["terms"]),
            "a specialized law left m-generators",
        )
        targets = ((k_theory_m, k_theory, "K-theory"),)
    for m_value, expected, name in targets:
        got = specialize(series, m_value, certified)
        require(got == truncate(expected, certified), f"{name} closed form differs")


# -- IG(2,5) membership certificates ---------------------------------------------------


def canonical_constraints(constraints) -> list:
    return sorted(json.dumps(c, sort_keys=True) for c in constraints)


def check_certificate(
    cert: dict,
    fixture: list,
    order: int,
    law: str,
    bad_point: str | None = None,
    exit_code: int | None = None,
) -> None:
    """A `gkm check --format json` certificate.

    The congruences must be those of the fixture, each certified through
    order - power.  With bad_point None the tuple is a member: every
    congruence passes and the exit code is 0.  Otherwise exactly the
    congruences through bad_point fail and the exit code is 1.
    """
    member = bad_point is None
    require_exit(exit_code, 0 if member else 1)
    require(cert["member"] is member, f"member flag is {cert['member']}")
    require(cert["order"] == order and cert["law"] == law, "certificate order or law differs")
    entries = cert["constraints"]
    require(
        canonical_constraints(e["constraint"] for e in entries) == canonical_constraints(fixture),
        "congruence system differs from the fixture",
    )
    for e in entries:
        c = e["constraint"]
        require(e["certified_order"] == order - c["power"], f"{e['id']}: wrong certified order")
        should_fail = not member and bad_point in c["points"]
        require(e["status"] == ("fail" if should_fail else "pass"), f"{e['id']}: status {e['status']}")
        require(("remainder" in e) == should_fail, f"{e['id']}: remainder presence")


# -- horospherical data ------------------------------------------------------------------

# F4 with Bourbaki numbering: 1 - 2 => 3 - 4.
F4_BONDS = {(1, 2): 1, (2, 3): 2, (3, 4): 1}
F4_DEGREES = (2, 6, 8, 12)


def _weyl_order(nodes: set, bonds: dict) -> int:
    """Order of the Weyl group of a diagram whose components are of type A, B or C."""
    total, left = 1, set(nodes)
    while left:
        component, frontier = set(), [left.pop()]
        while frontier:
            node = frontier.pop()
            component.add(node)
            for a, b in bonds:
                for u, v in ((a, b), (b, a)):
                    if u == node and v in left:
                        left.discard(v)
                        frontier.append(v)
        n = len(component)
        doubled = any(bonds[e] == 2 for e in bonds if set(e) <= component)
        total *= 2**n * factorial(n) if doubled else factorial(n + 1)
    return total


def f4_fixed_points(removed: tuple) -> int:
    """Sum of |W| / |W_P| over the maximal parabolics P(omega_i), i in removed."""
    w = 1
    for d in F4_DEGREES:
        w *= d
    out = 0
    for i in removed:
        nodes = {1, 2, 3, 4} - {i}
        bonds = {e: m for e, m in F4_BONDS.items() if i not in e}
        out += w // _weyl_order(nodes, bonds)
    return out


def check_datum_text(
    text: bytes, reference: bytes, points: int, exit_code: int | None = None
) -> None:
    """A `horo build` output: exit 0, byte-identical to the reference, well formed."""
    require_exit(exit_code, 0)
    require(text == reference, "datum differs from the first build of the run")
    obj = json.loads(text)
    names = obj["points"]
    require(len(names) == points, f"{len(names)} points, expected {points}")
    require(len(set(names)) == len(names), "duplicate point names")
    known = set(names)
    require(all(e["a"] in known and e["b"] in known for e in obj["edges"]), "edge off the points")
    require(
        all(set(s["points"]) <= known for s in obj["surfaces"]), "surface point off the points"
    )

