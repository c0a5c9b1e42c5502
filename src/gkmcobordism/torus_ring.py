"""The equivariant coefficient ring of a torus and its localization.

A character is a rational vector in the chosen character-lattice basis; its
equivariant first Chern class is the series e(sum_i chi_i l(t_i)), which makes
chern an FGL homomorphism from characters into the series ring.
FormalGroupLaw.exp_linear builds it as e at the linear form sum_i chi_i s_i
in the logarithmic coordinates s_i = l(t_i), converted to t once with the
powers of l; rho factors and the division units are series at the same form.

The verdict of a reduction modulo a Chern class (and its square) and exact
division run in the logarithmic coordinates s_i = l(t_i).  Over Q the logarithm is an
isomorphism onto the additive law, so there chern(chi) = e(L) for the linear
form L = sum_i chi_i s_i, and e(L)/L is a unit: a series lies in the ideal of
chern(chi)^k iff it vanishes to order k along the hyperplane L = 0.
Restricting to that hyperplane, s_j = y = -sum_{i != j} (chi_i/chi_j) s_i for
the pivot j, is a linear change of variables with rational coefficients, so
each value is converted to s once (one pass per variable against the table
of powers of e) and the verdict of every congruence through it is a
rational combination of its restrictions.  The verdict is certified through
order - k, so each value is converted only through order - 1, as far as the
s_j-derivative of the square's verdict needs.  A failing remainder is built
in t instead: the residual, and for the square its t_j-derivative, on the
zero locus t_j = phi, phi = e(y) with s_i = l(t_i), one substitution of
t_j against the powers of phi.

Division by chern(chi) is division by the linear form s_j - y and by the
unit; clearing the denominators of a LocalizedElement converts its numerator
once, divides by every factor in s and converts back once.  Conversion
(FormalGroupLaw.convert, with the law's tables e^k or l^k), restriction, the
s_j-derivative on the hyperplane, division by s_j - y and the value on the
zero locus are all TruncatedSeries.substitute, with the tables y^k,
k y^(k-1), (s_j^k - y^k)/(s_j - y) and phi^k; each table is a list of
series, built on first use and kept, and every step runs on the stored
integer form.

A ring keeps its Chern classes in `_chern`, by character coords, and its rho
factors, division units and hyperplane tables in `_cache`, by tagged keys;
fgl._memo fills both, and the per-check cache of reduce_combination.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .coeff_series import (
    QQ,
    LazardCoefficient,
    TruncatedSeries,
    as_rational,
    combination,
    direction,
    pivot_index,
    series_powers,
)
from .fgl import FormalGroupLaw, _memo


@dataclass(frozen=True)
class Character:
    """A rational vector in the character lattice basis."""

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(as_rational(c) for c in coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Character") -> "Character":
        self._check(other)
        return Character(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Character":
        return Character(tuple(-a for a in self.coords))

    def scale(self, q) -> "Character":
        q = as_rational(q)
        return Character(tuple(q * a for a in self.coords))

    def _check(self, other: "Character"):
        if self.rank != other.rank:
            raise ValueError("character rank mismatch")

    def to_json_obj(self) -> list:
        return [str(c) for c in self.coords]

    @classmethod
    def from_json_obj(cls, obj) -> "Character":
        return cls(obj)

    def render(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass
class RemainderReport:
    """Outcome of reducing a series modulo a Chern class power.

    components[0] is the series evaluated on the zero locus of the Chern
    class; for power 2, components[1] is the pivot-derivative there.  The
    verdict is certified through order - power; a passing report carries
    zero components at that order.
    """

    character: Character
    power: int
    pivot: int
    components: list
    certified_order: int

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero_through(self.certified_order) for c in self.components)

    def to_json_obj(self) -> dict:
        return {
            "character": self.character.to_json_obj(),
            "power": self.power,
            "pivot": self.pivot + 1,
            "certified_order": self.certified_order,
            "is_zero": self.is_zero,
            "components": [c.truncated(self.certified_order).to_json_obj() for c in self.components],
        }


@dataclass(frozen=True)
class LocalizedElement:
    """A fraction: series numerator over a product of Chern classes.

    The denominator is a multiset of nonzero characters, each standing for
    one Chern-class factor.
    """

    numerator: TruncatedSeries
    denominator: tuple

    def __init__(self, numerator: TruncatedSeries, denominator=()):
        den = tuple(sorted(denominator, key=lambda ch: ch.coords))
        for ch in den:
            if ch.is_zero():
                raise ValueError("zero character in a localized denominator")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", den)

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(-self.numerator, self.denominator)

    def to_json_obj(self) -> dict:
        return {
            "num": self.numerator.to_json_obj(),
            "den": [ch.to_json_obj() for ch in self.denominator],
        }


@dataclass
class ClearResult:
    """Result of clearing denominators: a series, or the obstructing factor."""

    series: TruncatedSeries | None
    certified_order: int
    obstruction: RemainderReport | None = None  # its character is the obstructing factor

    @property
    def ok(self) -> bool:
        return self.series is not None


class TorusRing:
    """S(T)_Q at a fixed rank and truncation order, tied to a group law."""

    def __init__(self, law: FormalGroupLaw, rank: int):
        if rank < 1:
            raise ValueError("torus rank must be >= 1")
        self.law = law
        self.rank = rank
        self._chern: dict = {}  # its own dict: bench/spans.py counts its entries
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return self.law.order

    # -- ring elements -----------------------------------------------------

    def zero(self) -> TruncatedSeries:
        return TruncatedSeries.zero(self.rank, self.order)

    def one(self) -> TruncatedSeries:
        return TruncatedSeries.one(self.rank, self.order)

    def constant(self, coeff) -> TruncatedSeries:
        return TruncatedSeries.constant(coeff, self.rank, self.order)

    def variable(self, index: int) -> TruncatedSeries:
        return TruncatedSeries.variable(index, self.rank, self.order)

    def _char(self, chi) -> Character:
        if not isinstance(chi, Character):
            chi = Character(chi)
        if chi.rank != self.rank:
            raise ValueError("character rank does not match the ring rank")
        return chi

    def chern(self, chi) -> TruncatedSeries:
        """The equivariant first Chern class of a character: e(sum chi_i l(t_i))."""
        coords = self._char(chi).coords
        return _memo(self._chern, coords, lambda: self.law.exp_linear(coords, self.order))

    def chern_product(self, chars) -> TruncatedSeries:
        """The product of the Chern classes of chars, from the first on; one() for none."""
        classes = [self.chern(ch) for ch in chars]
        return math.prod(classes[1:], start=classes[0]) if classes else self.one()

    def rho_factor(self, n: int, m: int, chi) -> TruncatedSeries:
        """rho_{n/m} applied to the Chern class of a character (cached)."""
        coords = self._char(chi).coords
        return _memo(
            self._cache,
            ("rho", n, m, coords),
            lambda: self.law.rho_linear(n, m, coords, self.order),
        )

    # -- logarithmic coordinates ------------------------------------------------

    def to_log(self, f: TruncatedSeries) -> TruncatedSeries:
        """f(e(s_1), ..., e(s_r)), f in the coordinates s_i = l(t_i), through
        min(f.order, ring order)."""
        return self.law.convert(f.truncated(min(f.order, self.order)), "exp")

    def from_log(self, g: TruncatedSeries) -> TruncatedSeries:
        """g(l(t_1), ..., l(t_r)): a series in logarithmic coordinates back in t."""
        return self.law.convert(g, "log")

    # -- the zero locus of a Chern class -------------------------------------

    def _hyperplane(self, line: tuple, kind: str) -> list:
        """The table for TruncatedSeries.substitute in s_j, j =
        pivot_index(line), on the line's hyperplane s_j = y, y = -sum_{i != j}
        (line_i/line_j) s_i: u_k = y^k gives the value there ("value"),
        u_k = k y^(k-1) the s_j-derivative ("slope"), u_k = (s_j^k - y^k) /
        (s_j - y) = s_j u_(k-1) + y^(k-1) the division by s_j - y
        ("quotient"); k runs through order + 1.  In t, u_k = phi^k for phi =
        e(y) at s_i = l(t_i) gives the value on the zero locus t_j = phi
        ("locus"; k and phi through the ring order).  Built on first use."""

        def build():
            pivot, top = pivot_index(line), self.order + 1
            scale = QQ(-1, line[pivot])
            if kind == "locus":
                form = [0 if i == pivot else scale * c for i, c in enumerate(line)]
                return series_powers(self.law.exp_linear(form, self.order))
            if kind == "value":
                terms = {
                    tuple(int(i == j) for j in range(self.rank)): LazardCoefficient.rational(scale * c)
                    for i, c in enumerate(line)
                    if c and i != pivot
                }
                return series_powers(TruncatedSeries(self.rank, top, terms))
            ys = self._hyperplane(line, "value")
            s_j = TruncatedSeries.variable(pivot, self.rank, top)
            table = [TruncatedSeries.zero(self.rank, top)]
            for k in range(1, top + 1):
                table.append(ys[k - 1].scale(k) if kind == "slope" else s_j * table[-1] + ys[k - 1])
            return table

        return _memo(self._cache, (kind, line), build)

    def _restricted(
        self, cache: dict, point, f: TruncatedSeries, line: tuple, order: int, kind: str
    ) -> TruncatedSeries:
        """g on the line's hyperplane ("value"), or dg/ds_j there ("slope",
        one order lower), for g = f in logarithmic coordinates through
        `order`; the conversion and the restrictions are kept in `cache`."""
        g = _memo(cache, (point, order), lambda: self.law.convert(f.truncated(order), "exp"))
        top = g.order if kind == "value" else max(g.order - 1, 0)
        return _memo(
            cache,
            (point, order, line, kind),
            lambda: g.substitute(pivot_index(line), self._hyperplane(line, kind), top),
        )

    def weighted_sum(self, values: dict, weights, chi, order: int | None = None) -> TruncatedSeries:
        """sum_P w_P * values[P] in t, for weights as in reduce_combination:
        one combination per rho group, times its rho factor.  Through
        `order` if given, and never above the smallest order of the values
        and, with a rho weight, of the ring."""
        groups: dict = {}
        for point, sign, rho in weights:
            groups.setdefault(rho, []).append((sign, values[point]))
        known = min(f.order for group in groups.values() for _, f in group)
        if any(rho is not None for rho in groups):
            known = min(known, self.order)
        order = known if order is None else min(order, known)
        parts = []
        for rho, group in groups.items():
            f = combination(group, self.rank, order)
            parts.append((1, f if rho is None else self.rho_factor(*rho, chi) * f))
        return combination(parts, self.rank, order)

    def reduce_combination(
        self, values: dict, weights, chi, power: int = 1, cache: dict | None = None
    ) -> RemainderReport:
        """Reduce sum_P w_P * values[P] modulo chern(chi)^power.

        weights lists (P, sign, rho): w_P is the integer sign, or sign *
        rho_factor(n, m, chi) for rho = (n, m).  Certified through
        min(order of the combination, ring order) - power.

        The verdict runs in the coordinates s_i = l(t_i), where the ideal of
        chern(chi)^power is that of L^power for the linear form L = sum_i
        chi_i s_i, and a rho weight is h(L) with h(y) = e((n/m) y)/e(y); on
        the hyperplane L = 0 it is h(0) = n/m, and its s_j-derivative is
        h'(0) chi_j.  So the value of the combination there, and for power 2
        its s_j-derivative there, are combinations of the restrictions of
        the values converted through certified + power - 1 (kept in `cache`,
        which calls on the same values may share, so each value is converted
        once per order).  Vanishing through an order is invariant under s =
        t + O(t^2) and under a unit factor, so the verdict is read in s.

        Only a failing remainder is computed in t: weighted_sum on the zero
        locus t_j = phi, through min(order of the combination, ring order),
        and for power 2 its t_j-derivative there, one order lower.
        """
        chi = self._char(chi)
        if chi.is_zero():
            raise ValueError("cannot reduce modulo the zero character")
        if power not in (1, 2):
            raise ValueError("only first and second powers are supported")
        for point, _, _ in weights:
            if values[point].rank != self.rank:
                raise ValueError("series rank does not match the ring rank")
        if cache is None:
            cache = {}
        line = direction(chi.coords)
        pivot = pivot_index(line)
        order = min(values[point].order for point, _, _ in weights)
        if any(rho is not None for _, _, rho in weights):
            order = min(order, self.order)  # rho factors are truncated at the ring order
        # The value on the hyperplane is exact through the ring order, the
        # derivative one order below the combination's.
        orders = [min(order, self.order), min(max(order - 1, 0), self.order)]
        certified = orders[0] - power
        # each verdict component is one rational combination of restrictions,
        # a list of (rational, restriction), read through `certified`; below
        # order 0 there is nothing to certify
        terms = [[], []]
        for point, sign, rho in weights if certified >= 0 else ():
            args = (cache, point, values[point], line, certified + power - 1)
            value = self._restricted(*args, "value")
            q = sign if rho is None else sign * QQ(*rho)
            terms[0].append((q, value))
            if power == 2:
                terms[1].append((q, self._restricted(*args, "slope")))
                if rho is not None:
                    dh = self.law.rho_slope(*rho).scale(sign * chi.coords[pivot])
                    terms[1].append((1, value.scale(dh)))
        verdicts = (combination(t, self.rank, certified) for t in terms[:power])
        if certified < 0 or all(v.is_zero() for v in verdicts):
            series = [TruncatedSeries.zero(self.rank, max(certified, 0))] * power
        else:
            # the powers of phi run through the ring order, so the residual
            # is cut one order above the derivative's and at the value's
            table = self._hyperplane(line, "locus")
            top = orders[0] if power == 1 else orders[1] + 1
            residual = self.weighted_sum(values, weights, chi, top)
            series = [residual.truncated(orders[0]).substitute(pivot, table)]
            if power == 2:
                series.append(residual.partial(pivot).substitute(pivot, table))
        return RemainderReport(
            character=chi,
            power=power,
            pivot=pivot,
            components=series,
            certified_order=certified,
        )

    def reduce_mod(self, f: TruncatedSeries, chi, power: int = 1) -> RemainderReport:
        """Reduce f modulo chern(chi)^power with an exact certificate.

        For power 1 the report holds f on the zero locus t_j = phi (see the
        module docstring); for power 2 additionally the t_j-derivative there.
        f lies in the ideal iff all components vanish through the certified
        order: min(f.order, ring order) - power, since the zero locus is
        known only to the ring order.
        The one-value case of reduce_combination.
        """
        return self.reduce_combination({0: f}, [(0, 1, None)], chi, power)

    def divide_exact(self, f: TruncatedSeries, chi) -> tuple:
        """Divide f by chern(chi) exactly.

        Returns (quotient, None), or (None, report) when f is not divisible;
        the report is reduce_mod(f, chi, 1), and it fails exactly when f is
        refused.  Raises ValueError when the quotient would be known through
        no degree.  The one-factor case of clear_denominators.
        """
        result = self.clear_denominators(LocalizedElement(f, (self._char(chi),)))
        if result.ok:
            return result.series, None
        return None, result.obstruction

    def _division_unit(self, chi: Character) -> TruncatedSeries:
        """(L / e(L)) / chi_j in s, for L = sum_i chi_i s_i and the pivot j,
        through the ring order - 1 (as far as quotients go), cached."""

        def build():
            unit = self.law.unit_of_linear_form(chi.coords, self.order - 1)
            return unit.scale(1 / chi.coords[pivot_index(chi.coords)])

        return _memo(self._cache, ("unit", chi.coords), build)

    def clear_denominators(self, elem: LocalizedElement) -> ClearResult:
        """Iterated exact division of the numerator by the denominator factors.

        In s_i = l(t_i), chern(chi) = e(L) with L = chi_j (s_j - y): the
        numerator is converted once, through min(its order, ring order); per
        factor it must vanish on s_j = y through order - 1 (the certified
        order of reduce_mod; if it fails only at order, it is divided one
        order lower) and is divided by s_j - y; the result times each unit
        (L / e(L)) / chi_j is converted back once.  On failure the
        obstruction is reduce_mod of the partial quotient, back in t.  A
        quotient that would be known through no degree (its order would be
        negative) raises ValueError instead of claiming zero at order 0.
        """
        f = elem.numerator
        if f.rank != self.rank:
            raise ValueError("series rank does not match the ring rank")
        if not elem.denominator:
            return ClearResult(f, f.order)
        g = self.to_log(f)
        known = g.order
        units = []
        for ch in elem.denominator:
            ch = self._char(ch)
            line = direction(ch.coords)
            pivot = pivot_index(line)
            rest = g.substitute(pivot, self._hyperplane(line, "value"))
            if not rest.is_zero_through(g.order - 1):
                if units:
                    f = self._from_log_times(g, units)
                report = self.reduce_mod(f, ch, 1)
                return ClearResult(None, report.certified_order, obstruction=report)
            top = g.order if rest.is_zero_through(g.order) else g.order - 1
            if top < 1:
                raise ValueError(
                    f"a numerator known through degree {known} divided by "
                    f"{len(elem.denominator)} Chern factors determines no degree of the quotient"
                )
            g = g.substitute(pivot, self._hyperplane(line, "quotient"), top - 1)
            units.append(self._division_unit(ch))
        series = self._from_log_times(g, units)
        return ClearResult(series, series.order)

    def _from_log_times(self, g: TruncatedSeries, units: list) -> TruncatedSeries:
        """g times each unit, back in t."""
        for unit in units:
            g = g * unit
        return self.from_log(g)

    # -- localized arithmetic ---------------------------------------------------

    def _times(self, f: TruncatedSeries, chars: Counter) -> TruncatedSeries:
        """f times the Chern classes of chars; f itself, untruncated, for none."""
        return f * self.chern_product(chars.elements()) if chars else f

    def loc_add(self, a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
        """a + b over the lcm of the denominators; a side lacking no factor is not multiplied."""
        da, db = Counter(a.denominator), Counter(b.denominator)
        common = da | db
        num = self._times(a.numerator, common - da) + self._times(b.numerator, common - db)
        return LocalizedElement(num, tuple(common.elements()))

    def loc_times(self, a: LocalizedElement, chars) -> LocalizedElement:
        """a times the Chern classes of chars, factors shared with a's denominator cancelled."""
        den, extra = Counter(a.denominator), Counter(chars)
        return LocalizedElement(self._times(a.numerator, extra - den), tuple((den - extra).elements()))

    def loc_eq(self, a: LocalizedElement, b: LocalizedElement) -> bool:
        """Cross-multiplied equality of the stored truncations.

        Exact through the stored order minus the total number of denominator
        factors; extend the working order by that count for full certainty.
        """
        left = a.numerator * self.chern_product(b.denominator)
        right = b.numerator * self.chern_product(a.denominator)
        return (left - right).is_zero()
