"""The equivariant coefficient ring of a torus and its localization.

A character is a rational vector in the chosen character-lattice basis; its
equivariant first Chern class is the series e(sum_i chi_i l(t_i)), which makes
chern an FGL homomorphism from characters into the series ring.
FormalGroupLaw.exp_linear builds it as e at the linear form sum_i chi_i s_i
in the logarithmic coordinates s_i = l(t_i), converted to t once with the
powers of l.

A congruence row (point, sign, rho) weighs its value by sign, times
rho_{n/m}(c) for rho = (n, m) and c = chern(chi), and is read modulo c^2.
There rho_{n/m}(c) = q0 + q0 (q0 - 1) e_2 c for q0 = n/m, so a row is the
pair (q, b) = (sign q0, sign q0 (q0 - 1)), or (sign, 0) without rho, with
the weight q + b E, E = e_2 c.  That is exact: a multiple of c^2 vanishes,
with its first derivatives, on the zero locus of c, where every verdict and
remainder is read.

The verdict of a reduction modulo a Chern class (and its square) runs in
the logarithmic coordinates s_i = l(t_i).  Over Q the logarithm is an
isomorphism onto the additive law, so there chern(chi) = e(L) for the linear
form L = sum_i chi_i s_i, and e(L)/L is a unit: a series lies in the ideal of
chern(chi)^k iff it vanishes to order k along the hyperplane L = 0.
Restricting to that hyperplane, s_j = y = -sum_{i != j} (chi_i/chi_j) s_i for
the pivot j, is a linear change of variables with rational coefficients, so
each value is converted to s once (one pass per variable against the table
of powers of e) and the verdict of every congruence through it is a
rational combination of its restrictions.  The verdict is certified through
order - k, so each value is converted only through order - 1, as far as the
s_j-derivative of the square's verdict needs.

A failing remainder is its verdict carried back to t.  For f = g(l(t)),
f on the zero locus t_j = phi, phi = e(y) at s_i = l(t_i), is g on the
hyperplane at s_i = l(t_i) for i != j; there the t_j-derivative is the
s_j-derivative times ds_j/dt_j = 1/e'(y).  So the components are the
verdict's, the derivative's times the unit U = 1/e'(y) of the line, each
converted s_i -> l(t_i) for i != j, and known through the certified order.

Division by c = chern(chi) runs in t, degree by degree
(coeff_series.exact_quotient).  With c = l + c_2 + c_3 + ..., l = sum_i
chi_i t_i its linear part, the quotient solves l q_d = f_(d+1) -
sum_(k>=2) c_k q_(d+1-k), one synthetic division by l per degree against
the stored Chern class, which in t is sparse.  For f known through degree
N, every step through degree N - 1 is exact iff f lies in (c) + m^N, m =
(t_1, ..., t_r); that does not depend on coordinates, so a numerator is
refused exactly when reduce_mod, certified through N - 1, fails, and the
quotient, when it exists, is the unique one.  Clearing the denominators of
a LocalizedElement divides by each factor in turn.

Conversion (FormalGroupLaw.convert, with the law's tables e^k or l^k) and
restriction to the hyperplane (the table y^k) are both
TruncatedSeries.substitute, and the s_j-derivative on the hyperplane is the
restriction of the s_j-partial; each table is a list of series, built on
first use and kept, and every step runs on the stored integer form.

A product of Chern classes, and a numerator times such a product, is
truncated by t-order.  A factor of t-order v (1 for a Chern class, 0 for a
unit) raises the t-order of whatever multiplies it by v, so through the
product's order N the factors before it are needed only through N - v: the
j-th partial product of k Chern classes is formed through N - (k - j), and
a numerator of t-order v cuts the chain of classes before it to N - v.
When the t-orders add up past N the product is the zero series of order N,
with no product formed.

A ring keeps its Chern classes in `_chern`, by character coords, and its
classes E, hyperplane tables and units U in `_cache`, by tagged keys;
fgl._memo fills both, and the per-check cache of reduce_combination.
"""

from __future__ import annotations

from collections import Counter

from .coeff_series import (
    LazardCoefficient,
    TruncatedSeries,
    combination,
    embed,
    exact_quotient,
    linear_form,
    series_inverse,
    series_powers,
)
from .common import QQ, Character, direction, pivot_index
from .fgl import FormalGroupLaw, _memo


class RemainderReport:
    """Outcome of reducing a series modulo a Chern class power.

    components[0] is the series evaluated on the zero locus of the Chern
    class; for power 2, components[1] is the pivot-derivative there.  The
    verdict is certified through order - power, and every component is known
    through max(that order, 0); a passing report carries zero components.
    """

    __slots__ = ("character", "power", "pivot", "components", "certified_order")

    def __init__(
        self, character: Character, power: int, pivot: int, components: list, certified_order: int
    ):
        self.character, self.power, self.pivot = character, power, pivot
        self.components, self.certified_order = components, certified_order

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
            "components": [c.to_json_obj() for c in self.components],
        }


class LocalizedElement:
    """A fraction: series numerator over a product of Chern classes.

    The denominator is a multiset of nonzero characters, each standing for
    one Chern-class factor.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: TruncatedSeries, denominator=()):
        den = tuple(sorted(denominator, key=lambda ch: ch.coords))
        for ch in den:
            if ch.is_zero():
                raise ValueError("zero character in a localized denominator")
        self.numerator, self.denominator = numerator, den

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(-self.numerator, self.denominator)

    def to_json_obj(self) -> dict:
        return {
            "num": self.numerator.to_json_obj(),
            "den": [ch.to_json_obj() for ch in self.denominator],
        }


class ClearResult:
    """Result of clearing denominators: a series, or the obstructing factor."""

    __slots__ = ("series", "certified_order", "obstruction")

    def __init__(
        self,
        series: TruncatedSeries | None,
        certified_order: int,
        obstruction: RemainderReport | None = None,  # its character is the obstructing factor
    ):
        self.series, self.certified_order, self.obstruction = series, certified_order, obstruction

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

    def chern_product(self, chars, f: TruncatedSeries | None = None) -> TruncatedSeries:
        """The product of the Chern classes of chars, from the first on, times
        f last if given: one() times each factor in turn, so one() for none,
        and through min(f.order, ring order).

        Truncated by t-order (see the module docstring): with N that order
        and v_i the t-order of factor i, read from its stored form, the
        partial product through factor j is formed only through N minus the
        v_i after it, N - (k - j) for k Chern classes.  A zero factor, or
        t-orders adding up past N, give the zero series of order N at once.
        """
        factors = [self.chern(ch) for ch in chars]
        if f is not None:
            factors.append(f)
        if not factors:
            return self.one()
        order = min(self.order, *(g.order for g in factors))
        valuations = [g.t_order() for g in factors]
        if None in valuations or sum(valuations) > order:
            return TruncatedSeries.zero(self.rank, order)
        top = order - sum(valuations[1:])
        product = factors[0].truncated(top)
        for g, v in zip(factors[1:], valuations[1:]):
            # product is known through top; raised to top + v it claims its
            # unknown tail, of t-degree above top, to be zero, and that tail
            # meets terms of g, of t-degree v and more, only above top + v
            top += v
            product = product.at_order(top) * g
        return product

    def rho_factor(self, n: int, m: int, chi) -> TruncatedSeries:
        """rho_{n/m} of a character's Chern class, at full order (checks read it to first order)."""
        return self.law.rho(n, m, self.chern(chi))

    def _e2_class(self, chi) -> TruncatedSeries:
        """E = e_2 chern(chi), cached: rho_{n/m}(chern(chi)) = q0 + q0 (q0 - 1) E
        modulo chern(chi)^2."""
        coords = self._char(chi).coords
        return _memo(self._cache, ("E", coords), lambda: self.chern(coords).scale(self._e2()))

    def _e2(self) -> LazardCoefficient:
        """The y^2 coefficient e_2 of the law's exponential e(y)."""
        return self.law.exp_series(2).coefficient((2,))

    # -- logarithmic coordinates ------------------------------------------------

    def to_log(self, f: TruncatedSeries) -> TruncatedSeries:
        """f(e(s_1), ..., e(s_r)), f in the coordinates s_i = l(t_i), through
        min(f.order, ring order)."""
        return self.law.convert(f.truncated(min(f.order, self.order)), "exp")

    def from_log(self, g: TruncatedSeries) -> TruncatedSeries:
        """g(l(t_1), ..., l(t_r)): a series in logarithmic coordinates back in t."""
        return self.law.convert(g, "log")

    # -- the zero locus of a Chern class -------------------------------------

    def _hyperplane(self, line: tuple) -> list:
        """The table u_k = y^k, k through the ring order, for
        TruncatedSeries.substitute in s_j, j = pivot_index(line): it restricts
        a series in logarithmic coordinates to the line's hyperplane s_j = y,
        the linear form y = -sum_{i != j} (line_i/line_j) s_i
        (coeff_series.linear_form).  Built on first use."""

        def build():
            pivot = pivot_index(line)
            scale = QQ(-1, line[pivot])
            coeffs = [0 if i == pivot else scale * c for i, c in enumerate(line)]
            return series_powers(linear_form(coeffs, self.order))

        return _memo(self._cache, ("y^k", line), build)

    def _unit(self, line: tuple) -> TruncatedSeries:
        """U = 1/e'(y) on the line's hyperplane, through the ring order - 1:
        ds_j/dt_j there, which turns an s_j-derivative into a t_j-derivative.
        From the exponential through the ring order, which needs m_k only
        below it.  Built on first use."""

        def build():
            unit = series_inverse(self.law.exp_series(self.order).partial(0))
            pivot = pivot_index(line)
            return embed(unit, pivot, self.rank).substitute(pivot, self._hyperplane(line))

        return _memo(self._cache, ("U", line), build)

    def _restricted(
        self, cache: dict, point, f: TruncatedSeries, line: tuple, order: int, kind: str
    ) -> TruncatedSeries:
        """g on the line's hyperplane ("value"), or dg/ds_j there ("slope",
        one order lower), for g = f in logarithmic coordinates through
        `order`; the conversion and the restrictions are kept in `cache`."""

        def build():
            g = _memo(cache, (point, order), lambda: self.law.convert(f.truncated(order), "exp"))
            pivot = pivot_index(line)
            return (g if kind == "value" else g.partial(pivot)).substitute(pivot, self._hyperplane(line))

        return _memo(cache, (point, order, line, kind), build)

    def _known_order(self, values: dict, weights) -> int:
        """The order through which sum_P w_P * values[P] is known: the
        smallest order of the weighted values, and with a rho weight at most
        the ring order, where E and full rho factors alike are truncated; so
        the first-order rule moves no certified order."""
        order = min(values[point].order for point, _, _ in weights)
        if any(rho is not None for _, _, rho in weights):
            order = min(order, self.order)
        return order

    def weighted_sum(self, values: dict, weights, chi) -> TruncatedSeries:
        """sum_P w_P * values[P] in t modulo chern(chi)^2, for weights as in
        reduce_combination: combination(q f) + E * combination(b f), which
        agrees with the full-rho sum, and so does its derivative, on the zero
        locus.  Through the smallest order of the values and, with a rho
        weight, of the ring.  The residual of CongruenceConstraint.residual;
        no reduction builds it."""
        order = self._known_order(values, weights)
        rows = [(_first_order(sign, rho), values[point]) for point, sign, rho in weights]
        total = combination([(q, f) for (q, _), f in rows], self.rank, order)
        slope = [(b, f) for (_, b), f in rows if b]
        if slope:
            total = total + self._e2_class(chi) * combination(slope, self.rank, order)
        return total

    def reduce_combination(
        self, values: dict, weights, chi, power: int = 1, cache: dict | None = None
    ) -> RemainderReport:
        """Reduce sum_P w_P * values[P] modulo chern(chi)^power.

        weights lists (P, sign, rho): w_P is the integer sign, or sign *
        rho_factor(n, m, chi) for rho = (n, m), read to first order as q + b
        E (see the module docstring).  Certified through min(order of the
        combination, ring order) - power.

        The verdict runs in the coordinates s_i = l(t_i), where the ideal of
        chern(chi)^power is that of L^power for the linear form L = sum_i
        chi_i s_i, and E = e_2 e(L); on the hyperplane L = 0 a weight is q,
        and its s_j-derivative is b e_2 chi_j.  So the value of the
        combination there, and for power 2 its s_j-derivative there, are
        combinations of the restrictions of
        the values converted through certified + power - 1 (kept in `cache`,
        which calls on the same values may share, so each value is converted
        once per order).  Vanishing through an order is invariant under s =
        t + O(t^2) and under a unit factor, so the verdict is read in s.

        A failing verdict is carried back to t (see the module docstring):
        the derivative times U = 1/e'(y), and both converted s_i -> l(t_i)
        for i != j.  Every component is known through max(certified, 0).
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
        # the value on the hyperplane is exact through the ring order
        certified = min(self._known_order(values, weights), self.order) - power
        # each verdict component is one rational combination of restrictions,
        # a list of (rational, restriction), read through `certified`; below
        # order 0 there is nothing to certify
        terms = [[], []]
        for point, sign, rho in weights if certified >= 0 else ():
            args = (cache, point, values[point], line, certified + power - 1)
            value = self._restricted(*args, "value")
            q, b = _first_order(sign, rho)
            terms[0].append((q, value))
            if power == 2:
                terms[1].append((q, self._restricted(*args, "slope")))
                if b:
                    terms[1].append((b * chi.coords[pivot], value.scale(self._e2())))
        verdicts = [combination(t, self.rank, max(certified, 0)) for t in terms[:power]]
        if not all(v.is_zero() for v in verdicts):
            if power == 2:
                verdicts[1] = verdicts[1] * self._unit(line)
            others = [i for i in range(self.rank) if i != pivot]
            verdicts = [self.law.convert(v, "log", others) for v in verdicts]
        return RemainderReport(
            character=chi,
            power=power,
            pivot=pivot,
            components=verdicts,
            certified_order=certified,
        )

    def reduce_mod(self, f: TruncatedSeries, chi, power: int = 1) -> RemainderReport:
        """Reduce f modulo chern(chi)^power with an exact certificate.

        For power 1 the report holds f on the zero locus t_j = phi, phi =
        e(y) at s_i = l(t_i) (see the module docstring); for power 2
        additionally the t_j-derivative there.
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

    def clear_denominators(self, elem: LocalizedElement) -> ClearResult:
        """Iterated exact division of the numerator by the denominator factors.

        Per factor, the numerator, known through min(its order, ring
        order), is divided in t, degree by degree, by the factor's stored
        Chern class (coeff_series.exact_quotient; see the module docstring).
        It must be divisible through order - 1, the certified order of
        reduce_mod; if it fails only at order, it is divided one order
        lower.  On failure the obstruction is reduce_mod of the partial
        quotient, which at the first factor is the untruncated numerator.
        A quotient that would be known through no degree (its order would be
        negative) raises ValueError instead of claiming zero at order 0.
        """
        f = elem.numerator
        if f.rank != self.rank:
            raise ValueError("series rank does not match the ring rank")
        known = min(f.order, self.order)
        for ch in elem.denominator:
            ch = self._char(ch)
            solved = exact_quotient(f, self.chern(ch))
            if solved is None:
                report = self.reduce_mod(f, ch, 1)
                return ClearResult(None, report.certified_order, obstruction=report)
            f, top = solved
            if top < 1:
                raise ValueError(
                    f"a numerator known through degree {known} divided by "
                    f"{len(elem.denominator)} Chern factors determines no degree of the quotient"
                )
        return ClearResult(f, f.order)

    # -- localized arithmetic ---------------------------------------------------

    def _times(self, f: TruncatedSeries, chars: Counter) -> TruncatedSeries:
        """f times the Chern classes of chars; f itself, untruncated, for none.

        One chern_product with f last, so f's t-order v cuts the classes'
        chain: through order N they are multiplied only through N - v.
        """
        return self.chern_product(chars.elements(), f) if chars else f

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
        left = self.chern_product(b.denominator, a.numerator)
        right = self.chern_product(a.denominator, b.numerator)
        return (left - right).is_zero()


def _first_order(sign: int, rho) -> tuple:
    """(q, b) with sign * rho_{n/m}(c) = q + b E modulo c^2 for rho = (n, m);
    (sign, 0) without rho."""
    if rho is None:
        return sign, 0
    q0 = QQ(*rho)
    return sign * q0, sign * q0 * (q0 - 1)
