"""The equivariant coefficient ring of a torus and its localization.

A character is a rational vector in the chosen character-lattice basis; its
equivariant first Chern class is the series e(sum_i chi_i l(t_i)), which makes
chern an FGL homomorphism from characters into the series ring; it is built
by FormalGroupLaw.exp_linear from the law's table of logarithm powers.

Reduction modulo a Chern class (and its square) and exact division run in
the logarithmic coordinates s_i = l(t_i).  Over Q the logarithm is an
isomorphism onto the additive law, so there chern(chi) = e(L) for the linear
form L = sum_i chi_i s_i, and e(L)/L is a unit: a series lies in the ideal of
chern(chi)^k iff it vanishes to order k along the hyperplane L = 0.
Restricting to that hyperplane, s_j = y = -sum_{i != j} (chi_i/chi_j) s_i for
the pivot j, is a linear change of variables with rational coefficients, so
each value is converted to s once (one pass per variable against the table
of powers of e) and every congruence through it is a rational combination of
its restrictions.  Only a failing remainder is converted back, with the
powers of l; in t it is the series on the zero locus t_j = phi, phi = e(y)
with s_i = l(t_i).

Division by chern(chi) is division by the linear form s_j - y (a divided
difference on the same table of powers of y) and by the unit; clearing the
denominators of a LocalizedElement converts its numerator once, divides by
every factor in s and converts back once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .coeff_series import (
    QQ,
    LazardCoefficient,
    TruncatedSeries,
    Numerators,
    as_rational,
    embed,
    pack_table,
    series_inverse,
    series_powers,
)
from .fgl import FormalGroupLaw
from .root_flag import direction


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

    def primitive_direction(self) -> tuple:
        """Canonical integer direction of the line through the character.

        See root_flag.direction; zero characters are rejected.
        """
        if self.is_zero():
            raise ValueError("the zero character has no direction")
        return direction(self.coords)

    def to_json_obj(self) -> list:
        return [str(c) for c in self.coords]

    @classmethod
    def from_json_obj(cls, obj) -> "Character":
        return cls(tuple(as_rational(c) for c in obj))

    def render(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def pair(covector, character: Character) -> QQ:
    """Euclidean pairing of a rational covector with a character."""
    return sum(
        (as_rational(a) * b for a, b in zip(covector, character.coords)),
        start=QQ(0),
    )


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

    @classmethod
    def from_json_obj(cls, obj) -> "LocalizedElement":
        return cls(
            TruncatedSeries.from_json_obj(obj["num"]),
            tuple(Character.from_json_obj(ch) for ch in obj["den"]),
        )


@dataclass
class ClearResult:
    """Result of clearing denominators: a series, or the obstructing factor."""

    series: TruncatedSeries | None
    certified_order: int
    obstruction: tuple | None = None  # (Character, RemainderReport)

    @property
    def ok(self) -> bool:
        return self.series is not None


def _den_multiset(chars) -> dict:
    out: dict = {}
    for ch in chars:
        out[ch.coords] = out.get(ch.coords, 0) + 1
    return out


class TorusRing:
    """S(T)_Q at a fixed rank and truncation order, tied to a group law."""

    def __init__(self, law: FormalGroupLaw, rank: int):
        if rank < 1:
            raise ValueError("torus rank must be >= 1")
        self.law = law
        self.rank = rank
        self._chern: dict = {}
        self._rho: dict = {}
        self._units: dict = {}
        self._tables: dict = {}
        self._hyperplanes: dict = {}
        self._slope_units: dict = {}

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
        chi = self._char(chi)
        cached = self._chern.get(chi.coords)
        if cached is None:
            cached = self.law.exp_linear(chi.coords, self.order)
            self._chern[chi.coords] = cached
        return cached

    def chern_product(self, chars) -> TruncatedSeries:
        acc = self.one()
        for ch in chars:
            acc = acc * self.chern(ch)
        return acc

    def rho_factor(self, n: int, m: int, chi) -> TruncatedSeries:
        """rho_{n/m} applied to the Chern class of a character (cached)."""
        chi = self._char(chi)
        key = (n, m, chi.coords)
        cached = self._rho.get(key)
        if cached is None:
            cached = self.law.rho_linear(n, m, chi.coords, self.order)
            self._rho[key] = cached
        return cached

    def augment(self, f: TruncatedSeries) -> LazardCoefficient:
        """Base change to the coefficient ring: set every t_i to zero."""
        return f.constant_term()

    # -- logarithmic coordinates ------------------------------------------------

    @property
    def _base(self) -> int:
        """Packing base of the working forms: values are converted through
        at most the ring order + 1."""
        return self.order + 2

    def _power_table(self, kind: str, order: int, index: int) -> tuple:
        """pack_table of [u^0, ..., u^order] in variable `index`, for u = e
        ("exp") or l ("log")."""
        key = (kind, order, index)
        cached = self._tables.get(key)
        if cached is None:
            powers = self.law.exp_powers(order) if kind == "exp" else self.law.log_powers(order)
            rows = [embed(row, index, self.rank) for row in powers]
            cached = self._tables[key] = pack_table(rows, self._base, order)
        return cached

    def _convert(self, f: TruncatedSeries, kind: str, order: int) -> Numerators:
        out = Numerators.of(f, self._base, order)
        for i in range(self.rank):
            out = out.substitute(i, self._power_table(kind, out.order, i))
        return out

    def to_log(self, f: TruncatedSeries) -> TruncatedSeries:
        """f(e(s_1), ..., e(s_r)), f in the coordinates s_i = l(t_i), through
        min(f.order, ring order)."""
        return self._convert(f, "exp", min(f.order, self.order)).series()

    def from_log(self, g: TruncatedSeries) -> TruncatedSeries:
        """g(l(t_1), ..., l(t_r)): a series in logarithmic coordinates back in t."""
        return self._convert(g, "log", g.order).series()

    # -- the zero locus of a Chern class -------------------------------------

    def _hyperplane(self, line: tuple) -> tuple:
        """Pivot j (the first nonzero entry) and the table of y^0, ...,
        y^(order + 1) for y = -sum_{i != j} (line_i/line_j) s_i, s_j = y on
        the line's hyperplane, as Numerators.restrict takes it."""
        cached = self._hyperplanes.get(line)
        if cached is None:
            pivot = next(i for i, c in enumerate(line) if c)
            scale = -1 / QQ(line[pivot])
            y = {self._base**i: scale * c for i, c in enumerate(line) if c and i != pivot}
            powers = [{0: QQ(1)}]
            for _ in range(self.order + 1):
                step: dict = {}
                for k, a in powers[-1].items():
                    for one, c in y.items():
                        step[k + one] = step.get(k + one, 0) + a * c
                powers.append(step)
            den = lcm(*(q.denominator for row in powers for q in row.values()))
            table = [
                [(k, q.numerator * (den // q.denominator)) for k, q in row.items()] for row in powers
            ]
            cached = self._hyperplanes[line] = (pivot, (den, table))
        return cached

    def _slope_unit(self, line: tuple, order: int) -> TruncatedSeries:
        """1/e'(s_j) on the line's hyperplane, through order: the factor that
        turns an s_j-derivative into a t_j-derivative there."""
        key = (line, order)
        cached = self._slope_units.get(key)
        if cached is None:
            unit = series_inverse(self.law.exp_series(order + 1).partial(0))
            pivot, table = self._hyperplane(line)
            packed = Numerators.of(embed(unit, pivot, self.rank), self._base)
            cached = self._slope_units[key] = packed.restrict(pivot, table).series()
        return cached

    def _restricted(
        self, cache: dict, point, f: TruncatedSeries, line: tuple, order: int, derivative: bool
    ) -> Numerators:
        """g, or dg/ds_j, on the line's hyperplane for g = f in logarithmic
        coordinates through `order`, as Numerators; the conversion and the
        restrictions are kept in `cache`."""
        key = (point, order)
        g = cache.get(key)
        if g is None:
            g = cache[key] = self._convert(f, "exp", order)
        key = (point, order, line, derivative)
        restricted = cache.get(key)
        if restricted is None:
            pivot, table = self._hyperplane(line)
            restricted = cache[key] = g.restrict(pivot, table, derivative)
        return restricted

    def reduce_combination(
        self, values: dict, weights, chi, power: int = 1, cache: dict | None = None
    ) -> RemainderReport:
        """Reduce sum_P w_P * values[P] modulo chern(chi)^power.

        weights lists (P, sign, rho): w_P is the integer sign, or sign *
        rho_factor(n, m, chi) for rho = (n, m).  In the coordinates s_i =
        l(t_i) the ideal of chern(chi)^power is that of L^power for the
        linear form L = sum_i chi_i s_i, and a rho weight is h(L) with h(y) =
        e((n/m) y)/e(y); on the hyperplane L = 0 it is h(0) = n/m, and its
        s_j-derivative is h'(0) chi_j.  So the value of the combination there,
        and for power 2 its s_j-derivative there, are combinations of the
        restrictions of the converted values (kept in `cache`, which calls
        on the same values may share, so each value is converted once).
        Vanishing through an order is invariant under s = t + O(t^2) and
        under a unit factor, so the verdict is read in s; a failing remainder
        is converted back: the combination on t_j = phi and its
        t_j-derivative there, (d/ds_j) / e'(s_j), the same series as
        substituting t_j = phi.  Certified through min(order of the
        combination, ring order) - power.
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
        line = chi.primitive_direction()
        pivot, _ = self._hyperplane(line)
        order = min(values[point].order for point, _, _ in weights)
        if any(rho is not None for _, _, rho in weights):
            order = min(order, self.order)  # rho factors are truncated at the ring order
        # The value on the hyperplane is exact through the ring order, the
        # derivative one order below the combination's.
        orders = [min(order, self.order), min(max(order - 1, 0), self.order)]
        certified = orders[0] - power
        value_parts, slope_parts = [], []
        for point, sign, rho in weights:
            f = values[point]
            # the derivative through the ring order needs the value one order up
            args = (cache, point, f, line, min(f.order, self.order + power - 1))
            value = self._restricted(*args, derivative=False)
            q = QQ(sign) if rho is None else sign * QQ(*rho)
            value_parts.append((q, value))
            if power == 2:
                slope_parts.append((q, self._restricted(*args, derivative=True)))
                if rho is not None:
                    dh = self.law.rho_slope(*rho).scale(sign * chi.coords[pivot])
                    slope_parts.append((dh, value))
        components = [Numerators.combine(value_parts, orders[0])]
        if power == 2:
            components.append(Numerators.combine(slope_parts, orders[1]))
        if all(c.is_zero_through(certified) for c in components):
            series = [TruncatedSeries.zero(self.rank, max(certified, 0))] * power
        else:
            series = [c.series() for c in components]
            if power == 2:
                series[1] = series[1] * self._slope_unit(line, orders[1])
            series = [self.from_log(c) for c in series]
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
        return None, result.obstruction[1]

    def _division_unit(self, chi: Character) -> TruncatedSeries:
        """(L / e(L)) / chi_j in s, for L = sum_i chi_i s_i and the pivot j,
        through the ring order - 1 (as far as quotients go), cached."""
        cached = self._units.get(chi.coords)
        if cached is None:
            pivot, _ = self._hyperplane(chi.primitive_direction())
            unit = self.law.unit_of_linear_form(chi.coords, self.order - 1)
            cached = self._units[chi.coords] = unit.scale(1 / chi.coords[pivot])
        return cached

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
        known = min(f.order, self.order)
        g = self._convert(f, "exp", known)
        units = []
        for ch in elem.denominator:
            ch = self._char(ch)
            pivot, table = self._hyperplane(ch.primitive_direction())
            rest = g.restrict(pivot, table)
            if not rest.is_zero_through(g.order - 1):
                if units:
                    f = self._from_log_times(g, units)
                report = self.reduce_mod(f, ch, 1)
                return ClearResult(None, report.certified_order, obstruction=(ch, report))
            top = g.order if rest.is_zero_through(g.order) else g.order - 1
            if top < 1:
                raise ValueError(
                    f"a numerator known through degree {known} divided by "
                    f"{len(elem.denominator)} Chern factors determines no degree of the quotient"
                )
            g = g.divide_linear(pivot, table, top - 1)
            units.append(self._division_unit(ch))
        series = self._from_log_times(g, units)
        return ClearResult(series, series.order)

    def _from_log_times(self, g: Numerators, units: list) -> TruncatedSeries:
        """g times each unit, back in t."""
        out = g.series()
        for unit in units:
            out = out * unit
        return self.from_log(out)

    # -- localized arithmetic ---------------------------------------------------

    def loc_mul(self, a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
        return LocalizedElement(a.numerator * b.numerator, a.denominator + b.denominator)

    def loc_add(self, a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
        da, db = _den_multiset(a.denominator), _den_multiset(b.denominator)
        lcm: dict = dict(da)
        for coords, mult in db.items():
            if lcm.get(coords, 0) < mult:
                lcm[coords] = mult
        def complement(own):
            out = []
            for coords, mult in lcm.items():
                extra = mult - own.get(coords, 0)
                out.extend([Character(coords)] * extra)
            return out

        num = a.numerator * self.chern_product(complement(da)) + b.numerator * self.chern_product(
            complement(db)
        )
        den = []
        for coords, mult in lcm.items():
            den.extend([Character(coords)] * mult)
        return LocalizedElement(num, tuple(den))

    def loc_eq(self, a: LocalizedElement, b: LocalizedElement) -> bool:
        """Cross-multiplied equality of the stored truncations.

        Exact through the stored order minus the total number of denominator
        factors; extend the working order by that count for full certainty.
        """
        left = a.numerator * self.chern_product(b.denominator)
        right = b.numerator * self.chern_product(a.denominator)
        return (left - right).is_zero()

    # -- lattice rescaling ---------------------------------------------------

    def rescale_characters(self, f: TruncatedSeries, factors, inverse: bool = False) -> TruncatedSeries:
        """Substitute t_i -> [a_i] t_i (or [1/a_i] t_i with inverse=True)."""
        factors = list(factors)
        if len(factors) != self.rank:
            raise ValueError("need one positive factor per variable")
        base = f.order + 1
        out = Numerators.of(f, base)
        for i, a in enumerate(factors):
            a = as_rational(a)
            if a <= 0:
                raise ValueError("rescaling factors must be positive")
            if inverse:
                a = 1 / a
            if a != 1:
                powers = series_powers(self.law.exp_linear((a,), f.order))
                table = pack_table([embed(row, i, self.rank) for row in powers], base, f.order)
                out = out.substitute(i, table)
        return out.series()
