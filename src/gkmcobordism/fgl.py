"""The universal formal group law engine over the rationalized Lazard ring.

Everything is driven by the logarithm l(u) = u + sum_k mk u^(k+1) and its
compositional inverse e: the group sum is e(l(u) + l(v)), integer multiples
are e(n*l(u)), rational divisions e(l(u)/m), and the degree-zero correction
operator rho_{n/m} u = [n]([1/m]u) / u comes out as a univariate series in u.

One cached power table P = [l^0, l^1, ..., l^N] builds all of these; its
counterpart [e^0, ..., e^N] (exp_powers) takes series to the logarithmic
coordinates s_i = l(t_i), where every Chern class is e of a linear form.  The
exponential is solved from u = sum_a e_a l^a by a triangular solve, one
degree at a time.  Every series of the form g(sum_i chi_i l(t_i)) (Chern
classes, [n]x, [1/m]x, the pair table F(u, v)) is g at the linear form
sum_i chi_i s_i, one TruncatedSeries.substitute of the first s_j with
chi_j != 0, then converted s_i -> l(t_i) for each such s_i (convert, the one
loop between the coordinates s and t, with the embedded rows of P);
rho_series is [n/m]x / x.
Composition (compose_univariate, a substitution against the powers of the
inner series) remains for arguments that are not such linear forms: sum,
inverse, multiple, divide and rho of a series.

A law keeps every derived series and table in its one dict `_cache`, under
keys tagged by what they hold; `_memo` builds each on first use.

Specializations assign rationals to the mk: the additive law sets all mk = 0,
the multiplicative law with parameter b sets mk = b^k/(k+1), which collapses
F(u, v) to u + v - b*u*v.

Congruence checks read rho_{n/m}(c) = q + q (q - 1) e_2 c + O(c^2), q = n/m,
to first order only: they read modulo c^2, which kills the rest, so a law
enters them through e_2 = -m1 alone and no rho series is built.
"""

from __future__ import annotations

from .coeff_series import (
    LazardCoefficient,
    TruncatedSeries,
    combination,
    compose_univariate,
    compositional_inverse,
    embed,
    series_powers,
)
from .common import QQ, as_rational, pivot_index


class FormalGroupLaw:
    """A formal group law truncated at a fixed t-order, optionally specialized.

    Immutable after construction; caches are filled on demand and never
    invalidated.  The m-monomial intern table of coeff_series is global to
    the process and not synchronized, so use the engine from one thread.
    """

    def __init__(self, order: int, assignment: dict | None = None, label: str = "universal"):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        self.order = order
        self.label = label
        if assignment is not None:
            assignment = {int(k): as_rational(v) for k, v in assignment.items()}
            missing = [k for k in range(1, order) if k not in assignment]
            if missing:
                raise ValueError(
                    f"incomplete assignment: m{missing[0]} is undefined below the truncation order"
                )
        self.assignment = assignment
        self._cache: dict = {}  # every derived series and table, by a tagged key

    # -- factories ----------------------------------------------------------

    @classmethod
    def universal(cls, order: int) -> "FormalGroupLaw":
        return cls(order)

    # The closed-form laws also assign m_order: rho_series works one order
    # above the truncation order, where the top coefficient depends on it.

    @classmethod
    def additive(cls, order: int) -> "FormalGroupLaw":
        return cls(order, {k: QQ(0) for k in range(1, order + 1)}, label="additive")

    @classmethod
    def multiplicative(cls, beta, order: int) -> "FormalGroupLaw":
        beta = as_rational(beta)
        assignment = {k: beta**k / (k + 1) for k in range(1, order + 1)}
        return cls(order, assignment, label=f"multiplicative:{beta}")

    @classmethod
    def with_assignment(cls, order: int, assignment: dict) -> "FormalGroupLaw":
        """A law with the given rational mk.  m_1..m_{order-1} are required;
        rho_series, built one order up, also needs m_order and raises
        ValueError without it; congruence checks, exact modulo c^2 with rho
        read to first order in c, need only m_1 of it."""
        return cls(order, assignment, label="custom")

    # -- log and exp ----------------------------------------------------------

    def _m(self, k: int) -> LazardCoefficient:
        if self.assignment is None:
            return LazardCoefficient.generator(k)
        if k not in self.assignment:
            raise ValueError(f"m{k} is not assigned; this series needs it")
        return LazardCoefficient.rational(self.assignment[k])

    def log_series(self, order: int | None = None) -> TruncatedSeries:
        """l(u) = u + m1 u^2 + m2 u^3 + ... truncated at the requested order."""
        order = self.order if order is None else order

        def build():
            terms = {(k + 1,): self._m(k) if k else LazardCoefficient.one() for k in range(order)}
            return TruncatedSeries(1, order, terms)

        return _memo(self._cache, ("log", order), build)

    def log_powers(self, order: int | None = None) -> list:
        """The power table [l^0, l^1, ..., l^order] of the logarithm."""
        order = self.order if order is None else order
        return _memo(self._cache, ("log^k", order), lambda: series_powers(self.log_series(order)))

    def exp_series(self, order: int | None = None) -> TruncatedSeries:
        order = self.order if order is None else order
        return _memo(
            self._cache,
            ("exp", order),
            lambda: compositional_inverse(self.log_series(order), self.log_powers(order)),
        )

    def exp_powers(self, order: int | None = None) -> list:
        """The power table [e^0, e^1, ..., e^order] of the exponential."""
        order = self.order if order is None else order
        return _memo(self._cache, ("exp^k", order), lambda: series_powers(self.exp_series(order)))

    def convert(self, f: TruncatedSeries, kind: str, variables=None) -> TruncatedSeries:
        """f with t_i -> e(t_i) ("exp", from t to s_i = l(t_i)) or t_i ->
        l(t_i) ("log", from s back to t) for each i in `variables` (default
        all), through f's order: one substitute per variable against the
        embedded power table, built on first use and kept."""
        order, rank = f.order, f.rank
        powers = self.exp_powers if kind == "exp" else self.log_powers
        for i in range(rank) if variables is None else variables:
            key = ("convert", kind, order, i, rank)
            table = _memo(self._cache, key, lambda: [embed(r, i, rank) for r in powers(order)])
            f = f.substitute(i, table)
        return f

    # -- univariate building blocks -------------------------------------------

    def exp_linear(self, chi, order: int | None = None) -> TruncatedSeries:
        """e(sum_i chi_i l(t_i)) in len(chi) variables, for rational chi_i:
        e at the linear form in s, then s_i -> l(t_i) where chi_i != 0."""
        order = self.order if order is None else order
        g = _at_linear_form(self.exp_series(order), chi)
        return self.convert(g, "log", [i for i, c in enumerate(chi) if c])

    def multiple_series(self, n, order: int | None = None) -> TruncatedSeries:
        """[n]x = e(n l(x)) as a univariate series, for a rational n; [1/m]x
        is the same series at n = 1/m."""
        order = self.order if order is None else order
        n = as_rational(n)
        return _memo(self._cache, ("multiple", n, order), lambda: self.exp_linear((n,), order))

    def divide_series(self, m: int, order: int | None = None) -> TruncatedSeries:
        """[1/m]x as a univariate series."""
        if m < 1:
            raise ValueError("division index must be a positive integer")
        return self.multiple_series(QQ(1, m), order)

    def rho_series(self, n: int, m: int, order: int | None = None) -> TruncatedSeries:
        """rho_{n/m} x = [n]([1/m]x)/x = [q]x / x, q = n/m, of degree zero: [q]x
        one order up, divided by x.  It is q + q (q - 1) e_2 x + O(x^2), as
        e(q y)/e(y) is for e(y) = y + e_2 y^2 + ..., and modulo x^2 no more of
        it is needed: torus_ring weighs surface congruences so."""
        if n == 0:
            raise ValueError("rho requires a nonzero numerator")
        if m < 1:
            raise ValueError("rho requires a positive denominator")
        order = self.order if order is None else order
        return self.multiple_series(QQ(n, m), order + 1).divided_by_variable(0)

    # -- operations on series ---------------------------------------------------

    @staticmethod
    def _require_no_constant(*series: TruncatedSeries):
        for s in series:
            if not s.constant_term().is_zero():
                raise ValueError("formal group law arguments must have zero constant term")

    def pair_table(self, order: int | None = None) -> TruncatedSeries:
        """F(u, v) expanded on two fresh variables."""
        order = self.order if order is None else order
        return _memo(self._cache, ("pair", order), lambda: self.exp_linear((1, 1), order))

    def a_coefficient(self, i: int, j: int) -> LazardCoefficient:
        """The coefficient of u^i v^j in F(u, v)."""
        if i < 0 or j < 0 or i + j > self.order:
            raise ValueError("coefficient indices out of the truncation range")
        return self.pair_table().coefficient((i, j))

    def sum(self, u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
        """u +_F v = e(l(u) + l(v))."""
        u._check_rank(v)
        self._require_no_constant(u, v)
        if u.is_zero():
            return v
        if v.is_zero():
            return u
        order = min(u.order, v.order)
        lu = compose_univariate(self.log_series(order), u)
        lv = compose_univariate(self.log_series(order), v)
        return compose_univariate(self.exp_series(order), lu + lv)

    def inverse(self, u: TruncatedSeries) -> TruncatedSeries:
        """[-1]u = e(-l(u)), the power-series inverse for the group law."""
        self._require_no_constant(u)
        return compose_univariate(self.multiple_series(-1, u.order), u)

    def multiple(self, n: int, u: TruncatedSeries) -> TruncatedSeries:
        """[n]u = e(n l(u)) for any integer n."""
        self._require_no_constant(u)
        if n == 0:
            return TruncatedSeries.zero(u.rank, u.order)
        return compose_univariate(self.multiple_series(n, u.order), u)

    def divide(self, m: int, u: TruncatedSeries) -> TruncatedSeries:
        """[1/m]u, the unique series with [m]([1/m]u) = u."""
        self._require_no_constant(u)
        if m < 1:
            raise ValueError("division index must be a positive integer")
        return compose_univariate(self.divide_series(m, u.order), u)

    def rho(self, n: int, m: int, u: TruncatedSeries) -> TruncatedSeries:
        """The exact quotient [n]([1/m]u)/u for u of t-order exactly one.

        The quotient is computed as a univariate series in u, so the division
        is exact by construction; inputs whose lowest term is not of t-order
        one are rejected.
        """
        if u.t_order() != 1:
            raise ValueError("rho requires an input of t-order exactly 1")
        return compose_univariate(self.rho_series(n, m, u.order), u)

    def __repr__(self) -> str:
        return f"FormalGroupLaw(order={self.order}, law={self.label})"


def _memo(cache: dict, key, build):
    """cache[key], built by build() and stored on first use; a built value is
    never None."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = build()
    return value


def _at_linear_form(g: TruncatedSeries, chi) -> TruncatedSeries:
    """g(sum_i chi_i t_i) in len(chi) variables through g's order, for a
    univariate g and rational chi_i: one substitute of the first t_j with
    chi_j != 0 (t_1 when there is none, giving g's constant term)."""
    rank = len(chi)
    form = combination(
        [(c, TruncatedSeries.variable(i, rank, g.order)) for i, c in enumerate(chi)], rank, g.order
    )
    j = pivot_index(chi)
    return embed(g, j, rank).substitute(j, form)
