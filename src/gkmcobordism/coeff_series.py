"""Exact graded power series over the rationalized Lazard coefficient ring.

Coefficients live in Q[m1, m2, ...] where mk is the degree-(-k) logarithm
generator.  Series live in Q[m.][[t1, ..., tr]] and are truncated at a fixed
total degree in the t-variables only; the m-parts are exact polynomials.
All arithmetic is exact and runs on integers; no floating point anywhere.

A TruncatedSeries stores one form: integer numerators over one positive
denominator `den`.  `rows` maps each t-monomial, packed into an integer, to
its coefficient {m-monomial id: numerator}.  With b = _bits(order) bits per
exponent, t^e packs to sum_i e_i << b*i plus the total degree sum_i e_i at
bit b*rank; below the order no exponent overflows its field, so adding keys
multiplies monomials, and sorting keys sorts by degree first.  The
m-monomials are interned as small integer ids, and multiplying two is a
lookup in a table row (filled on first use).  The form is canonical: no zero
numerator, no empty row, keys ascending, and gcd(den, numerators) = 1, so den
is the lcm of the reduced coefficient denominators and == compares the
stored form.

All arithmetic takes two passes.  Every product runs through one integer
kernel (`_product`), which sums int * int products into one bucket per
(t-monomial, m-monomial) and takes no gcd inside its loop.  The kernel has
two loops, chosen from the stored form: a series records whether every
coefficient is a rational (the unit m-monomial alone, as under every law but
the universal one), and a product of two such series, or a substitution
whose series and table rows all are, runs a flat loop over
(t-monomial, int) pairs with no m-monomial lookup; any Q[m] operand takes
the two-level loop.  Every rational linear combination sum q * f (sums,
differences, negation, rational scaling) runs through `combination`, which
adds the scaled numerators into the two-level kind of buckets over one
common denominator.  The gcd is divided out once per result.

Every change of variables is TruncatedSeries.substitute: for
f = sum_k t^k C_k, C_k free of the variable t, it forms sum_k C_k u_k in one
kernel pass from a table of series u_k, each known through f's order, and
so is the result.  The powers u_k = u^k (series_powers) substitute t -> u;
compose_univariate forms f(g) so, with f and g cut to the smaller order.
For a linear form y free of t, u_k = y^k restricts to the hyperplane t = y.
Every linear form sum_i c_i t_i is built by linear_form, as a combination of
the variables.

Exact division by a series c of t-order 1 (`exact_quotient`) runs degree by
degree on the same integer form: each quotient degree is one synthetic
division by the linear part of c, and one kernel pass adds it times the
rest of c into an accumulator shared by all degrees.

Fractions and LazardCoefficient values are built only at the boundary of a
series: the dict constructor reads them, and the `terms` view,
coefficient/constant_term, to_json_obj, render and specialize build them.
from_json_obj builds neither: it reads each coefficient as an integer pair
(num, den) straight into the stored form.

Multiplicative inverses use Newton iteration; compositional inverses a
triangular solve against the powers of the series.

The rationals (QQ, as_rational) and the checks of a JSON input come from
common, the bottom layer, which holds what every layer shares and needs no
series; this module holds only the series and their coefficients.
"""

from __future__ import annotations

from math import gcd, lcm

from .common import (
    _INT,
    _INTS,
    _LIST,
    _M_PAIRS,
    _RATIONAL,
    QQ,
    _check_keys,
    _checked,
    as_rational,
    pivot_index,
)

# A monomial in the m-generators: sorted tuple of (k, exponent), k >= 1.
MKey = tuple
# A t-monomial: tuple of non-negative exponents, one per variable.
TKey = tuple

_MONE = ()  # the empty m-monomial (the rational 1)


def _parse_rational(text: str) -> tuple:
    """as_rational of a JSON coefficient string as a pair (num, den) in
    lowest terms, den > 0: `[+-]digits` and `[+-]digits/digits` are read
    with int(), any other spelling by Fraction."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return int(num), 1
        if den.isascii() and den.isdigit() and (d := int(den)):
            n = int(num)
            g = gcd(n, d)
            return n // g, d // g
    q = as_rational(text)
    return q.numerator, q.denominator


def m_degree(mkey: MKey) -> int:
    """Cohomological degree of an m-monomial: mk has degree -k."""
    return -sum(k * e for k, e in mkey)


# The intern table of m-monomials, which series key their coefficients by:
# _MKEYS[i] is the MKey with id i, _MIDS maps it back, and _TIMES[i] is the
# product row of id i, {id j: id of mkey i * mkey j}.  The table grows by one
# entry per distinct monomial and per distinct multiplied pair, and is never
# cleared: ids stay valid for the life of the process.
_MKEYS: list = []
_MIDS: dict = {}
_TIMES: list = []


class _TimesRow(dict):
    """The product row of one interned m-monomial, filled on its first miss."""

    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def __missing__(self, right: int) -> int:
        merged = dict(_MKEYS[self.left])
        for k, e in _MKEYS[right]:
            merged[k] = merged.get(k, 0) + e
        m = self[right] = _mid(tuple(sorted(merged.items())))
        return m


def _mid(mkey: MKey) -> int:
    """The id of an m-monomial, interned on first sight."""
    i = _MIDS.get(mkey)
    if i is None:
        i = _MIDS[mkey] = len(_MKEYS)
        _MKEYS.append(mkey)
        _TIMES.append(_TimesRow(i))
    return i


_UNIT = _mid(_MONE)  # the id of the rational 1


def _unit_rows(rows: dict) -> bool:
    """Whether every row is a rational: the unit m-monomial alone."""
    for row in rows.values():
        if len(row) != 1 or _UNIT not in row:
            return False
    return True


def _flat(rows: dict) -> list:
    """The (packed t-key, int) pairs of rational rows."""
    return [(key, row[_UNIT]) for key, row in rows.items()]


def _bits(order: int) -> int:
    """Bits per exponent in the packed t-monomials of a series of this order:
    more than any exponent reaches, and at least 4, so that nearby orders
    share one packing."""
    return max(order.bit_length(), 4)


def _pack(exponents: TKey, bits: int) -> int:
    key = sum(exponents) << bits * len(exponents)
    for i, e in enumerate(exponents):
        key |= e << bits * i
    return key


def _unpack(key: int, rank: int, bits: int) -> TKey:
    mask = (1 << bits) - 1
    return tuple(key >> bits * i & mask for i in range(rank))


def _product(a, b, shift: int, order: int, buckets: dict, rational: bool = False) -> dict:
    """The integer kernel behind every product.

    a and b iterate over (packed t-key, {mkey id: int}) in ascending key
    order, packed alike with the degree at bit `shift`.  Adds the products of
    their numerators through total degree `order` into `buckets`
    ({packed t-key: {mkey id: int}}) and returns it; a sum may be zero.

    With `rational` both operands are rational series, a and b iterate over
    flat (packed t-key, int) pairs (`_flat`) and the buckets are
    {packed t-key: int}: one multiply-add per pair of t-monomials, with no
    m-monomial lookup.  Q[m] operands take the two-level loop.
    """
    top = order + 1 << shift
    if rational:
        get = buckets.get
        for pa, na in a:
            limit = top - (pa >> shift << shift)
            if limit <= 0:
                break
            for pb, nb in b:
                if pb >= limit:
                    break
                key = pa + pb
                buckets[key] = get(key, 0) + na * nb
        return buckets
    times = _TIMES
    for pa, ca in a:
        limit = top - (pa >> shift << shift)  # b's keys of degree <= order - deg(pa)
        if limit <= 0:
            break
        ca = ca.items()
        for pb, cb in b:
            if pb >= limit:
                break
            key = pa + pb
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
            for ma, na in ca:
                row = times[ma]
                for mb, nb in cb.items():
                    m = row[mb]
                    bucket[m] = bucket.get(m, 0) + na * nb
    return buckets


def _constant(coeff) -> "TruncatedSeries":
    """The univariate order-0 series of a coefficient or a rational: the
    series LazardCoefficient computes with."""
    return TruncatedSeries.constant(coeff, 1, 0)


def _coefficient(row: dict, den: int) -> "LazardCoefficient":
    """The LazardCoefficient of a stored row over den."""
    mkeys = _MKEYS
    return LazardCoefficient({mkeys[m]: QQ(n, den) for m, n in row.items()})


class LazardCoefficient:
    """A sparse polynomial in the logarithm generators m1, m2, ... over Q.

    Zero coefficients are never stored (the constructor drops them); all
    rationals are kept exact.  `terms` maps each m-monomial to a Fraction,
    but the arithmetic (+, -, negation, scale and *) runs on the constant
    series of the coefficient, so only `evaluate` computes with Fractions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {m: q for m, q in terms.items() if q} if terms else {}

    @classmethod
    def zero(cls) -> "LazardCoefficient":
        return cls({})

    @classmethod
    def rational(cls, q) -> "LazardCoefficient":
        q = as_rational(q)
        return cls({_MONE: q} if q else {})

    @classmethod
    def one(cls) -> "LazardCoefficient":
        return cls.rational(1)

    @classmethod
    def generator(cls, k: int, exponent: int = 1, scale=1) -> "LazardCoefficient":
        """The monomial scale * mk^exponent."""
        if k < 1 or exponent < 0:
            raise ValueError("m-generator index must be >= 1 and exponent >= 0")
        scale = as_rational(scale)
        if not scale:
            return cls.zero()
        if exponent == 0:
            return cls.rational(scale)
        return cls({((k, exponent),): scale})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _MONE in self.terms)

    def rational_value(self) -> QQ:
        if not self.terms:
            return QQ(0)
        if self.is_rational():
            return self.terms[_MONE]
        raise ValueError("coefficient is not a pure rational")

    def degrees(self) -> set:
        return {m_degree(m) for m in self.terms}

    def __eq__(self, other) -> bool:
        if isinstance(other, LazardCoefficient):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "LazardCoefficient":
        return (-_constant(self)).constant_term()

    def __add__(self, other) -> "LazardCoefficient":
        return (_constant(self) + _constant(other)).constant_term()

    __radd__ = __add__

    def __sub__(self, other) -> "LazardCoefficient":
        return (_constant(self) - _constant(other)).constant_term()

    def __mul__(self, other) -> "LazardCoefficient":
        if not isinstance(other, LazardCoefficient):
            return self.scale(other)
        return (_constant(self) * _constant(other)).constant_term()

    def __rmul__(self, other) -> "LazardCoefficient":
        return self.scale(other)

    def scale(self, q) -> "LazardCoefficient":
        return _constant(self).scale(as_rational(q)).constant_term()

    def evaluate(self, assignment) -> QQ:
        """Evaluate with mk -> assignment[k]; assignment maps int k to rationals."""
        total = QQ(0)
        for m, c in self.terms.items():
            v = c
            for k, e in m:
                v = v * (as_rational(assignment[k]) ** e)
            total += v
        return total

    def specialize(self, assignment) -> "LazardCoefficient":
        return LazardCoefficient.rational(self.evaluate(assignment))

    def sorted_terms(self):
        return sorted(self.terms.items())

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            if c == -1 and m:
                head = "-"
            elif c == 1 and m:
                head = ""
            else:
                head = str(c)
                if m:
                    head += "*"
            for k, e in m:
                factors.append(f"m{k}" + (f"^{e}" if e > 1 else ""))
            parts.append(head + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"LazardCoefficient({self.render()})"

    def to_json_terms(self) -> list:
        return [[[list(ke) for ke in m], str(c)] for m, c in self.sorted_terms()]


# -- the shape of a series, from code or from JSON ------------------------------


def _check_shape(rank: int, order: int, keys) -> None:
    """Reject a rank below 1, an order below 0, and then, in the order of
    keys, a t-exponent tuple of the wrong length, with a negative exponent
    or of a degree above the order."""
    if rank < 1:
        raise ValueError("variable count must be >= 1")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    for key in keys:
        if len(key) != rank:
            raise ValueError("t-exponent length does not match the variable count")
        if any(e < 0 for e in key):
            raise ValueError("t-exponents must be non-negative")
        if sum(key) > order:
            raise ValueError("a stored t-monomial exceeds the truncation order")


def _plain_term(term):
    """(t_exponents, m_exponents, coeff) of a series term whose values have
    exactly the JSON types of the format, with no subclass and no bool for
    an int; None for any other term, which _check_keys and _checked then
    judge."""
    if type(term) is not dict or len(term) != 3:
        return None
    t, pairs, q = term.get("t_exponents"), term.get("m_exponents"), term.get("coeff")
    if type(t) is not list or type(pairs) is not list or type(q) not in (int, str):
        return None
    for e in t:
        if type(e) is not int:
            return None
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
            return None
    return t, pairs, q


class TruncatedSeries:
    """A power series in t1..tr over Q[m.], truncated at total t-degree `order`.

    Stored as integer numerators over one denominator (see the module
    docstring); immutable by convention: no method mutates `den` or `rows`
    after construction, so results may share row dicts.  `rational` records
    whether every stored coefficient is a rational (`_unit_rows`), which
    selects the kernel's flat loop.
    """

    __slots__ = ("rank", "order", "den", "rows", "rational")

    def __init__(self, rank: int, order: int, terms: dict | None = None):
        """The series sum_k c_k t^k of terms {k: c_k}, k an exponent tuple
        and c_k a LazardCoefficient.  Zero coefficients are dropped; a key of
        the wrong length, a negative exponent or a degree above the order
        raises ValueError."""
        terms = {tuple(k): c for k, c in terms.items()} if terms else {}
        _check_shape(rank, order, terms)
        bits = _bits(order)
        coeffs = {_pack(k, bits): c.terms for k, c in terms.items() if c.terms}
        # over the lcm of the reduced denominators the numerators have no
        # common factor with it, so the form is canonical as built
        den = lcm(*(q.denominator for c in coeffs.values() for q in c.values()))
        self.rank, self.order, self.den = rank, order, den
        self.rows = {
            key: {_mid(m): q.numerator * (den // q.denominator) for m, q in coeffs[key].items()}
            for key in sorted(coeffs)
        }
        self.rational = _unit_rows(self.rows)

    @classmethod
    def _of(cls, rank: int, order: int, den: int, rows: dict, rational: bool) -> "TruncatedSeries":
        """A series from its canonical stored form, packed for `order`;
        `rational` is _unit_rows(rows)."""
        out = object.__new__(cls)
        out.rank, out.order, out.den, out.rows, out.rational = rank, order, den, rows, rational
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, rank: int, order: int) -> "TruncatedSeries":
        return cls(rank, order)

    @classmethod
    def constant(cls, coeff, rank: int, order: int) -> "TruncatedSeries":
        if not isinstance(coeff, LazardCoefficient):
            coeff = LazardCoefficient.rational(coeff)
        return cls(rank, order, {(0,) * rank: coeff})

    @classmethod
    def one(cls, rank: int, order: int) -> "TruncatedSeries":
        return cls.constant(1, rank, order)

    @classmethod
    def variable(cls, index: int, rank: int, order: int) -> "TruncatedSeries":
        """The series t_{index+1} (0-based index)."""
        if not 0 <= index < rank:
            raise ValueError("variable index out of range")
        if order < 1:
            return cls(rank, order)
        key = tuple(1 if i == index else 0 for i in range(rank))
        return cls(rank, order, {key: LazardCoefficient.one()})

    @classmethod
    def monomial(cls, exponents, coeff, rank: int, order: int) -> "TruncatedSeries":
        exponents = tuple(exponents)
        if len(exponents) != rank:
            raise ValueError("exponent tuple length must equal the variable count")
        if not isinstance(coeff, LazardCoefficient):
            coeff = LazardCoefficient.rational(coeff)
        if sum(exponents) > order:
            return cls(rank, order)
        return cls(rank, order, {exponents: coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> dict:
        """{t-exponent tuple: LazardCoefficient}: a read view, built on each call."""
        rank, bits, den = self.rank, _bits(self.order), self.den
        return {_unpack(key, rank, bits): _coefficient(row, den) for key, row in self.rows.items()}

    def coefficient(self, exponents) -> LazardCoefficient:
        exponents = tuple(exponents)
        if len(exponents) != self.rank or min(exponents) < 0 or sum(exponents) > self.order:
            return LazardCoefficient.zero()
        row = self.rows.get(_pack(exponents, _bits(self.order)))
        return LazardCoefficient.zero() if row is None else _coefficient(row, self.den)

    def constant_term(self) -> LazardCoefficient:
        row = self.rows.get(0)
        return LazardCoefficient.zero() if row is None else _coefficient(row, self.den)

    def is_zero(self) -> bool:
        return not self.rows

    def is_zero_through(self, order: int) -> bool:
        t_order = self.t_order()
        return t_order is None or t_order > order

    def t_order(self):
        """Minimal total t-degree of a stored term, or None for the zero series."""
        if not self.rows:
            return None
        return next(iter(self.rows)) >> _bits(self.order) * self.rank

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return (
                self.rank == other.rank
                and self.order == other.order
                and self.den == other.den
                and self.rows == other.rows
            )
        return NotImplemented

    __hash__ = None

    def agrees_through(self, other: "TruncatedSeries", order: int) -> bool:
        if self.rank != other.rank:
            return False
        return (self - other.truncated(self.order)).is_zero_through(order)

    # -- arithmetic ---------------------------------------------------------

    def _check_rank(self, other: "TruncatedSeries"):
        if self.rank != other.rank:
            raise ValueError(
                f"variable-count mismatch: {self.rank} vs {other.rank}"
            )

    def truncated(self, order: int) -> "TruncatedSeries":
        return self if order >= self.order else self.at_order(order)

    def at_order(self, order: int) -> "TruncatedSeries":
        """Re-declare the truncation order, dropping the terms above it.

        Raising the order asserts that the dropped tail is genuinely zero;
        that is the caller's responsibility (e.g. for exact polynomials).
        """
        if order == self.order:
            return self
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        rank, bits, new = self.rank, _bits(self.order), _bits(order)
        rows = self.rows
        limit = order + 1 << bits * rank
        dropped = order < self.order and next(reversed(rows), -1) >= limit
        if dropped:
            rows = {k: row for k, row in rows.items() if k < limit}
        if new != bits:
            rows = {_pack(_unpack(k, rank, bits), new): row for k, row in rows.items()}
        if dropped:
            return _reduced(rank, order, self.den, rows)
        return TruncatedSeries._of(rank, order, self.den, rows, self.rational)

    def _packed_for(self, order: int) -> "TruncatedSeries":
        """self, or self re-declared at `order` when that changes the
        packing; terms above `order` may remain (the kernel skips them)."""
        return self if _bits(self.order) == _bits(order) else self.at_order(order)

    def __neg__(self) -> "TruncatedSeries":
        return combination([(-1, self)], self.rank, self.order)

    def _plus(self, p: int, other) -> "TruncatedSeries":
        """self + p * other, for p = 1 or -1 and other a series or a
        coefficient."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.rank, self.order)
        self._check_rank(other)
        return combination([(1, self), (p, other)], self.rank, min(self.order, other.order))

    def __add__(self, other) -> "TruncatedSeries":
        return self._plus(1, other)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        return self._plus(-1, other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return TruncatedSeries.constant(other, self.rank, self.order)._plus(-1, self)

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_rank(other)
        order = min(self.order, other.order)
        a, b = self._packed_for(order), other._packed_for(order)
        if len(a.rows) > len(b.rows):
            a, b = b, a
        shift = _bits(order) * self.rank
        if a.rational and b.rational:
            buckets = _product(_flat(a.rows), _flat(b.rows), shift, order, {}, True)
            return _canonical(self.rank, order, a.den * b.den, buckets, True)
        buckets = _product(a.rows.items(), b.rows.items(), shift, order, {})
        return _canonical(self.rank, order, a.den * b.den, buckets)

    def __rmul__(self, other) -> "TruncatedSeries":
        return self.scale(other)

    def scale(self, coeff) -> "TruncatedSeries":
        if isinstance(coeff, LazardCoefficient):
            if not coeff.is_rational():
                return self * TruncatedSeries.constant(coeff, self.rank, self.order)
            coeff = coeff.rational_value()
        return combination([(as_rational(coeff), self)], self.rank, self.order)

    # -- calculus and substitution ------------------------------------------

    def _variable_step(self, index: int) -> tuple:
        """(bits, packed key of t_{index+1}) in this series' packing."""
        bits = _bits(self.order)
        return bits, (1 << bits * self.rank) | (1 << bits * index)

    def partial(self, index: int) -> "TruncatedSeries":
        """Partial derivative in t_{index+1}; exact through order-1."""
        bits, step = self._variable_step(index)
        mask = (1 << bits) - 1
        rows = {}
        for k, row in self.rows.items():
            e = k >> bits * index & mask
            if e:
                rows[k - step] = {m: n * e for m, n in row.items()}
        derivative = _reduced(self.rank, self.order, self.den, rows)
        return derivative.at_order(max(self.order - 1, 0))

    def substitute(self, index: int, table: list) -> "TruncatedSeries":
        """sum_k C_k u_k, where self = sum_k t^k C_k with t = t_{index+1} and
        C_k free of t: the one change of variables.

        table is [u_0, u_1, ...], each u_k known through self.order, and so
        is the result.  The powers u_k = u^k of a series u (series_powers)
        substitute t -> u; for a linear form y free of t, u_k = y^k
        restricts to the hyperplane t = y.

        One kernel pass of outer products into shared buckets; each table
        row is the left operand, so the inner loop runs over the series'
        m-monomials.  When the series and every table row it uses are
        rational, the pass takes the kernel's flat loop.
        """
        order = self.order
        bits, step = self._variable_step(index)
        shift, place, mask = bits * self.rank, bits * index, (1 << bits) - 1
        parts: dict = {}
        for key, row in self.rows.items():
            k = key >> place & mask
            parts.setdefault(k, []).append((key - k * step, row))
        if any(table[k].order < order for k in parts):
            raise ValueError("every table entry must be known through the series' order")
        us = [table[k]._packed_for(order) for k in parts]
        den = lcm(*(u.den for u in us))
        rational = self.rational and all(u.rational for u in us)
        buckets: dict = {}
        for part, u in zip(parts.values(), us):
            factor = den // u.den
            if rational:
                part = [(key, row[_UNIT] * factor) for key, row in part]
                _product(_flat(u.rows), part, shift, order, buckets, True)
                continue
            if factor != 1:
                part = [(key, {m: n * factor for m, n in row.items()}) for key, row in part]
            _product(u.rows.items(), part, shift, order, buckets)
        return _canonical(self.rank, order, self.den * den, buckets, rational)

    def specialize(self, assignment) -> "TruncatedSeries":
        """Evaluate every mk at a rational; keeps the t-structure."""
        terms = {k: c.specialize(assignment) for k, c in self.terms.items()}
        return TruncatedSeries(self.rank, self.order, terms)

    # -- serialization and rendering ------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json_obj(self) -> dict:
        terms = []
        for k, c in self.sorted_terms():
            for m, q in c.sorted_terms():
                terms.append(
                    {
                        "t_exponents": list(k),
                        "m_exponents": [list(ke) for ke in m],
                        "coeff": str(q),
                    }
                )
        return {"vars": self.rank, "order": self.order, "terms": terms}

    @classmethod
    def from_json_obj(cls, obj) -> "TruncatedSeries":
        """The series of a JSON object as to_json_obj writes it; a missing or
        unknown key, a value of another JSON type or a malformed term raises
        ValueError.

        One pass reads the terms into the stored form, with no Fraction and
        no LazardCoefficient: each coefficient becomes a reduced pair
        (num, den), duplicate terms are summed, and each distinct t-exponent
        tuple and m-monomial is checked, packed or interned once.  Every
        term is type-checked in full; a term off the plain JSON shape goes
        through _check_keys and _checked for their message.  The errors come
        in the constructor's order: every term's own, then the rank, the
        order and each t-exponent tuple in first-seen order."""
        _check_keys(obj, "series", ("vars", "order", "terms"))
        rank, order = _checked(obj, "vars", "series", _INT), _checked(obj, "order", "series", _INT)
        bits = _bits(order)
        packed: dict = {}  # t-exponent tuple -> packed key, in first-seen order
        mids: dict = {}  # m_exponents pairs as given -> m-monomial id
        coeffs: dict = {}  # packed key -> {m-monomial id: (num, den)}
        for term in _checked(obj, "terms", "series", _LIST):
            plain = _plain_term(term)
            if plain:
                t, pairs, q = plain
            else:
                _check_keys(term, "series term", ("t_exponents", "m_exponents", "coeff"))
                t = _checked(term, "t_exponents", "series term", _INTS)
                pairs = _checked(term, "m_exponents", "series term", _M_PAIRS)
            mkey = tuple(map(tuple, pairs))
            m = mids.get(mkey)
            if m is None:
                m = tuple(sorted(mkey))
                if any(k < 1 or e < 1 for k, e in m) or len(dict(m)) != len(m):
                    raise ValueError("malformed m-monomial")
                m = mids[mkey] = _mid(m)
            if not plain:
                q = _checked(term, "coeff", "series term", _RATIONAL)
            n, d = (q, 1) if type(q) is int else _parse_rational(q)
            key = tuple(t)
            p = packed.get(key)
            if p is None:
                p = packed[key] = _pack(key, bits)
            row = coeffs.setdefault(p, {})
            if m in row:  # a duplicate term: add the two reduced fractions
                n0, d0 = row[m]
                n, d = n0 * d + n * d0, d0 * d
                g = gcd(n, d)
                n, d = n // g, d // g
            row[m] = n, d
        _check_shape(rank, order, packed)
        # as in the constructor: over the lcm of the reduced denominators the
        # form is canonical as built
        den = lcm(*(d for row in coeffs.values() for n, d in row.values() if n))
        rows = {}
        for p in sorted(coeffs):
            row = {m: n * (den // d) for m, (n, d) in coeffs[p].items() if n}
            if row:
                rows[p] = row
        return cls._of(rank, order, den, rows, _unit_rows(rows))

    def render(self, names=None) -> str:
        if not self.rows:
            return "0"
        if names is None:
            names = ("u",) if self.rank == 1 else tuple(f"t{i+1}" for i in range(self.rank))
        parts = []
        for k, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            mono = "*".join(
                f"{names[i]}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(k)
                if e
            )
            cstr = c.render()
            if not mono:
                parts.append(cstr)
            elif cstr == "1":
                parts.append(mono)
            elif cstr == "-1":
                parts.append("-" + mono)
            elif len(c.terms) > 1:
                parts.append(f"({cstr})*{mono}")
            else:
                parts.append(f"{cstr}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.render()} + O(deg {self.order + 1}))"


def _canonical(rank: int, order: int, den: int, buckets: dict, rational: bool = False) -> TruncatedSeries:
    """The series of {packed t-key: {mkey id: int}} over den, packed for
    `order`: zero numerators and empty rows are dropped, keys sorted and the
    gcd of den and every numerator divided out.  Takes over the dicts.
    With `rational` the buckets are the flat loop's {packed t-key: int},
    wrapped here into rows of the unit m-monomial."""
    if rational:
        g = gcd(den, *buckets.values())
        rows = {key: {_UNIT: n // g} for key in sorted(buckets) if (n := buckets[key])}
        return TruncatedSeries._of(rank, order, den // g, rows, True)
    rows = {}
    for key in sorted(buckets):
        row = buckets[key]
        if 0 in row.values():
            row = {m: n for m, n in row.items() if n}
        if row:
            rows[key] = row
    return _reduced(rank, order, den, rows)


def _reduced(rank: int, order: int, den: int, rows: dict) -> TruncatedSeries:
    """The series of clean, sorted rows over den, with the gcd of den and
    every numerator divided out."""
    g = den
    for row in rows.values():
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g != 1:
        den //= g
        rows = {k: {m: n // g for m, n in row.items()} for k, row in rows.items()}
    return TruncatedSeries._of(rank, order, den, rows, _unit_rows(rows))


def combination(terms, rank: int, order: int) -> TruncatedSeries:
    """sum(q * f for q, f in terms) through `order` in one integer pass, for
    rational q (ints or Fractions) and series f of this rank, each known
    through `order`.

    The rows of every f land in shared buckets over the lcm D of the
    denominators q.den * f.den, each scaled by the integer
    q.num * D / (q.den * f.den); keys at or above the order limit are
    skipped, which is a break since keys ascend.
    """
    shift = _bits(order) * rank
    limit = order + 1 << shift
    operands = [(q, f._packed_for(order)) for q, f in terms if q]
    den = lcm(*(q.denominator * f.den for q, f in operands))
    buckets: dict = {}
    for q, f in operands:
        factor = q.numerator * (den // (q.denominator * f.den))
        for key, row in f.rows.items():
            if key >= limit:
                break
            into = buckets.get(key)
            if into is None:
                buckets[key] = {m: n * factor for m, n in row.items()}
            else:
                for m, n in row.items():
                    into[m] = into.get(m, 0) + n * factor
    return _canonical(rank, order, den, buckets)


def linear_form(coeffs, order: int) -> TruncatedSeries:
    """sum_i c_i t_i in len(coeffs) variables through `order`, for rational
    c_i (ints or Fractions): the combination of the variables."""
    rank = len(coeffs)
    variables = [TruncatedSeries.variable(i, rank, order) for i in range(rank)]
    return combination(zip(coeffs, variables), rank, order)


def embed(f: TruncatedSeries, index: int, rank: int) -> TruncatedSeries:
    """The univariate series f as a series in t_{index+1} of `rank` variables."""
    if rank == 1:
        return f
    bits = _bits(f.order)
    # a univariate key is (e << bits) | e
    rows = {(k >> bits << bits * rank) | (k >> bits << bits * index): row for k, row in f.rows.items()}
    return TruncatedSeries._of(rank, f.order, f.den, rows, f.rational)


def compose_univariate(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g) for univariate f and any series g with zero constant term,
    through the smaller order of f and g: f against the powers of g."""
    if f.rank != 1:
        raise ValueError("outer series must be univariate")
    if not g.constant_term().is_zero():
        raise ValueError("inner series must have zero constant term")
    order = min(f.order, g.order)
    return embed(f.truncated(order), 0, g.rank).substitute(0, series_powers(g.truncated(order)))


def series_powers(f: TruncatedSeries) -> list:
    """[f^0, f^1, ..., f^order], each through f's order."""
    out = [TruncatedSeries.one(f.rank, f.order)]
    for _ in range(f.order):
        out.append(out[-1] * f)
    return out


def compositional_inverse(f: TruncatedSeries, powers: list | None = None) -> TruncatedSeries:
    """The series e with e(f(u)) = u = f(e(u)) up to the truncation order.

    Requires f = c1*u + O(u^2) with c1 a nonzero rational.  Writing
    u = sum_a e_a f^a and reading off u^p, where [f^a]_p = 0 for a > p and
    [f^p]_p = c1^p, gives the triangular solve
    e_p = (delta_{p,1} - [sum_{a<p} e_a f^a]_p) / c1^p; the partial sum is
    kept as a series.  `powers` may hand in series_powers(f) when the caller
    has it.
    """
    if f.rank != 1:
        raise ValueError("compositional inverse is defined for univariate series")
    if not f.constant_term().is_zero():
        raise ValueError("series must have zero constant term")
    c1 = f.coefficient((1,))
    if f.order and (c1.is_zero() or not c1.is_rational()):
        raise ValueError("series must have an invertible rational linear term")
    c1 = c1.rational_value()
    if powers is None:
        powers = series_powers(f)
    partial = TruncatedSeries.zero(1, f.order)
    inv_coeffs: dict = {}
    for p in range(1, f.order + 1):
        acc = LazardCoefficient.one() if p == 1 else LazardCoefficient.zero()
        acc = acc - partial.coefficient((p,))
        if not acc.is_zero():
            inv_coeffs[(p,)] = acc = acc.scale(QQ(1) / c1**p)
            partial = partial + powers[p].scale(acc)
    return TruncatedSeries(1, f.order, inv_coeffs)


def series_inverse(w: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with nonzero rational constant term.

    Newton iteration g <- g + g (1 - w g): if g inverts w through degree p,
    one step inverts it through 2p + 1, so the precision runs 0, 1, 3, 7, ...
    up to the order in about 2 log2(order) products.
    """
    c = w.constant_term()
    if c.is_zero() or not c.is_rational():
        raise ValueError("series must have an invertible rational constant term")
    g = TruncatedSeries.constant(QQ(1) / c.rational_value(), w.rank, 0)
    p = 0
    while p < w.order:
        p = min(2 * p + 1, w.order)
        g = g.at_order(p)
        g = g + g * (TruncatedSeries.one(w.rank, p) - w.truncated(p) * g)
    return g


def exact_quotient(f: TruncatedSeries, c: TruncatedSeries) -> tuple | None:
    """f / c degree by degree through order = min(f.order, c.order), for c
    of t-order 1 with a rational linear part l.

    With c = l + c_2 + c_3 + ..., the quotient q = q_0 + q_1 + ... solves
    l q_d = r_(d+1) = f_(d+1) - sum_(k>=2) c_k q_(d+1-k), and r_0 = f_0
    must vanish.  Returns (q, top): q c = f through degree top, where top =
    order, or order - 1 when r_order alone is not a multiple of l; q is
    known through top - 1, and is None when top < 1.  Returns None when
    some r_d with d < order is not a multiple of l, that is when f is not
    in the ideal (c) + m^order, m = (t_1, ..., t_r).

    On integers: C = c.den c has integer numerators and linear part g L,
    for a primitive integer form L = p t_j + y' with j its first variable,
    and q = c.den f / C.  One accumulator of buckets holds the residual,
    negated: the sum so far minus c.den f, over one denominator den; each
    quotient degree adds C_(>=2) times itself into it in one kernel pass.
    Then the next degree's buckets are popped, by keys enumerated once per
    degree, and divided by -L and by g: g leaves the numerators when it
    divides them all, else it joins den, which rescales the accumulator.

    A homogeneous integer form that L divides has an integer quotient
    (Gauss's lemma, L being primitive), which synthetic division in t_j
    finds: with t_j in falling powers, each quotient term is its residual
    divided by p, which must be exact, and meets y' in the residuals one
    power of t_j lower; the residuals free of t_j must vanish.
    """
    f._check_rank(c)
    order = min(f.order, c.order)
    rank, bits = f.rank, _bits(order)
    shift, unit = bits * rank, 1 << bits * rank
    f, c = f._packed_for(order), c._packed_for(order)
    rational = f.rational and c.rational
    rows = _flat if rational else dict.items
    acc = {key: _times(row, -c.den, rational) for key, row in rows(f.rows) if key < order + 1 << shift}
    if acc.pop(0, None):  # f_0, which no quotient reaches
        return None if order else (None, -1)
    if not order:
        return None, 0
    line = [c.rows.get(unit | 1 << bits * i, {}).get(_UNIT, 0) for i in range(rank)]
    g = gcd(*line)
    line = [n // g for n in line]
    j = pivot_index(line)
    place, p = bits * j, -line[j]
    others = [(unit | 1 << bits * i, n) for i, n in enumerate(line) if n and i != j]
    free = [[0]]  # free[d]: the packed degree-d monomials free of t_j, no degree bits
    for _ in range(order):
        free.append(sorted({m + (1 << bits * i) for m in free[-1] for i in range(rank) if i != j}))
    higher = [(key, row) for key, row in rows(c.rows) if key >= 2 * unit]  # C_k, k >= 2

    def divided(base, degree):
        """-1/L times the popped degree-`degree` buckets, as (key, row)
        pairs, or None when L does not divide them."""
        pairs = []
        for key in [base | e << place | m for e in range(degree, 0, -1) for m in free[degree - e]]:
            row = acc.pop(key, None)
            if not row:
                continue
            b = _exact(row, p, rational)
            if b is None:
                return None
            key -= unit | 1 << place
            pairs.append((key, b))
            for step, li in others:
                if rational:
                    acc[key + step] = acc.get(key + step, 0) + li * b
                else:
                    into = acc.setdefault(key + step, {})
                    for m, n in b.items():
                        into[m] = into.get(m, 0) + li * n
        for m in free[degree]:
            row = acc.pop(base | m, None)
            if row and (rational or any(row.values())):
                return None
        return pairs

    den, pieces, top = f.den, [], order  # pieces: (pairs, den) of q_0, q_1, ...
    for degree in range(1, order + 1):
        pairs = divided(degree << shift, degree)
        if pairs is None:
            if degree < order:
                return None
            top -= 1
            break
        if g > 1:
            reduced = [(key, _exact(row, g, rational)) for key, row in pairs]
            if any(row is None for _, row in reduced):
                den *= g
                for key in acc:
                    acc[key] = _times(acc[key], g, rational)
            else:
                pairs = reduced
        pieces.append((pairs, den))
        if degree < order:
            # one degree's pairs: their order does not matter to the kernel
            _product(pairs, higher, shift, order, acc, rational)
    buckets = {
        key: row if d == den else _times(row, den // d, rational) for pairs, d in pieces for key, row in pairs
    }
    return (_canonical(rank, order, den, buckets, rational).at_order(top - 1) if top > 0 else None), top


def _times(row, s: int, rational: bool):
    """A stored row (an int when rational) times s."""
    return row * s if rational else {m: n * s for m, n in row.items()}


def _exact(row, p: int, rational: bool):
    """A stored row (an int when rational) divided by p, or None unless p
    divides every numerator."""
    if rational:
        b, r = divmod(row, p)
        return None if r else b
    out = {}
    for m, n in row.items():
        out[m], r = divmod(n, p)
        if r:
            return None
    return out
