"""Exact graded power series over the rationalized Lazard coefficient ring.

Coefficients live in Q[m1, m2, ...] where mk is the degree-(-k) logarithm
generator.  Series live in Q[m.][[t1, ..., tr]] and are truncated at a fixed
total degree in the t-variables only; the m-parts are exact polynomials.
All arithmetic is exact: rationals are fractions.Fraction, and the kernels
below work on integers; no floating point anywhere.

Products of series and of coefficients go through one integer kernel
(`_product`).  Each operand is written once as integer numerators over one
common denominator, the lcm of its coefficient denominators; the kernel
sums int * int products into one bucket per (t-monomial, m-monomial), with
the t-monomials packed into integers so that multiplying monomials is an
integer addition, and the m-monomials interned as small integer ids so that
multiplying them is a lookup in a table row (filled on first use); each
output coefficient is built once as QQ(numerator, den_a * den_b), with its
m-monomial ids decoded back to tuples, and zero sums are dropped at the end.
So a product makes no rational and no tuple per multiply-add and takes no
gcd inside its loop.
sum_of_products runs several products, with rational scalars, into the same
buckets, so a linear combination of products also builds each output
coefficient once.

Every change of variables is Numerators.substitute: for f = sum_k t^k C_k,
C_k free of the variable t, it forms sum_k C_k u_k in one kernel pass from a
table of series u_k.  With u_k = u^k it substitutes t -> u (so also
f(g) = compose_univariate); for a linear form y free of t, u_k = y^k
restricts to the hyperplane t = y, k y^(k-1) gives the t-derivative there
and (t^k - y^k)/(t - y) divides by t - y.  Chains of these maps and their
combinations run on that integer form (Numerators) and build rationals only
at their end.

Multiplicative inverses use Newton iteration; compositional inverses a
triangular solve against the powers of the series.
"""

from __future__ import annotations

import json
from fractions import Fraction as QQ
from math import lcm

# A monomial in the m-generators: sorted tuple of (k, exponent), k >= 1.
MKey = tuple
# A t-monomial: tuple of non-negative exponents, one per variable.
TKey = tuple

_MONE = ()  # the empty m-monomial (the rational 1)


def as_rational(value) -> QQ:
    """Coerce ints, strings like '3/4' and Fraction-alikes to QQ; floats
    are refused."""
    if isinstance(value, QQ):
        return value
    if isinstance(value, (int, str)):
        return QQ(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return QQ(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def m_degree(mkey: MKey) -> int:
    """Cohomological degree of an m-monomial: mk has degree -k."""
    return -sum(k * e for k, e in mkey)


# The intern table of m-monomials, which the kernel and Numerators key their
# coefficients by: _MKEYS[i] is the MKey with id i, _MIDS maps it back, and
# _TIMES[i] is the product row of id i, {id j: id of mkey i * mkey j}.  The
# table grows by one entry per distinct monomial and per distinct multiplied
# pair, and is never cleared: ids stay valid for the life of the process.
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


def _numerators(coeffs) -> tuple:
    """(den, rows): each m-monomial dict as a list of (mkey id, int) over one den."""
    den = lcm(*(q.denominator for c in coeffs for q in c.values()))
    rows = [[(_mid(m), q.numerator * (den // q.denominator)) for m, q in c.items()] for c in coeffs]
    return den, rows


def _product(a: list, b: list, order: int, buckets: dict | None = None) -> dict:
    """The integer kernel behind every product.

    a and b are lists of (t-degree, packed t-key, [(mkey id, int), ...])
    sorted by t-degree, each with its numerators over one denominator.  Adds
    the numerators of a * b through total degree `order`, over the product
    of the two denominators, into `buckets` ({packed t-key: {mkey id: int}},
    a new dict by default) and returns it; a sum may be zero.
    """
    if buckets is None:
        buckets = {}
    times = _TIMES
    for da, pa, ca in a:
        room = order - da
        for db, pb, cb in b:
            if db > room:
                break
            key = pa + pb
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = {}
            for ma, na in ca:
                row = times[ma]
                for mb, nb in cb:
                    m = row[mb]
                    bucket[m] = bucket.get(m, 0) + na * nb
    return buckets


def _rationals(bucket: dict, den: int) -> dict:
    """{mkey: QQ(num, den)} for the nonzero sums of a kernel bucket."""
    mkeys = _MKEYS
    return {mkeys[m]: QQ(n, den) for m, n in bucket.items() if n}


class LazardCoefficient:
    """A sparse polynomial in the logarithm generators m1, m2, ... over Q.

    Zero coefficients are never stored; all rationals are kept exact.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

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
        return LazardCoefficient({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "LazardCoefficient":
        if not isinstance(other, LazardCoefficient):
            other = LazardCoefficient.rational(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return LazardCoefficient(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LazardCoefficient":
        if not isinstance(other, LazardCoefficient):
            other = LazardCoefficient.rational(other)
        return self + (-other)

    def __mul__(self, other) -> "LazardCoefficient":
        if not isinstance(other, LazardCoefficient):
            return self.scale(other)
        den_a, (ca,) = _numerators([self.terms])
        den_b, (cb,) = _numerators([other.terms])
        buckets = _product([(0, 0, ca)], [(0, 0, cb)], 0)
        return LazardCoefficient(_rationals(buckets.get(0, {}), den_a * den_b))

    def __rmul__(self, other) -> "LazardCoefficient":
        return self.scale(other)

    def scale(self, q) -> "LazardCoefficient":
        q = as_rational(q)
        if not q:
            return LazardCoefficient.zero()
        return LazardCoefficient({m: c * q for m, c in self.terms.items()})

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


def _clean_insert(out: dict, key, coeff: LazardCoefficient):
    cur = out.get(key)
    if cur is None:
        if not coeff.is_zero():
            out[key] = coeff
    else:
        cur = cur + coeff
        if cur.is_zero():
            del out[key]
        else:
            out[key] = cur


# -- JSON boundary checks, shared by every reader of a JSON input ----------


def _check_keys(obj, what: str, required: tuple, optional: tuple = ()) -> None:
    """Reject a JSON object with a missing or an unknown key: a misspelt
    optional key would otherwise drop its part of the input silently."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"{what} is missing the key(s) {', '.join(map(repr, missing))}")
    unknown = len(obj) > len(required) and sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown key(s) {', '.join(map(repr, unknown))}")


def _is_int(value) -> bool:
    return type(value) is int  # a JSON integer; bool is not one


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_rational(value) -> bool:
    """A JSON rational: an integer, or a string such as "3/4"."""
    return _is_str(value) or _is_int(value)


def _list_of(item_ok):
    return lambda value: isinstance(value, list) and all(map(item_ok, value))


_RATIONALS = (_list_of(_is_rational), "a list of rationals (integers or strings like \"1/2\")")
_STRINGS = (_list_of(_is_str), "a list of strings")
_LIST = (lambda value: isinstance(value, list), "a list")
_INT = (_is_int, "an integer")
_STR = (_is_str, "a string")
_INTS = (_list_of(_is_int), "a list of integers")
_M_PAIRS = (
    _list_of(lambda pair: isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))),
    "a list of [generator, exponent] integer pairs",
)
_RATIONAL = (_is_rational, 'an integer or a string like "3/4"')


def _checked(obj, key: str, what: str, check, default=None):
    """obj[key] if it has the JSON type of check = (predicate, description);
    default when key is absent.  A value of another type raises
    ValueError: it would otherwise fail deep inside the engine."""
    if key not in obj:
        return default
    value = obj[key]
    ok, expected = check
    if not ok(value):
        text = json.dumps(value)
        if len(text) > 40:
            text = text[:37] + "..."
        raise ValueError(f"{what} {key!r} must be {expected}, got {text}")
    return value


class TruncatedSeries:
    """A power series in t1..tr over Q[m.], truncated at total t-degree `order`.

    Immutable by convention: no method mutates `terms` after construction.
    """

    __slots__ = ("rank", "order", "terms")

    def __init__(self, rank: int, order: int, terms: dict | None = None):
        if rank < 1:
            raise ValueError("variable count must be >= 1")
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        self.rank = rank
        self.order = order
        self.terms = terms or {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, rank: int, order: int) -> "TruncatedSeries":
        return cls(rank, order)

    @classmethod
    def constant(cls, coeff, rank: int, order: int) -> "TruncatedSeries":
        if not isinstance(coeff, LazardCoefficient):
            coeff = LazardCoefficient.rational(coeff)
        if coeff.is_zero():
            return cls(rank, order)
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
        if coeff.is_zero() or sum(exponents) > order:
            return cls(rank, order)
        return cls(rank, order, {exponents: coeff})

    # -- basic queries -----------------------------------------------------

    def coefficient(self, exponents) -> LazardCoefficient:
        return self.terms.get(tuple(exponents), LazardCoefficient.zero())

    def constant_term(self) -> LazardCoefficient:
        return self.coefficient((0,) * self.rank)

    def is_zero(self) -> bool:
        return not self.terms

    def is_zero_through(self, order: int) -> bool:
        return all(sum(k) > order for k in self.terms)

    def t_order(self):
        """Minimal total t-degree of a stored term, or None for the zero series."""
        if not self.terms:
            return None
        return min(sum(k) for k in self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return (
                self.rank == other.rank
                and self.order == other.order
                and self.terms == other.terms
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
        if order >= self.order:
            return TruncatedSeries(self.rank, min(order, self.order), dict(self.terms))
        return TruncatedSeries(
            self.rank, order, {k: c for k, c in self.terms.items() if sum(k) <= order}
        )

    def at_order(self, order: int) -> "TruncatedSeries":
        """Re-declare the truncation order.

        Raising the order asserts that the dropped tail is genuinely zero;
        that is the caller's responsibility (e.g. for exact polynomials).
        """
        if order <= self.order:
            return self.truncated(order)
        return TruncatedSeries(self.rank, order, dict(self.terms))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.rank, self.order, {k: -c for k, c in self.terms.items()}
        )

    def __add__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.rank, self.order)
        self._check_rank(other)
        order = min(self.order, other.order)
        out = {k: c for k, c in self.terms.items() if sum(k) <= order}
        for k, c in other.terms.items():
            if sum(k) <= order:
                _clean_insert(out, k, c)
        return TruncatedSeries(self.rank, order, out)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, self.rank, self.order)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_rank(other)
        return sum_of_products([(self, other)], self.rank, min(self.order, other.order))

    def __rmul__(self, other) -> "TruncatedSeries":
        return self.scale(other)

    def scale(self, coeff) -> "TruncatedSeries":
        if not isinstance(coeff, LazardCoefficient):
            coeff = LazardCoefficient.rational(coeff)
        if coeff.is_zero():
            return TruncatedSeries(self.rank, self.order)
        out = {}
        for k, c in self.terms.items():
            _clean_insert(out, k, c * coeff)
        return TruncatedSeries(self.rank, self.order, out)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative powers are not defined for series")
        result = TruncatedSeries.one(self.rank, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def partial(self, index: int) -> "TruncatedSeries":
        """Partial derivative in t_{index+1}; exact through order-1."""
        out = {}
        for k, c in self.terms.items():
            e = k[index]
            if e == 0:
                continue
            key = k[:index] + (e - 1,) + k[index + 1 :]
            _clean_insert(out, key, c.scale(e))
        return TruncatedSeries(self.rank, max(self.order - 1, 0), out)

    def substitute(self, index: int, replacement: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute t_{index+1} -> replacement, through the smaller order."""
        self._check_rank(replacement)
        order = min(self.order, replacement.order)
        table = pack_table(series_powers(replacement.truncated(order)), order + 1, order)
        return Numerators.of(self, order + 1, order).substitute(index, table).series()

    def specialize(self, assignment) -> "TruncatedSeries":
        """Evaluate every mk at a rational; keeps the t-structure."""
        out = {}
        for k, c in self.terms.items():
            _clean_insert(out, k, c.specialize(assignment))
        return TruncatedSeries(self.rank, self.order, out)

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
        ValueError."""
        _check_keys(obj, "series", ("vars", "order", "terms"))
        rank, order = _checked(obj, "vars", "series", _INT), _checked(obj, "order", "series", _INT)
        out = {}
        for term in _checked(obj, "terms", "series", _LIST):
            _check_keys(term, "series term", ("t_exponents", "m_exponents", "coeff"))
            key = tuple(_checked(term, "t_exponents", "series term", _INTS))
            if len(key) != rank:
                raise ValueError("t-exponent length does not match the variable count")
            if any(e < 0 for e in key):
                raise ValueError("t-exponents must be non-negative")
            if sum(key) > order:
                raise ValueError("a stored t-monomial exceeds the truncation order")
            m = tuple(sorted(map(tuple, _checked(term, "m_exponents", "series term", _M_PAIRS))))
            if any(k < 1 or e < 1 for k, e in m) or len(dict(m)) != len(m):
                raise ValueError("malformed m-monomial")
            q = as_rational(_checked(term, "coeff", "series term", _RATIONAL))
            if q:
                _clean_insert(out, key, LazardCoefficient({m: q}))
        return cls(rank, order, out)

    def render(self, names=None) -> str:
        if not self.terms:
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


def sum_of_products(pairs: list, rank: int, order: int, scalars: list | None = None) -> TruncatedSeries:
    """sum(s * a * b for (a, b), s in zip(pairs, scalars)) through `order`
    in one pass of the kernel; the rational scalars default to 1.

    All left factors share one denominator and all right factors another, so
    every product lands in the same buckets and each output coefficient is
    built once.  A scalar p/q enters as the integer factor p * (lcm / q) on
    its left factor's numerators, with the lcm of the q in the denominator.
    """
    # A t-key packs into sum(e_i * base**i); below the order no exponent
    # reaches the base, so adding packed keys multiplies the monomials.
    base = order + 1
    den_a, rows_a = pack_table([a for a, _ in pairs], base, order)
    den_b, rows_b = pack_table([b for _, b in pairs], base, order)
    if scalars is not None:
        q = lcm(*(s.denominator for s in scalars))
        den_a *= q
        rows_a = [
            [(d, key, [(m, n * factor) for m, n in row]) for d, key, row in rows]
            for rows, factor in zip(rows_a, (s.numerator * (q // s.denominator) for s in scalars))
        ]
    buckets: dict = {}
    for a, b in zip(rows_a, rows_b):
        _product(a, b, order, buckets)
    return _unpacked(buckets, den_a * den_b, rank, order, base)


def _unpacked(buckets: dict, den: int, rank: int, order: int, base: int) -> TruncatedSeries:
    """The series of kernel buckets {packed t-key: {mkey id: int}} over den,
    t-keys packed as sum(e_i * base**i); zero sums are dropped."""
    out = {}
    places = range(rank)
    for packed, bucket in buckets.items():
        coeff = _rationals(bucket, den)
        if coeff:
            key = []
            for _ in places:
                packed, e = divmod(packed, base)
                key.append(e)
            out[tuple(key)] = LazardCoefficient(coeff)
    return TruncatedSeries(rank, order, out)


def embed(f: TruncatedSeries, index: int, rank: int) -> TruncatedSeries:
    """The univariate series f as a series in t_{index+1} of `rank` variables."""
    if rank == 1:
        return f
    return TruncatedSeries(
        rank,
        f.order,
        {tuple(k if j == index else 0 for j in range(rank)): c for (k,), c in f.terms.items()},
    )


def _degree(packed: int, base: int) -> int:
    """Total degree of a packed t-key: the sum of its base-`base` digits."""
    d = 0
    while packed:
        packed, e = divmod(packed, base)
        d += e
    return d


def pack_table(series: list, base: int, order: int) -> tuple:
    """(den, [rows, ...]): the terms of each series (all of one rank) through
    `order` as _product rows, all numerators over one den, t-keys packed as
    sum(e_i * base**i); base must exceed order."""
    powers = [base**i for i in range(series[0].rank if series else 0)]
    kept = [
        sorted((sum(k), k, c.terms) for k, c in f.terms.items() if sum(k) <= order)
        for f in series
    ]
    den = lcm(*(q.denominator for f_rows in kept for _, _, c in f_rows for q in c.values()))
    rows = [
        [
            (
                d,
                sum(e * p for e, p in zip(k, powers)),
                [(_mid(m), q.numerator * (den // q.denominator)) for m, q in c.items()],
            )
            for d, k, c in f_rows
        ]
        for f_rows in kept
    ]
    return den, rows


class Numerators:
    """The working form of the linear maps on series: integer numerators
    over one denominator, t-monomials packed in a fixed base.

    rows lists (t-degree, packed t-key, [(mkey id, int), ...]) sorted by
    degree, with no zero numerator, as _product takes them; the ids are those
    of the m-monomial intern table.  Changes of variables and combinations
    run on the integers and carry the ids unchanged; rationals
    and m-monomial tuples are built only when a result is turned back into a
    series.
    """

    __slots__ = ("rank", "order", "base", "den", "rows")

    def __init__(self, rank: int, order: int, base: int, den: int, rows: list):
        self.rank, self.order, self.base, self.den, self.rows = rank, order, base, den, rows

    @classmethod
    def of(cls, f: TruncatedSeries, base: int, order: int | None = None) -> "Numerators":
        """f through min(f.order, order), packed in `base` (greater than that order)."""
        order = f.order if order is None else min(order, f.order)
        den, (rows,) = pack_table([f], base, order)
        return cls(f.rank, order, base, den, rows)

    @classmethod
    def _of_buckets(cls, buckets: dict, like: "Numerators", order: int, den: int) -> "Numerators":
        rows = []
        for packed, bucket in buckets.items():
            row = [(m, n) for m, n in bucket.items() if n]
            if row:
                rows.append((_degree(packed, like.base), packed, row))
        rows.sort(key=lambda r: r[0])
        return cls(like.rank, order, like.base, den, rows)

    def series(self) -> TruncatedSeries:
        buckets = {packed: dict(row) for _, packed, row in self.rows}
        return _unpacked(buckets, self.den, self.rank, self.order, self.base)

    def is_zero_through(self, order: int) -> bool:
        return not self.rows or self.rows[0][0] > order

    def substitute(self, index: int, table: tuple, order: int | None = None) -> "Numerators":
        """sum_k C_k u_k through `order` (default self.order), where the
        series is sum_k t^k C_k with t = t_{index+1} and C_k free of t, and
        table = (den, [rows of u_0, u_1, ...]) as pack_table gives them in
        this base, each u_k known through that order.  This is the one change of
        variables: u_k = u^k substitutes t -> u; for a linear form y free of
        t, u_k = y^k restricts to the hyperplane t = y, u_k = k y^(k-1) (one
        order lower) gives the t-derivative there, and u_k = (t^k - y^k) /
        (t - y) divides by t - y after subtracting the restriction.

        One kernel pass of outer products into shared buckets; each table
        row is the left operand, so the inner loop runs over the series'
        m-monomials.
        """
        den_u, rows = table
        weight = self.base**index
        parts: dict = {}
        for d, packed, row in self.rows:
            k = packed // weight % self.base
            parts.setdefault(k, []).append((d - k, packed - k * weight, row))
        order = self.order if order is None else order
        buckets: dict = {}
        for k, part in parts.items():
            _product(rows[k], part, order, buckets)
        return Numerators._of_buckets(buckets, self, order, self.den * den_u)

    @staticmethod
    def combine(parts: list, order: int) -> "Numerators":
        """sum(c * x for c, x in parts) through `order`, for coefficients c
        (LazardCoefficient or rational) and Numerators x of one rank and base."""
        scaled = []
        for c, x in parts:
            if not isinstance(c, LazardCoefficient):
                c = LazardCoefficient.rational(c)
            den_c, (row,) = _numerators([c.terms])
            scaled.append((den_c * x.den, row, x))
        den = lcm(*(d for d, _, _ in scaled))
        buckets: dict = {}
        for d, row, x in scaled:
            factor = den // d
            _product([(0, 0, [(m, n * factor) for m, n in row])], x.rows, order, buckets)
        return Numerators._of_buckets(buckets, parts[0][1], order, den)


def compose_univariate(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """f(g) for univariate f and any series g with zero constant term."""
    if f.rank != 1:
        raise ValueError("outer series must be univariate")
    if not g.constant_term().is_zero():
        raise ValueError("inner series must have zero constant term")
    return embed(f, 0, g.rank).substitute(0, g)


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
    e_p = (delta_{p,1} - sum_{a<p} e_a [f^a]_p) / c1^p.  `powers` may hand in
    series_powers(f) when the caller has it.
    """
    if f.rank != 1:
        raise ValueError("compositional inverse is defined for univariate series")
    if not f.constant_term().is_zero():
        raise ValueError("series must have zero constant term")
    c1 = f.coefficient((1,))
    if c1.is_zero() or not c1.is_rational():
        raise ValueError("series must have an invertible rational linear term")
    c1 = c1.rational_value()
    if powers is None:
        powers = series_powers(f)
    inv_coeffs: dict = {}
    for p in range(1, f.order + 1):
        acc = LazardCoefficient.one() if p == 1 else LazardCoefficient.zero()
        for a, e_a in inv_coeffs.items():
            acc = acc - e_a * powers[a].coefficient((p,))
        if not acc.is_zero():
            inv_coeffs[p] = acc.scale(QQ(1) / c1**p)
    return TruncatedSeries(1, f.order, {(k,): c for k, c in inv_coeffs.items()})


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
