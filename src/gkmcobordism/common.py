"""What every layer shares and no series needs: the bottom of the package.

The rationals (QQ, as_rational), the primitive direction of a rational
vector and its pivot, the characters of the torus, the checks of a JSON
input (_checked, _check_keys and their predicates), the one indented JSON
writer (dumps) and the equality of the value classes (_by_value).

This module imports no other module of the package, so a command that
builds data and computes no series (horo build, flag curves) loads it and
not the series layers.
"""

from __future__ import annotations

import json
from fractions import Fraction as QQ
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import attrgetter


def as_rational(value) -> QQ:
    """Coerce ints, strings like '3/4' and Fraction-alikes to QQ; floats
    are refused, and a zero denominator raises ValueError."""
    if isinstance(value, QQ):
        return value
    try:
        if isinstance(value, (int, str)):
            return QQ(value)
        if hasattr(value, "numerator") and hasattr(value, "denominator"):
            return QQ(value.numerator, value.denominator)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def direction(v: tuple) -> tuple:
    """Canonical primitive integer direction of a nonzero rational vector.

    Denominators are cleared, the gcd divided out, and the sign fixed so the
    first nonzero entry is positive.
    """
    denom = lcm(*(int(c.denominator) for c in v))
    ints = [int(c * denom) for c in v]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("the zero vector has no direction")
    if ints[pivot_index(ints)] < 0:
        g = -g
    return tuple(x // g for x in ints)


def pivot_index(v) -> int:
    """The index of the first nonzero entry of v; 0 for the zero vector."""
    return next((i for i, c in enumerate(v) if c), 0)


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


# -- the JSON writer of every command ------------------------------------------


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for plain
    JSON: dicts with str keys, lists, tuples, str, int, bool and None.

    json.dumps lays out an indented document in pure Python, a few chunks
    per value; this writer joins each block once.  Strings go through the
    escaper json.dumps uses.  A value of any other type, a subclass of these
    included, raises TypeError, as does a key that is not a str."""
    return _encoded(obj, 0)


def _encoded(value, pad: int) -> str:
    """A value in the dumps layout of a block at indent pad; its type is
    looked up exactly, most frequent first."""
    kind = value.__class__
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        return _block([_encoded(v, pad + 2) for v in value], pad)
    if kind is str:
        return _quote(value)
    if kind is dict:  # _quote refuses a key that is not a str
        return _object({k: _encoded(v, pad + 2) for k, v in sorted(value.items())}, pad)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _block(items, pad: int, brackets: str = "[]") -> str:
    """Encoded items in the json.dumps(indent=2) layout of a block at indent pad."""
    if not items:
        return brackets
    indent = "\n" + " " * (pad + 2)
    return brackets[0] + indent + ("," + indent).join(items) + "\n" + " " * pad + brackets[1]


def _object(fields: dict, pad: int) -> str:
    """An object of encoded values, keys in the (sorted) order given, None values left out."""
    return _block([f"{_quote(k)}: {v}" for k, v in fields.items() if v is not None], pad, "{}")


# -- value classes ------------------------------------------------------------------


def _by_value(*names):
    """A class decorator: __eq__ and __hash__ over the attributes names (by
    default the class's __slots__), as a frozen dataclass has over its
    fields.  Instances of one class are equal when those values are, any
    other class compares as NotImplemented, and the hash is the hash of the
    tuple of values.  The classes it serves are immutable by convention, as
    TruncatedSeries is: nothing assigns to their slots after __init__."""

    def decorate(cls):
        fields = names or cls.__slots__
        get = attrgetter(*fields)
        values = get if len(fields) > 1 else lambda self: (get(self),)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        def __hash__(self):
            return hash(values(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        return cls

    return decorate


@_by_value()
class Character:
    """A rational vector in the character lattice basis."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(as_rational(c) for c in coords)

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
