"""Equivariant multiplicities at nondegenerate fixed points.

A smooth point contributes the inverse of the product of Chern classes of
the negated tangent weights; the class of a smooth invariant subvariety is
the product over its normal weights at each of its fixed points.  At a
singular point, the multiplicity is the sum of the fiber points' smooth
multiplicities in a resolution, and the pullback of the class is that sum
times the point class of the ambient space; both fold the same fiber terms
(_fiber_sum), and both refuse an empty fiber.

Weight data is supplied declaratively (JSON files); the weights of the odd
symplectic Grassmannian IG(2,5) ship with the package.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from importlib import resources

from .coeff_series import TruncatedSeries
from .common import _STR, Character, _check_keys, _checked, _is_int, _is_rational, _list_of
from .torus_ring import ClearResult, LocalizedElement, TorusRing

TAGS = ("tangent", "normal", "fiber")

_is_characters = _list_of(_list_of(_is_rational))
_WEIGHT_LISTS = (
    lambda value: isinstance(value, dict) and all(map(_is_characters, value.values())),
    "an object mapping each point to a list of characters",
)
_DIMENSION = (lambda value: value is None or _is_int(value), "an integer or null")


class TangentData:
    """A multiset of characters per point, tagged by what the weights describe."""

    __slots__ = ("weights", "tag", "dimension")

    def __init__(self, weights: dict, tag: str = "tangent", dimension: int | None = None):
        if tag not in TAGS:
            raise ValueError(f"unknown weight tag {tag!r}; expected one of {TAGS}")
        self.tag, self.dimension = tag, dimension
        self.weights = {
            point: tuple(ch if isinstance(ch, Character) else Character(ch) for ch in chars)
            for point, chars in weights.items()
        }
        rank = None
        for point, chars in self.weights.items():
            for ch in chars:
                if ch.is_zero():
                    raise ValueError(f"degenerate fixed point {point}: zero weight present")
                rank = ch.rank if rank is None else rank
                if ch.rank != rank:
                    raise ValueError(
                        f"point {point} carries a weight of length {ch.rank}, expected {rank}"
                    )
            if self.dimension is not None and len(chars) != self.dimension:
                raise ValueError(
                    f"point {point} carries {len(chars)} weights, expected {self.dimension}"
                )

    @property
    def rank(self) -> int:
        """The length of every weight; a file holding no character has none."""
        for chars in self.weights.values():
            for ch in chars:
                return ch.rank
        raise ValueError("the weight file holds no character, so it has no rank")

    def points(self):
        return sorted(self.weights)

    def at(self, point: str):
        if point not in self.weights:
            raise KeyError(f"no weight data at point {point!r}")
        return self.weights[point]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.tag,
            "dimension": self.dimension,
            "weights": {
                p: [ch.to_json_obj() for ch in chars] for p, chars in sorted(self.weights.items())
            },
        }

    @classmethod
    def from_json_obj(cls, obj) -> "TangentData":
        _check_keys(obj, "weight file", ("weights",), ("kind", "dimension", "singular_point", "note"))
        weights = _checked(obj, "weights", "weight file", _WEIGHT_LISTS)
        tag = _checked(obj, "kind", "weight file", _STR, default="tangent")
        dimension = _checked(obj, "dimension", "weight file", _DIMENSION)
        try:
            return cls(
                weights={
                    p: tuple(Character.from_json_obj(c) for c in chars)
                    for p, chars in weights.items()
                },
                tag=tag,
                dimension=dimension,
            )
        except ValueError as exc:
            raise ValueError(f"weight file: {exc}") from None


def smooth_multiplicity(ring: TorusRing, weights) -> LocalizedElement:
    """1 over the product of Chern classes of the negated weights."""
    chars = tuple(ch if isinstance(ch, Character) else Character(ch) for ch in weights)
    return _fiber_term(ring, chars, Counter())


def point_class(ring: TorusRing, point: str, ambient: TangentData) -> dict:
    """The restriction tuple of a fixed point's class: a Chern product at the
    point itself, zero at every other point of the ambient data."""
    chars = ambient.at(point)
    out = {p: ring.zero() for p in ambient.weights}
    out[point] = ring.chern_product([-ch for ch in chars])
    return out


def subvariety_class(ring: TorusRing, normal: TangentData, all_points=None) -> dict:
    """The restriction tuple of a smooth invariant subvariety from its normal
    weights; zero at points not on the subvariety."""
    if normal.tag != "normal":
        raise ValueError("subvariety classes need weight data tagged 'normal'")
    out = {}
    for point, chars in normal.weights.items():
        out[point] = ring.chern_product([-ch for ch in chars])
    for point in all_points or ():
        out.setdefault(point, ring.zero())
    return out


def _fiber_term(ring: TorusRing, weights, ambient: Counter) -> LocalizedElement:
    """A fiber point's smooth multiplicity times the Chern classes of the
    ambient multiset (maybe empty), the factors the two share cancelled."""
    den = Counter(-ch for ch in weights)
    num = ring.chern_product((ambient - den).elements())
    return LocalizedElement(num, tuple((den - ambient).elements()))


def _fiber_sum(ring: TorusRing, fiber: TangentData, ambient: Counter) -> tuple:
    """The terms of the fiber points, in point order, and their sum."""
    terms = [_fiber_term(ring, fiber.at(point), ambient) for point in fiber.points()]
    if not terms:
        raise ValueError("fiber weight data is empty")
    return terms, reduce(ring.loc_add, terms)


def fiber_multiplicity(ring: TorusRing, fiber: TangentData) -> LocalizedElement:
    """Sum of the smooth multiplicities over the fiber points of a resolution."""
    return _fiber_sum(ring, fiber, Counter())[1]


class PullbackResult:
    __slots__ = ("terms", "localized", "cleared")

    def __init__(self, terms: list, localized: LocalizedElement, cleared: ClearResult):
        self.terms = terms  # one cancelled fraction per fiber point
        self.localized = localized  # the terms over their common denominator
        self.cleared = cleared

    @property
    def series(self) -> TruncatedSeries | None:
        return self.cleared.series


def singular_class_pullback(
    ring: TorusRing, point: str, ambient: TangentData, fiber: TangentData
) -> PullbackResult:
    """Pullback of a resolved class at a singular point: the fiber sum times
    the ambient point class, with denominators cleared when possible.

    Each fiber point contributes one fraction; Chern factors shared between
    the ambient point class and a term's denominator are cancelled exactly,
    which keeps the common denominator small.
    """
    terms, total = _fiber_sum(ring, fiber, Counter(-ch for ch in ambient.at(point)))
    return PullbackResult(terms, total, ring.clear_denominators(total))


# -- bundled weight data -------------------------------------------------------


def _load_data(name: str) -> dict:
    with resources.files("gkmcobordism.data").joinpath(name).open("r") as fh:
        return json.load(fh)


def load_ig25_tangent() -> TangentData:
    """Tangent weights at the eight fixed points of IG(2,5)."""
    return TangentData.from_json_obj(_load_data("ig25_tangent.json"))


def load_ig25_subvarieties() -> dict:
    """Normal-weight data of the smooth filtration subvarieties of IG(2,5)."""
    obj = _load_data("ig25_subvarieties.json")
    return {
        name: TangentData.from_json_obj(sub) for name, sub in sorted(obj["subvarieties"].items())
    }


def load_ig25_resolution(name: str) -> tuple:
    """Fiber weights of a resolution over its singular point: (point, data)."""
    if name not in ("x4tilde", "x4tilde_star"):
        raise ValueError("available resolutions: x4tilde, x4tilde_star")
    obj = _load_data(f"ig25_{name}.json")
    return obj["singular_point"], TangentData.from_json_obj(obj)
