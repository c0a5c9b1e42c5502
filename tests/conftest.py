import random

import pytest
from gkmcobordism.coeff_series import QQ

from gkmcobordism.coeff_series import LazardCoefficient, TruncatedSeries
from gkmcobordism.horospherical import point_weights
from gkmcobordism.torus_ring import Character


def random_coefficient(rng, max_gen=3, max_exp=2):
    """A small random polynomial in the m-generators."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        mono = tuple(
            sorted(
                (k, rng.randint(1, max_exp))
                for k in rng.sample(range(1, max_gen + 1), rng.randint(1, 2))
            )
        )
        q = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        if q:
            terms[mono] = q
    base = LazardCoefficient(terms)
    return base + LazardCoefficient.rational(QQ(rng.randint(-4, 4), rng.randint(1, 3)))


def coefficient_sum(x, y):
    """x + y of two LazardCoefficients by merging their Fraction dicts one
    m-monomial at a time, with no series arithmetic."""
    out = dict(x.terms)
    for m, c in y.terms.items():
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


def coefficient_scale(x, q):
    """q * x of a LazardCoefficient, one Fraction product per m-monomial
    (the constructor drops the zeros of q = 0)."""
    return LazardCoefficient({m: c * q for m, c in x.terms.items()})


def random_series(rng, rank, order, terms=4, min_degree=0, rational_only=False):
    out = TruncatedSeries.zero(rank, order)
    for _ in range(terms):
        exps = [0] * rank
        total = rng.randint(min_degree, order)
        for _ in range(total):
            exps[rng.randrange(rank)] += 1
        coeff = (
            LazardCoefficient.rational(QQ(rng.randint(-4, 4), rng.randint(1, 3)))
            if rational_only
            else random_coefficient(rng)
        )
        out = out + TruncatedSeries.monomial(tuple(exps), coeff, rank, order)
    return out


def divided_by_variable(f, index):
    """f / t_{index+1}, one order lower; every term of f must contain it."""
    assert all(k[index] for k in f.terms)
    terms = {k[:index] + (k[index] - 1,) + k[index + 1 :]: c for k, c in f.terms.items()}
    return TruncatedSeries(f.rank, max(f.order - 1, 0), terms)


def horner_substitute(f, index, replacement):
    """f with t_{index+1} -> replacement, through the smaller order, by
    Horner's rule in that variable from series products and sums only."""
    order = min(f.order, replacement.order)
    pieces = {}
    for k, c in f.terms.items():
        if sum(k) <= order:
            pieces.setdefault(k[index], {})[k[:index] + (0,) + k[index + 1 :]] = c
    x = replacement.truncated(order)
    acc = TruncatedSeries.zero(f.rank, order)
    for e in range(max(pieces, default=0), -1, -1):
        acc = acc * x + TruncatedSeries(f.rank, order, pieces.get(e, {}))
    return acc


def horner_compose(f, g):
    """f(g) for a univariate f, by horner_substitute."""
    terms = {(k,) + (0,) * (g.rank - 1): c for (k,), c in f.terms.items()}
    return horner_substitute(TruncatedSeries(g.rank, f.order, terms), 0, g)


def series_power(f, n):
    """f^n for n >= 0 by repeated squaring, from series products only."""
    result = TruncatedSeries.one(f.rank, f.order)
    while n:
        if n & 1:
            result = result * f
        f = f * f if n > 1 else f
        n >>= 1
    return result


def random_character(rng, rank, max_denominator=2):
    while True:
        coords = tuple(
            QQ(rng.randint(-3, 3), rng.choice([1, max_denominator])) for _ in range(rank)
        )
        ch = Character(coords)
        if not ch.is_zero():
            return ch


@pytest.fixture
def rng():
    return random.Random(20240811)


def corrupted_hyperplane_tuple(triple, ring, seed: int) -> dict:
    """The hyperplane tuple p -> chern(point weight) with one seeded point
    changed by a linear and a quadratic term, so the congruences through it
    fail with nonzero value and derivative components."""
    rng = random.Random(seed)
    weights = point_weights(triple)
    values = {p: ring.chern(w) for p, w in weights.items()}
    point = rng.choice(sorted(values))
    ts = [ring.variable(i) for i in range(ring.rank)]
    bump = ts[0] * ts[-1].scale(QQ(rng.randint(1, 5), 2))
    for t in ts:
        bump = bump + t.scale(rng.randint(1, 3))
    values[point] = values[point] + bump
    return values
