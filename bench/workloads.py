"""The four benchmark workloads.

A workload has three phases.  setup() runs in a fresh process and writes the
inputs of a run into its work directory; its wall time is the run's set-up
time.  load() runs once in the measuring process: it reads those inputs,
computes the references the checks need, and makes the first warm call, so
that the timed warm calls find the library's caches filled.  Then the run
times rounds of cold operations (`cold_args`, the gkmcob command in a fresh
process) and warm operations (`warm`, the same library call repeated in this
process).  Every output goes through a check.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import checks

DATA = Path("src") / "gkmcobordism" / "data"


class Workload:
    name = ""
    # A round is cold_per_round times: one cold, then warm_per_round warm operations.
    cold_per_round = 1
    warm_per_round = 1

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed

    def setup(self) -> None:
        """Import the program and write this workload's input files."""

    def load(self) -> None:
        raise NotImplementedError

    def cold_args(self) -> list:
        raise NotImplementedError

    def check_cold(self, code: int, stdout: bytes) -> None:
        raise NotImplementedError

    def warm(self):
        raise NotImplementedError

    def check_warm(self, output) -> None:
        raise NotImplementedError


# -- ig25_check -------------------------------------------------------------------------

IG25_ORDER = 10
IG25_COMBINATIONS = 1  # joined by a corrupted copy: 2 tuples per warm operation


def _tuple_obj(values: dict) -> dict:
    """The tuple file format of `gkmcob gkm check`: point name -> series object."""
    return {p: s.to_json_obj() for p, s in sorted(values.items())}


def _seeded_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


class Ig25Check(Workload):
    """`gkm check` on IG(2,5) at order 10 under the universal law.

    Cold: the hyperplane tuple.  Warm: one batch, on one ring, of seeded
    S(T)-linear combinations of all the known members (the hyperplane tuple,
    the eight point classes and the classes of X0, X1, X2 and X2'), each
    followed by a copy with a nonzero constant added at one seeded point.
    Every member enters with a nonzero coefficient, so the tuples, and the
    work of checking them, have the same shape for every seed.
    """

    name = "ig25_check"

    def setup(self) -> None:
        from gkmcobordism.fgl import FormalGroupLaw
        from gkmcobordism.horospherical import PasquierTriple, build_gkm, point_weights
        from gkmcobordism.multiplicities import (
            load_ig25_subvarieties,
            load_ig25_tangent,
            point_class,
            subvariety_class,
        )
        from gkmcobordism.torus_ring import TorusRing

        triple = PasquierTriple(family=3, n=2, m=2)
        (self.work / "ig25.json").write_text(build_gkm(triple).dumps())
        ring = TorusRing(FormalGroupLaw.universal(IG25_ORDER), 2)
        hyperplane = {p: ring.chern(w) for p, w in point_weights(triple).items()}
        (self.work / "hyperplane.json").write_text(json.dumps(_tuple_obj(hyperplane), indent=2))

        tangent = load_ig25_tangent()
        members = [hyperplane]
        members += [point_class(ring, p, tangent) for p in tangent.points()]
        members += [
            subvariety_class(ring, normal, tangent.points())
            for normal in load_ig25_subvarieties().values()
        ]
        rng = random.Random(self.seed)
        t = [ring.variable(i) for i in range(2)]
        batch = []
        for _ in range(IG25_COMBINATIONS):
            combination = {p: ring.zero() for p in tangent.points()}
            for member in members:
                coeff = ring.constant(_seeded_rational(rng))
                coeff = coeff + t[0].scale(_seeded_rational(rng)) + t[1].scale(_seeded_rational(rng))
                combination = {p: combination[p] + coeff * member[p] for p in combination}
            bad_point = rng.choice(tangent.points())
            corrupted = dict(combination)
            corrupted[bad_point] = corrupted[bad_point] + ring.constant(_seeded_rational(rng))
            batch.append({"bad_point": None, "tuple": _tuple_obj(combination)})
            batch.append({"bad_point": bad_point, "tuple": _tuple_obj(corrupted)})
        (self.work / "batch.json").write_text(json.dumps(batch))

    def load(self) -> None:
        from gkmcobordism.cli import _load_datum
        from gkmcobordism.coeff_series import TruncatedSeries
        from gkmcobordism.fgl import FormalGroupLaw
        from gkmcobordism import gkm_model
        from gkmcobordism.torus_ring import TorusRing

        self.fixture = json.loads((self.root / "fixtures" / "ig25_congruences.json").read_text())
        self.datum = _load_datum(str(self.work / "ig25.json"))
        self.batch = [
            (
                item["bad_point"],
                {p: TruncatedSeries.from_json_obj(s) for p, s in item["tuple"].items()},
            )
            for item in json.loads((self.work / "batch.json").read_text())
        ]
        self.ring = TorusRing(FormalGroupLaw.universal(IG25_ORDER), 2)
        self._gkm_model = gkm_model  # looked up per call, so that tracing sees it
        self.check_warm(self.warm())

    def cold_args(self) -> list:
        return [
            "gkm", "check", str(self.work / "ig25.json"), str(self.work / "hyperplane.json"),
            "--order", str(IG25_ORDER), "--format", "json",
        ]  # fmt: skip

    def check_cold(self, code: int, stdout: bytes) -> None:
        checks.check_certificate(
            json.loads(stdout), self.fixture, IG25_ORDER, "universal", exit_code=code
        )

    def warm(self):
        check = self._gkm_model.check_membership
        return [check(self.datum, values, self.ring) for _, values in self.batch]

    def check_warm(self, output) -> None:
        for (bad_point, _), cert in zip(self.batch, output, strict=True):
            checks.check_certificate(
                cert.to_json_obj(), self.fixture, IG25_ORDER, "universal", bad_point
            )


# -- x4tilde_pullback and x4tilde_kt ------------------------------------------------------

class Pullback(Workload):
    """`mult fiber-sum` for the x4tilde resolution over x12.

    Warm: the x4tilde and x4tilde_star pullbacks on one ring.  The inputs
    are the bundled weight data; the seed does not change them.
    """

    law = "universal"
    order = 10

    def setup(self) -> None:
        from gkmcobordism.multiplicities import load_ig25_resolution, load_ig25_tangent

        load_ig25_tangent()
        load_ig25_resolution("x4tilde")
        load_ig25_resolution("x4tilde_star")

    def load(self) -> None:
        from gkmcobordism import multiplicities
        from gkmcobordism.cli import make_law
        from gkmcobordism.torus_ring import TorusRing

        raw = {
            name: json.loads((self.root / DATA / f"ig25_{name}.json").read_text())
            for name in ("tangent", "x4tilde", "x4tilde_star")
        }
        # Per resolution: denominator factor count, Chow and K-theory closed forms.
        self.expected = [
            (
                checks.denominator_factors(raw["tangent"], raw[name]),
                *checks.pullback_closed_forms(raw["tangent"], raw[name]),
            )
            for name in ("x4tilde", "x4tilde_star")
        ]
        self.tangent = multiplicities.load_ig25_tangent()
        self.fibers = [
            multiplicities.load_ig25_resolution(name) for name in ("x4tilde", "x4tilde_star")
        ]
        self.ring = TorusRing(make_law(self.law, self.order), 2)
        self._multiplicities = multiplicities
        self.check_warm(self.warm())

    def cold_args(self) -> list:
        data = self.root / DATA
        return [
            "mult", "fiber-sum", str(data / "ig25_x4tilde.json"),
            "--ambient", str(data / "ig25_tangent.json"), "--point", "x12",
            "--law", self.law, "--order", str(self.order), "--format", "json",
        ]  # fmt: skip

    def check_cold(self, code: int, stdout: bytes) -> None:
        obj = json.loads(stdout)
        checks.check_pullback(obj, self.law, self.order, *self.expected[0], exit_code=code)

    def warm(self):
        pullback = self._multiplicities.singular_class_pullback
        return [pullback(self.ring, point, self.tangent, fiber) for point, fiber in self.fibers]

    def check_warm(self, output) -> None:
        for result, expected in zip(output, self.expected, strict=True):
            obj = {
                "sum": result.localized.to_json_obj(),
                "cleared": result.series.to_json_obj() if result.cleared.ok else None,
                "certified_order": result.cleared.certified_order,
            }
            checks.check_pullback(obj, self.law, self.order, *expected)


class X4tildePullback(Pullback):
    name = "x4tilde_pullback"
    warm_per_round = 6


class X4tildeKt(Pullback):
    """The K-theory specialization: one rational per coefficient."""

    name = "x4tilde_kt"
    law = "multiplicative:1"
    order = 24
    warm_per_round = 12


# -- horo_build ---------------------------------------------------------------------------

HORO_KIND = "fn:2"
HORO_CHECK_ORDER = 4


class HoroBuild(Workload):
    """`horo build` for F4 with the fn:2 override: 96 + 96 fixed points.

    Warm: a second build of the same triple, serialized.  The first warm
    call's output is the reference every other output must equal byte for
    byte; the hyperplane tuple is checked to be a member of the datum it
    serializes, under the additive law.  The seed does not change the input.
    """

    name = "horo_build"
    # Both operations take about 8 s; two of each per round keep a run's
    # medians from resting on single samples.
    cold_per_round = 2

    def setup(self) -> None:
        import gkmcobordism.cli  # noqa: F401

    def load(self) -> None:
        from gkmcobordism import horospherical
        from gkmcobordism.fgl import FormalGroupLaw
        from gkmcobordism.gkm_model import GkmDatum, check_membership
        from gkmcobordism.torus_ring import TorusRing

        self.triple = horospherical.PasquierTriple(family=4)
        self._horospherical = horospherical
        self.points = checks.f4_fixed_points((2, 3))
        self.reference = self.warm()
        checks.check_datum_text(self.reference, self.reference, self.points)
        datum = GkmDatum.from_json_obj(json.loads(self.reference))
        ring = TorusRing(FormalGroupLaw.additive(HORO_CHECK_ORDER), datum.rank)
        weights = horospherical.point_weights(self.triple)
        hyperplane = {p: ring.chern(w) for p, w in weights.items()}
        cert = check_membership(datum, hyperplane, ring)
        checks.require(cert.is_member, "the hyperplane tuple is not a member")

    def cold_args(self) -> list:
        return ["horo", "build", "--family", "4", "--force-kind", HORO_KIND]

    def check_cold(self, code: int, stdout: bytes) -> None:
        checks.check_datum_text(stdout, self.reference, self.points, exit_code=code)

    def warm(self):
        build = self._horospherical.build_gkm
        return build(self.triple, force_kind=HORO_KIND).dumps().encode()

    def check_warm(self, output) -> None:
        checks.check_datum_text(output, self.reference, self.points)


WORKLOADS = {w.name: w for w in (Ig25Check, X4tildePullback, X4tildeKt, HoroBuild)}
