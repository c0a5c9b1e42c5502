"""Tests of the benchmark's own checks: each must pass a genuine output and
reject a corrupted one (a changed coefficient, a dropped point or
congruence, a wrong exit code, a wrong certified order).

Run from the repository root: python3 bench/selftest.py  (about half a minute)
"""

import copy
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gkmcobordism.cli import make_law  # noqa: E402
from gkmcobordism.fgl import FormalGroupLaw  # noqa: E402
from gkmcobordism.gkm_model import check_membership  # noqa: E402
from gkmcobordism.horospherical import PasquierTriple, build_gkm, point_weights  # noqa: E402
from gkmcobordism.multiplicities import (  # noqa: E402
    load_ig25_resolution,
    load_ig25_tangent,
    singular_class_pullback,
)
from gkmcobordism.torus_ring import TorusRing  # noqa: E402

DATA = ROOT / workloads.DATA


def _raw(name: str) -> dict:
    return json.loads((DATA / f"ig25_{name}.json").read_text())


def _change_first_coefficient(series: dict) -> None:
    term = series["terms"][0]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)


class CertificateCheck(unittest.TestCase):
    ORDER = 5

    @classmethod
    def setUpClass(cls):
        cls.fixture = json.loads((ROOT / "fixtures" / "ig25_congruences.json").read_text())
        triple = PasquierTriple(family=3, n=2, m=2)
        datum = build_gkm(triple)
        ring = TorusRing(FormalGroupLaw.universal(cls.ORDER), 2)
        values = {p: ring.chern(w) for p, w in point_weights(triple).items()}
        cls.member = check_membership(datum, values, ring).to_json_obj()
        corrupted = dict(values, x23=values["x23"] + ring.constant(1))
        cls.non_member = check_membership(datum, corrupted, ring).to_json_obj()

    def check(self, cert, bad_point=None, exit_code=0):
        checks.check_certificate(cert, self.fixture, self.ORDER, "universal", bad_point, exit_code)

    def test_genuine_outputs_pass(self):
        self.check(self.member)
        self.check(self.non_member, "x23", exit_code=1)

    def test_wrong_exit_code(self):
        with self.assertRaises(checks.CheckFailed):
            self.check(self.member, exit_code=1)
        with self.assertRaises(checks.CheckFailed):
            self.check(self.non_member, "x23", exit_code=0)

    def test_wrong_certified_order(self):
        cert = copy.deepcopy(self.member)
        cert["constraints"][-1]["certified_order"] += 1
        with self.assertRaises(checks.CheckFailed):
            self.check(cert)

    def test_dropped_congruence(self):
        cert = copy.deepcopy(self.member)
        del cert["constraints"][3]
        with self.assertRaises(checks.CheckFailed):
            self.check(cert)

    def test_failures_must_be_the_congruences_through_the_point(self):
        with self.assertRaises(checks.CheckFailed):
            self.check(self.non_member, "x12", exit_code=1)
        cert = copy.deepcopy(self.non_member)
        passing = next(e for e in cert["constraints"] if e["status"] == "pass")
        passing["status"] = "fail"
        with self.assertRaises(checks.CheckFailed):
            self.check(cert, "x23", exit_code=1)

    def test_changed_coefficient_in_the_tuple(self):
        # the tuple of self.non_member is a member with one coefficient changed
        with self.assertRaises(checks.CheckFailed):
            self.check(self.non_member, exit_code=None)

    def test_missing_remainder(self):
        cert = copy.deepcopy(self.non_member)
        failing = next(e for e in cert["constraints"] if e["status"] == "fail")
        del failing["remainder"]
        with self.assertRaises(checks.CheckFailed):
            self.check(cert, "x23", exit_code=1)


class PullbackCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        tangent, raw_tangent = load_ig25_tangent(), _raw("tangent")
        cls.cases = []
        for name in ("x4tilde", "x4tilde_star"):
            raw = _raw(name)
            expected = (
                checks.denominator_factors(raw_tangent, raw),
                *checks.pullback_closed_forms(raw_tangent, raw),
            )
            point, fiber = load_ig25_resolution(name)
            for law, order in (("universal", 8), ("multiplicative:1", 10)):
                ring = TorusRing(make_law(law, order), 2)
                result = singular_class_pullback(ring, point, tangent, fiber)
                obj = {
                    "sum": result.localized.to_json_obj(),
                    "cleared": result.series.to_json_obj(),
                    "certified_order": result.cleared.certified_order,
                }
                cls.cases.append((law, order, expected, obj))

    def test_factor_counts(self):
        self.assertEqual([case[2][0] for case in self.cases[::2]], [6, 2])

    def test_genuine_outputs_pass(self):
        for law, order, expected, obj in self.cases:
            checks.check_pullback(obj, law, order, *expected, exit_code=0)

    def test_corruptions_are_rejected(self):
        def changed_coefficient(obj):
            _change_first_coefficient(obj["cleared"])

        def wrong_certified_order(obj):
            obj["certified_order"] -= 1

        def not_cleared(obj):
            obj["cleared"] = None

        def dropped_term(obj):
            del obj["cleared"]["terms"][0]

        for corrupt in (changed_coefficient, wrong_certified_order, not_cleared, dropped_term):
            for law, order, expected, obj in self.cases:
                bad = copy.deepcopy(obj)
                corrupt(bad)
                with self.subTest(corrupt.__name__, law=law), self.assertRaises(checks.CheckFailed):
                    checks.check_pullback(bad, law, order, *expected)

    def test_wrong_exit_code(self):
        law, order, expected, obj = self.cases[0]
        with self.assertRaises(checks.CheckFailed):
            checks.check_pullback(obj, law, order, *expected, exit_code=2)


class DatumCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.points = checks.f4_fixed_points((2, 3))
        datum = build_gkm(PasquierTriple(family=4), force_kind=workloads.HORO_KIND)
        cls.text = datum.dumps().encode()

    def test_point_count_from_weyl_group_orders(self):
        self.assertEqual(self.points, 96 + 96)
        # B3 (family 2): |W| / |W_P(omega_1)| + |W| / |W_P(omega_3)| = 6 + 8
        bonds = {(1, 2): 1, (2, 3): 2}
        self.assertEqual(checks._weyl_order({1, 2, 3}, bonds), 48)
        self.assertEqual(checks._weyl_order({2, 3}, {(2, 3): 2}), 8)

    def test_genuine_output_passes(self):
        checks.check_datum_text(self.text, self.text, self.points, exit_code=0)

    def test_dropped_point(self):
        obj = json.loads(self.text)
        del obj["points"][0]
        text = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        with self.assertRaises(checks.CheckFailed):
            checks.check_datum_text(text, text, self.points)
        with self.assertRaises(checks.CheckFailed):
            checks.check_datum_text(text, self.text, self.points)

    def test_changed_byte(self):
        text = self.text.replace(b'"1"', b'"2"', 1)
        with self.assertRaises(checks.CheckFailed):
            checks.check_datum_text(text, self.text, self.points)

    def test_wrong_exit_code(self):
        with self.assertRaises(checks.CheckFailed):
            checks.check_datum_text(self.text, self.text, self.points, exit_code=1)


class BenchmarkDescription(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        desc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in desc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in desc["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in desc["per_layer"]],
            run.per_layer_names(),
        )


if __name__ == "__main__":
    unittest.main()
