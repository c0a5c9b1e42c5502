"""Benchmark of the gkmcob engine: one workload per run, one operation at a time.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src` directory.  A run sets the workload up three times in fresh processes
(set-up time), loads it, then repeats whole rounds until S seconds have
passed; a round is `cold_per_round` times one cold operation followed by
`warm_per_round` warm operations.  Every output is
checked.  The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end medians; with --trace 1 each round also repeats its operations
with the layer wrappers of spans.py installed, and the metrics are the
per-layer figures per operation and the tracing overhead.  The line before
it records sample counts, a tail percentile where a run has at least 40
samples, the rational backend, the Python version and the CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}
SCALED = ("cold_s", "warm_s")

# The host's throughput drifts by 10-20 % within minutes, which moves every
# time of a run together.  A fixed pure-Python loop, timed between the
# operations, measures that drift; cold_s and warm_s are reported at the
# reference speed: raw median * CALIBRATION_REF_S / median calibration time.
# CALIBRATION_REF_S is the loop's median time on the machine the README names.
# setup_s, a few sub-second process starts, stays raw: scaling made it noisier.
CALIBRATION_REF_S = 0.1
# Calibration passes run between operations until they take this share of
# the time the operations took, so that they sample the whole run evenly.
CALIBRATION_SHARE = 0.08

# (metric, layer, statistic, unit, better), reported per operation for cold
# and warm operations alike.  Layer names are those of spans.LAYERS.
LAYER_METRICS = (
    ("coeff_series.mul.calls", "coeff_series.mul", "calls", "count", "lower"),
    ("coeff_series.mul.self_s", "coeff_series.mul", "self_s", "s", "lower"),
    ("coeff_series.mul.coeff_madds", "coeff_series.mul", "coeff_madds", "count", "lower"),
    ("coeff_series.mul.out_terms", "coeff_series.mul", "out_terms", "count", "lower"),
    ("coeff_series.mul.out_coeff_monomials", "coeff_series.mul", "out_coeff_monomials", "count", "lower"),
    ("coeff_series.mul.max_coeff_bits", "coeff_series.mul", "max_coeff_bits", "bits", "lower"),
    ("coeff_series.substitute.calls", "coeff_series.substitute", "calls", "count", "lower"),
    ("coeff_series.substitute.self_s", "coeff_series.substitute", "self_s", "s", "lower"),
    ("coeff_series.compose_univariate.calls", "coeff_series.compose_univariate", "calls", "count", "lower"),
    ("coeff_series.compose_univariate.self_s", "coeff_series.compose_univariate", "self_s", "s", "lower"),
    ("torus_ring.chern.calls", "torus_ring.chern", "calls", "count", "lower"),
    ("torus_ring.chern.computed", "torus_ring.chern", "computed", "count", "lower"),
    ("torus_ring.chern.hit_ratio", "torus_ring.chern", "hit_ratio", "ratio", "higher"),
    ("torus_ring.chern.self_s", "torus_ring.chern", "self_s", "s", "lower"),
    ("torus_ring.chern_product.self_s", "torus_ring.chern_product", "self_s", "s", "lower"),
    ("coeff_series.compositional_inverse.self_s", "coeff_series.compositional_inverse", "self_s", "s", "lower"),
    ("fgl.exp_series.self_s", "fgl.exp_series", "self_s", "s", "lower"),
    ("coeff_series.series_inverse.calls", "coeff_series.series_inverse", "calls", "count", "lower"),
    ("coeff_series.series_inverse.self_s", "coeff_series.series_inverse", "self_s", "s", "lower"),
    ("torus_ring.divide_exact.calls", "torus_ring.divide_exact", "calls", "count", "lower"),
    ("torus_ring.divide_exact.self_s", "torus_ring.divide_exact", "self_s", "s", "lower"),
    ("torus_ring.loc_add.self_s", "torus_ring.loc_add", "self_s", "s", "lower"),
    ("multiplicities.singular_class_pullback.self_s", "multiplicities.singular_class_pullback", "self_s", "s", "lower"),
    ("fgl.rho.calls", "fgl.rho", "calls", "count", "lower"),
    ("fgl.rho.self_s", "fgl.rho", "self_s", "s", "lower"),
    ("torus_ring.rho_factor.self_s", "torus_ring.rho_factor", "self_s", "s", "lower"),
    ("torus_ring.reduce_mod.calls", "torus_ring.reduce_mod", "calls", "count", "lower"),
    ("torus_ring.reduce_mod.self_s", "torus_ring.reduce_mod", "self_s", "s", "lower"),
    ("gkm_model.check_membership.self_s", "gkm_model.check_membership", "self_s", "s", "lower"),
    ("gkm_model.congruence_system.self_s", "gkm_model.congruence_system", "self_s", "s", "lower"),
    ("gkm_model.congruences", "gkm_model.congruence_system", "congruences", "count", "lower"),
    ("root_flag.root_system.calls", "root_flag.root_system", "calls", "count", "lower"),
    ("root_flag.root_system.self_s", "root_flag.root_system", "self_s", "s", "lower"),
    ("root_flag.weyl_group.self_s", "root_flag.weyl_group", "self_s", "s", "lower"),
    ("root_flag.cosets.self_s", "root_flag.cosets", "self_s", "s", "lower"),
    ("root_flag.enumerate_curves.self_s", "root_flag.enumerate_curves", "self_s", "s", "lower"),
    ("root_flag.apply_word.calls", "root_flag.apply_word", "calls", "count", "lower"),
    ("root_flag.apply_word.self_s", "root_flag.apply_word", "self_s", "s", "lower"),
    ("horospherical.build_gkm.self_s", "horospherical.build_gkm", "self_s", "s", "lower"),
    ("horospherical.surface_scan.self_s", "horospherical.surface_scan", "self_s", "s", "lower"),
    ("coeff_series.from_json.self_s", "coeff_series.from_json", "self_s", "s", "lower"),
    ("gkm_model.dumps.self_s", "gkm_model.dumps", "self_s", "s", "lower"),
)

# Accounting of the traced operations, per operation kind.
TRACE_METRICS = (
    ("traced_s", "s", "lower"),  # median wall time of a traced operation
    ("overhead_s", "s", "lower"),  # traced minus untraced median
    ("layer_share", "ratio", "higher"),  # layer self time over traced wall time
    ("outside_layers_s", "s", "lower"),  # traced wall time no layer span covers
)
KINDS = ("cold", "warm")
ROOT_SPANS = ("cli.main", "op")


def per_layer_names() -> list:
    """Every per-layer metric of a traced run, with its unit and direction."""
    out = []
    for kind in KINDS:
        out += [(f"{kind}.{name}", unit, better) for name, unit, better in TRACE_METRICS]
        out += [(f"{kind}.{m[0]}", m[3], m[4]) for m in LAYER_METRICS]
    return out


def _calibration_operands() -> tuple:
    rng = random.Random(0)

    def poly():
        return {
            (rng.randrange(12), rng.randrange(12)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(60)
        }

    return poly(), poly()


CALIBRATION_OPERANDS = _calibration_operands()


def calibrate() -> float:
    """Time one pass of the calibration loop: sparse products with rational
    coefficients, the kind of work the engine's series products do."""
    a, b = CALIBRATION_OPERANDS
    t0 = perf_counter()
    for _ in range(8):
        out: dict = {}
        for (i, j), qa in a.items():
            for (k, l), qb in b.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + qa * qb
    return perf_counter() - t0


class Spawner:
    """Runs commands through spawner.py, started while this process is small."""

    def __init__(self, work: Path):
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list) -> tuple:
        """Run a command to its end: (wall seconds, exit code, stdout, peak RSS in MB)."""
        out, err = self.work / "stdout.bin", self.work / "stderr.txt"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        return reply["elapsed"], reply["code"], out.read_bytes(), reply["maxrss_kb"] / 1024

    def stderr(self) -> str:
        return (self.work / "stderr.txt").read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Totals:
    """Per-layer statistics summed over the traced operations of one kind."""

    def __init__(self):
        self.ops = 0
        self.layers: dict = {}

    def add(self, stats: dict) -> None:
        self.ops += 1
        for layer, stat in stats.items():
            into = self.layers.setdefault(layer, {})
            for key, value in stat.items():
                if key == "max_coeff_bits":
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value

    def value(self, layer: str, stat: str) -> float:
        into = self.layers.get(layer, {})
        if stat == "hit_ratio":
            calls = into.get("calls", 0)
            return 1 - into.get("computed", 0) / calls if calls else 0.0
        if stat == "max_coeff_bits":
            return into.get(stat, 0)
        return into.get(stat, 0) / self.ops

    def layer_s(self) -> float:
        """Self time of the layer spans per operation (the root span excluded)."""
        total = sum(s["self_s"] for name, s in self.layers.items() if name not in ROOT_SPANS)
        return total / self.ops


def tail(samples: list) -> dict:
    """The highest of p75, p90 and p99 with TAIL_BEYOND samples above it."""
    for p in (99, 90, 75):
        if len(samples) * (100 - p) >= TAIL_BEYOND * 100:
            return {f"p{p}": statistics.quantiles(samples, n=100)[p - 1]}
    return {}


def environment() -> dict:
    from gkmcobordism.coeff_series import QQ

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "backend": "gmpy2" if type(QQ(0)).__module__.startswith("gmpy2") else "fractions",
        "python": platform.python_version(),
        "cpu": cpu,
    }


class Run:
    def __init__(self, workload, spawner: Spawner, seconds: int, traced: bool, calibration: list):
        self.wl, self.spawner, self.seconds, self.traced = workload, spawner, seconds, traced
        self.calibration = calibration
        self.calibration_s = self.op_s = 0.0
        self.attempted = self.failed = 0
        self.samples = {key: [] for key in ("cold", "warm", "rss", "cold_traced", "warm_traced")}
        self.totals = {kind: Totals() for kind in KINDS}
        if traced:
            from spans import Tracer

            self.tracer = Tracer()

    def _calibrate(self) -> None:
        while self.calibration_s < CALIBRATION_SHARE * self.op_s:
            elapsed = calibrate()
            self.calibration.append(elapsed)
            self.calibration_s += elapsed

    def _attempt(self, kind: str, op) -> None:
        """Run one operation and its check; a failure counts against `failed`."""
        self._calibrate()
        self.attempted += 1
        t0 = perf_counter()
        try:
            op()
        except Exception:  # the run goes on; the failure is counted and reported
            self.failed += 1
            print(f"{self.wl.name}: {kind} operation failed", file=sys.stderr)
            traceback.print_exc()
        self.op_s += perf_counter() - t0

    def cold(self, traced: bool) -> None:
        spans_path = self.spawner.work / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "launch.py"), str(spans_path), "--"]
        else:
            argv = [sys.executable, "-m", "gkmcobordism.cli"]
        elapsed, code, out, rss = self.spawner.run(argv + self.wl.cold_args())
        self.wl.check_cold(code, out)
        if traced:
            self.samples["cold_traced"].append(elapsed)
            self.totals["cold"].add(json.loads(spans_path.read_text())["layers"])
        else:
            self.samples["cold"].append(elapsed)
            self.samples["rss"].append(rss)

    def warm(self, traced: bool) -> None:
        if traced:
            t0 = perf_counter()
            output = self.tracer.span("op", self.wl.warm)
            elapsed = perf_counter() - t0
            self.totals["warm"].add(self.tracer.reset())
        else:
            t0 = perf_counter()
            output = self.wl.warm()
            elapsed = perf_counter() - t0
        self.wl.check_warm(output)
        self.samples["warm_traced" if traced else "warm"].append(elapsed)

    def measure(self) -> int:
        """Whole rounds until the run's seconds are spent; returns the round count."""
        modes = (False, True) if self.traced else (False,)
        # A traced round already runs every operation twice.
        repeats = 1 if self.traced else self.wl.cold_per_round
        rounds, t_start = 0, perf_counter()
        while rounds == 0 or perf_counter() - t_start < self.seconds:
            for _ in range(repeats):
                for traced in modes:
                    self._attempt("cold", lambda: self.cold(traced))
                for traced in modes:
                    if traced:
                        self.tracer.install()
                    try:
                        for _ in range(self.wl.warm_per_round):
                            self._attempt("warm", lambda: self.warm(traced))
                    finally:
                        if traced:
                            self.tracer.uninstall()
            rounds += 1
        return rounds

    def end_to_end(self, setup_s: list) -> tuple:
        """The raw end-to-end medians, and the samples behind each."""
        series = {
            "setup_s": setup_s,
            "cold_s": self.samples["cold"],
            "warm_s": self.samples["warm"],
            "peak_rss_mb": self.samples["rss"],
        }
        return {name: statistics.median(v) for name, v in series.items()}, series

    def speed_factor(self) -> float:
        """Reference over measured calibration time: above 1 on a slow host."""
        return CALIBRATION_REF_S / statistics.median(self.calibration)

    def per_layer(self) -> dict:
        out = {}
        for kind in KINDS:
            traced, plain = self.samples[f"{kind}_traced"], self.samples[kind]
            totals = self.totals[kind]
            mean_traced = statistics.fmean(traced)
            out[f"{kind}.traced_s"] = statistics.median(traced)
            out[f"{kind}.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            out[f"{kind}.layer_share"] = totals.layer_s() / mean_traced
            out[f"{kind}.outside_layers_s"] = mean_traced - totals.layer_s()
            for name, layer, stat, _, _ in LAYER_METRICS:
                out[f"{kind}.{name}"] = totals.value(layer, stat)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gkmcobordism" / "__init__.py").is_file():
        print(f"error: no gkmcobordism sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Every process of the run shares one CPU: operations run one at a time,
    # and the calibration passes then see the core the operations ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spawner = Spawner(work)
    try:
        setup_s, calibration = [], []
        probe = [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed)]
        for _ in range(SETUP_SAMPLES):
            calibration.append(calibrate())
            elapsed, code, _, _ = spawner.run(probe + [str(work)])
            if code != 0:
                sys.stderr.write(spawner.stderr())
                print(f"error: set-up of {args.workload} failed", file=sys.stderr)
                return 1
            setup_s.append(elapsed)
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        correct = True
        try:
            wl.load()
        except workloads.checks.CheckFailed as exc:
            correct = False
            print(f"{args.workload}: reference check failed: {exc}", file=sys.stderr)
        run = Run(wl, spawner, args.seconds, bool(args.trace), calibration)
        rounds = run.measure()
        raw, series = run.end_to_end(setup_s)
        factor = run.speed_factor()
        medians = {name: v * factor if name in SCALED else v for name, v in raw.items()}
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": rounds,
            "cold_per_round": wl.cold_per_round,
            "warm_per_round": wl.warm_per_round,
            "samples": {name: len(v) for name, v in series.items()},
            "raw": raw,
            "calibration_s": statistics.median(calibration),
            "calibration_samples": len(calibration),
            "speed_factor": factor,
            "tails": {name: tail(v) for name, v in series.items() if tail(v)},
            **environment(),
        }
        if args.trace:
            metrics = run.per_layer()
            units = {name: unit for name, unit, _ in per_layer_names()}
        else:
            metrics, units = medians, END_TO_END
        print(json.dumps(record))
        result = {
            "correct": correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
