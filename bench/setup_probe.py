"""Set up one workload in a fresh process: one sample of the set-up time.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Imports the program, loads the bundled data the workload needs and writes
its input files into WORKDIR.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, work = sys.argv[1:]
    workloads.WORKLOADS[name](ROOT, Path(work), int(seed)).setup()
