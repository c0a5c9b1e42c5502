"""Run the gkmcob command line with the layer wrappers installed.

Usage: python3 bench/launch.py SPANS_JSON -- GKMCOB_ARGS...

The command's stdout and exit code are those of `gkmcob`; the per-layer
statistics of the call to cli.main, and the duration of that call, are
written to SPANS_JSON.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spans_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: launch.py SPANS_JSON -- GKMCOB_ARGS...")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from spans import Tracer
    from gkmcobordism import cli

    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    code = tracer.span("cli.main", cli.main, argv)
    main_s = perf_counter() - t0
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"main_s": main_s, "layers": tracer.reset()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
