"""Run the benchmark's child processes from a small process.

The peak resident size the kernel reports for a child also counts the
memory of the process it was forked from, up to its exec.  The measuring
process grows large (the library, sympy, warm caches), so it starts this
process first, while small, and has it start every command.

Protocol: one JSON request per line on stdin, {"argv", "stdout", "stderr"}
with output file paths; one JSON reply per line on stdout, {"elapsed",
"code", "maxrss_kb"}.  Ends at the end of stdin.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"elapsed": elapsed, "code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
