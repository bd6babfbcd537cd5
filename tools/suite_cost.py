"""Time and peak memory of the paper suite, one fresh process per scale.

Usage: python tools/suite_cost.py SCALE...

For each SCALE a new ``python`` process, with ``src`` on ``PYTHONPATH``,
runs ``run_suite(SuiteConfig(dim_scale=SCALE))`` and reports the wall time
of that call, the process's peak resident set size
(``resource.getrusage(RUSAGE_SELF).ru_maxrss``, import included) and whether
every record passed.  One line per scale:

    scale 4: 0.37 s, peak RSS 75 MB, passed True
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_CHILD = """
import resource, sys, time
from gweave.suite import SuiteConfig, run_suite
scale = float(sys.argv[1])
started = time.perf_counter()
report = run_suite(SuiteConfig(dim_scale=scale))
wall = time.perf_counter() - started
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"scale {sys.argv[1]}: {wall:.2f} s, peak RSS {peak_mb:.0f} MB, passed {report.passed}")
"""


def main(argv) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    paths = [str(_SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for scale in argv:
        proc = subprocess.run([sys.executable, "-c", _CHILD, scale], env=env)
        if proc.returncode:
            return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
