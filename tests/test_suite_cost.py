"""The paper-suite cost tool in tools/suite_cost.py."""

import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "suite_cost.py"


def test_one_line_per_scale_from_a_fresh_process():
    proc = subprocess.run(
        [sys.executable, str(_TOOL), "1.0"], capture_output=True, text=True, check=True
    )
    line = re.fullmatch(
        r"scale 1\.0: (\d+\.\d\d) s, peak RSS (\d+) MB, passed True\n", proc.stdout
    )
    assert line, proc.stdout
    assert 0 < int(line.group(2)) < 10_000


def test_no_scale_is_a_usage_error():
    proc = subprocess.run([sys.executable, str(_TOOL)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("Usage: python tools/suite_cost.py")
