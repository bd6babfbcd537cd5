"""The summary step and the run commands of the before/after harness in tools/bench_pair.py.

No benchmark runs.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [
    {"name": "latency_p90_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def _run(failed, **values):
    metrics = {name: {"value": v, "unit": "-"} for name, v in values.items()}
    return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}


def test_summary_gives_values_medians_quartiles_and_wins():
    runs = {
        "parent": [
            _run(0, latency_p90_s=0.15, requests_per_s=30.0, peak_rss_mb=40.0),
            _run(0, latency_p90_s=0.16, requests_per_s=31.0, peak_rss_mb=40.0),
            _run(1, latency_p90_s=0.17, requests_per_s=32.0, peak_rss_mb=40.0),
        ],
        "change": [
            _run(0, latency_p90_s=0.13, requests_per_s=33.0, peak_rss_mb=40.0),
            _run(0, latency_p90_s=0.17, requests_per_s=30.0, peak_rss_mb=41.0),
            _run(0, latency_p90_s=0.14, requests_per_s=35.0, peak_rss_mb=39.0),
        ],
    }
    out = bench_pair.summarize(runs, METRICS)
    assert out["failed"] == {"parent": [0, 0, 1], "change": [0, 0, 0]}
    p90 = out["metrics"]["latency_p90_s"]
    assert p90["parent"] == {
        "values": [0.15, 0.16, 0.17],
        "median": pytest.approx(0.16),
        "q1": pytest.approx(0.155),
        "q3": pytest.approx(0.165),
    }
    assert p90["change"]["median"] == pytest.approx(0.14)
    assert (p90["change_wins"], p90["parent_wins"], p90["pairs"]) == (2, 1, 3)
    # higher is better for throughput
    rate = out["metrics"]["requests_per_s"]
    assert (rate["change_wins"], rate["parent_wins"]) == (2, 1)
    assert rate["unit"] == "1/s" and rate["better"] == "higher"
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["parent_wins"]) == (1, 1)  # the tie counts for neither


def test_absent_metric_is_left_out_and_one_run_is_its_own_spread():
    runs = {
        "parent": [_run(0, latency_p90_s=0.2)],
        "change": [{**_run(0, latency_p90_s=0.1), "metrics": {"latency_p90_s": {"value": 0.1}}}],
    }
    out = bench_pair.summarize(runs, METRICS)
    assert list(out["metrics"]) == ["latency_p90_s"]
    spread = out["metrics"]["latency_p90_s"]["change"]
    assert (spread["median"], spread["q1"], spread["q3"]) == (0.1, 0.1, 0.1)


@pytest.mark.parametrize("args, seed", [([], 11), (["--seed", "13"], 13)])
def test_the_seed_reaches_every_run_command_and_the_record(monkeypatch, tmp_path, args, seed):
    """Every ``perfbench/run.py`` command gets the seed, and so does the JSON; nothing runs."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    commands = []

    def run(cmd, **kwargs):
        commands.append(cmd)
        line = json.dumps(_run(0, latency_p90_s=0.1))
        return subprocess.CompletedProcess(cmd, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pair, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pair.subprocess, "run", run)
    assert bench_pair.main(["29", "--k", "2", "--workloads", "scan", *args]) == 0
    assert len(commands) == 4
    assert all(cmd[cmd.index("--seed") + 1] == str(seed) for cmd in commands)
    assert json.loads((tmp_path / "BENCH_29.json").read_text())["seed"] == seed
