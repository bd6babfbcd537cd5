"""Fast self-test of the benchmark itself: ``python3 perfbench/selftest.py``.

Runs each workload at a tiny size and requires every answer to pass the
oracle; runs it again with one answer corrupted and requires exactly that
answer to count as failed; runs one tiny traced workload; and checks the
self-time arithmetic and the absent-metric handling of ``spans.py`` on
synthetic spans.  Exits 0 when everything holds.
"""

from __future__ import annotations

import sys
import types

import run
import spans


def check_self_times() -> None:
    # root [0, 10] has children a [1, 4] and b [5, 7]; a has child c [2, 3].
    tree = [
        ("bench.request", 0.0, 10.0, -1, "r", None),
        ("weaving.is_woven", 1.0, 4.0, 0, "r", None),
        ("_kernels.weaving_scan", 2.0, 3.0, 1, "r", 8),
        ("gframe.new_gframe", 5.0, 7.0, 0, "r", None),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0], spans.self_times(tree)
    sums = spans.aggregate(tree, {"r"}, {"r"})
    assert sums["self:weaving"] == 2.0 and sums["self:_kernels"] == 1.0
    assert sums["time:_kernels.weaving_scan"] == 1.0 and sums["work:_kernels.weaving_scan"] == 8
    # A child that sticks out of its parent only counts inside the parent.
    assert spans.self_times([("a", 0.0, 2.0, -1, "r", None), ("b", 1.0, 3.0, 0, "r", None)])[0] == 1.0


def check_wrapping_and_absence() -> None:
    layer = types.ModuleType("gweave._selftest_layer")
    user = types.ModuleType("gweave._selftest_user")

    def work(x):
        return x + 1

    work.__module__ = layer.__name__
    layer.work = work
    user.work = work  # as after ``from ._selftest_layer import work``
    sys.modules[layer.__name__] = layer
    sys.modules[user.__name__] = user
    try:
        tracer = spans.Tracer(layers={"fake": layer.__name__, "gone": "gweave._no_such_module"}, leaves={})
        found = tracer.install()
        tracer.begin("r")
        assert user.work(1) == 2 and layer.work(2) == 3
        tracer.end()
    finally:
        del sys.modules[layer.__name__], sys.modules[user.__name__]
    names = [s[0] for s in tracer.spans]
    assert names.count("fake.work") == 2, names
    assert "fake" in found and "gone" not in found
    metrics = spans.per_layer_metrics({}, found, 0, 1.0, 0.0)
    assert metrics["kernels.scan_calls"]["absent"] and metrics["weaving.self_s"].get("absent")
    assert not metrics["trace.overhead_frac"].get("absent")


def check_workloads() -> None:
    for name in ("scan", "search", "battery"):
        result, _ = run.run_workload(name, seed=7, seconds=0, trace=0, size="tiny")
        assert result["correct"] and result["failed"] == 0, (name, result)
        result, record = run.run_workload(name, seed=7, seconds=0, trace=0, size="tiny", inject=3)
        assert result["failed"] == 1 and not result["correct"], (name, result)
        assert record["failed_frac"] == 1 / result["attempted"]
        print(f"ok   {name}: clean run passes, injected wrong answer is counted")
    result, _ = run.run_workload("scan", seed=7, seconds=0, trace=1, size="tiny")
    m = result["metrics"]
    assert result["correct"], result
    assert m["kernels.eig_per_selection"]["value"] == 1.0, m
    assert all(not v.get("absent") for v in m.values()), m
    print("ok   traced scan: eig_per_selection is 1.0 and no metric is absent")


def main() -> int:
    check_self_times()
    print("ok   self-time arithmetic on a synthetic span tree")
    check_wrapping_and_absence()
    print("ok   wrappers reach names imported elsewhere; missing layers are absent")
    check_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
