"""Before/after benchmark of a change against its parent commit.

Usage: python tools/bench_pair.py PR [--parent REV] [--k K] [--seed S] [--workloads W ...]

Exports ``REV`` (default ``HEAD``) from local git with ``git archive`` into a
temporary directory.  Then it runs ``perfbench/run.py --trace 0`` there and
in this checkout, alternately, ``K`` times per workload (default 10, all
three workloads), each run ``SECONDS`` long with seed ``S`` (default
``SEED``), so that a claim can be checked on a seed it was not written on.
The side that runs first alternates from pair to pair.  Run it before
committing the change, so that ``HEAD`` is the parent and the working tree
is the change, or pass ``--parent HEAD~1`` after.

Writes ``BENCH_<PR>.json`` at the root of the checkout, with the seed.  For
every workload and every end-to-end metric that ``BENCHMARK.json``
declares, it holds the value of each run and, per side, the median and the
quartiles; for each pair, whether the change won.  A tie counts for neither
side.  The failed operations of every run are recorded too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "search", "battery")
SIDES = ("parent", "change")
SEED = 11
SECONDS = 15.0


def export(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under ``dest``; returns its full hash."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return sha


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in checkout ``root``: the JSON object of its last line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=str(root), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of the values of one side."""
    if len(values) == 1:
        return {"values": values, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, metrics: list) -> dict:
    """The record of one workload.

    ``runs`` maps each side to its run results in pair order, each the last
    line of ``perfbench/run.py``; ``metrics`` are ``BENCHMARK.json``'s
    end-to-end entries.  A metric a run reports as absent is left out.
    """
    out = {"failed": {side: [r["failed"] for r in runs[side]] for side in SIDES}, "metrics": {}}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        values = {
            side: [r["metrics"].get(name, {}).get("value") for r in runs[side]] for side in SIDES
        }
        pairs = [(p, c) for p, c in zip(values["parent"], values["change"]) if None not in (p, c)]
        if not pairs:
            continue
        out["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": _spread([p for p, _ in pairs]),
            "change": _spread([c for _, c in pairs]),
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "parent_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", help="the change's number, used in the file name")
    parser.add_argument("--parent", default="HEAD", help="the commit to compare with")
    parser.add_argument("--k", type=int, default=10, help="pairs of runs per workload")
    parser.add_argument("--seed", type=int, default=SEED, help="the seed of every run")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        sha = export(args.parent, Path(tmp))
        roots = {"parent": Path(tmp), "change": ROOT}
        workloads = {}
        for workload in args.workloads:
            runs = {side: [] for side in SIDES}
            for i in range(args.k):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"{workload} pair {i + 1}/{args.k}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(run_once(roots[side], workload, args.seed))
            workloads[workload] = summarize(runs, metrics)
    record = {
        "pr": args.pr,
        "parent": sha,
        "change": "the working tree of this checkout",
        "command": "perfbench/run.py --trace 0",
        "seed": args.seed,
        "seconds": SECONDS,
        "k": args.k,
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
