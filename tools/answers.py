"""The in-process workload answers of a change, compared with those of its parent commit.

Usage: python tools/answers.py [--parent REV] [--seeds S ...] [--workloads W ...]

Exports ``REV`` (default ``HEAD``) from local git with ``tools/bench_pair.py``'s
``export``.  Then one child process per side, the export and this checkout,
puts that side's ``src`` and ``perfbench`` first on its path and, for each
workload (default ``scan``, ``search`` and ``battery``) and seed (default
11, 12 and 13), builds the requests with ``perfbench/workloads.py``, loads
the documents through ``gweave.cli.load_gframe`` and answers every
in-process request with ``perfbench/server.py``'s ``call`` and ``plain``.
Each CLI request runs in process too, through ``gweave.cli.main`` with its
stdout captured: its answer is the exit code and the stdout, without
``timing_seconds`` and with each input path replaced by its document's
name (:func:`cli_answer`).  Nothing under ``perfbench/`` is changed.

Prints each request whose JSON answer differs between the two sides, with
one line per differing field: its path, both values and, for numbers, the
size of the change.  Then a count.  Exits 1 when some answer differs.  Run
it before committing the change, so that ``HEAD`` is the parent, or pass
``--parent HEAD~1`` after.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_pair import WORKLOADS, export  # noqa: E402

SEEDS = (11, 12, 13)


def normalised(stdout: str, paths: dict):
    """CLI ``stdout`` with each document's path in ``paths`` replaced by its name.

    Stdout that parses as a JSON object loses its ``timing_seconds``; other
    stdout stays text.
    """
    for name, path in paths.items():
        stdout = stdout.replace(path, name)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(doc, dict):
        doc.pop("timing_seconds", None)
    return doc


def cli_answer(main, argv, paths: dict) -> dict:
    """The exit code and :func:`normalised` stdout of ``main`` on ``argv``, where ``@name`` is ``paths[name]``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([paths[arg[1:]] if arg.startswith("@") else arg for arg in argv])
    return {"exit": code, "stdout": normalised(out.getvalue(), paths)}


def answers(root: Path, seeds, workloads) -> dict:
    """Every answer of the checkout ``root``, in process, as JSON values keyed by request.

    The key names the workload, the seed, the request's place in the
    workload, its function and its arguments.  A request that raises
    answers ``{"error": ...}``, as the server reports it.
    """
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gweave
    import server
    import workloads as built

    out = {}
    with tempfile.TemporaryDirectory(prefix="answers_") as tmp:
        for name in workloads:
            for seed in seeds:
                work = built.build(name, seed, "full")
                frames, paths = {}, {}
                for doc, family in work.documents.items():
                    path = Path(tmp) / f"{doc}.json"
                    path.write_text(json.dumps(family.document()), encoding="utf-8")
                    frames[doc] = gweave.cli.load_gframe(str(path))
                    paths[doc] = str(path)
                for i, request in enumerate(work.requests):
                    args = json.dumps(request.args, sort_keys=True)
                    key = f"{name} seed {seed} #{i:03d} {request.op} {args}"
                    try:
                        if request.is_cli:
                            out[key] = cli_answer(gweave.cli.main, request.args["argv"], paths)
                        else:
                            out[key] = server.plain(server.call(gweave, frames, request.op, request.args))
                    except Exception as exc:  # reported as the server reports it
                        out[key] = {"error": f"{type(exc).__name__}: {exc}"}
    return out


def differences(old, new, path: str = ""):
    """``(path, old, new)`` for each field where two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from differences(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{path}[{i}]")
    elif json.dumps(old) != json.dumps(new):  # NaN reads the same on both sides
        yield path, old, new


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def report(old: dict, new: dict) -> list:
    """The lines that name each request whose answer differs, and each of its differing fields."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"{key}: only in the {'change' if key in new else 'parent'}")
            continue
        fields = list(differences(old[key], new[key]))
        if fields:
            lines.append(key)
        for path, a, b in fields:
            size = f" (by {abs(b - a):.3g})" if _number(a) and _number(b) else ""
            lines.append(f"  {path or '.'}: {a!r} -> {b!r}{size}")
    return lines


def _side(root: Path, seeds, workloads) -> subprocess.Popen:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--answers-of", str(root),
        "--seeds", *map(str, seeds), "--workloads", *workloads,
    ]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="the commit to compare with")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--answers-of", type=Path, help=argparse.SUPPRESS)  # one side, in a child
    args = parser.parse_args(argv)
    if args.answers_of is not None:
        print(json.dumps(answers(args.answers_of, args.seeds, args.workloads)))
        return 0
    with tempfile.TemporaryDirectory(prefix="answers_parent_") as tmp:
        sha = export(args.parent, Path(tmp))
        sides = [_side(root, args.seeds, args.workloads) for root in (Path(tmp), ROOT)]
        outputs = [side.communicate()[0] for side in sides]
        if any(side.returncode for side in sides):
            raise RuntimeError("a side's child process failed")
        old, new = map(json.loads, outputs)
    lines = report(old, new)
    changed = sum(not line.startswith(" ") for line in lines)
    print("\n".join(lines + [f"{changed} of {len(new)} answers differ from {sha[:12]}"]))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
