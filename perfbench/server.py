"""Serving child process: loads a workload's documents, then answers requests.

Started by ``run.py`` as ``python3 perfbench/server.py WORKDIR TRACE`` with
``PYTHONPATH`` pointing at the checkout's ``src``.  It imports gweave, loads
every document named in ``WORKDIR/manifest.json`` through
``gweave.cli.load_gframe`` and writes one ``ready`` line.  Then it reads one
JSON command per line on stdin and answers each with one JSON line:

* ``{"id": ..., "op": ..., "args": {...}}`` calls the public gweave function
  ``op`` on the loaded documents;
* ``{"exit": true}`` answers with the process's peak resident memory, writes
  the spans when traced, and exits.

With ``TRACE`` = 1 the wrappers of ``spans.py`` are installed before the
documents are loaded.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys

import numpy as np


def plain(obj):
    """JSON-ready form of a gweave report."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return None  # witness vectors are not checked
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def call(gweave, frames, op: str, args: dict):
    first, second = frames[args["first"]], frames[args["second"]]
    if op == "check_weaving_transfer":
        scale = args["scale"]
        spec_a = gweave.onb_families(first.block_rows, scale=scale)
        spec_b = gweave.onb_families(second.block_rows, scale=scale)
        return gweave.check_weaving_transfer(first, second, spec_a, spec_b)
    extra = {k: v for k, v in args.items() if k not in ("first", "second")}
    return getattr(gweave, op)(first, second, **extra)


def main(argv) -> int:
    workdir, traced = argv[0], argv[1] == "1"
    out = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr  # nothing but protocol lines on the pipe
    import gweave

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        found = sorted(tracer.install())
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    frames = {
        name: gweave.cli.load_gframe(os.path.join(workdir, name + ".json"))
        for name in manifest["documents"]
    }
    kernels = getattr(gweave, "_kernels", None)
    backend = kernels.backend() if hasattr(kernels, "backend") else None
    ready = {"ready": True, "gweave": os.path.abspath(gweave.__file__), "backend": backend}
    print(json.dumps(ready), file=out, flush=True)

    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("exit"):
            if tracer is not None:
                with open(os.path.join(workdir, "spans-server.json"), "w", encoding="utf-8") as fh:
                    json.dump({"found": found, "spans": tracer.spans}, fh)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"maxrss_kb": rss}), file=out, flush=True)
            return 0
        if tracer is not None:
            tracer.begin(msg["id"])
        try:
            reply = {"id": msg["id"], "result": plain(call(gweave, frames, msg["op"], msg["args"]))}
        except Exception as exc:  # a failed request is reported, the server keeps serving
            reply = {"id": msg["id"], "error": f"{type(exc).__name__}: {exc}"}
        finally:
            if tracer is not None:
                tracer.end()
        print(json.dumps(reply), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
