"""gweave benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {scan,search,battery} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The client writes the workload's inputs as
``gweave/1`` documents under ``.perfbench_work/``, starts a serving child
process (``server.py``) that imports gweave from ``src/`` and loads them, and
sends the workload's fixed request list one request at a time, the next only
after the previous answer arrived.  CLI requests run ``python -m gweave.cli``
as a fresh child, again one at a time.  Every answer is checked against
``oracle.py`` after the timed loop.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` runs the list once untraced and once with the span
wrappers of ``spans.py``, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it name every metric with its unit
and record the machine.  Results, and the spans of traced runs, are also
written under ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere, parent and children, on every commit measured.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import copy  # noqa: E402
import gzip  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Setups per run (setup_s is their median) and the smallest request count
# per run, so that the 90th percentile has at least ten samples beyond it.
PLANS = {"full": {"setups": 9, "min_requests": 100}, "tiny": {"setups": 1, "min_requests": 1}}
# Seconds between two set-up samples taken during the timed passes.
SETUP_EVERY_S = 2.0
# No new pass or request starts after this many seconds of a run.
RUN_LIMIT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("PYTHONHOME", None)
    return env


class Server:
    """One serving child; its set-up time runs from spawn to its ready line."""

    def __init__(self, workdir: Path, traced: bool):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), str(workdir), "1" if traced else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise BenchError("the serving process exited before it was ready")
        self.ready = json.loads(line)
        if not Path(self.ready["gweave"]).resolve().is_relative_to(SRC.resolve()):
            self.close()
            raise BenchError(f"gweave was imported from {self.ready['gweave']}, not {SRC}")

    def call(self, message: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return {"error": "serving process is gone"}
        line = self.proc.stdout.readline()
        return json.loads(line) if line else {"error": "serving process died"}

    def close(self) -> int:
        """Stop the child and return its peak resident memory in KiB."""
        reply = {}
        if self.proc.poll() is None:
            reply = self.call({"exit": True})
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return max(reply.get("maxrss_kb", 0), usage.ru_maxrss)


class SetupSampler:
    """Set-up times of fresh serving processes, spread over the run.

    The benchmark machine (a 2-vCPU Xeon VM) switches between speed states
    for seconds at a time: set-ups taken back to back read either about
    0.18 s or about 0.28 s together.  Samples spread over the run see the
    same mix of states as the timed requests.  The time they take is not
    part of any timed interval.
    """

    def __init__(self, workdir: Path, count: int):
        self.workdir = workdir
        self.count = count
        self.samples = []
        self.spent = 0.0
        self.last = -math.inf

    def add(self, setup_s: float) -> None:
        self.samples.append(setup_s)
        self.last = time.perf_counter()

    def take(self) -> None:
        start = time.perf_counter()
        server = Server(self.workdir, traced=False)
        server.close()
        self.add(server.setup_s)
        self.spent += time.perf_counter() - start

    def maybe_take(self) -> None:
        if len(self.samples) < self.count and time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.take()

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self.take()


@dataclass
class Answer:
    request: object
    rid: str
    latency: float
    result: object = None  # in-process result, or (exit code, stdout) of a CLI child
    error: str = None


class Client:
    """Closed loop with one client: each request waits for the previous answer."""

    def __init__(self, workdir: Path, server: Server, traced: bool = False):
        self.workdir = workdir
        self.server = server
        self.traced = traced
        self.cli_spans = []  # (request id, spans written by a traced CLI child)
        self.cli_rss_kb = 0

    def send(self, request, rid: str) -> Answer:
        if request.is_cli:
            return self._cli(request, rid)
        start = time.perf_counter()
        reply = self.server.call({"id": rid, "op": request.op, "args": request.args})
        latency = time.perf_counter() - start
        return Answer(request, rid, latency, reply.get("result"), reply.get("error"))

    def _cli(self, request, rid: str) -> Answer:
        argv = [a[1:] + ".json" if a.startswith("@") else a for a in request.args["argv"]]
        spans_path = self.workdir / "spans-cli.json"
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), rid, *argv]
        else:
            cmd = [sys.executable, "-m", "gweave.cli", *argv]
        out_path, err_path = self.workdir / "cli.out", self.workdir / "cli.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=str(self.workdir))
            _, status, usage = os.wait4(proc.pid, 0)
            latency = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.cli_rss_kb = max(self.cli_rss_kb, usage.ru_maxrss)
        stdout = out_path.read_text(encoding="utf-8")
        error = None
        if code not in (0, 1, 2):
            error = f"exit code {code}: {err_path.read_text(encoding='utf-8')[-500:]}"
        if self.traced and spans_path.exists():
            self.cli_spans.append((rid, json.loads(spans_path.read_text(encoding="utf-8"))))
            spans_path.unlink()
        return Answer(request, rid, latency, (code, stdout), error)


def add_sums(total: dict, part: dict) -> None:
    for k, v in part.items():
        total[k] = total.get(k, 0.0) + v


def write_inputs(workload, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, fam in workload.documents.items():
        (workdir / f"{name}.json").write_text(json.dumps(fam.document()), encoding="utf-8")
    manifest = {"documents": sorted(workload.documents)}
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def warmup_requests(requests) -> list:
    """The first request of each operation, run before timing starts."""
    seen, out = set(), []
    for r in requests:
        if r.op not in seen:
            seen.add(r.op)
            out.append(r)
    return out


def serve(client, requests, seconds: float, min_requests: int, deadline: float, prefix: str, setups):
    """A warm-up, then whole timed passes over the list until ``seconds`` passed
    and enough requests ran.  Set-up samples are taken between requests and
    their time is left out.  Returns the warm-up answers, the timed answers
    and the timed wall time."""
    warm = [client.send(r, f"w-{k}") for k, r in enumerate(warmup_requests(requests))]
    answers, elapsed, passes = [], 0.0, 0
    while passes == 0 or elapsed < seconds or len(answers) < min_requests:
        if time.perf_counter() > deadline:
            break
        start, spent = time.perf_counter(), setups.spent
        for k, request in enumerate(requests):
            if time.perf_counter() > deadline:
                break
            answers.append(client.send(request, f"{prefix}{passes}-{k}"))
            setups.maybe_take()
        elapsed += time.perf_counter() - start - (setups.spent - spent)
        passes += 1
    return warm, answers, elapsed


def _perturb(obj) -> bool:
    """Change one value the oracle checks, in place, as a wrong answer would."""
    if isinstance(obj, dict):
        for key in ("lower", "holds", "passed", "verdict", "entries_real"):
            if key in obj:
                v = obj[key]
                if isinstance(v, bool):
                    obj[key] = not v
                elif isinstance(v, list):
                    v[0] += 0.5
                else:
                    obj[key] = v + 0.5 * max(1.0, abs(v))
                return True
        return any(_perturb(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_perturb(v) for v in obj)
    return False


def corrupt(answer: Answer) -> Answer:
    wrong = copy.deepcopy(answer)
    if answer.request.is_cli:
        code, stdout = wrong.result
        doc = json.loads(stdout)
        _perturb(doc)
        wrong.result = (code, json.dumps(doc))
    else:
        _perturb(wrong.result)
    return wrong


def _universal_answer(result: dict) -> dict:
    report = result.get("report", result)
    ans = {
        "lower": report["lower"],
        "upper": report["upper"],
        "argmin": report["argmin"]["mask"],
        "argmax": report["argmax"]["mask"],
        "woven": result["woven"],
        "threshold": report["threshold"],
    }
    if "certificate" in result:
        ans["certificate"] = result["certificate"]["mask"]
    return ans


def check_answers(answers, workload, seed: int, inject=None) -> list:
    """One list of problems per answer; an empty list is a correct answer."""
    import numpy as np
    import oracle

    pairs = {}

    def pair_oracle(a, b):
        if (a, b) not in pairs:
            pairs[(a, b)] = oracle.PairOracle(workload.documents[a], workload.documents[b])
        return pairs[(a, b)]

    rng = np.random.default_rng([seed, 99])
    verdicts = []
    for k, ans in enumerate(answers):
        if k == inject:
            ans = corrupt(ans)
        req = ans.request
        if ans.error:
            verdicts.append([ans.error])
            continue
        chk = req.check
        try:
            if req.is_cli:
                code, stdout = ans.result
                problems = oracle.check_cli(req, code, stdout, workload.documents, pair_oracle, rng)
            elif chk["kind"] == "universal":
                problems = oracle.check_universal(
                    pair_oracle(*chk["pair"]),
                    _universal_answer(ans.result),
                    req.certifies,
                    chk["declared"],
                    rng,
                )
            elif chk["kind"] == "transfer":
                problems = oracle.check_transfer(pair_oracle(*chk["pair"]), ans.result, chk["scale"])
            else:
                result = dict(ans.result)
                if result["witness"] is not None:
                    result["witness"] = result["witness"]["mask"]
                problems = oracle.check_basis(pair_oracle(*chk["pair"]), result, chk["kind"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed answer: {type(exc).__name__}: {exc}"]
        verdicts.append(problems)
    return verdicts


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine_record(backend) -> dict:
    import numpy

    import gweave

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")}
        lapack = {k: deps["lapack"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = lapack = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "lapack": lapack,
        "blas_threads": int(BLAS_THREADS),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "gweave": getattr(gweave, "__version__", None),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": backend,
        "timers": (
            "process-level only: time.perf_counter wall time and getrusage peak RSS;"
            " no hardware counters and no machine-wide tracing"
        ),
    }


def _tally(answers, verdicts):
    failed = [(a, v) for a, v in zip(answers, verdicts) if v]
    for a, v in failed[:5]:
        print(f"FAILED {a.rid} {a.request.op}: {'; '.join(v)[:300]}", file=sys.stderr)
    return len(answers), len(failed)


def measure(workload, workdir: Path, seed: int, seconds: float, plan: dict, inject, deadline):
    """Untraced run: timed whole passes, with set-ups sampled along the way."""
    setups = SetupSampler(workdir, plan["setups"])
    server = Server(workdir, traced=False)
    setups.add(server.setup_s)
    try:
        client = Client(workdir, server)
        warm, timed, elapsed = serve(
            client, workload.requests, seconds, plan["min_requests"], deadline, "p", setups
        )
    finally:
        rss_kb = server.close()
    setups.finish()
    rss_kb = max(rss_kb, client.cli_rss_kb)
    answers = warm + timed
    verdicts = check_answers(answers, workload, seed, inject)
    attempted, failed = _tally(answers, verdicts)
    latencies = [a.latency for a in timed]
    metrics = {
        "setup_s": {"value": statistics.median(setups.samples), "unit": "s"},
        "requests_per_s": {"value": len(timed) / elapsed, "unit": "1/s"},
        "latency_p50_s": {"value": percentile(latencies, 0.5), "unit": "s"},
        "latency_p90_s": {"value": percentile(latencies, 0.9), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
    }
    extra = {
        "failed_frac": failed / attempted,
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > metrics["latency_p90_s"]["value"]),
        "setup_samples": setups.samples,
        "timed_wall_s": elapsed,
    }
    return metrics, attempted, failed, extra, server.ready.get("backend")


def traced(workload, workdir: Path, seed: int, plan: dict, inject, deadline, out_dir: Path, tag: str):
    """The request list untraced, then traced; per-layer metrics from the spans."""
    import spans

    runs = []
    for is_traced in (False, True):
        server = Server(workdir, traced=is_traced)
        client = Client(workdir, server, traced=is_traced)
        try:
            warm, timed, _ = serve(
                client,
                workload.requests,
                0,
                plan["min_requests"],
                deadline,
                "t" if is_traced else "u",
                SetupSampler(workdir, count=0),
            )
        finally:
            server.close()
        runs.append((client, warm + timed, timed))
    (_, answers_u, timed_u), (client, answers_t, timed) = runs
    # Overhead compares the same requests, even if the deadline cut a pass short.
    k = min(len(timed_u), len(timed))
    untraced_wall = sum(a.latency for a in timed_u[:k])
    traced_wall = sum(a.latency for a in timed[:k])

    server_spans = json.loads((workdir / "spans-server.json").read_text(encoding="utf-8"))
    processes = [("server", server_spans)] + client.cli_spans
    counted = {a.rid for a in timed}
    certifying = {a.rid for a in timed if a.request.certifies}
    sums, found = {}, set()
    for _, data in processes:
        found |= set(data["found"])
        add_sums(sums, spans.aggregate(data["spans"], counted, certifying))
    with gzip.open(out_dir / f"{tag}-spans.jsonl.gz", "wt", encoding="utf-8") as fh:
        for process, data in processes:
            for i, span in enumerate(data["spans"]):
                fh.write(json.dumps([process, i, *span]) + "\n")

    all_answers = answers_u + answers_t
    verdicts = check_answers(all_answers, workload, seed, inject)
    attempted, failed = _tally(all_answers, verdicts)
    certified = sum(a.request.certifies for a in timed)
    metrics = spans.per_layer_metrics(
        sums, found, certified, sum(a.latency for a in timed), traced_wall / untraced_wall - 1.0
    )
    extra = {"failed_frac": failed / attempted, "untraced_wall_s": untraced_wall}
    return metrics, attempted, failed, extra, server.ready.get("backend")


def run_workload(name, seed, seconds, trace, size="full", inject=None) -> tuple:
    """Run one workload; return the result printed as the last line, and the
    full record written under ``.perfbench_out/``."""
    start = time.perf_counter()
    if not (SRC / "gweave" / "__init__.py").is_file():
        raise BenchError(f"no gweave source under {SRC}")
    for p in (str(HERE), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import gweave
    import workloads

    if not Path(gweave.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gweave was imported from {gweave.__file__}, not {SRC}")

    plan = PLANS[size]
    workload = workloads.build(name, seed, size)
    tag = f"{name}-seed{seed}-trace{trace}-{size}"
    workdir = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    deadline = start + RUN_LIMIT_S
    write_inputs(workload, workdir)
    try:
        if trace:
            metrics, attempted, failed, extra, backend = traced(
                workload, workdir, seed, plan, inject, deadline, out_dir, tag
            )
        else:
            metrics, attempted, failed, extra, backend = measure(
                workload, workdir, seed, seconds, plan, inject, deadline
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "requests_in_list": len(workload.requests),
        "machine": machine_record(backend),
        "run_wall_s": time.perf_counter() - start,
        **extra,
        "result": result,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gweave benchmark")
    parser.add_argument("--workload", required=True, choices=["scan", "search", "battery"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(f"failed_frac = {record['failed_frac']!r} ratio ({result['failed']} of {result['attempted']})")
    if "latency_samples" in record:
        print(
            f"latency samples = {record['latency_samples']},"
            f" beyond p90 = {record['samples_beyond_p90']}"
        )
    for metric, m in result["metrics"].items():
        shown = "absent" if m.get("absent") else repr(m["value"])
        print(f"{metric} = {shown} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
