"""Seeded inputs for the benchmark workloads ``scan``, ``search`` and ``battery``.

Every size in a workload is fixed: the seed draws matrix entries, block row
counts, search seeds and request order, never the shape of the work.  Runs on
different seeds therefore cost about the same, which keeps the spread of the
end-to-end figures across seeds small.

A workload is a list of documents (families written as ``gweave/1`` JSON) and
a fixed list of requests.  In-process requests name a public ``gweave``
function and the documents it takes; CLI requests carry a ``python -m
gweave.cli`` argument list in which ``@name`` stands for a document path.
Each request also carries what the oracle needs to check its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Family:
    """A block family as plain arrays, kept by the client for the oracle."""

    dim: int
    blocks: tuple

    @property
    def n(self) -> int:
        return len(self.blocks)

    @property
    def is_complex(self) -> bool:
        return any(np.iscomplexobj(b) for b in self.blocks)

    @property
    def rows(self) -> tuple:
        return tuple(b.shape[0] for b in self.blocks)

    def document(self) -> dict:
        mode = "complex" if self.is_complex else "real"
        ops = []
        for i, b in enumerate(self.blocks):
            op = {
                "label": f"block-{i + 1}",
                "rows": int(b.shape[0]),
                "entries_real": np.real(b).ravel().tolist(),
            }
            if mode == "complex":
                op["entries_imag"] = np.imag(b).ravel().tolist()
            ops.append(op)
        return {
            "schema_version": "gweave/1",
            "scalar_mode": mode,
            "domain_dim": self.dim,
            "operators": ops,
        }


@dataclass
class Request:
    """One closed-loop request.

    ``op`` is a public gweave function name, or ``"cli"`` for a command run
    in a fresh child process.  ``certifies`` is ``2**n`` for requests whose
    answer must cover every selection of an n-block pair, else 0.
    """

    op: str
    args: dict
    check: dict
    certifies: int = 0

    @property
    def is_cli(self) -> bool:
        return self.op == "cli"


@dataclass
class Workload:
    name: str
    documents: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)

    def add_pair(self, key: str, first: Family, second: Family) -> tuple:
        self.documents[key + "a"] = first
        self.documents[key + "b"] = second
        return key + "a", key + "b"


def _random_family(rng, n: int, d: int, complex_: bool, max_rows: int = 3) -> Family:
    blocks = []
    for _ in range(n):
        r = int(rng.integers(0, max_rows + 1))
        b = rng.standard_normal((r, d))
        if complex_:
            b = b + 1j * rng.standard_normal((r, d))
        blocks.append(b)
    return Family(d, tuple(blocks))


def _suite_pair(example) -> tuple:
    def plain(frame):
        return Family(frame.domain_dim, tuple(np.array(b) for b in frame.blocks))

    return plain(example.first), plain(example.second)


# (n, d, complex, pairs).  Each pair is asked twice: once through is_woven and
# once through universal_bounds_exhaustive.
SCAN_RANDOM = {
    "full": [
        (12, 4, False, 7), (12, 4, True, 4), (12, 8, False, 4), (12, 8, True, 3),
        (12, 16, False, 2), (12, 16, True, 1), (13, 6, False, 3), (13, 6, True, 2),
        (14, 4, False, 3), (14, 4, True, 2), (14, 8, False, 2), (14, 8, True, 1),
        (15, 4, False, 2), (15, 4, True, 1), (16, 4, False, 2), (16, 4, True, 1),
        (16, 8, False, 1), (18, 4, False, 1),
    ],
    "tiny": [(8, 3, False, 2), (8, 3, True, 1)],
}
# (construction name, size argument).  Exactly tied constructions with declared
# universal bounds.
SCAN_TIED = {
    "full": [
        ("window", 12), ("window", 14), ("window", 16),
        ("scaled_split", 12), ("scaled_split", 14),
        ("shifted", 12), ("shifted", 14),
        ("duplicate_vs_split", 4), ("duplicate_vs_split", 6),
    ],
    "tiny": [("window", 8), ("scaled_split", 9), ("shifted", 8), ("duplicate_vs_split", 2)],
}


def _tied(kind: str, size: int):
    from gweave import suite

    constructions = {
        "window": suite.build_window_pair,
        "scaled_split": suite.build_scaled_split_pair,
        "shifted": suite.build_shifted_projection_pair,
        "duplicate_vs_split": suite.build_duplicate_vs_split_pair,
    }
    ex = constructions[kind](size)
    first, second = _suite_pair(ex)
    if kind == "shifted":
        declared = {"woven": False, "certificate_mask": 1}
    else:
        declared = {"universal": [float(v) for v in ex.expected["universal"]]}
    return first, second, declared


def build_scan(seed: int, size: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    w = Workload("scan")
    pairs = []
    for n, d, cx, count in SCAN_RANDOM[size]:
        for _ in range(count):
            key = f"r{len(pairs):03d}"
            first = _random_family(rng, n, d, cx)
            second = _random_family(rng, n, d, cx)
            pairs.append((w.add_pair(key, first, second), n, {}))
    for kind, size_arg in SCAN_TIED[size]:
        first, second, declared = _tied(kind, size_arg)
        key = f"t{len(pairs):03d}"
        pairs.append((w.add_pair(key, first, second), first.n, declared))
    for (a, b), n, declared in pairs:
        check = {"kind": "universal", "pair": [a, b], "declared": declared}
        w.requests.append(
            Request("is_woven", {"first": a, "second": b}, check, certifies=1 << n)
        )
        w.requests.append(
            Request(
                "universal_bounds_exhaustive",
                {"first": a, "second": b},
                check,
                certifies=1 << n,
            )
        )
    rng.shuffle(w.requests)
    return w


# (n, d, complex, budget, pairs).  Each pair is asked twice, through
# universal_bounds_search and is_woven(strategy="search"), with two seeds.
# The small pairs have budget >= 2**n, so the answer must equal the
# exhaustive report.
SEARCH_PAIRS = {
    "full": [
        (24, 6, False, 8, 6), (24, 6, False, 16, 5), (24, 8, False, 16, 4),
        (24, 12, False, 8, 4), (28, 6, False, 16, 4), (32, 6, False, 16, 3),
        (32, 8, False, 8, 4), (36, 6, False, 8, 3), (40, 6, False, 8, 3),
        (30, 8, False, 16, 2), (24, 6, True, 16, 3), (28, 8, True, 8, 3),
        (6, 4, False, 64, 2), (7, 4, False, 128, 2), (8, 6, False, 256, 2),
    ],
    "tiny": [(14, 4, False, 4, 2), (16, 4, True, 4, 1), (5, 3, False, 32, 1)],
}


def build_search(seed: int, size: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    w = Workload("search")
    for n, d, cx, budget, count in SEARCH_PAIRS[size]:
        for _ in range(count):
            key = f"s{len(w.documents) // 2:03d}"
            a, b = w.add_pair(
                key, _random_family(rng, n, d, cx), _random_family(rng, n, d, cx)
            )
            certifies = 1 << n if budget >= 1 << n else 0
            s1, s2 = (int(x) for x in rng.integers(0, 2**31, size=2))
            check = {"kind": "universal", "pair": [a, b], "declared": {}}
            w.requests.append(
                Request(
                    "universal_bounds_search",
                    {"first": a, "second": b, "budget": budget, "seed": s1},
                    check,
                    certifies,
                )
            )
            w.requests.append(
                Request(
                    "is_woven",
                    {
                        "first": a,
                        "second": b,
                        "strategy": "search",
                        "budget": budget,
                        "seed": s2,
                    },
                    check,
                    certifies,
                )
            )
    rng.shuffle(w.requests)
    return w


def _orthogonal(rng, d: int, complex_: bool) -> np.ndarray:
    a = rng.standard_normal((d, d))
    if complex_:
        a = a + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _row_split(rng, n: int) -> list:
    """Row counts of 1 or 2 per block, the last two blocks equal."""
    rows = [int(x) for x in rng.integers(1, 3, size=n)]
    rows[-1] = rows[-2]
    return rows


def _blocks_of(matrix: np.ndarray, rows) -> list:
    out, start = [], 0
    for r in rows:
        out.append(matrix[start : start + r].copy())
        start += r
    return out


def _basis_pair(rng, n: int, complex_: bool, kind: str, fail_late: bool):
    """A pair whose every weaving is an orthonormal or Riesz basis.

    The first family splits the rows of a random unitary into blocks; the
    second rotates each block inside its own span, plus, for ``riesz``, a
    small perturbation.  ``fail_late`` breaks only the weavings that take the
    last block (``onb``: scaled by 1.1) or the last two blocks (``riesz``: a
    duplicated block) from the first family, so the scan runs half or three
    quarters of the way before it finds the first failing selection.
    """
    rows = _row_split(rng, n)
    d = sum(rows)
    first = _blocks_of(_orthogonal(rng, d, complex_), rows)
    second = []
    for b in first:
        second.append(_orthogonal(rng, b.shape[0], complex_) @ b)
    if kind == "riesz":
        for i, b in enumerate(second):
            noise = rng.standard_normal(b.shape)
            second[i] = b + 0.02 * noise
        if fail_late:
            first[-1] = first[-2].copy()
    elif fail_late:
        first[-1] = 1.1 * first[-1]
    return Family(d, tuple(first)), Family(d, tuple(second))


def _frame_family(rng, n: int, d: int, complex_: bool) -> Family:
    """A random family with 1-3 rows per block and at least d rows, so a frame."""
    while True:
        f = _random_family(rng, n, d, complex_)
        if sum(f.rows) >= d and all(r > 0 for r in f.rows):
            return f


# (op, n, complex, fail_late, count) for the in-process per-selection requests.
BATTERY_BASIS = {
    "full": [
        ("is_weaving_g_riesz", 10, False, False, 5), ("is_weaving_g_riesz", 10, True, False, 2),
        ("is_weaving_g_riesz", 11, False, False, 1), ("is_weaving_g_riesz", 12, False, False, 1),
        ("is_weaving_g_riesz", 10, False, True, 6), ("is_weaving_g_riesz", 12, False, True, 1),
        ("is_weaving_g_onb", 10, False, False, 3), ("is_weaving_g_onb", 10, True, False, 1),
        ("is_weaving_g_onb", 10, False, True, 5), ("is_weaving_g_onb", 11, False, True, 1),
    ],
    "tiny": [
        ("is_weaving_g_riesz", 5, False, False, 1), ("is_weaving_g_riesz", 5, True, True, 1),
        ("is_weaving_g_onb", 5, False, False, 1), ("is_weaving_g_onb", 5, False, True, 1),
    ],
}
# (n, d, complex, count) for check_weaving_transfer requests.  The n = 12
# class spans the median request, so latency_p50_s sits inside one class of
# similar requests rather than on a gap between two.
BATTERY_TRANSFER = {
    "full": [(10, 4, False, 20), (11, 6, True, 10), (12, 6, False, 30)],
    "tiny": [(5, 3, False, 2)],
}
BATTERY_CLI = {
    "full": {"family": (8, 6), "woven": [10, 12], "search": (12, 16), "suite": [1.0, 1.5]},
    "tiny": {"family": (4, 3), "woven": [5], "search": (6, 4), "suite": [1.0]},
}


def build_battery(seed: int, size: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    w = Workload("battery")

    for op, n, cx, fail_late, count in BATTERY_BASIS[size]:
        kind = "riesz" if op == "is_weaving_g_riesz" else "onb"
        for _ in range(count):
            key = f"b{len(w.documents) // 2:03d}"
            a, b = w.add_pair(key, *_basis_pair(rng, n, cx, kind, fail_late))
            w.requests.append(
                Request(op, {"first": a, "second": b}, {"kind": kind, "pair": [a, b]})
            )

    for n, d, cx, count in BATTERY_TRANSFER[size]:
        for _ in range(count):
            key = f"x{len(w.documents) // 2:03d}"
            a, b = w.add_pair(
                key, _random_family(rng, n, d, cx), _random_family(rng, n, d, cx)
            )
            scale = float(rng.choice([0.5, 2.0, 3.0]))
            w.requests.append(
                Request(
                    "check_weaving_transfer",
                    {"first": a, "second": b, "scale": scale},
                    {"kind": "transfer", "pair": [a, b], "scale": scale},
                )
            )

    cli = BATTERY_CLI[size]
    n, d = cli["family"]
    fam = _frame_family(rng, n, d, False)
    cfam = _frame_family(rng, n, d, True)
    w.documents["family"] = fam
    w.documents["cfamily"] = cfam
    q = _orthogonal(rng, d, False)
    w.documents["onb"] = Family(d, tuple(_blocks_of(q, [1] * d)))
    s = sum(np.conj(b).T @ b for b in fam.blocks)
    s_inv = np.linalg.inv(s)
    w.documents["family_dual"] = Family(d, tuple(b @ s_inv for b in fam.blocks))

    def cli_request(argv, check, certifies=0):
        w.requests.append(Request("cli", {"argv": argv}, check, certifies))

    cli_request(["bounds", "@family", "--json"], {"kind": "cli_bounds", "doc": "family"})
    cli_request(["bounds", "@cfamily", "--json"], {"kind": "cli_bounds", "doc": "cfamily"})
    for kind in ("frame", "exact", "riesz"):
        cli_request(
            ["check", "@family", kind, "--json"],
            {"kind": "cli_check", "doc": "family", "what": kind},
        )
    cli_request(["check", "@onb", "onb", "--json"], {"kind": "cli_check", "doc": "onb", "what": "onb"})
    cli_request(
        ["check", "@family", "dual", "--with", "@family_dual", "--json"],
        {"kind": "cli_check", "doc": "family", "what": "dual"},
    )
    cli_request(["dual", "@family"], {"kind": "cli_dual", "doc": "family"})
    cli_request(["transform-parseval", "@cfamily"], {"kind": "cli_parseval", "doc": "cfamily"})
    for n_w in cli["woven"]:
        key = f"w{n_w}"
        a, b = w.add_pair(
            key, _random_family(rng, n_w, 4, False), _random_family(rng, n_w, 4, False)
        )
        cli_request(
            ["woven", "@" + a, "@" + b, "--json"],
            {"kind": "universal", "pair": [a, b], "declared": {}, "cli": True},
            certifies=1 << n_w,
        )
    n_s, budget = cli["search"]
    a, b = w.add_pair(
        "ws", _random_family(rng, n_s, 4, True), _random_family(rng, n_s, 4, True)
    )
    cli_request(
        ["woven", "@" + a, "@" + b, "--search", str(budget), "--seed", str(seed % 1000), "--json"],
        {"kind": "universal", "pair": [a, b], "declared": {}, "cli": True},
    )
    for scale in cli["suite"]:
        cli_request(
            ["paper-suite", "--dim-scale", str(scale), "--json"], {"kind": "cli_suite"}
        )
    rng.shuffle(w.requests)
    return w


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's documents and fixed request list for one seed."""
    by_name = {"scan": build_scan, "search": build_search, "battery": build_battery}
    return by_name[name](seed, size)
