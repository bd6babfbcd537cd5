"""Per-layer spans recorded from outside gweave, and the metrics computed from them.

:meth:`Tracer.install` replaces every public function of each layer module by
a wrapper that records one span per call: name, start, end, parent span and
request id.  The wrapper is installed at every ``gweave`` module attribute
that holds the function, so a call made through a name another module
imported (``from .gframe import new_gframe``) is recorded too.  numpy's
``eigvalsh`` is wrapped at ``numpy.linalg``, the attribute gweave calls it
through.  Spans stay in memory until the process writes them out at exit.

A function that a refactor renamed or removed is simply not found; the
metrics that need it are reported as absent.  Untraced processes never import
this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Layer name -> module whose public functions form the layer.
LAYERS = {
    "_kernels": "gweave._kernels",
    "weaving": "gweave.weaving",
    "gframe": "gweave.gframe",
    "linalg": "gweave.linalg",
    "induced": "gweave.induced",
    "suite": "gweave.suite",
    "cli": "gweave.cli",
}
# Leaf functions outside gweave, wrapped by name.
LEAVES = {"numpy": ("numpy.linalg", ["eigvalsh"])}

ANALYSIS = (
    "gframe.optimal_bounds",
    "gframe.frame_operator",
    "gframe.is_g_exact",
    "gframe.is_g_riesz_basis",
    "gframe.is_g_orthonormal_basis",
    "gframe.classify",
    "gframe.canonical_dual",
    "gframe.is_dual_pair",
    "gframe.parseval_transform",
)
SCAN = "_kernels.weaving_scan"
SPECTRA = "_kernels.mask_spectra"
EIG = "numpy.eigvalsh"

# Metric -> (unit, spans it needs).  A needed entry is a span name, a layer
# name, or a tuple of span names of which any one suffices.  When a need is
# not met the metric is reported as absent.
PER_LAYER = {
    "kernels.scan_calls": ("count", [SCAN]),
    "kernels.scan_s": ("s", [SCAN]),
    "kernels.spectra_calls": ("count", [SPECTRA]),
    "kernels.spectra_s": ("s", [SPECTRA]),
    "kernels.masks_per_spectra_call": ("count", [SPECTRA]),
    "kernels.self_s": ("s", ["_kernels"]),
    "kernels.selections_certified": ("count", ["_kernels"]),
    "kernels.eig_per_selection": ("ratio", ["_kernels", EIG]),
    "kernels.time_share": ("ratio", ["_kernels"]),
    "numpy.eigvalsh_s": ("s", [EIG]),
    "numpy.eigvalsh_matrices": ("count", [EIG]),
    "weaving.self_s": ("s", ["weaving"]),
    "weaving.weave_calls": ("count", ["weaving.weave"]),
    "gframe.new_gframe_calls": ("count", ["gframe.new_gframe"]),
    "gframe.new_gframe_s": ("s", ["gframe.new_gframe"]),
    "gframe.block_grams_s": ("s", ["gframe.block_grams"]),
    "gframe.analysis_calls": ("count", [ANALYSIS]),
    "gframe.analysis_s": ("s", [ANALYSIS]),
    "linalg.calls": ("count", ["linalg"]),
    "linalg.self_s": ("s", ["linalg"]),
    "induced.self_s": ("s", ["induced"]),
    "induced.kernel_scans": ("count", ["induced", SCAN]),
    "suite.self_s": ("s", ["suite"]),
    "suite.kernel_scans": ("count", ["suite.run_suite", SCAN]),
    "cli.load_calls": ("count", ["cli.load_gframe"]),
    "cli.load_s": ("s", ["cli.load_gframe"]),
    "cli.self_s": ("s", ["cli.main"]),
    "trace.overhead_frac": ("ratio", []),
    "trace.request_s": ("s", []),
}


def _count_matrices(args, kwargs):
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    n = 1
    for k in shape[:-2]:
        n *= k
    return n


def _count_masks(args, kwargs):
    masks = args[2] if len(args) > 2 else kwargs.get("masks", ())
    return len(masks)


def _count_selections(args, kwargs):
    deltas = args[1] if len(args) > 1 else kwargs["deltas"]
    return 1 << deltas.shape[0]


COUNTERS = {EIG: _count_matrices, SPECTRA: _count_masks, SCAN: _count_selections}


class Tracer:
    """Span recorder for one process.

    A span is ``(name, start, end, parent, request, count)`` stored at its
    index in :attr:`spans`; ``parent`` is an index or -1.  ``count`` is the
    work a leaf call carried (matrices, masks or selections) or None.
    """

    def __init__(self, layers=None, leaves=None):
        self.layers = LAYERS if layers is None else layers
        self.leaves = LEAVES if leaves is None else leaves
        self.spans = []
        self.stack = [-1]
        self.request = "setup"
        self.found = set()

    def install(self) -> set:
        """Wrap every layer function found; returns the set of names found."""
        targets = []  # (span name, function, modules that hold it besides gweave's)
        for layer, modname in self.layers.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            self.found.add(layer)
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == modname
                ):
                    targets.append((f"{layer}.{attr}", fn, ()))
        for layer, (modname, names) in self.leaves.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            for attr in names:
                if hasattr(mod, attr):
                    targets.append((f"{layer}.{attr}", getattr(mod, attr), (mod,)))
        holders = [m for k, m in sys.modules.items() if k == "gweave" or k.startswith("gweave.")]
        for name, fn, extra in targets:
            self.found.add(name)
            self._replace(fn, self._wrap(fn, name), [*extra, *holders])
        return self.found

    @staticmethod
    def _replace(fn, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack
        count = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            n = count(args, kwargs) if count else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.request, n)

        return wrapper

    def begin(self, request) -> None:
        """Open the root span of one request."""
        self.request = request
        sid = len(self.spans)
        self.spans.append(("bench.request", time.perf_counter(), None, -1, request, None))
        self.stack.append(sid)

    def end(self) -> None:
        sid = self.stack.pop()
        name, start, _, parent, request, n = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter(), parent, request, n)
        self.request = None


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


# Bit flags a span inherits from its ancestors.
IN_SCAN, IN_SPECTRA, IN_KERNEL, IN_SUITE_RUN, IN_INDUCED = 1, 2, 4, 8, 16
# Kernel entry points whose time counts only at their outermost call.
OUTERMOST = {SCAN: IN_SCAN, SPECTRA: IN_SPECTRA}


def _flag_of(name: str) -> int:
    flag = IN_KERNEL if name.startswith("_kernels.") else 0
    if name == SCAN:
        flag |= IN_SCAN
    elif name == SPECTRA:
        flag |= IN_SPECTRA
    elif name == "suite.run_suite":
        flag |= IN_SUITE_RUN
    elif name.startswith("induced."):
        flag |= IN_INDUCED
    return flag


def aggregate(spans, counted, certifying) -> dict:
    """Raw sums over one process's spans.

    ``counted`` is the set of request ids whose spans count; spans of the
    ``"setup"`` request count for the load metrics only.  ``certifying`` is
    the subset whose answers cover every selection of their pair.
    """
    sums = defaultdict(float)
    selfs = self_times(spans)
    inherited = [0] * len(spans)
    for i, (name, start, end, parent, req, n) in enumerate(spans):
        above = inherited[parent] | _flag_of(spans[parent][0]) if parent >= 0 else 0
        inherited[i] = above
        if name == "cli.load_gframe" and (req in counted or req == "setup"):
            sums["load_calls"] += 1
            sums["load_s"] += end - start
        if req not in counted:
            continue
        layer = name.split(".", 1)[0]
        sums["self:" + layer] += selfs[i]
        sums["calls:" + layer] += 1
        sums["calls:" + name] += 1
        if not above & OUTERMOST.get(name, 0):
            sums["time:" + name] += end - start
        if name.startswith("_kernels.") and not above & IN_KERNEL:
            sums["kernel_s"] += end - start
        if name in ANALYSIS:
            sums["analysis_calls"] += 1
            sums["analysis_s"] += selfs[i]
        if n is not None:
            sums["work:" + name] += n
        if name == EIG and above & IN_KERNEL and req in certifying:
            sums["kernel_eig_certified"] += n
        if name == SCAN and above & IN_SUITE_RUN:
            sums["suite_scans"] += 1
        if name == SCAN and above & IN_INDUCED:
            sums["induced_scans"] += 1
    return sums


def per_layer_metrics(sums, found, certified: int, request_s: float, overhead: float) -> dict:
    """The per-layer metric table from summed aggregates; absent metrics say so."""
    sums = defaultdict(float, sums)
    spectra_calls = sums["calls:" + SPECTRA]
    suite_runs = sums["calls:suite.run_suite"]
    values = {
        "kernels.scan_calls": sums["calls:" + SCAN],
        "kernels.scan_s": sums["time:" + SCAN],
        "kernels.spectra_calls": spectra_calls,
        "kernels.spectra_s": sums["time:" + SPECTRA],
        "kernels.masks_per_spectra_call": sums["work:" + SPECTRA] / spectra_calls if spectra_calls else 0.0,
        "kernels.self_s": sums["self:_kernels"],
        "kernels.selections_certified": certified,
        "kernels.eig_per_selection": sums["kernel_eig_certified"] / certified if certified else 0.0,
        "kernels.time_share": sums["kernel_s"] / request_s if request_s else 0.0,
        "numpy.eigvalsh_s": sums["time:" + EIG],
        "numpy.eigvalsh_matrices": sums["work:" + EIG],
        "weaving.self_s": sums["self:weaving"],
        "weaving.weave_calls": sums["calls:weaving.weave"],
        "gframe.new_gframe_calls": sums["calls:gframe.new_gframe"],
        "gframe.new_gframe_s": sums["time:gframe.new_gframe"],
        "gframe.block_grams_s": sums["time:gframe.block_grams"],
        "gframe.analysis_calls": sums["analysis_calls"],
        "gframe.analysis_s": sums["analysis_s"],
        "linalg.calls": sums["calls:linalg"],
        "linalg.self_s": sums["self:linalg"],
        "induced.self_s": sums["self:induced"],
        "induced.kernel_scans": sums["induced_scans"],
        "suite.self_s": sums["self:suite"],
        "suite.kernel_scans": sums["suite_scans"] / suite_runs if suite_runs else 0.0,
        "cli.load_calls": sums["load_calls"],
        "cli.load_s": sums["load_s"],
        "cli.self_s": sums["self:cli"],
        "trace.overhead_frac": overhead,
        "trace.request_s": request_s,
    }
    out = {}
    for metric, (unit, needs) in PER_LAYER.items():
        missing = [
            need
            for need in needs
            if not (set(need) & found if isinstance(need, tuple) else need in found)
        ]
        if missing:
            out[metric] = {"value": None, "unit": unit, "absent": True}
        else:
            out[metric] = {"value": values[metric], "unit": unit}
    return out
