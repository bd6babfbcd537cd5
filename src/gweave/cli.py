"""File format and command-line surface; the only module that touches I/O.

Families are stored as JSON documents (schema ``gweave/1``) with one flat
row-major entries array per operator, split into real and imaginary parts so
that round-trips are bit exact and diffs stay readable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import GWeaveError, ParseError, SchemaError
from .gframe import (
    DEFAULT_TOL,
    GFrame,
    _check_tol,
    _check_type,
    canonical_dual,
    classify,
    is_dual_pair,
    is_g_exact,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
    parseval_transform,
)

SCHEMA_VERSION = "gweave/1"


def _schema_require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


# The types json gives a number.  ``true`` and ``false`` parse to bool, which
# isinstance counts as int, so the checks below compare exact types.
_NUMBER_TYPES = {int, float}


def _entries(values: list, label: str, name: str) -> np.ndarray:
    """Matrix entries as float64; each must be a JSON number."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        bad = next(x for x in values if type(x) not in _NUMBER_TYPES)
        raise SchemaError(f"operator {label!r}: {name} holds {bad!r}, which is not a number")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise SchemaError(f"operator {label!r}: {name} holds an integer beyond float64")


def document_to_gframe(doc: dict) -> GFrame:
    """Validate a parsed JSON document and build the family it describes."""
    _schema_require(isinstance(doc, dict), "top level must be a JSON object")
    _schema_require(
        doc.get("schema_version") == SCHEMA_VERSION,
        f"schema_version must be {SCHEMA_VERSION!r}, got {doc.get('schema_version')!r}",
    )
    mode = doc.get("scalar_mode")
    _schema_require(mode in ("real", "complex"), f"scalar_mode must be real or complex, got {mode!r}")
    d = doc.get("domain_dim")
    _schema_require(type(d) is int and d >= 1, f"domain_dim must be a positive integer, got {d!r}")
    ops = doc.get("operators")
    _schema_require(isinstance(ops, list) and ops, "operators must be a non-empty list")
    blocks = []
    labels = []
    for i, op in enumerate(ops):
        _schema_require(isinstance(op, dict), f"operator {i + 1} must be an object")
        label = op.get("label", f"block-{i + 1}")
        _schema_require(isinstance(label, str), f"operator {i + 1} label must be a string")
        rows = op.get("rows")
        _schema_require(
            type(rows) is int and rows >= 0,
            f"operator {label!r}: rows must be a non-negative integer",
        )
        re_part = op.get("entries_real")
        _schema_require(
            isinstance(re_part, list),
            f"operator {label!r}: entries_real must be a list",
        )
        _schema_require(
            len(re_part) == rows * d,
            f"operator {label!r}: entries_real has {len(re_part)} entries,"
            f" expected rows*domain_dim = {rows * d}",
        )
        im_part = op.get("entries_imag")
        if mode == "complex":
            _schema_require(
                isinstance(im_part, list) and len(im_part) == rows * d,
                f"operator {label!r}: entries_imag must be a list of length {rows * d}"
                " in complex mode",
            )
        else:
            _schema_require(
                im_part is None,
                f"operator {label!r}: entries_imag is only allowed in complex mode",
            )
        block = _entries(re_part, label, "entries_real").reshape(rows, d)
        if mode == "complex":
            block = block + 1j * _entries(im_part, label, "entries_imag").reshape(rows, d)
        blocks.append(block)
        labels.append(label)
    return new_gframe(d, blocks, labels=tuple(labels))


def gframe_to_document(frame: GFrame) -> dict:
    _check_type(frame, GFrame, "the frame")
    mode = "complex" if np.iscomplexobj(frame.blocks[0]) else "real"
    ops = []
    for i, b in enumerate(frame.blocks):
        entry = {
            "label": frame.label(i),
            "rows": int(b.shape[0]),
            "entries_real": np.real(b).ravel().tolist(),
        }
        if mode == "complex":
            entry["entries_imag"] = np.imag(b).ravel().tolist()
        ops.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "scalar_mode": mode,
        "domain_dim": frame.domain_dim,
        "operators": ops,
    }


def load_gframe(path: str) -> GFrame:
    """Load and validate a family document; no partial results escape a failure."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}")

    def reject_constant(literal: str):
        raise SchemaError(f"{path}: {literal} is not a finite number")

    try:
        doc = json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply")
    return document_to_gframe(doc)


def save_gframe(frame: GFrame, path: str):
    text = dumps_document(gframe_to_document(frame))
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}")


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def _vector_fields(x: np.ndarray) -> dict:
    return {
        "real": np.real(x).tolist(),
        "imag": np.imag(x).tolist(),
    }


def _selection_fields(sel) -> dict:
    return {"indices": list(sel.indices), "bitmask": sel.bitmask_string()}


def _report_document(command: str, paths, results: dict, tolerances: dict, started: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in paths],
        "results": results,
        "tolerances": tolerances,
        "timing_seconds": time.perf_counter() - started,
    }


def _emit(args, doc: dict, lines):
    if args.json:
        print(dumps_document(doc))
    else:
        for line in lines:
            print(line)


def _cmd_bounds(args) -> int:
    started = time.perf_counter()
    frame = load_gframe(args.path)
    rep = optimal_bounds(frame, args.tol)
    results = {
        "lower": rep.lower,
        "upper": rep.upper,
        "is_g_frame": rep.is_frame,
        "witness_low": _vector_fields(rep.witness_low),
        "witness_high": _vector_fields(rep.witness_high),
    }
    doc = _report_document("bounds", [args.path], results, {"tol": args.tol}, started)

    def fmt_vec(x):
        return "[" + ", ".join(f"{v:.6g}" for v in np.real_if_close(x)) + "]"

    _emit(
        args,
        doc,
        [
            f"lower bound A = {rep.lower:.12g}",
            f"upper bound B = {rep.upper:.12g}",
            f"g-frame: {'yes' if rep.is_frame else 'no'}",
            f"witness (lower): {fmt_vec(rep.witness_low)}",
            f"witness (upper): {fmt_vec(rep.witness_high)}",
        ],
    )
    return 0


def _cmd_woven(args) -> int:
    from .weaving import universal_bounds_exhaustive, universal_bounds_search

    started = time.perf_counter()
    first = load_gframe(args.path_first)
    second = load_gframe(args.path_second)
    if args.search is not None:
        rep = universal_bounds_search(first, second, args.search, args.seed, args.tol)
    else:
        rep = universal_bounds_exhaustive(first, second, args.tol, args.cap)
    results = {
        "woven": rep.woven,
        "lower": rep.lower,
        "upper": rep.upper,
        "method": rep.method,
        "subsets_examined": rep.subsets_examined,
        "argmin": _selection_fields(rep.argmin),
        "argmax": _selection_fields(rep.argmax),
        "certificate": _selection_fields(rep.argmin),
    }
    tolerances = {"tol": args.tol, "woven_threshold": rep.threshold}
    doc = _report_document(
        "woven", [args.path_first, args.path_second], results, tolerances, started
    )
    verdict = "WOVEN" if rep.woven else "NOT WOVEN"
    lines = [
        f"{verdict}, A={rep.lower:.12g}, B={rep.upper:.12g}",
        f"method={rep.method}, subsets examined={rep.subsets_examined}",
        f"argmin sigma={rep.argmin} mask={rep.argmin.bitmask_string()}",
        f"argmax sigma={rep.argmax} mask={rep.argmax.bitmask_string()}",
    ]
    if not rep.woven:
        lines.append(
            f"certificate sigma={rep.argmin} mask={rep.argmin.bitmask_string()}"
        )
    _emit(args, doc, lines)
    return 0


def _cmd_check(args) -> int:
    started = time.perf_counter()
    if args.with_path is not None and args.kind != "dual":
        raise SchemaError(f"--with applies only to kind 'dual', not {args.kind!r}")
    frame = load_gframe(args.path)
    paths = [args.path]
    if args.kind == "frame":
        rep = optimal_bounds(frame, args.tol)
        results = {
            "verdict": rep.is_frame,
            "lower": rep.lower,
            "upper": rep.upper,
        }
        line = f"g-frame: {'yes' if rep.is_frame else 'no'} (A={rep.lower:.12g}, B={rep.upper:.12g})"
    elif args.kind == "exact":
        rep = is_g_exact(frame, args.tol)
        results = {
            "verdict": rep.is_exact,
            "witness": rep.witness,
            "removal_lower_bounds": list(rep.removal_lower_bounds),
        }
        line = f"g-exact: {'yes' if rep.is_exact else 'no'}" + (
            f" (block {rep.witness} is removable)" if rep.witness else ""
        )
    elif args.kind == "riesz":
        rep = is_g_riesz_basis(frame, args.tol)
        results = {
            "verdict": rep.is_riesz,
            "lower": rep.lower,
            "upper": rep.upper,
            "induced_vector_count": rep.vector_count,
        }
        line = (
            f"g-Riesz basis: {'yes' if rep.is_riesz else 'no'}"
            f" (bounds ({rep.lower:.12g}, {rep.upper:.12g}),"
            f" {rep.vector_count} induced vectors)"
        )
    elif args.kind == "onb":
        rep = is_g_orthonormal_basis(frame, args.tol)
        results = {
            "verdict": rep.is_onb,
            "cross_gram_residual": rep.cross_gram_residual,
            "parseval_residual": rep.parseval_residual,
            "zero_induced_vector": rep.first_zero_row,
        }
        line = (
            f"g-orthonormal basis: {'yes' if rep.is_onb else 'no'}"
            f" (cross-Gram residual {rep.cross_gram_residual:.3e},"
            f" Parseval residual {rep.parseval_residual:.3e})"
        )
    else:  # dual
        if not args.with_path:
            raise SchemaError("kind 'dual' needs --with PATH2")
        other = load_gframe(args.with_path)
        paths.append(args.with_path)
        verdict = is_dual_pair(frame, other, args.tol)
        results = {"verdict": verdict}
        line = f"dual pair: {'yes' if verdict else 'no'}"
    results["classification"] = None
    if args.kind in ("frame", "riesz", "onb"):
        cls = classify(frame, args.tol)
        results["classification"] = {
            "is_g_frame": cls.is_g_frame,
            "is_g_exact": cls.is_g_exact,
            "is_g_riesz": cls.is_g_riesz,
            "is_g_onb": cls.is_g_onb,
            "detail": cls.detail,
        }
    doc = _report_document(f"check:{args.kind}", paths, results, {"tol": args.tol}, started)
    _emit(args, doc, [line])
    return 0


def _cmd_transform(args, transform, command: str) -> int:
    frame = load_gframe(args.path)
    out = transform(frame, args.tol)
    if args.output:
        save_gframe(out, args.output)
        print(f"{command}: wrote {args.output}")
    else:
        print(dumps_document(gframe_to_document(out)))
    return 0


def _cmd_paper_suite(args) -> int:
    from .suite import SuiteConfig, run_suite

    started = time.perf_counter()
    options = {"dim_scale": args.dim_scale, "seed": args.seed, "search_budget": args.budget}
    # an option not given keeps SuiteConfig's default
    config = SuiteConfig(
        cap=args.cap, tol=args.tol, **{k: v for k, v in options.items() if v is not None}
    )
    report = run_suite(config)
    doc = _report_document("paper-suite", [], report.to_dict(), {"tol": args.tol}, started)
    width = max(len(r.name) for r in report.records)
    lines = []
    counts = {"PASS": 0, "SKIP": 0, "FAIL": 0}
    for r in report.records:
        status = "FAIL" if not r.passed else "SKIP" if r.method == "skipped" else "PASS"
        counts[status] += 1
        flag = "" if r.method in ("exhaustive", "skipped") else f"  [{r.method}]"
        lines.append(f"{status}  {r.name.ljust(width)}{flag}")
        if not r.passed:
            lines += [f"      computed: {r.computed}", f"      expected: {r.expected}"]
            lines += [f"      detail: {r.detail}"] if r.detail else []
    lines.append(
        f"{counts['FAIL']} failed, {counts['SKIP']} skipped,"
        f" {counts['PASS']}/{len(report.records)} records passed"
    )
    _emit(args, doc, lines)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gweave",
        description="Block-operator frame and weaving analysis.",
    )
    parser.add_argument("--version", action="version", version=f"gweave {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="classification tolerance")
        p.add_argument("--json", action="store_true", help="emit a JSON report document")

    p_bounds = sub.add_parser("bounds", help="optimal frame bounds of one family")
    p_bounds.add_argument("path")
    add_common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_woven = sub.add_parser("woven", help="universal bounds and woven verdict for a pair")
    p_woven.add_argument("path_first")
    p_woven.add_argument("path_second")
    group = p_woven.add_mutually_exclusive_group()
    group.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate all subsets (default)",
    )
    group.add_argument(
        "--search",
        type=int,
        metavar="BUDGET",
        help="seeded sampling with local search instead of full enumeration",
    )
    p_woven.add_argument("--seed", type=int, default=0)
    p_woven.add_argument("--cap", type=int, default=None, help="exhaustive enumeration cap")
    add_common(p_woven)
    p_woven.set_defaults(func=_cmd_woven)

    p_check = sub.add_parser("check", help="classification predicates for one family")
    p_check.add_argument("path")
    p_check.add_argument("kind", choices=["frame", "exact", "riesz", "onb", "dual"])
    p_check.add_argument("--with", dest="with_path", default=None, metavar="PATH2")
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_dual = sub.add_parser("dual", help="write the canonical dual family")
    p_dual.add_argument("path")
    p_dual.add_argument("-o", "--output", default=None)
    p_dual.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_dual.set_defaults(func=lambda a: _cmd_transform(a, canonical_dual, "dual"))

    p_par = sub.add_parser(
        "transform-parseval", help="write the family composed with the inverse-root operator"
    )
    p_par.add_argument("path")
    p_par.add_argument("-o", "--output", default=None)
    p_par.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_par.set_defaults(
        func=lambda a: _cmd_transform(a, parseval_transform, "transform-parseval")
    )

    p_suite = sub.add_parser(
        "paper-suite", help="run the bundled worked-example verification battery"
    )
    p_suite.add_argument("--dim-scale", type=float)
    p_suite.add_argument("--cap", type=int, default=None)
    p_suite.add_argument("--seed", type=int)
    p_suite.add_argument(
        "--budget",
        type=int,
        help="sampling budget for instances above the exhaustive cap",
    )
    add_common(p_suite)
    p_suite.set_defaults(func=_cmd_paper_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tol(args.tol, "--tol")
        return args.func(args)
    except GWeaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
