"""Independent answers for every benchmark request, checked outside the timed loop.

Nothing here calls gweave.  Frame operators are built from the raw block
arrays of the documents: the mixed family of a selection takes block ``i``
from the first family when bit ``i`` is set, and its frame operator is the sum
of the chosen blocks' Gram matrices, or ``V*V`` for the stacked rows ``V``.
Up to ``FULL_MAX_BLOCKS`` blocks every selection is enumerated; above that,
each witness is recomputed and a sample of selections must not beat the
reported bounds.

Tie rules: selections whose frame operators are bitwise identical are exact
ties.  The reported argmin must be the smallest mask of its tie class and the
argmax the largest.  Ties at rounding level between different operators carry
no rule, because the kernel and the oracle round differently.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

FULL_MAX_BLOCKS = 12
VALUE_TOL = 1e-10  # relative to max(1, largest eigenvalue)
DECLARED_TOL = 1e-9
TOL = 1e-8  # gweave's default classification tolerance
SAMPLED_MASKS = 256


def grams(fam) -> np.ndarray:
    dtype = np.complex128 if fam.is_complex else np.float64
    out = np.zeros((fam.n, fam.dim, fam.dim), dtype=dtype)
    for i, b in enumerate(fam.blocks):
        if b.shape[0]:
            out[i] = np.conj(b).T @ b
    return out


def selection_operator(first, second, mask: int) -> np.ndarray:
    """Frame operator of one weaving, from its stacked rows."""
    rows = [
        first.blocks[i] if (mask >> i) & 1 else second.blocks[i]
        for i in range(first.n)
    ]
    rows = [r for r in rows if r.shape[0]]
    if not rows:
        return np.zeros((first.dim, first.dim))
    v = np.vstack(rows)
    return np.conj(v).T @ v


def selection_extremes(first, second, mask: int) -> tuple:
    w = np.linalg.eigvalsh(selection_operator(first, second, mask))
    return float(w[0]), float(w[-1])


class PairOracle:
    """Everything the checks need about one pair, computed once per run."""

    def __init__(self, first, second):
        self.first, self.second = first, second
        self.n = first.n
        g1, g2 = grams(first), grams(second)
        self.null_bits = sum(
            1 << i for i in range(self.n) if np.array_equal(g1[i], g2[i])
        )
        b1 = float(np.linalg.eigvalsh(g1.sum(axis=0))[-1])
        b2 = float(np.linalg.eigvalsh(g2.sum(axis=0))[-1])
        self.threshold = TOL * max(b1, b2)
        self.full = self.n <= FULL_MAX_BLOCKS
        self.basis = {}
        if self.full:
            masks = np.arange(1 << self.n)
            s = np.zeros((len(masks), first.dim, first.dim), dtype=np.result_type(g1, g2))
            for i in range(self.n):
                bit = ((masks >> i) & 1).astype(bool)[:, None, None]
                s += np.where(bit, g1[i], g2[i])
            w = np.linalg.eigvalsh(s)
            self.lo, self.hi = w[:, 0], w[:, -1]
            self.keys = [hashlib.blake2b(m.tobytes(), digest_size=16).digest() for m in s]
            self.scale = max(1.0, float(np.abs(w).max()))
        else:
            self.scale = max(1.0, b1 + b2)

    def tie_class(self, mask: int) -> list:
        """Masks whose frame operator is bitwise that of ``mask`` (full enumeration only)."""
        key = self.keys[mask]
        return [m for m, k in enumerate(self.keys) if k == key]


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


def check_universal(po: PairOracle, ans: dict, certifies: bool, declared: dict, rng) -> list:
    """Problems with a universal-bounds answer; an empty list means correct.

    ``ans`` holds lower, upper, argmin, argmax (masks), woven and, when the
    answer reports it, threshold and certificate.
    """
    bad = []
    tol = VALUE_TOL * po.scale
    lower, upper = ans["lower"], ans["upper"]
    amin, amax = ans["argmin"], ans["argmax"]
    full = (1 << po.n) - 1
    if not (0 <= amin <= full and 0 <= amax <= full):
        return [f"witness mask out of range: {amin}, {amax}"]
    if lower > upper + tol:
        bad.append(f"lower {lower!r} above upper {upper!r}")
    if not _close(selection_extremes(po.first, po.second, amin)[0], lower, tol):
        bad.append(f"argmin {amin} does not attain lower {lower!r}")
    if not _close(selection_extremes(po.first, po.second, amax)[1], upper, tol):
        bad.append(f"argmax {amax} does not attain upper {upper!r}")
    if bool(ans["woven"]) != (lower > po.threshold):
        bad.append(f"woven={ans['woven']} but lower {lower!r} vs threshold {po.threshold!r}")
    if "threshold" in ans and not _close(ans["threshold"], po.threshold, 1e-9 * po.threshold + 1e-300):
        bad.append(f"threshold {ans['threshold']!r} differs from {po.threshold!r}")
    if "certificate" in ans and ans["certificate"] != amin:
        bad.append("certificate is not the argmin witness")
    if certifies:
        if po.full:
            if not _close(lower, po.lo.min(), tol):
                bad.append(f"lower {lower!r} differs from enumeration {po.lo.min()!r}")
            if not _close(upper, po.hi.max(), tol):
                bad.append(f"upper {upper!r} differs from enumeration {po.hi.max()!r}")
            if amin != min(po.tie_class(amin)):
                bad.append(f"argmin {amin} is not the smallest mask of its tie class")
            if amax != max(po.tie_class(amax)):
                bad.append(f"argmax {amax} is not the largest mask of its tie class")
        else:
            probes = {int(m) for m in rng.integers(0, full + 1, size=SAMPLED_MASKS)}
            probes |= {amin ^ (1 << i) for i in range(po.n)}
            probes |= {amax ^ (1 << i) for i in range(po.n)}
            for m in sorted(probes):
                lo, hi = selection_extremes(po.first, po.second, m)
                if lo < lower - tol or hi > upper + tol:
                    bad.append(f"selection {m} beats the reported bounds")
                    break
            if amin & po.null_bits:
                bad.append(f"argmin {amin} is not the smallest mask of its tie class")
            if amax & po.null_bits != po.null_bits:
                bad.append(f"argmax {amax} is not the largest mask of its tie class")
    if "universal" in declared:
        lo_d, hi_d = declared["universal"]
        if not (_close(lower, lo_d, DECLARED_TOL) and _close(upper, hi_d, DECLARED_TOL)):
            bad.append(f"bounds ({lower!r}, {upper!r}) miss declared ({lo_d}, {hi_d})")
    if "woven" in declared:
        if bool(ans["woven"]) != declared["woven"] or amin != declared["certificate_mask"]:
            bad.append("declared verdict or certificate not met")
    return bad


def _first_failure(po: PairOracle, kind: str):
    """First failing mask of a per-selection basis test, with the counts it needs."""
    if kind not in po.basis:
        po.basis[kind] = _scan_basis(po, kind)
    return po.basis[kind]


def _scan_basis(po: PairOracle, kind: str):
    rows1 = np.array(po.first.rows)
    rows2 = np.array(po.second.rows)
    masks = np.arange(1 << po.n)
    bits = (masks[:, None] >> np.arange(po.n)) & 1
    counts = bits @ rows1 + (1 - bits) @ rows2
    d = po.first.dim
    if kind == "riesz":
        ok = (counts == d) & (po.lo > TOL * po.hi)
    else:
        ok = (counts == d) & np.array(
            [_is_identity(po, int(m)) for m in masks]
        )
    failing = np.flatnonzero(~ok)
    return (int(failing[0]) if len(failing) else None), counts


def _is_identity(po: PairOracle, mask: int) -> bool:
    first, second = po.first, po.second
    rows = [
        first.blocks[i] if (mask >> i) & 1 else second.blocks[i]
        for i in range(po.n)
    ]
    if any(r.shape[0] == 0 for r in rows):
        return False
    v = np.vstack(rows)
    upper = float(np.linalg.norm(v, 2) ** 2)
    abs_tol = TOL * max(1.0, upper)
    eye_c = np.eye(v.shape[0])
    eye_d = np.eye(v.shape[1])
    return (
        np.linalg.norm(v @ np.conj(v).T - eye_c) <= abs_tol
        and np.linalg.norm(np.conj(v).T @ v - eye_d) <= abs_tol
        and float(np.linalg.norm(v, axis=1).min()) > abs_tol
    )


def check_basis(po: PairOracle, ans: dict, kind: str) -> list:
    """Every weaving is a Riesz (or orthonormal) basis; else the first failing mask."""
    failing, counts = _first_failure(po, kind)
    tol = VALUE_TOL * po.scale
    bad = []
    if bool(ans["holds"]) != (failing is None):
        return [f"holds={ans['holds']} but first failing mask is {failing}"]
    if failing is None:
        if ans["witness"] is not None:
            bad.append("a witness is reported although the property holds")
        if kind == "riesz":
            if not (_close(ans["lower"], po.lo.min(), tol) and _close(ans["upper"], po.hi.max(), tol)):
                bad.append(f"bounds ({ans['lower']!r}, {ans['upper']!r}) differ from enumeration")
        elif not (ans["lower"] == 1.0 and ans["upper"] == 1.0):
            bad.append("orthonormal weavings must report bounds (1, 1)")
        return bad
    if ans["witness"] != failing:
        bad.append(f"witness {ans['witness']} is not the first failing mask {failing}")
    elif kind == "riesz" and counts[failing] == po.first.dim:
        if not (_close(ans["lower"], po.lo[failing], tol) and _close(ans["upper"], po.hi[failing], tol)):
            bad.append("failing weaving's bounds differ from enumeration")
    return bad


def check_transfer(po: PairOracle, ans: dict, scale: float) -> list:
    """Block and induced-vector universal bounds: the second is scale**2 times the first."""
    c = ans["computed"]
    lo, hi = float(po.lo.min()), float(po.hi.max())
    tol = VALUE_TOL * po.scale
    woven = lo > po.threshold
    bad = []
    if not ans["passed"]:
        bad.append("weaving transfer record did not pass")
    if c["block_woven"] != woven or c["vector_woven"] != woven:
        bad.append(f"woven verdicts {c['block_woven']}, {c['vector_woven']} differ from {woven}")
    if not (_close(c["block_bounds"][0], lo, tol) and _close(c["block_bounds"][1], hi, tol)):
        bad.append("block bounds differ from enumeration")
    k = scale * scale
    if not (
        _close(c["vector_bounds"][0], k * lo, k * tol)
        and _close(c["vector_bounds"][1], k * hi, k * tol)
    ):
        bad.append("vector bounds are not scale**2 times the block bounds")
    return bad


def _frame_operator(fam) -> np.ndarray:
    return grams(fam).sum(axis=0)


def _family_from_document(doc: dict):
    from workloads import Family

    d = doc["domain_dim"]
    blocks = []
    for op in doc["operators"]:
        b = np.array(op["entries_real"], dtype=float).reshape(op["rows"], d)
        if doc["scalar_mode"] == "complex":
            b = b + 1j * np.array(op["entries_imag"], dtype=float).reshape(op["rows"], d)
        blocks.append(b)
    return Family(d, tuple(blocks))


def _mask_of(selection: dict) -> int:
    return sum(1 << (i - 1) for i in selection["indices"])


def check_cli(req, code: int, stdout: str, docs: dict, pair_oracle, rng) -> list:
    """Check one CLI request from its exit code and standard output."""
    chk = req.check
    if code != 0:
        return [f"exit code {code}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    kind = chk["kind"]
    if kind == "universal":
        r = out["results"]
        ans = {
            "lower": r["lower"],
            "upper": r["upper"],
            "argmin": _mask_of(r["argmin"]),
            "argmax": _mask_of(r["argmax"]),
            "woven": r["woven"],
            "threshold": out["tolerances"]["woven_threshold"],
            "certificate": _mask_of(r["certificate"]),
        }
        return check_universal(
            pair_oracle(*chk["pair"]), ans, req.certifies, chk["declared"], rng
        )
    if kind == "cli_suite":
        r = out["results"]
        bad = [] if r["passed"] else ["paper-suite reports a failed record"]
        for rec in r["records"]:
            if not rec["passed"]:
                bad.append(f"record {rec['name']} failed")
            exp, got = rec["expected"].get("universal"), rec["computed"].get("universal")
            if rec["method"] == "exhaustive" and exp is not None and got is not None:
                if not (_close(got[0], exp[0], DECLARED_TOL) and _close(got[1], exp[1], DECLARED_TOL)):
                    bad.append(f"record {rec['name']} misses its declared bounds")
        if len(r["records"]) < 10:
            bad.append("paper-suite returned fewer than 10 records")
        return bad
    fam = docs[chk["doc"]]
    s = _frame_operator(fam)
    w = np.linalg.eigvalsh(s)
    tol = VALUE_TOL * max(1.0, float(w[-1]))
    if kind == "cli_dual":
        got = _family_from_document(out)
        s_inv = np.linalg.inv(s)
        err = max(float(np.abs(g - b @ s_inv).max(initial=0.0)) for g, b in zip(got.blocks, fam.blocks))
        return [] if err <= 1e-9 else [f"dual blocks off by {err:.3e}"]
    if kind == "cli_parseval":
        got = _frame_operator(_family_from_document(out))
        err = float(np.abs(got - np.eye(fam.dim)).max())
        return [] if err <= 1e-9 else [f"transformed frame operator is {err:.3e} from identity"]
    r = out["results"]
    is_frame = float(w[0]) > TOL * float(w[-1])
    if kind == "cli_bounds":
        ok = (
            _close(r["lower"], w[0], tol)
            and _close(r["upper"], w[-1], tol)
            and r["is_g_frame"] == is_frame
        )
        return [] if ok else ["bounds differ from the frame operator's spectrum"]
    what = chk["what"]
    if what == "frame":
        ok = r["verdict"] == is_frame and _close(r["lower"], w[0], tol) and _close(r["upper"], w[-1], tol)
    elif what == "exact":
        g = grams(fam)
        lows = [float(np.linalg.eigvalsh(s - g[i])[0]) for i in range(fam.n)]
        removable = [i + 1 for i, lo in enumerate(lows) if lo > TOL * float(w[-1])]
        ok = (
            r["verdict"] == (not removable)
            and r["witness"] == (removable[0] if removable else None)
            and all(_close(a, b, tol) for a, b in zip(r["removal_lower_bounds"], lows))
        )
    elif what == "riesz":
        count = sum(fam.rows)
        sv = np.linalg.svd(np.vstack([b for b in fam.blocks if b.shape[0]]), compute_uv=False)
        upper = float(sv[0] ** 2)
        lower = 0.0 if count > fam.dim else float(sv[-1] ** 2)
        ok = (
            r["verdict"] == (count == fam.dim and lower > TOL * upper)
            and r["induced_vector_count"] == count
            and _close(r["lower"], lower, tol)
            and _close(r["upper"], upper, tol)
        )
    elif what == "onb":
        v = np.vstack([b for b in fam.blocks if b.shape[0]])
        cross = float(np.linalg.norm(v @ np.conj(v).T - np.eye(v.shape[0])))
        ok = r["verdict"] is True and cross <= 1e-9 and _close(r["cross_gram_residual"], cross, 1e-9)
    else:  # dual, against the dual the client built itself
        ok = r["verdict"] is True
    return [] if ok else [f"check {what} differs from the oracle: {r}"]
