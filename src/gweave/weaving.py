"""Weavings of two block families: construction, universal bounds, checks.

A weaving picks block ``m`` from the first family when ``m`` lies in the
selection and from the second family otherwise.  Universal bounds are the
extrema over all selections of the mixed frame operator spectrum; computed
exhaustively up to a configurable cap and by seeded sampling with one-bit
local search beyond it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels, linalg
from .errors import (
    LengthMismatch,
    NotAFrame,
    NotUnitary,
    NotWoven,
    ShapeMismatch,
    TooManyBlocks,
)
from .gframe import (
    DEFAULT_TOL,
    BoundsReport,
    GFrame,
    block_grams,
    canonical_dual,
    compose_right,
    inverse_root,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
)

DEFAULT_EXHAUSTIVE_CAP = 20
# The descents of universal_bounds_search advance in groups of
# _ROUND_MASKS // n, so one round looks up at most this many one-bit
# neighbours, whatever the budget.
_ROUND_MASKS = 1 << 12
# The most seeds universal_bounds_search draws when the budget is below 2**n.
# Each seed starts two descents that examine at least n masks each, so a
# larger budget would run for hours; it is refused before anything is drawn.
MAX_SEARCH_BUDGET = 1 << 20
ENV_CAP = "GWEAVE_EXHAUSTIVE_CAP"

# Margin used by the inequality checks below; the underlying statements are
# exact, the margin only absorbs floating-point noise.
CHECK_EPS = 1e-9


def effective_cap(cap: Optional[int] = None) -> int:
    """Exhaustive enumeration cap: explicit argument, else env override, else 20.

    A negative cap is refused.
    """
    if cap is None:
        raw = os.environ.get(ENV_CAP, "").strip()
        if not raw:
            return DEFAULT_EXHAUSTIVE_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise TooManyBlocks(f"{ENV_CAP} must be an integer, got {raw!r}")
    cap = int(cap)
    if cap < 0:
        raise TooManyBlocks(f"the exhaustive cap must be at least 0, got {cap}")
    return cap


def _check_cap(n: int, cap: Optional[int]) -> None:
    """Refuse an exhaustive computation over ``n`` blocks above the cap."""
    limit = effective_cap(cap)
    if n > limit:
        raise TooManyBlocks(
            f"{n} blocks exceeds exhaustive cap {limit}; use universal_bounds_search"
        )


@dataclass(frozen=True)
class WeavingSelection:
    """Subset of block positions encoded as a bitmask.

    Bit ``i`` (0-based) set means block ``i + 1`` in 1-based reporting is
    drawn from the first family.  ``indices`` and the printed forms are
    1-based to match the rest of the reporting surface.
    """

    n_blocks: int
    mask: int

    def __post_init__(self):
        if self.n_blocks < 1:
            raise LengthMismatch("selection needs at least one block")
        if not 0 <= self.mask < (1 << self.n_blocks):
            raise ShapeMismatch(
                f"mask {self.mask:#x} does not fit in {self.n_blocks} bits"
            )

    @classmethod
    def from_indices(cls, n_blocks: int, indices) -> "WeavingSelection":
        mask = 0
        for ix in indices:
            if not 1 <= ix <= n_blocks:
                raise ShapeMismatch(f"index {ix} outside 1..{n_blocks}")
            mask |= 1 << (ix - 1)
        return cls(n_blocks, mask)

    @property
    def indices(self) -> tuple:
        return tuple(
            i + 1 for i in range(self.n_blocks) if (self.mask >> i) & 1
        )

    @property
    def complement(self) -> "WeavingSelection":
        full = (1 << self.n_blocks) - 1
        return WeavingSelection(self.n_blocks, self.mask ^ full)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def contains(self, index: int) -> bool:
        return bool((self.mask >> (index - 1)) & 1)

    def bitmask_string(self) -> str:
        """Binary rendering where bit position m stands for block m (1-based).

        Bit position 0 is printed but never set, so block 1 is the
        second digit from the right.
        """
        bits = "".join(
            "1" if self.contains(m) else "0" for m in range(self.n_blocks, 0, -1)
        )
        return "0b" + bits + "0"

    def __str__(self) -> str:
        inner = ",".join(str(i) for i in self.indices)
        return "{" + inner + "}"


def _check_pair(first: GFrame, second: GFrame):
    if first.n_blocks != second.n_blocks:
        raise LengthMismatch(
            f"{first.n_blocks} blocks versus {second.n_blocks}"
        )
    if first.domain_dim != second.domain_dim:
        raise ShapeMismatch(
            f"domain dimensions differ: {first.domain_dim} versus"
            f" {second.domain_dim}"
        )


def weave(first: GFrame, second: GFrame, selection: WeavingSelection) -> GFrame:
    """The mixed family for one selection.

    Per-block row counts may differ between the two families; a weaving only
    selects blocks, it never adds them, so matching codomains per block are
    not required.
    """
    _check_pair(first, second)
    if selection.n_blocks != first.n_blocks:
        raise LengthMismatch(
            f"selection covers {selection.n_blocks} blocks, families have"
            f" {first.n_blocks}"
        )
    blocks = [
        first.blocks[i] if selection.contains(i + 1) else second.blocks[i]
        for i in range(first.n_blocks)
    ]
    labels = None
    if first.labels is not None and second.labels is not None:
        labels = tuple(
            first.labels[i] if selection.contains(i + 1) else second.labels[i]
            for i in range(first.n_blocks)
        )
    return new_gframe(first.domain_dim, blocks, labels=labels)


def weaving_bounds(
    first: GFrame,
    second: GFrame,
    selection: WeavingSelection,
    tol: float = DEFAULT_TOL,
) -> BoundsReport:
    """Optimal bounds of one particular weaving."""
    return optimal_bounds(weave(first, second, selection), tol)


@dataclass(frozen=True)
class UniversalReport:
    lower: float
    upper: float
    argmin: WeavingSelection
    argmax: WeavingSelection
    woven: bool
    method: str  # "exhaustive" or "search"
    subsets_examined: int
    threshold: float


def _pair_kernel_inputs(first: GFrame, second: GFrame):
    """``base`` and ``deltas`` for the kernel, and the two families' Gram sums before any cast.

    ``deltas`` is formed in the first family's Gram stack, so no more than
    two stacks are alive at once.  Refuses a pair with an entry beyond
    float64 in a Gram matrix or in a weaving's operator: a float sum is
    finite only when every term is, so a finite ``p_sum + q_sum`` vouches
    for both stacks, and its diagonal bounds that of every weaving's
    operator, which is positive semidefinite; each delta is checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = block_grams(first)
        q = block_grams(second)
        dtype = np.result_type(p.dtype, q.dtype)
        p_sum, q_sum = p.sum(axis=0), q.sum(axis=0)
        base = np.ascontiguousarray(q.astype(dtype, copy=False).sum(axis=0))
        deltas = p.astype(dtype, copy=False)
        deltas -= q
        both = p_sum + q_sum
    for m in (both, base, *deltas):  # one delta at a time: no n x d x d mask is formed
        linalg._finite(m, "the sum of both families' Gram matrices")
    return base, deltas, p_sum, q_sum


def _woven_threshold(p_sum: np.ndarray, q_sum: np.ndarray, tol: float) -> float:
    """``tol`` times the larger upper frame bound of the two families, from their Gram sums."""
    b1 = float(np.linalg.eigvalsh(p_sum)[-1])
    b2 = float(np.linalg.eigvalsh(q_sum)[-1])
    return tol * max(b1, b2)


def _pair_report(n, extremes, sums, tol, method, examined) -> UniversalReport:
    """The report of ``extremes``, ``(lower, argmin mask, upper, argmax mask)``, over ``n`` blocks.

    ``sums`` are the two families' Gram sums, which give the threshold.
    Refuses bounds or a threshold beyond float64.
    """
    lower, amin, upper, amax = extremes
    threshold = _woven_threshold(*sums, tol)
    linalg._finite([lower, upper, threshold], "a universal bound or the woven threshold")
    return UniversalReport(
        lower=lower,
        upper=upper,
        argmin=WeavingSelection(n, amin),
        argmax=WeavingSelection(n, amax),
        woven=lower > threshold,
        method=method,
        subsets_examined=examined,
        threshold=threshold,
    )


def _scan_pair(first: GFrame, second: GFrame, tol: float) -> UniversalReport:
    n = first.n_blocks
    base, deltas, p_sum, q_sum = _pair_kernel_inputs(first, second)
    extremes = _kernels.weaving_scan(base, deltas)
    return _pair_report(n, extremes, (p_sum, q_sum), tol, "exhaustive", 1 << n)


def universal_bounds_exhaustive(
    first: GFrame,
    second: GFrame,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> UniversalReport:
    """Exact universal bounds over all 2**n selections.

    Ties for the recorded minimizer resolve to the smallest mask; ties for
    the maximizer resolve to the largest, so the two witnesses come from
    opposite ends of the enumeration order.
    """
    _check_pair(first, second)
    _check_cap(first.n_blocks, cap)
    return _scan_pair(first, second, tol)


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ShapeMismatch(f"seed must be a non-negative integer, got {seed!r}")


def _check_budget(budget) -> None:
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ShapeMismatch(f"budget must be an integer of at least 1, got {budget!r}")


def _sorted_unique(masks: np.ndarray) -> np.ndarray:
    # np.unique would import numpy.ma on first use, about 1 MB of resident memory
    masks = np.sort(masks)
    keep = np.ones(len(masks), dtype=bool)
    keep[1:] = masks[1:] != masks[:-1]
    return masks[keep]


def _merge(old: np.ndarray, new: np.ndarray, kept: np.ndarray, place: np.ndarray) -> np.ndarray:
    """``old`` at the ``kept`` positions and ``new`` at ``place``, in one new array."""
    out = np.empty(len(kept), dtype=old.dtype)
    out[kept] = old
    out[place] = new
    return out


def universal_bounds_search(
    first: GFrame,
    second: GFrame,
    budget: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> UniversalReport:
    """Sampled universal bounds with one-bit local search.

    ``budget`` seeds are drawn uniformly; from each one a steepest single-bit
    descent runs on the smallest eigenvalue and an ascent on the largest.
    A step moves to the first of the ``n`` one-bit neighbours with the best
    value, and only when that value strictly improves on the current one.
    ``subsets_examined`` counts the distinct masks examined, each solved or
    certified: the seeds and every neighbour of every mask a descent visited.
    The reported lower value over-estimates the true universal lower bound
    and the upper value under-estimates the true upper bound.  When the
    budget covers the whole selection space the full enumeration runs
    instead and the result equals the exhaustive report.  A smaller budget
    above ``MAX_SEARCH_BUDGET`` is refused.

    All descents advance in lockstep, up to ``_ROUND_MASKS // n`` at a time,
    and each round looks up every neighbour no descent has examined yet in
    one kernel call.  A neighbour's spectrum matters only if it could be a
    step or a witness:

    - a descent at value ``v`` looks at it, and its ``lo`` is at most ``v``
      and at most the least Rayleigh quotient ``u* (S +- delta_i) u`` of the
      neighbours, where ``u`` is a unit vector close to the eigenvector of
      ``lo(S)`` for the current operator ``S`` (the best neighbour's ``lo``
      is at most that quotient, so a neighbour above it is not the step);
      an ascent likewise on ``hi``.  ``u`` is a coordinate vector of the
      diagonal part, or comes from one linear solve on a component, a step
      of inverse iteration shifted by the rounding margin below the solved
      ``lo(S)`` (above ``hi(S)`` for an ascent), as
      ``_kernels.neighbour_quotients`` describes;
    - its ``lo`` or ``hi`` reaches the best value solved so far.

    Every other neighbour is certified and not solved: first by Weyl's
    inequality from the current mask, ``lo(S +- delta_i) >= lo(S) +
    lo(+-delta_i)`` and likewise for ``hi``, with the deltas' extremes
    taken piece by piece, then by the kernel's Cholesky test, which only the
    neighbours with a side left open reach.  Each test clears its threshold
    by the rounding margin of ``_kernels._margin``, which also covers the
    rounding of the quotients.  A certified mask keeps the floor and ceiling
    it was certified against, and is solved when a later look needs more.
    The new masks of a round are merged into the sorted examined arrays in
    one pass.  A mask's spectrum does not depend on the batch it is computed
    in, so the masks examined, and the report, are those of running the
    descents one after another and solving every neighbour.
    """
    _check_pair(first, second)
    _check_budget(budget)
    _check_seed(seed)
    n = first.n_blocks
    _kernels._check_blocks(n)
    total = 1 << n
    if budget >= total:
        return _scan_pair(first, second, tol)
    if budget > MAX_SEARCH_BUDGET:
        raise ShapeMismatch(
            f"budget {budget} is below the {total} selections and above the"
            f" {MAX_SEARCH_BUDGET} seeds a search draws"
        )

    base, deltas, p_sum, q_sum = _pair_kernel_inputs(first, second)
    # built once per request: the split operator for every spectrum and
    # every Rayleigh quotient below, and its rounding margin
    operator = _kernels._SplitOperator(base, deltas)
    margin = operator.margin
    # Weyl steps: the extreme eigenvalues of +delta_i, which sets bit i, in
    # row 0 and of -delta_i, which clears it, in row 1, piece by piece
    w_lo, w_hi = _kernels._solve(operator.diag_deltas, operator.block_deltas)
    step_lo = np.stack([w_lo, -w_hi])
    step_hi = np.stack([w_hi, -w_lo])
    rng = np.random.default_rng(seed)
    # Examined masks, ascending.  lo and hi hold the extreme eigenvalues of a
    # solved mask; a certified one has lo > floor and hi < ceiling for the
    # floor and ceiling it was certified against, and lo and hi hold those.
    # A repeated seed repeats its descents exactly, so each seed runs once.
    seen = _sorted_unique(rng.integers(0, total, size=budget))
    lo, hi = _kernels.mask_spectra(operator, n, seen)
    solved = np.ones(len(seen), dtype=bool)
    low, high = lo.min(), hi.max()  # the extremes solved so far
    flips = np.int64(1) << np.arange(n, dtype=np.int64)
    # a descent and an ascent from each seed; ascents walk on -hi
    starts = np.repeat(seen, 2)
    descending = np.tile([True, False], len(seen))
    group = max(1, _ROUND_MASKS // n)
    for g in range(0, len(starts), group):
        current = starts[g : g + group]
        down = descending[g : g + group]
        here = np.searchsorted(seen, current)  # where each current mask sits in seen
        while len(current):
            cur_lo, cur_hi = lo[here], hi[here]
            # A look needs a neighbour solved unless lo > need_lo and
            # hi < need_hi.  A descent steps to its best neighbour if that
            # beats its value.  The Rayleigh quotients at a unit vector near
            # the current mask's eigenvector, found by one inverse-iteration
            # step from just below its lo, bound each neighbour's lo from
            # above, so the least one bounds the best neighbour's, and a
            # neighbour above the value or that bound is not the step.  The
            # neighbour with the least quotient cannot be certified above it,
            # so it is solved, and no neighbour above the bound is a witness
            # either.  Ascents mirror this on hi, shifting from just above
            # it; a look from the other side needs the neighbour beyond the
            # extremes solved so far.
            shift = np.where(down, cur_lo - margin, cur_hi + margin)
            quotients = _kernels.neighbour_quotients(operator, current, down, shift)
            need_lo = np.where(down, np.minimum(cur_lo, quotients.min(axis=1)), low)
            need_hi = np.where(down, high, np.maximum(cur_hi, quotients.max(axis=1)))
            neighbours = (current[:, np.newaxis] ^ flips).ravel()
            at = np.searchsorted(seen, neighbours)
            known = seen[np.minimum(at, len(seen) - 1)] == neighbours
            if not known.all():
                looks = np.flatnonzero(~known)
                looks = looks[np.argsort(neighbours[looks], kind="stable")]
                looked = neighbours[looks]
                heads = np.flatnonzero(np.concatenate([[True], looked[1:] != looked[:-1]]))
                new = looked[heads]
                row, bit = np.divmod(looks, n)
                floor, ceiling = need_lo[row], need_hi[row]
                # Weyl: lo(S +- delta_i) >= lo(S) + lo(+-delta_i), and likewise
                # hi; Cholesky tests each side this leaves open
                cleared = (current[row] >> bit) & 1
                with np.errstate(over="ignore"):  # a ceiling bound past float64 certifies nothing
                    weyl_lo = cur_lo[row] + step_lo[cleared, bit]
                    weyl_hi = cur_hi[row] + step_hi[cleared, bit]
                if len(heads) < len(looks):  # a new mask looked at from several rows
                    floor = np.maximum.reduceat(floor, heads)
                    ceiling = np.minimum.reduceat(ceiling, heads)
                    weyl_lo = np.maximum.reduceat(weyl_lo, heads)
                    weyl_hi = np.minimum.reduceat(weyl_hi, heads)
                test_lo = np.where(weyl_lo > floor + margin, -np.inf, floor + margin)
                test_hi = np.where(weyl_hi < ceiling - margin, np.inf, ceiling - margin)
                # only masks with a side left open get a stack row
                tested = np.flatnonzero((test_lo != -np.inf) | (test_hi != np.inf))
                new_lo = np.full(len(new), np.inf)
                new_hi = np.full(len(new), -np.inf)
                new_lo[tested], new_hi[tested] = _kernels.mask_spectra(
                    operator, n, new[tested], test_lo[tested], test_hi[tested]
                )
                new_solved = new_lo != np.inf
                low, high = min(low, new_lo.min()), max(high, new_hi.max())
                # One merge: the new masks go to their places in the merged
                # arrays, and the examined ones fill the rest in order.
                place = at[looks[heads]] + np.arange(len(new))
                kept = np.ones(len(seen) + len(new), dtype=bool)
                kept[place] = False
                seen = _merge(seen, new, kept, place)
                lo = _merge(lo, np.where(new_solved, new_lo, floor), kept, place)
                hi = _merge(hi, np.where(new_solved, new_hi, ceiling), kept, place)
                solved = _merge(solved, new_solved, kept, place)
                # a neighbour moves up by the new masks below it
                at += np.searchsorted(new, neighbours)
            at = at.reshape(len(current), n)
            # a certified neighbour whose certificate does not cover this look
            # is solved now
            short = (lo[at] < need_lo[:, np.newaxis]) | (hi[at] > need_hi[:, np.newaxis])
            stale = short & ~solved[at]
            if stale.any():
                redo = _sorted_unique(at[stale])
                lo[redo], hi[redo] = _kernels.mask_spectra(operator, n, seen[redo])
                solved[redo] = True
            scores = np.where(down[:, np.newaxis], lo[at], -hi[at])
            scores[~solved[at]] = np.inf  # a certified neighbour is not the step
            best = scores.argmin(axis=1)  # first occurrence of the best value
            moves = scores.min(axis=1) < np.where(down, cur_lo, -cur_hi)
            current = (current ^ flips[best])[moves]
            down = down[moves]
            here = at[np.arange(len(at)), best][moves]

    # the kernel's tie rule: the smallest mask for the minimum, the largest for the maximum
    lower, amin = _kernels._least(lo[solved], seen[solved], 1, (np.inf, 0))
    upper, amax = _kernels._least(-hi[solved], seen[solved], -1, (np.inf, 0))
    return _pair_report(n, (lower, amin, -upper, amax), (p_sum, q_sum), tol, "search", len(seen))


@dataclass(frozen=True)
class WovenVerdict:
    woven: bool
    certificate: WeavingSelection
    report: UniversalReport


def is_woven(
    first: GFrame,
    second: GFrame,
    tol: float = DEFAULT_TOL,
    strategy: str = "exhaustive",
    budget: int = 1024,
    seed: int = 0,
    cap: Optional[int] = None,
) -> WovenVerdict:
    """Woven certification.

    Under the exhaustive strategy the verdict is exact either way.  Under the
    search strategy a negative verdict is conclusive (the certificate is a
    concrete failing selection) while a positive verdict only means no
    counterexample was found within the budget.
    """
    if strategy == "exhaustive":
        report = universal_bounds_exhaustive(first, second, tol, cap)
    elif strategy == "search":
        report = universal_bounds_search(first, second, budget, seed, tol)
    else:
        raise ShapeMismatch(f"unknown strategy {strategy!r}")
    return WovenVerdict(woven=report.woven, certificate=report.argmin, report=report)


@dataclass(frozen=True)
class VerificationRecord:
    name: str
    passed: bool
    computed: dict
    expected: dict
    detail: str = ""


def _check_report(first: GFrame, second: GFrame, report, woven: bool) -> None:
    """Refuse a report that is no UniversalReport of the pair's blocks, or unwoven if ``woven``."""
    _check_pair(first, second)
    if not isinstance(report, UniversalReport):
        raise ShapeMismatch(f"report must be a UniversalReport, got {type(report).__name__}")
    if report.argmin.n_blocks != first.n_blocks:
        raise LengthMismatch(f"report covers {report.argmin.n_blocks} blocks, not {first.n_blocks}")
    if woven and not report.woven:
        raise NotWoven(f"universal lower bound {report.lower:.3e} below threshold")


def check_additive_upper_bound(
    first: GFrame, second: GFrame, report: UniversalReport
) -> VerificationRecord:
    """The sum of the two upper bounds dominates every weaving's upper bound.

    ``report`` is the pair's :class:`UniversalReport`; a search report checks the interval it found.
    """
    _check_report(first, second, report, woven=False)
    b1 = optimal_bounds(first)
    b2 = optimal_bounds(second)
    allowed = b1.upper + b2.upper + CHECK_EPS
    return VerificationRecord(
        name="additive-upper-bound",
        passed=report.upper <= allowed,
        computed={"universal_upper": report.upper},
        expected={"at_most": allowed, "upper_1": b1.upper, "upper_2": b2.upper},
    )


def check_universal_envelope(
    first: GFrame, second: GFrame, report: UniversalReport
) -> VerificationRecord:
    """Universal bounds always envelop each family's own optimal bounds.

    ``report`` is the pair's woven :class:`UniversalReport`; a search report checks its interval.
    """
    _check_report(first, second, report, woven=True)
    b1 = optimal_bounds(first)
    b2 = optimal_bounds(second)
    ok = (
        report.lower <= min(b1.lower, b2.lower) + CHECK_EPS
        and report.upper >= max(b1.upper, b2.upper) - CHECK_EPS
    )
    return VerificationRecord(
        name="universal-envelope",
        passed=ok,
        computed={"universal_lower": report.lower, "universal_upper": report.upper},
        expected={
            "lower_at_most": min(b1.lower, b2.lower),
            "upper_at_least": max(b1.upper, b2.upper),
        },
    )


def check_strict_sum_gap(
    first: GFrame, second: GFrame, report: UniversalReport
) -> VerificationRecord:
    """Sums of per-family optimal bounds are never the optimal universal bounds.

    ``report`` is the pair's woven :class:`UniversalReport`; a search report checks its interval.
    """
    _check_report(first, second, report, woven=True)
    b1 = optimal_bounds(first)
    b2 = optimal_bounds(second)
    ok = (
        report.lower < b1.lower + b2.lower - CHECK_EPS
        and report.upper < b1.upper + b2.upper - CHECK_EPS
    )
    return VerificationRecord(
        name="strict-sum-gap",
        passed=ok,
        computed={"universal_lower": report.lower, "universal_upper": report.upper},
        expected={
            "lower_strictly_below": b1.lower + b2.lower,
            "upper_strictly_below": b1.upper + b2.upper,
        },
    )


def check_dual_weaving(
    frame: GFrame,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> VerificationRecord:
    """A family and its canonical dual weave with guaranteed bounds.

    The guaranteed universal lower bound is ``min(1/(2 B1), 1/(2 B2))`` and
    the guaranteed upper bound is ``B1 + B2`` for the two upper bounds.
    """
    bounds = optimal_bounds(frame, tol)
    if not bounds.is_frame:
        raise NotAFrame("dual weaving requires a frame")
    dual = canonical_dual(frame, tol)
    b1 = bounds.upper
    b2 = optimal_bounds(dual, tol).upper
    rep = universal_bounds_exhaustive(frame, dual, tol, cap)
    floor = min(1.0 / (2.0 * b1), 1.0 / (2.0 * b2))
    ok = rep.lower >= floor - CHECK_EPS and rep.upper <= b1 + b2 + CHECK_EPS
    return VerificationRecord(
        name="dual-weaving",
        passed=ok,
        computed={"universal_lower": rep.lower, "universal_upper": rep.upper},
        expected={"lower_at_least": floor, "upper_at_most": b1 + b2},
        detail=f"upper bounds: {b1:.6g} and {b2:.6g}",
    )


def check_parseval_transform_weaving(
    first: GFrame,
    second: GFrame,
    report: UniversalReport,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> VerificationRecord:
    """Composing both families with the first one's inverse-root operator keeps them woven.

    If ``report``, the pair's woven :class:`UniversalReport`, has bounds (A, B),
    the transformed pair has universal bounds inside [A/B, B/A]; a search
    report checks its interval.  ``tol`` and ``cap`` apply to the transformed pair.
    """
    _check_report(first, second, report, woven=True)
    # a woven report makes ``first`` a frame; tol 0 leaves the rank test to refuse
    root = inverse_root(first, 0.0)
    transformed = universal_bounds_exhaustive(
        compose_right(first, root), compose_right(second, root), tol, cap
    )
    floor = report.lower / report.upper
    ceil = report.upper / report.lower
    ok = (
        transformed.woven
        and transformed.lower >= floor - CHECK_EPS
        and transformed.upper <= ceil + CHECK_EPS
    )
    return VerificationRecord(
        name="parseval-transform-weaving",
        passed=ok,
        computed={
            "transformed_lower": transformed.lower,
            "transformed_upper": transformed.upper,
        },
        expected={"lower_at_least": floor, "upper_at_most": ceil},
        detail=f"original universal bounds ({report.lower:.6g}, {report.upper:.6g})",
    )


@dataclass(frozen=True)
class WeavingBasisReport:
    holds: bool
    witness: Optional[WeavingSelection]
    lower: float
    upper: float


def _basis_batches(first: GFrame, second: GFrame, cap: Optional[int]):
    """The pair's split operator, and ``(masks, bits)`` of every selection in ascending batches.

    Refuses a pair with more blocks than the cap.
    """
    _check_pair(first, second)
    n = first.n_blocks
    _check_cap(n, cap)
    base, deltas, _, _ = _pair_kernel_inputs(first, second)
    operator = _kernels._SplitOperator(base, deltas)

    def batches():
        for part in _kernels._batches(1 << n, operator.step):
            masks = np.arange(part.start, min(part.stop, 1 << n), dtype=np.int64)
            yield masks, _kernels._mask_bits(masks, n)

    return operator, batches()


def _bit_sum(first_values, second_values, bits: np.ndarray) -> np.ndarray:
    """Per selection, the sum of a per-block value over the chosen blocks; exact for counts."""
    a = np.asarray(first_values, dtype=np.float64)
    b = np.asarray(second_values, dtype=np.float64)
    return b.sum() + bits @ (a - b)


def _guard_band(first: GFrame, second: GFrame, tol: float) -> float:
    """How far past its threshold a kernel test must land to fix the per-GFrame verdict.

    Both paths compute functions of ``S = V*V`` for the stacked rows ``V`` of
    a weaving.  With ``T = |first|_F^2 + |second|_F^2``, every entry sum
    along the way, every ``lambda_max(S)`` and ``|V|_2^2`` are at most ``T``,
    so a chain of ``k`` rounded additions is off by at most ``k eps T``:

    - kernel: Gram entries (r rows), ``base`` (n), ``deltas`` (1),
      ``bits @ deltas`` (n), ``+= base`` (1), then the eigensolve or the
      residual ``R = |S - I|_F`` (d): ``2n + r + d + 2``.  The kernel works
      on the components of ``_kernels._SplitOperator``: each entry of a
      component's stack takes the same sums as in the whole ``S``, and the
      entries off the components are exact zeros.  The eigensolve of a
      component of order ``c <= d`` is off by ``c eps |S|_F``, the usual
      size factor of a Hermitian solver's backward error.  The residual sums
      the squares of the diagonal part and of each component apart, then
      adds the pieces: a sum of at most ``d^2`` squares in some order, off
      by ``d^2 eps R^2``.  The residual test settles a weaving only when
      ``R < tol < 1/3``; then ``T >= tr S >= d - sqrt(d) R >= 2d/3``, so
      ``R`` is off by at most ``d^2 eps R / 2 <= d eps T``;
    - per GFrame: the SVD of ``V`` gives squared singular values to
      ``2d eps |V|_2^2``, and ``V V*`` or ``V*V`` takes d-term sums; one
      more for the final norm: ``2d + 1``.

    A test ``lambda_min - tol lambda_max`` moves by ``1 + |tol|`` times the
    error of the eigenvalues.  ``eps`` is twice the unit roundoff, which
    leaves room for the solvers' constant factors.
    """
    n, d = first.n_blocks, first.domain_dim
    r = max(first.block_rows + second.block_rows)
    scale = sum(float(np.vdot(b, b).real) for b in first.blocks + second.blocks)
    return (1.0 + abs(tol)) * (2 * n + 3 * d + r + 3) * np.finfo(np.float64).eps * scale


def is_weaving_g_riesz(
    first: GFrame,
    second: GFrame,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> WeavingBasisReport:
    """Whether every weaving is a Riesz basis; returns the first failing selection.

    A weaving is a Riesz basis exactly when its row count is ``d`` and
    ``lambda_min(S) > tol lambda_max(S)`` for its frame operator ``S``, since
    ``V*V = S`` for its square synthesis matrix ``V``.  The kernel's split
    operator gives ``lambda_min`` and ``lambda_max`` of every selection, in
    ascending batches, and settles each selection whose test clears zero by
    more than the rounding bound of :func:`_guard_band`; every other one, in
    ascending mask order, goes to :func:`is_g_riesz_basis` on its weaving
    until one fails.  So verdict, witness and failing bounds are those of
    the per-weaving classifier.
    """
    operator, batches = _basis_batches(first, second, cap)
    n, d = first.n_blocks, first.domain_dim
    band = _guard_band(first, second, tol)
    lower = np.inf
    upper = -np.inf
    for masks, bits in batches:
        lo, hi = operator.extremes(bits)
        counts = _bit_sum(first.block_rows, second.block_rows, bits)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, and settles nothing
            settled = (counts == d) & (lo - tol * hi > band)
        for mask in masks[~settled]:
            sel = WeavingSelection(n, int(mask))
            rep = is_g_riesz_basis(weave(first, second, sel), tol)
            if not rep.is_riesz:
                return WeavingBasisReport(False, sel, rep.lower, rep.upper)
        lower = min(lower, float(lo.min()))
        upper = max(upper, float(hi.max()))
    return WeavingBasisReport(True, None, lower, upper)


def is_weaving_g_onb(
    first: GFrame,
    second: GFrame,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> WeavingBasisReport:
    """Whether every weaving is an orthonormal basis family; returns the first failing selection.

    With row count ``d`` the synthesis matrix ``V`` is square, so both
    residuals of :func:`is_g_orthonormal_basis` equal ``R = |S - I|_F``,
    which the kernel's split operator gives piece by piece, ``R^2`` the sum
    of ``(s_jj - 1)^2`` over its diagonal part and of ``|S_c - I|_F^2`` over
    its components.  The kernel settles a weaving with no zero-row block,
    row count ``d`` and ``R`` below ``tol`` by more than the rounding bound
    of :func:`_guard_band`, with no eigensolve: the per-weaving test allows
    ``tol max(1, lambda_max) >= tol``.  For ``tol < 1/3`` that also settles its
    zero-row test, since each row norm squared is within ``R`` of 1, so above
    ``2/3``, while ``lambda_max <= 1 + R`` keeps the allowance below ``4/9``.
    Every other weaving, in ascending mask order, goes to
    :func:`is_g_orthonormal_basis` until one fails.
    """
    operator, batches = _basis_batches(first, second, cap)
    n, d = first.n_blocks, first.domain_dim
    cut = tol - _guard_band(first, second, tol) if tol < 1.0 / 3.0 else -np.inf
    no_rows1 = [r == 0 for r in first.block_rows]
    no_rows2 = [r == 0 for r in second.block_rows]
    for masks, bits in batches:
        # |S - I|_F^2 piece by piece: the entries off the components are exact zeros
        diag, stacks = operator.pieces(bits)
        with np.errstate(over="ignore"):  # a residual past float64 is inf and settles nothing
            squares = np.square(diag - 1.0).sum(axis=1)
            for stack in stacks:
                stack -= np.eye(stack.shape[-1])
                squares += np.square(_kernels._flat(stack)).sum(axis=1)
        counts = _bit_sum(first.block_rows, second.block_rows, bits)
        empty = _bit_sum(no_rows1, no_rows2, bits)
        settled = (counts == d) & (empty == 0) & (np.sqrt(squares) <= cut)
        for mask in masks[~settled]:
            sel = WeavingSelection(n, int(mask))
            if not is_g_orthonormal_basis(weave(first, second, sel), tol).is_onb:
                return WeavingBasisReport(False, sel, 0.0, 0.0)
    return WeavingBasisReport(True, None, 1.0, 1.0)


def check_unitary_weaving_invariance(
    first: GFrame,
    second: GFrame,
    u,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> VerificationRecord:
    """Composing a weaving pair of orthonormal families with a unitary keeps the property.

    Raises :class:`NotUnitary` when either the isometry residual ``u*u - I``
    or the surjectivity residual ``u u* - I`` is too large.  When the input
    pair is not itself a weaving orthonormal pair the implication is vacuous
    and the record says so.
    """
    mat = linalg.as_matrix(u, square=True)
    d = first.domain_dim
    if mat.shape[0] != d:
        raise ShapeMismatch(f"operator is {mat.shape[0]}x{mat.shape[0]}, need {d}x{d}")
    eye = np.eye(d)
    iso = linalg.frobenius(linalg._product(mat.conj().T, mat, "u*u") - eye)
    sur = linalg.frobenius(linalg._product(mat, mat.conj().T, "u u*") - eye)
    abs_tol = tol * max(1.0, float(d))
    if iso > abs_tol or sur > abs_tol:
        failing = []
        if iso > abs_tol:
            failing.append(f"isometry residual {iso:.3e}")
        if sur > abs_tol:
            failing.append(f"surjectivity residual {sur:.3e}")
        raise NotUnitary("; ".join(failing))
    base = is_weaving_g_onb(first, second, tol, cap)
    composed = is_weaving_g_onb(
        compose_right(first, mat), compose_right(second, mat), tol, cap
    )
    passed = composed.holds if base.holds else True
    detail = "" if base.holds else "input pair is not a weaving orthonormal pair"
    return VerificationRecord(
        name="unitary-weaving-invariance",
        passed=passed,
        computed={
            "input_pair_holds": base.holds,
            "composed_pair_holds": composed.holds,
        },
        expected={"composed_pair_holds": True},
        detail=detail,
    )
