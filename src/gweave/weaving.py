"""Weavings of two block families: construction, universal bounds, checks.

A weaving picks block ``m`` from the first family when ``m`` lies in the
selection and from the second family otherwise.  Universal bounds are the
extrema over all selections of the mixed frame operator spectrum; computed
exhaustively up to a configurable cap and by seeded sampling with one-bit
local search beyond it.  The statement checks compare computed bounds with
the paper's exact inequalities through ``linalg._at_most``, sized by the
upper bounds of the operators compared, so rescaling a pair changes none of
their verdicts.
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
    _check_dim,
    _check_pair,
    _check_tol,
    _check_type,
    _sequence,
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
# The most seeds universal_bounds_search draws when the budget is below 2**n.
# Each seed starts two descents that examine at least n masks each, so a
# larger budget would run for hours; it is refused before anything is drawn.
MAX_SEARCH_BUDGET = 1 << 20
ENV_CAP = "GWEAVE_EXHAUSTIVE_CAP"


def effective_cap(cap: Optional[int] = None) -> int:
    """Exhaustive enumeration cap: explicit argument, else env override, else 20.

    A cap that is no integer (a bool, a float or a string) or is negative is refused.
    """
    if cap is None:
        raw = os.environ.get(ENV_CAP, "").strip()
        if not raw:
            return DEFAULT_EXHAUSTIVE_CAP
        try:
            cap = int(raw)
        except ValueError:
            raise TooManyBlocks(f"{ENV_CAP} must be an integer, got {raw!r}")
    if isinstance(cap, bool) or not isinstance(cap, (int, np.integer)):
        raise TooManyBlocks(f"the exhaustive cap must be an integer, got {cap!r}")
    if cap < 0:
        raise TooManyBlocks(f"the exhaustive cap must be at least 0, got {cap}")
    return int(cap)


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
        _check_dim(self.n_blocks, "the block count", least=0)
        _check_dim(self.mask, "the mask", least=0)
        if self.n_blocks < 1:
            raise LengthMismatch("selection needs at least one block")
        if not 0 <= self.mask < (1 << self.n_blocks):
            raise ShapeMismatch(
                f"mask {self.mask:#x} does not fit in {self.n_blocks} bits"
            )

    @classmethod
    def from_indices(cls, n_blocks: int, indices) -> "WeavingSelection":
        _check_dim(n_blocks, "the block count", least=0)
        mask = 0
        for ix in _sequence(indices, "indices"):
            _check_dim(ix, "an index", least=0)
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


def weave(first: GFrame, second: GFrame, selection: WeavingSelection) -> GFrame:
    """The mixed family for one selection.

    Per-block row counts may differ between the two families; a weaving only
    selects blocks, it never adds them, so matching codomains per block are
    not required.
    """
    _check_pair(first, second)
    _check_type(selection, WeavingSelection, "the selection")
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
    _check_tol(tol)
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


def _singular(first: GFrame, second: GFrame, deltas: np.ndarray):
    """``(0.0, mask)`` for the smallest mask whose weaving has fewer than ``d`` rows, else None.

    Such a weaving's operator ``V*V`` has rank below ``d``, so its least
    eigenvalue is exactly 0, and no weaving's is less: the universal lower
    bound is 0.  A set bit takes block ``i``'s rows from the first family, a
    clear one from the second.  A null block (``deltas[i]`` exactly zero)
    gives the same operator either way, of rank at most ``min(r1, r2)``: it
    counts that many rows and keeps its bit clear, so the mask is the
    smallest of those with its operator.  Bits are fixed from the highest
    down, each left clear when the blocks below it can still bring the count
    under ``d``.
    """
    d = first.domain_dim
    rows1, rows2 = first.block_rows, second.block_rows
    least = [min(r1, r2) for r1, r2 in zip(rows1, rows2)]
    if sum(least) >= d:  # the fewest rows a weaving can have
        return None
    null = ~deltas.reshape(len(deltas), -1).any(axis=1)
    below = np.cumsum([0] + least)  # below[i]: the fewest rows of the blocks below i
    mask = rows = 0
    for i in reversed(range(len(least))):
        clear = least[i] if null[i] else rows2[i]
        if rows + clear + below[i] < d:
            rows += clear
        else:
            rows += rows1[i]
            mask |= 1 << i
    return 0.0, mask


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
    extremes = _kernels.weaving_scan(base, deltas, _singular(first, second, deltas))
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
    opposite ends of the enumeration order.  When some weaving has fewer
    rows than the domain dimension, its operator is singular and the lower
    bound is exactly ``0.0``, read from the row counts: the argmin is the
    smallest such mask, with null bits clear, no lower-side eigenvalue is
    computed, and the pair is not woven at any ``tol``.
    """
    _check_tol(tol)
    _check_pair(first, second)
    _check_cap(first.n_blocks, cap)
    return _scan_pair(first, second, tol)


def _check_seed(seed) -> None:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ShapeMismatch(f"seed must be a non-negative integer, got {seed!r}")


def _check_budget(budget) -> None:
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ShapeMismatch(f"budget must be an integer of at least 1, got {budget!r}")


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
    and the upper value under-estimates the true upper bound.  A pair with a
    weaving of fewer rows than the domain dimension reports the exhaustive
    lower bound, ``0.0`` at the smallest such mask, and runs its ascents
    only.  When the
    budget covers the whole selection space the full enumeration runs
    instead and the result equals the exhaustive report.  A smaller budget
    above ``MAX_SEARCH_BUDGET`` is refused.

    The descents run in ``_kernels.descent_search``, which certifies most
    neighbours instead of solving them and gives the report of running the
    descents one after another and solving every neighbour.
    """
    _check_tol(tol)
    _check_pair(first, second)
    _check_budget(budget)
    _check_seed(seed)
    n = first.n_blocks
    _kernels.check_blocks(n)
    total = 1 << n
    if budget >= total:
        return _scan_pair(first, second, tol)
    if budget > MAX_SEARCH_BUDGET:
        raise ShapeMismatch(
            f"budget {budget} is below the {total} selections and above the"
            f" {MAX_SEARCH_BUDGET} seeds a search draws"
        )

    base, deltas, p_sum, q_sum = _pair_kernel_inputs(first, second)
    seeds = np.random.default_rng(seed).integers(0, total, size=budget)
    low = _singular(first, second, deltas)
    *extremes, examined = _kernels.descent_search(base, deltas, seeds, low)
    return _pair_report(n, extremes, (p_sum, q_sum), tol, "search", examined)


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
    counterexample was found within the budget.  Under either strategy a
    pair with a weaving of fewer rows than the domain dimension is not
    woven, and the certificate is the smallest such selection.
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
    _check_type(report, UniversalReport, "the report")
    if report.argmin.n_blocks != first.n_blocks:
        raise LengthMismatch(f"report covers {report.argmin.n_blocks} blocks, not {first.n_blocks}")
    if woven and not report.woven:
        raise NotWoven(f"universal lower bound {report.lower:.3e} below threshold")


def _family_bounds(first: GFrame, second: GFrame, report, woven: bool) -> tuple:
    """Both families' optimal bounds, once :func:`_check_report` accepts ``report``."""
    _check_report(first, second, report, woven)
    return optimal_bounds(first), optimal_bounds(second)


def check_additive_upper_bound(
    first: GFrame, second: GFrame, report: UniversalReport
) -> VerificationRecord:
    """The sum of the two upper bounds dominates every weaving's upper bound.

    ``report`` is the pair's :class:`UniversalReport`; a search report checks the interval it found.
    """
    b1, b2 = _family_bounds(first, second, report, woven=False)
    return VerificationRecord(
        name="additive-upper-bound",
        passed=linalg._at_most(report.upper, b1.upper + b2.upper, b1.upper, b2.upper),
        computed={"universal_upper": report.upper},
        expected={"at_most": b1.upper + b2.upper, "upper_1": b1.upper, "upper_2": b2.upper},
    )


def check_universal_envelope(
    first: GFrame, second: GFrame, report: UniversalReport
) -> VerificationRecord:
    """Universal bounds always envelop each family's own optimal bounds.

    ``report`` is the pair's woven :class:`UniversalReport`; a search report checks its interval.
    """
    b1, b2 = _family_bounds(first, second, report, woven=True)
    ok = (
        linalg._at_most(report.lower, min(b1.lower, b2.lower), b1.upper, b2.upper)
        and linalg._at_most(max(b1.upper, b2.upper), report.upper, b1.upper, b2.upper)
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
    b1, b2 = _family_bounds(first, second, report, woven=True)
    ok = not (
        linalg._at_most(b1.lower + b2.lower, report.lower, b1.upper, b2.upper)
        or linalg._at_most(b1.upper + b2.upper, report.upper, b1.upper, b2.upper)
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
    ok = linalg._at_most(floor, rep.lower, b1, b2) and linalg._at_most(rep.upper, b1 + b2, b1, b2)
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
    _check_tol(tol)
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
        and linalg._at_most(floor, transformed.lower, transformed.upper)
        and linalg._at_most(transformed.upper, ceil, transformed.upper)
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


def _basis_inputs(first: GFrame, second: GFrame, tol: float, cap: Optional[int]):
    """The kernel's ``base`` and ``deltas``, refused for a bad ``tol`` or above the cap."""
    _check_tol(tol)
    _check_pair(first, second)
    _check_cap(first.n_blocks, cap)
    return _pair_kernel_inputs(first, second)[:2]


def _bit_sum(first_values, second_values, bits: np.ndarray) -> np.ndarray:
    """Per selection, the sum of a per-block value over the chosen blocks; exact for counts."""
    a = np.asarray(first_values, dtype=np.float64)
    b = np.asarray(second_values, dtype=np.float64)
    return b.sum() + bits @ (a - b)


def _square(first: GFrame, second: GFrame):
    """``square(bits, free)``: whether every completion of each node has ``d`` rows.

    A node's bits fix its high blocks and leave its low ``free`` blocks
    clear.  Its completions all have the row count of its own mask exactly
    when each free block has as many rows in both families.
    """
    rows1, rows2 = first.block_rows, second.block_rows
    same = np.cumprod([True] + [r1 == r2 for r1, r2 in zip(rows1, rows2)]).astype(bool)
    return lambda bits, free: (_bit_sum(rows1, rows2, bits) == first.domain_dim) & same[free]


def is_weaving_g_riesz(
    first: GFrame,
    second: GFrame,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> WeavingBasisReport:
    """Whether every weaving is a Riesz basis; returns the first failing selection.

    A weaving is a Riesz basis exactly when its row count is ``d`` and
    ``lambda_min(S) > tol lambda_max(S)`` for its frame operator ``S``, since
    ``V*V = S`` for its square synthesis matrix ``V``.  The kernel's basis
    search (``_kernels.basis_search``) settles a whole subcube of selections
    whose every completion has ``d`` rows when Cholesky proves its lower
    envelope above ``tol lambda_max(U) + 2 (1 + |tol|) m``, for the upper
    envelope ``U`` of the whole cube and the kernel's rounding margin ``m``,
    which also bounds the rounding of the per-weaving classifier
    (``_kernels._margin``).  It walks the selections of the other subcubes
    in ascending order, and settles one with ``d`` rows by the same Cholesky
    test of its operator, or when its own ``lambda_min - tol lambda_max``
    clears ``(1 + |tol|) m``.  Every other selection goes to
    :func:`is_g_riesz_basis` on its weaving until one fails.  So verdict,
    witness and failing bounds are those of the per-weaving classifier; a
    passing report gives the universal bounds of ``_kernels.weaving_scan``.
    """
    base, deltas = _basis_inputs(first, second, tol, cap)
    n = first.n_blocks
    allowance = 1.0 + abs(tol)
    square = _square(first, second)

    def certify(bits, free, values, margin):
        lo, hi = values
        # lo is +inf where Cholesky proved every eigenvalue above the floor
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, and settles nothing
            above = (lo == np.inf) | (lo - tol * hi > allowance * margin)
        return square(bits, free) & above

    def floor(upper, margin):
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN, and proves nothing
            return tol * upper + 2.0 * allowance * margin

    for masks, bits, values, margin in _kernels.basis_search(base, deltas, certify, floor):
        for mask in masks[~certify(bits, 0, values, margin)]:
            sel = WeavingSelection(n, int(mask))
            rep = is_g_riesz_basis(weave(first, second, sel), tol)
            if not rep.is_riesz:
                return WeavingBasisReport(False, sel, rep.lower, rep.upper)
    lower, _, upper, _ = _kernels.weaving_scan(base, deltas)
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
    which the kernel gives piece by piece, with no eigensolve.  A weaving
    with no zero-row block, row count ``d`` and ``R`` below ``tol`` by
    ``1 + |tol|`` times the kernel's rounding margin is settled: the
    per-weaving test allows ``tol max(1, lambda_max) >= tol``.  For
    ``tol < 1/3`` that also settles its zero-row test, since each row norm
    squared is within ``R`` of 1, so above ``2/3``, while
    ``lambda_max <= 1 + R`` keeps the allowance below ``4/9``.  The kernel's
    basis search settles a whole subcube the same way, with
    ``|P - I|_F + sum_free |delta_i|_F`` in place of ``R``, which bounds it
    for every completion.  Every other weaving, in ascending mask order,
    goes to :func:`is_g_orthonormal_basis` until one fails.
    """
    base, deltas = _basis_inputs(first, second, tol, cap)
    n = first.n_blocks
    no_rows1 = [r == 0 for r in first.block_rows]
    no_rows2 = [r == 0 for r in second.block_rows]
    square = _square(first, second)

    def certify(bits, free, residual, margin):
        # A node's own mask takes its free blocks from the second family, and
        # where every completion has d rows each free block has as many rows
        # in the first: so no completion has a zero-row block when its own
        # mask has none.
        cut = tol - (1.0 + abs(tol)) * margin if tol < 1.0 / 3.0 else -np.inf
        empty = _bit_sum(no_rows1, no_rows2, bits)
        return square(bits, free) & (empty == 0) & (residual <= cut)

    for masks, bits, residual, margin in _kernels.basis_search(base, deltas, certify):
        for mask in masks[~certify(bits, 0, residual, margin)]:
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
    _check_tol(tol)
    _check_pair(first, second)
    mat = linalg._matrix(u, "the operator", square=True)
    d = first.domain_dim
    if mat.shape[0] != d:
        raise ShapeMismatch(f"operator is {mat.shape[0]}x{mat.shape[0]}, need {d}x{d}")
    iso = linalg.frobenius(linalg._product(mat.conj().T, mat, "u*u") - np.eye(d))
    sur = linalg.frobenius(linalg._product(mat, mat.conj().T, "u u*") - np.eye(d))
    failing = [
        f"{what} residual {residual:.3e}"
        for what, residual in (("isometry", iso), ("surjectivity", sur))
        if not linalg._at_most(residual, 0.0, 1.0, d, rtol=tol)
    ]
    if failing:
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
