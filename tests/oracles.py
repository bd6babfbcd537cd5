"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: eigenvalues come from
characteristic-polynomial roots instead of a Hermitian solver, extreme
Rayleigh quotients come from sampling plus matrix-vector power refinement,
universal weaving bounds come from plain enumeration over explicitly
constructed mixed families, the "every weaving is a basis" verdicts come
from the per-weaving classifiers run on every selection in turn, the
sampled search runs its descents one after another over a mask cache, the
exhaustive scan solves every mask, and the single-family basis tests come
from a values-only SVD of the stacked rows and two Gram products.
"""

from __future__ import annotations

import numpy as np


def charpoly_coefficients(m: np.ndarray) -> np.ndarray:
    """Coefficients of det(t I - M), leading coefficient first.

    Computed by the trace recursion: c_0 = 1 and
    c_k = -trace(M @ (M_{k-1} + c_{k-1} I)) / k.
    """
    a = np.asarray(m)
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    mk = np.zeros_like(a, dtype=complex)
    for k in range(1, n + 1):
        mk = a @ (mk + coeffs[k - 1] * np.eye(n))
        coeffs[k] = -np.trace(mk) / k
    return coeffs


def charpoly_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix via companion-matrix roots."""
    roots = np.roots(charpoly_coefficients(m))
    assert np.max(np.abs(roots.imag)) < 1e-6 * max(1.0, np.max(np.abs(roots)))
    return np.sort(roots.real)


def rayleigh_sample_range(m: np.ndarray, samples: int, seed: int):
    """Raw extreme Rayleigh quotients over random unit vectors."""
    rng = np.random.default_rng(seed)
    d = m.shape[0]
    x = rng.standard_normal((d, samples))
    if np.iscomplexobj(m):
        x = x + 1j * rng.standard_normal((d, samples))
    x = x / np.linalg.norm(x, axis=0)
    quots = np.real(np.einsum("is,is->s", x.conj(), m @ x))
    return float(quots.min()), float(quots.max()), x


def _power_refine(m: np.ndarray, v: np.ndarray, iters: int) -> np.ndarray:
    for _ in range(iters):
        w = m @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return v
        v = w / norm
    return v


def _quotient(m: np.ndarray, v: np.ndarray) -> float:
    return float(np.real(np.vdot(v, m @ v)) / np.real(np.vdot(v, v)))


def _shift_polish(m: np.ndarray, v: np.ndarray, steps: int = 4) -> np.ndarray:
    """Quotient-shifted inverse iterations; cubic convergence near an eigenpair.

    Plain power iteration stalls when the spectral gap at the targeted end is
    small relative to the spectral radius, so the last stretch is covered by
    solves against the shifted matrix.  A numerically singular shift means
    the quotient already sits on an eigenvalue, in which case the current
    vector is kept.
    """
    eye = np.eye(m.shape[0])
    for _ in range(steps):
        rho = _quotient(m, v)
        try:
            w = np.linalg.solve(m - rho * eye, v)
        except np.linalg.LinAlgError:
            return v
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0.0:
            return v
        v = w / norm
    return v


def rayleigh_extremes_refined(
    m: np.ndarray, samples: int = 10_000, seed: int = 0, iters: int = 300
):
    """Extreme eigenvalue estimates from sampling plus iterative refinement.

    Only matrix-vector products and linear solves are used.  The best sampled
    vectors seed shifted power iterations toward each end of the spectrum,
    then quotient-shifted solves polish the estimates, so the result
    converges to the true extremes rather than stopping at the sampled
    quotients.
    """
    d = m.shape[0]
    lo_raw, hi_raw, x = rayleigh_sample_range(m, samples, seed)
    quots = np.real(np.einsum("is,is->s", x.conj(), m @ x))
    v_hi = x[:, int(np.argmax(quots))]
    v_lo = x[:, int(np.argmin(quots))]
    spread = max(hi_raw - lo_raw, 1e-9)
    eye = np.eye(d)
    up = m - (lo_raw - 0.05 * spread) * eye
    v_hi = _shift_polish(m, _power_refine(up, v_hi, iters))
    hi = _quotient(m, v_hi)
    down = (hi + 0.05 * spread + 1e-9) * eye - m
    v_lo = _shift_polish(m, _power_refine(down, v_lo, iters))
    lo = _quotient(m, v_lo)
    return lo, hi


def mixed_frame_operator(first, second, mask: int) -> np.ndarray:
    """Frame operator of the mixed family that takes block ``i`` from ``first`` when bit ``i`` is set."""
    blocks = [
        first.blocks[i] if (mask >> i) & 1 else second.blocks[i]
        for i in range(first.n_blocks)
    ]
    return sum(b.conj().T @ b for b in blocks)


def brute_weaving_spectra(first, second):
    """Per-mask extreme eigenvalues by direct construction of every mixed family."""
    n = first.n_blocks
    lows = np.empty(1 << n)
    highs = np.empty(1 << n)
    for mask in range(1 << n):
        w = np.linalg.eigvalsh(mixed_frame_operator(first, second, mask))
        lows[mask] = w[0]
        highs[mask] = w[-1]
    return lows, highs


def brute_universal(first, second):
    """Exact universal bounds by enumeration, independent of the kernels."""
    lows, highs = brute_weaving_spectra(first, second)
    return float(lows.min()), float(highs.max())


def fewest_rows_mask(first, second):
    """The smallest mask with every null bit clear whose weaving has fewer than ``d`` rows, or None.

    Masks are enumerated in ascending chunks up to the first that fits.  A
    null block, one whose Gram matrix is the same in both families, counts
    ``min(r1, r2)`` rows.
    """
    n = first.n_blocks
    rows1, rows2 = np.array(first.block_rows), np.array(second.block_rows)
    pairs = zip(first.blocks, second.blocks)
    null = np.array([np.array_equal(a.conj().T @ a, b.conj().T @ b) for a, b in pairs])
    if np.minimum(rows1, rows2).sum() >= first.domain_dim:
        return None
    for start in range(0, 1 << n, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), 1 << n))
        bits = ((masks[:, np.newaxis] >> np.arange(n)) & 1).astype(bool)
        rows = np.where(null, np.minimum(rows1, rows2), np.where(bits, rows1, rows2)).sum(axis=1)
        fits = (rows < first.domain_dim) & ~(bits & null).any(axis=1)
        if fits.any():
            return int(masks[fits][0])


def brute_weaving_basis(first, second, kind: str, tol: float):
    """Whether every weaving is a Riesz basis (``kind`` "riesz") or orthonormal basis ("onb").

    Runs the per-weaving classifier on each selection in ascending mask order
    and stops at the first failure, reporting that weaving's bounds.
    """
    from gweave.gframe import is_g_orthonormal_basis, is_g_riesz_basis
    from gweave.weaving import WeavingBasisReport, WeavingSelection, weave

    n = first.n_blocks
    lower = np.inf
    upper = -np.inf
    for mask in range(1 << n):
        sel = WeavingSelection(n, mask)
        woven = weave(first, second, sel)
        if kind == "riesz":
            rep = is_g_riesz_basis(woven, tol)
            if not rep.is_riesz:
                return WeavingBasisReport(False, sel, rep.lower, rep.upper)
            lower = min(lower, rep.lower)
            upper = max(upper, rep.upper)
        elif not is_g_orthonormal_basis(woven, tol).is_onb:
            return WeavingBasisReport(False, sel, 0.0, 0.0)
    if kind == "riesz":
        return WeavingBasisReport(True, None, float(lower), float(upper))
    return WeavingBasisReport(True, None, 1.0, 1.0)


def svd_basis_tests(frame, tol: float = 1e-8) -> dict:
    """The Riesz and orthonormal-basis tests of one family, from its stacked rows ``V``.

    Riesz: ``upper`` is the largest squared singular value of ``V``, from one
    values-only SVD, and ``lower`` the smallest with at most ``d`` rows, else
    0; a Riesz basis has ``d`` rows and ``lower > tol upper``.  ONB: the
    residuals ``|V V* - I|_F`` and ``|V*V - I|_F`` of the two Gram products,
    each allowed ``tol max(1, upper)``, and no row of norm within that
    allowance and no block without rows.
    """
    d = frame.domain_dim
    rows = [b for b in frame.blocks if b.shape[0]]
    v = np.vstack(rows) if rows else np.zeros((0, d))
    count = v.shape[0]
    s = np.linalg.svd(v, compute_uv=False) if v.size else np.zeros(1)
    upper = float(s[0] ** 2)
    min_sv = float(s[-1]) if count <= d else 0.0
    cross = float(np.linalg.norm(v @ v.conj().T - np.eye(count)))
    parseval = float(np.linalg.norm(v.conj().T @ v - np.eye(d)))
    allowed = tol * max(1.0, upper)
    short = bool(count) and np.linalg.norm(v, axis=1).min() <= allowed
    zero_row = len(rows) < frame.n_blocks or short
    return {
        "is_riesz": count == d and min_sv**2 > tol * upper,
        "lower": min_sv**2,
        "upper": upper,
        "synthesis_min_sv": min_sv,
        "is_onb": cross <= allowed and parseval <= allowed and not zero_row,
        "cross_gram_residual": cross,
        "parseval_residual": parseval,
    }


def sequential_bounds_search(first, second, budget: int, seed: int = 0, tol: float = 1e-8):
    """``universal_bounds_search`` with one descent at a time and a dict of spectra.

    Each step asks the kernel for the spectra of the current mask's
    neighbours not seen yet, then scans them in bit order for the best strict
    improvement.  When some weaving has fewer than ``d`` rows, the lower
    bound is 0 at :func:`fewest_rows_mask` and only the ascents run.
    """
    from gweave import _kernels
    from gweave.errors import ShapeMismatch, TooManyBlocks
    from gweave.weaving import (
        UniversalReport,
        WeavingSelection,
        _check_pair,
        _pair_kernel_inputs,
        _scan_pair,
        _woven_threshold,
    )

    _check_pair(first, second)
    if budget < 1:
        raise ShapeMismatch(f"budget must be at least 1, got {budget}")
    n = first.n_blocks
    if n > 62:
        raise TooManyBlocks("masks beyond 62 blocks do not fit in int64")
    total = 1 << n
    if budget >= total:
        return _scan_pair(first, second, tol)

    base, deltas, p_sum, q_sum = _pair_kernel_inputs(first, second)
    operator = _kernels._SplitOperator(base, deltas)
    cache: dict = {}

    def evaluate(masks):
        new = [m for m in dict.fromkeys(masks) if m not in cache]
        if new:
            lo, hi = _kernels.mask_spectra(operator, n, np.array(new, dtype=np.int64))
            for m, a, b in zip(new, lo, hi):
                cache[m] = (float(a), float(b))
        return [cache[m] for m in masks]

    rng = np.random.default_rng(seed)
    samples = [int(m) for m in rng.integers(0, total, size=budget)]
    evaluate(samples)

    def descend(start: int, want_min: bool) -> None:
        current = start
        value = cache[current][0 if want_min else 1]
        while True:
            neighbors = [current ^ (1 << i) for i in range(n)]
            scores = evaluate(neighbors)
            best_value = value
            best_mask = None
            for m, (lo, hi) in zip(neighbors, scores):
                v = lo if want_min else hi
                improves = v < best_value if want_min else v > best_value
                if improves:
                    best_value = v
                    best_mask = m
            if best_mask is None:
                return
            current, value = best_mask, best_value

    singular = fewest_rows_mask(first, second)
    for s in samples:
        if singular is None:
            descend(s, want_min=True)
        descend(s, want_min=False)

    masks = np.array(sorted(cache), dtype=np.int64)
    lo = np.array([cache[int(m)][0] for m in masks])
    hi = np.array([cache[int(m)][1] for m in masks])
    i = int(np.argmin(lo))  # first occurrence: smallest mask among ties
    j = len(hi) - 1 - int(np.argmax(hi[::-1]))  # last occurrence: largest mask
    lower, amin = (float(lo[i]), int(masks[i])) if singular is None else (0.0, singular)
    threshold = _woven_threshold(p_sum, q_sum, tol)
    return UniversalReport(
        lower=lower,
        upper=float(hi[j]),
        argmin=WeavingSelection(n, amin),
        argmax=WeavingSelection(n, int(masks[j])),
        woven=lower > threshold,
        method="search",
        subsets_examined=len(masks),
        threshold=threshold,
    )


def full_weaving_scan(base: np.ndarray, deltas: np.ndarray):
    """``_kernels.weaving_scan`` with an eigensolve for every mask, in chunks of 2048 masks."""
    from gweave._kernels import _SplitOperator, _mask_bits, _spread, check_blocks

    n = deltas.shape[0]
    check_blocks(n)
    live = np.flatnonzero([delta.any() for delta in deltas])
    deltas = deltas[live]
    operator = _SplitOperator(base, deltas)
    k = len(live)
    total = 1 << k
    lower = np.inf
    upper = -np.inf
    argmin_mask = 0
    argmax_mask = 0
    for start in range(0, total, 2048):
        masks = np.arange(start, min(start + 2048, total), dtype=np.int64)
        lo, hi = operator.extremes(_mask_bits(masks, k))
        i = int(np.argmin(lo))
        if lo[i] < lower:
            lower = float(lo[i])
            argmin_mask = int(masks[i])
        j = len(hi) - 1 - int(np.argmax(hi[::-1]))
        if hi[j] >= upper:
            upper = float(hi[j])
            argmax_mask = int(masks[j])
    null_bits = ((1 << n) - 1) ^ _spread(total - 1, live)
    return lower, _spread(argmin_mask, live), upper, _spread(argmax_mask, live) | null_bits


def accumulated_frame_operator(vectors, d: int) -> np.ndarray:
    """Rank-one accumulation of an ordinary frame operator."""
    dtype = complex if any(np.iscomplexobj(v) for v in vectors) else float
    s = np.zeros((d, d), dtype=dtype)
    for v in vectors:
        s += np.outer(v, np.conj(v))
    return s
