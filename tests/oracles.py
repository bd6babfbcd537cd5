"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: eigenvalues come from
characteristic-polynomial roots instead of a Hermitian solver, extreme
Rayleigh quotients come from sampling plus matrix-vector power refinement,
and universal weaving bounds come from plain enumeration over explicitly
constructed mixed families.
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


def accumulated_frame_operator(vectors, d: int) -> np.ndarray:
    """Rank-one accumulation of an ordinary frame operator."""
    dtype = complex if any(np.iscomplexobj(v) for v in vectors) else float
    s = np.zeros((d, d), dtype=dtype)
    for v in vectors:
        s += np.outer(v, np.conj(v))
    return s
