"""Dense spectral primitives used by every other module, and the refusal of values past float64.

Matrices are plain numpy arrays, float64 in real mode and complex128
otherwise.  The tolerances of this module are relative: a symmetry residual
is compared with ``HERMITIAN_RTOL`` times ``max(1, |A|_F)``, and the smallest
eigenvalue in a rank test with ``RANK_RTOL`` times the largest, each with an
absolute floor of 1e-12.  So rescaling a problem whose norm is at least 1
does not change which inputs are accepted.  The one rank test, the refusal
of a frame operator before it is inverted, lives in ``gframe`` with the two
inversions it guards, the canonical dual and the inverse root; it reads the
constants here.  Tolerances that callers pass to other modules are as their
docstrings say; ``gframe.is_dual_pair`` compares its residual with an
absolute one.

Finite inputs can give values beyond float64: a product of block rows, a
spectrum, a report's bounds.  This module owns their refusal.  Every such
product is formed by :func:`_product`, under ``np.errstate`` so that no
``RuntimeWarning`` is printed, and every such value, formed here or already
computed, is checked by :func:`_finite`, which raises :class:`NonFinite`
naming it.  Only the input checks of ``gframe.new_gframe`` and
``induced.make_vector_family`` raise ``NonFinite`` themselves.  Both helpers
are private, since ``perfbench/spans.py`` wraps every public function of
this module in its traced runs.  The ``np.errstate`` blocks of
``_kernels``, and of the scans in ``weaving``, are no refusals: there an
overflowing bound, quotient or residual certifies nothing, so the mask is
solved or the weaving tested alone, and a value beyond float64 reaches a
report only to be refused there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NonHermitian, ShapeMismatch

ABS_FLOOR = 1e-12
HERMITIAN_RTOL = 1e-8
RANK_RTOL = 1e-10


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-d float64/complex128 array; 1-d input becomes a row."""
    a = np.asarray(m)
    if a.ndim == 1:
        a = a[np.newaxis, :]
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got an array of ndim {a.ndim}")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    a = a.astype(dtype, copy=False)
    if a.size and not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    if square and a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _finite(value, what: str):
    """``value``, or :class:`NonFinite` naming ``what`` when an entry of it is not finite."""
    if not np.isfinite(value).all():
        raise NonFinite(f"{what} is not finite in float64")
    return value


def _product(a, b, what: str) -> np.ndarray:
    """``a @ b``, formed with no ``RuntimeWarning`` and refused by :func:`_finite` as ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(a @ b, what)


def frobenius(a) -> float:
    with np.errstate(over="ignore"):  # a norm beyond float64 is inf
        return float(np.linalg.norm(a))


def hermitian_defect(a) -> float:
    return float(np.linalg.norm(a - a.conj().T))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(A + A*) / 2``, halved before the sum so that no entry of a finite ``A`` overflows."""
    return a / 2.0 + a.conj().T / 2.0


def _require_hermitian(m) -> np.ndarray:
    a = as_matrix(m, square=True)
    defect = hermitian_defect(a)
    if defect > max(HERMITIAN_RTOL * max(1.0, frobenius(a)), ABS_FLOOR):
        raise NonHermitian(f"symmetry residual {defect:.3e} exceeds tolerance")
    return hermitian_part(a)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    This pins the gauge freedom of eigenvectors and makes repeated
    decompositions of the same matrix byte-identical.
    """
    out = np.array(vectors)
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        peak = mags.max(initial=0.0)
        if peak == 0.0:
            continue
        i = int(np.argmax(mags > 1e-12 * peak))
        pivot = col[i]
        if np.iscomplexobj(out):
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
        elif pivot < 0:
            out[:, j] = -col
    return out


@dataclass(frozen=True)
class HermitianEig:
    """Eigenvalues in ascending order and the matching unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix with symmetry residual below ``HERMITIAN_RTOL`` relative
        to its Frobenius norm; a larger residual raises :class:`NonHermitian`.

    Returns
    -------
    HermitianEig
        Ascending eigenvalues and unitary eigenvectors with a deterministic
        phase convention (first significant component real positive).
    """
    a = _require_hermitian(m)
    w, v = np.linalg.eigh(a)
    return HermitianEig(eigenvalues=w, eigenvectors=_fix_phases(v))

