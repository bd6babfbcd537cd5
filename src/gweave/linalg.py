"""Dense spectral primitives, the one tolerance rule, and the refusal of values past float64.

Matrices are plain numpy arrays, float64 in real mode and complex128
otherwise.

Every comparison that allows for rounding goes through :func:`_at_most`:
``a <= b`` up to ``rtol`` times the largest of ``sizes``, the sizes of the
operators whose values are compared (their largest eigenvalues, or 1 for the
identity).  A computed eigenvalue errs by a small multiple of ``eps |S|``, so
the slack scales with the operators.  The ``rtol`` is ``CHECK_RTOL`` for the
paper's exact statements, checked in ``weaving``, ``induced`` and ``suite``;
``ZERO_RTOL`` for a value that is zero in exact arithmetic;
``HERMITIAN_RTOL`` for a symmetry residual, sized by 1 and ``|A|_F``; and a
classification's ``tol`` for the basis, dual-pair and unitary residuals.
The rank test is relative too: ``gframe`` refuses a frame operator before
inverting it unless its smallest eigenvalue exceeds ``RANK_RTOL`` times the
largest, so no tolerance depends on the scale of a family.

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

CHECK_RTOL = 1e-9
HERMITIAN_RTOL = 1e-8
RANK_RTOL = 1e-10
ZERO_RTOL = 1e-12


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


def _at_most(a, b, *sizes, rtol: float = CHECK_RTOL) -> bool:
    """``a <= b`` up to ``rtol`` times the largest magnitude among ``sizes``.

    A strict test ``a < b`` is the negated reverse, ``not _at_most(b, a, ...)``.
    """
    return bool(a <= b + rtol * max(map(abs, sizes)))


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
    if not _at_most(defect, 0.0, 1.0, frobenius(a), rtol=HERMITIAN_RTOL):
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

