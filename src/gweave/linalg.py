"""Input arrays, spectral primitives, the tolerance rule, and the refusal of values past float64.

Matrices are plain numpy arrays, float64 in real mode and complex128
otherwise.  :func:`_matrix` is the only code that turns an array from
outside the package into one: the blocks of ``gframe.new_gframe``, the
groups of ``induced.make_vector_family`` and ``induced.make_subspace_spec``,
the operators of ``gframe.compose_right`` and
``weaving.check_unitary_weaving_invariance``, and the vector of
``gframe.apply``.  It refuses what is no matrix of numbers with
:class:`ShapeMismatch`, and a NaN, an Inf or a number beyond float64 with
:class:`NonFinite`, naming the input in each refusal.

Every comparison that allows for rounding goes through :func:`_at_most`:
``a <= b`` up to ``rtol`` times the largest of ``sizes``, the sizes of the
operators whose values are compared (their largest eigenvalues, or 1 for the
identity).  A computed eigenvalue errs by a small multiple of ``eps |S|``, so
the slack scales with the operators.  There are three rtol constants:
``CHECK_RTOL`` for the paper's exact statements, checked in ``weaving``,
``induced`` and ``suite``; ``ZERO_RTOL`` for a value that is zero in exact
arithmetic; and ``RANK_RTOL`` for the rank test: ``gframe`` refuses a frame
operator before inverting it unless its smallest eigenvalue exceeds
``RANK_RTOL`` times the largest, so no tolerance depends on the scale of a
family.  A classification's ``tol`` is the caller's, for the basis,
dual-pair and unitary residuals.

Finite inputs can give values beyond float64: a product of block rows, a
spectrum, a report's bounds.  This module owns their refusal, and no other
module raises :class:`NonFinite`.  Every such product is formed by
:func:`_product`, under ``np.errstate`` so that no ``RuntimeWarning`` is
printed, and every such value, formed here or already computed, is checked
by :func:`_finite`, which raises :class:`NonFinite` naming it.  The helpers
are private, since ``perfbench/spans.py`` wraps every public function of
this module in its traced runs.  The ``np.errstate`` blocks of
``_kernels``, and of the scans in ``weaving``, are no refusals: there an
overflowing bound, quotient or residual certifies nothing, so the mask is
solved or the weaving tested alone, and a value beyond float64 reaches a
report only to be refused there.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import NonFinite, ShapeMismatch

CHECK_RTOL = 1e-9
RANK_RTOL = 1e-10
ZERO_RTOL = 1e-12


def _matrix(m, what: str, square: bool = False) -> np.ndarray:
    """``m`` as a finite 2-d float64 or complex128 array, which may share memory with ``m``.

    A 1-d input becomes one row.  Anything that is no array of numbers, or
    whose number of dimensions is not 1 or 2, is :class:`ShapeMismatch`, and
    a NaN, an Inf or a number beyond float64 is :class:`NonFinite`; each
    refusal names ``what``.  An array of Python objects converts when every
    entry is a number: an integer too large for int64, a ``Fraction``, a
    numpy scalar.
    """
    try:
        a = np.asarray(m)
    except ValueError:  # nested sequences of unequal lengths
        lengths = {len(row) for row in m if hasattr(row, "__len__")}
        detail = f"mixes vector lengths {sorted(lengths)}" if len(lengths) > 1 else "is ragged"
        raise ShapeMismatch(f"{what} {detail}") from None
    if a.ndim == 1:
        a = a[np.newaxis]
    if a.ndim != 2:
        raise ShapeMismatch(f"{what} has ndim {a.ndim}, expected 1 or 2")
    if a.dtype.char not in "dD":  # neither float64 nor complex128 yet
        if a.dtype == object and all(isinstance(x, (numbers.Number, np.bool_)) for x in a.flat):
            cplx = any(isinstance(x, (complex, np.complexfloating)) for x in a.flat)
            try:
                a = a.astype(np.complex128 if cplx else np.float64)
            except OverflowError:
                raise NonFinite(f"{what} holds a number beyond float64") from None
        elif a.dtype.kind not in "biufc":
            raise ShapeMismatch(f"{what} holds an entry that is no number")
        else:
            with np.errstate(over="ignore"):  # a wider float beyond float64 becomes inf
                a = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64)
    if not np.isfinite(a).all():
        raise NonFinite(f"{what} contains NaN or Inf entries")
    if square and a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{what} is not square: shape {a.shape}")
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


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(A + A*) / 2``, halved before the sum so that no entry of a finite ``A`` overflows."""
    return a / 2.0 + a.conj().T / 2.0


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each unit column so its first significant component is real positive.

    This pins the gauge freedom of eigenvectors and makes repeated
    decompositions of the same matrix byte-identical.
    """
    out = np.array(vectors)
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        i = int(np.argmax(mags > 1e-12 * mags.max()))
        pivot = col[i]
        if np.iscomplexobj(out):
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
        elif pivot < 0:
            out[:, j] = -col
    return out
