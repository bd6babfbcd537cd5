"""Block-operator frame model and every single-family analysis.

A :class:`GFrame` is an ordered family of dense blocks, block ``m`` of shape
``(d_m, d)``, realizing an operator from the common d-dimensional domain into
a d_m-dimensional coefficient space.  Block indices are 0-based internally;
everything user-facing (witnesses, certificates, reports) is 1-based.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import Empty, LengthMismatch, NotAFrame, ShapeMismatch, Singular

DEFAULT_TOL = 1e-8


def _finite_real(x) -> bool:
    """Whether ``x`` is a real number within float64's finite range; a bool is none."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _check_tol(tol, name: str = "tol") -> None:
    """Refuse a classification tolerance that is no finite non-negative number."""
    if not (_finite_real(tol) and tol >= 0):
        raise ShapeMismatch(f"{name} must be a finite non-negative number, got {tol}")


def _check_dim(n, what: str = "domain dimension", least: int = 1) -> int:
    """``n`` as an int; refuses what is no integer (a bool, a float, a string) or is below ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ShapeMismatch(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise ShapeMismatch(f"{what} must be {'positive' if least else 'non-negative'}, got {n}")
    return int(n)


def _check_type(value, kind: type, what: str) -> None:
    """Refuse ``value`` with :class:`ShapeMismatch` unless it is a ``kind``.

    The package's entries check each object they take this way, so a number
    or ``None`` where a family, a selection or a spec belongs ends in a
    package error, not in an ``AttributeError``.
    """
    if not isinstance(value, kind):
        raise ShapeMismatch(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def _sequence(items, what: str) -> list:
    """``items`` as a list; what cannot be iterated is :class:`ShapeMismatch`."""
    try:
        return list(items)
    except TypeError:
        raise ShapeMismatch(f"{what} must be a sequence, got {items!r}") from None


def _frozen(a: np.ndarray, dtype=None) -> np.ndarray:
    """A read-only C-ordered copy of ``a``, in ``dtype`` if given."""
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GFrame:
    """An immutable family that validates its shapes and keeps its own copy of each block.

    Each block goes through ``linalg._matrix``, so 1-d block inputs are
    accepted as single rows.  All blocks are promoted to a common dtype
    (complex128 when any input is complex, float64 otherwise), copied once
    and marked read-only, so changing an input array afterwards leaves the
    family unchanged.  :func:`new_gframe` is the public entry.
    """

    domain_dim: int
    blocks: tuple
    labels: Optional[tuple] = None

    def __post_init__(self):
        d = _check_dim(self.domain_dim)
        mats = []
        for i, raw in enumerate(_sequence(self.blocks, "blocks")):
            a = linalg._matrix(raw, f"block {i + 1}")
            # Zero-row blocks encode the zero operator onto a trivial summand
            # and are allowed, whatever their number of columns.
            if a.shape[1] != d and a.shape[0] != 0:
                raise ShapeMismatch(
                    f"block {i + 1} has {a.shape[1]} columns, domain dimension is {d}"
                )
            mats.append(a.reshape(a.shape[0], d))
        if not mats:
            raise Empty("a family needs at least one block")
        dtype = np.complex128 if any(a.dtype == np.complex128 for a in mats) else np.float64
        labels = None if self.labels is None else tuple(map(str, _sequence(self.labels, "labels")))
        if labels is not None and len(labels) != len(mats):
            raise LengthMismatch(f"{len(labels)} labels for {len(mats)} blocks")
        object.__setattr__(self, "domain_dim", d)  # the dataclass is frozen
        object.__setattr__(self, "blocks", tuple(_frozen(a, dtype) for a in mats))
        object.__setattr__(self, "labels", labels)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_rows(self) -> tuple:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def dtype(self):
        return self.blocks[0].dtype

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"block-{i + 1}"


def new_gframe(domain_dim: int, blocks: Sequence, labels=None) -> GFrame:
    """A :class:`GFrame` of ``blocks`` on the ``domain_dim``-dimensional domain, checked and copied."""
    return GFrame(domain_dim, blocks, labels)


def apply(frame: GFrame, h) -> list:
    """Analysis map: the list of per-block coefficient vectors."""
    _check_type(frame, GFrame, "the frame")
    x = linalg._matrix(h, "the vector").ravel()
    if x.shape[0] != frame.domain_dim:
        raise ShapeMismatch(
            f"vector has length {x.shape[0]}, domain dimension is {frame.domain_dim}"
        )
    what = "the coefficient vector of block {}"
    return [linalg._product(b, x, what.format(i + 1)) for i, b in enumerate(frame.blocks)]


def coefficient_energy(frame: GFrame, h) -> float:
    """Sum of squared coefficient norms over all blocks."""
    what = "the coefficient energy"
    energy = sum(float(linalg._product(c.conj(), c, what).real) for c in apply(frame, h))
    return linalg._finite(energy, what)


def frame_operator_matrix(frame: GFrame) -> np.ndarray:
    """The frame operator ``S = V*V`` as one product of the stacked rows ``V``."""
    _check_type(frame, GFrame, "the frame")
    v = stacked_rows(frame)
    return linalg._product(v.conj().T, v, "the frame operator")


def block_grams(frame: GFrame) -> np.ndarray:
    """Stack of the per-block d x d Gram contributions."""
    d = frame.domain_dim
    out = np.empty((frame.n_blocks, d, d), dtype=frame.dtype)
    for i, b in enumerate(frame.blocks):
        out[i] = b.conj().T @ b
    return out


@dataclass(frozen=True)
class FrameOperatorResult:
    s: np.ndarray
    lower: float
    upper: float
    witness_low: np.ndarray
    witness_high: np.ndarray


def frame_operator(frame: GFrame) -> FrameOperatorResult:
    """Frame operator with its extreme eigenvalues and unit witness vectors.

    One ``eigh`` of the symmetrised ``S`` gives both, and each witness is
    rotated so that its first significant component is real positive.
    """
    s = frame_operator_matrix(frame)
    w, v = np.linalg.eigh(linalg.hermitian_part(s))
    linalg._finite(w, "the spectrum of the frame operator")
    witnesses = linalg._fix_phases(v[:, [0, -1]])
    return FrameOperatorResult(
        s=s,
        lower=float(w[0]),
        upper=float(w[-1]),
        witness_low=witnesses[:, 0],
        witness_high=witnesses[:, 1],
    )


@dataclass(frozen=True)
class BoundsReport:
    lower: float
    upper: float
    witness_low: np.ndarray
    witness_high: np.ndarray
    is_frame: bool
    threshold: float


def optimal_bounds(frame: GFrame, tol: float = DEFAULT_TOL) -> BoundsReport:
    """Optimal bounds, i.e. the extreme eigenvalues of the frame operator.

    The family is flagged as a frame when the lower bound exceeds
    ``tol`` times the upper bound.
    """
    _check_tol(tol)
    fo = frame_operator(frame)
    threshold = tol * fo.upper
    return BoundsReport(
        lower=fo.lower,
        upper=fo.upper,
        witness_low=fo.witness_low,
        witness_high=fo.witness_high,
        is_frame=fo.lower > threshold,
        threshold=threshold,
    )


def _check_invertible(lower: float, upper: float, tol: float) -> None:
    """Refuse a frame operator with these extreme eigenvalues before it is inverted.

    :class:`NotAFrame` when ``lower`` is not above ``tol`` times ``upper``,
    so also for a zero operator, then :class:`Singular` when it is not above
    ``linalg``'s relative rank tolerance times ``upper``, or when it is
    subnormal: below ``np.finfo(np.float64).tiny`` an eigenvalue keeps too
    few bits for its inverse to mean anything.  That is the edge of
    float64's range, not a tolerance.
    """
    if not lower > tol * upper:
        raise NotAFrame(f"lower bound {lower:.3e} not above threshold {tol * upper:.3e}")
    if lower <= linalg.RANK_RTOL * upper:
        raise Singular(f"smallest eigenvalue {lower:.3e} below rank tolerance")
    if lower < np.finfo(np.float64).tiny:
        raise Singular(f"smallest eigenvalue {lower:.3e} below the normal range of float64")


def canonical_dual(frame: GFrame, tol: float = DEFAULT_TOL) -> GFrame:
    """The dual family obtained by composing each block with the inverse frame operator.

    The refusals come from the eigenvalues of :func:`frame_operator`, and
    one linear solve of the symmetrised operator gives the inverse.
    """
    _check_tol(tol)
    fo = frame_operator(frame)
    _check_invertible(fo.lower, fo.upper, tol)
    eye = np.eye(frame.domain_dim, dtype=frame.dtype)
    return compose_right(frame, np.linalg.solve(linalg.hermitian_part(fo.s), eye))


def _check_pair(first: GFrame, second: GFrame) -> None:
    """Refuse two families that differ in block count or domain dimension."""
    _check_type(first, GFrame, "the first family")
    _check_type(second, GFrame, "the second family")
    if first.n_blocks != second.n_blocks:
        raise LengthMismatch(f"{first.n_blocks} blocks versus {second.n_blocks}")
    if first.domain_dim != second.domain_dim:
        raise ShapeMismatch(
            f"domain dimensions differ: {first.domain_dim} versus {second.domain_dim}"
        )


def is_dual_pair(first: GFrame, second: GFrame, tol: float = DEFAULT_TOL) -> bool:
    """Whether the mixed synthesis sums reproduce the identity both ways.

    ``M = sum_i first_i* second_i`` must satisfy ``|M - I|_F <= tol``, as a
    comparison with the identity, of size 1, through ``linalg._at_most``.
    The other way round the sum is ``M*``, and ``|M* - I|_F = |M - I|_F``,
    so one residual decides both.
    """
    _check_tol(tol)
    _check_pair(first, second)
    if first.block_rows != second.block_rows:
        raise ShapeMismatch("per-block row counts differ")
    mixed = linalg._product(
        stacked_rows(first).conj().T, stacked_rows(second), "the mixed synthesis sum"
    )
    return linalg._at_most(linalg.frobenius(mixed - np.eye(first.domain_dim)), 0.0, 1.0, rtol=tol)


@dataclass(frozen=True)
class ExactnessReport:
    is_exact: bool
    witness: Optional[int]  # 1-based index whose removal keeps a frame
    removal_lower_bounds: tuple
    threshold: float


def is_g_exact(frame: GFrame, tol: float = DEFAULT_TOL) -> ExactnessReport:
    """Whether removing any single block destroys the frame property.

    The raw post-removal lower bounds are reported alongside the verdict
    because the notion of "ceases to be a frame" is threshold-dependent.
    The witness, when present, is the smallest index whose removal keeps
    the lower bound above the threshold.  Removing block ``i`` leaves
    ``S - G_i``, whose extremes ``_kernels.one_bit_spectra`` gives with base
    ``S`` and deltas ``-G_i``, component by component.
    """
    _check_tol(tol)
    return _exactness(frame, frame_operator(frame), tol)


def _exactness(frame: GFrame, fo: FrameOperatorResult, tol: float) -> ExactnessReport:
    """:func:`is_g_exact` from the family's :func:`frame_operator`."""
    from . import _kernels

    threshold = tol * fo.upper
    if not fo.lower > threshold:
        raise NotAFrame("exactness is only defined for frames")
    lows = _kernels.one_bit_spectra(fo.s, -block_grams(frame))[0]
    kept = np.flatnonzero(lows > threshold)
    witness = int(kept[0]) + 1 if len(kept) else None
    return ExactnessReport(
        is_exact=witness is None,
        witness=witness,
        removal_lower_bounds=tuple(lows.tolist()),
        threshold=threshold,
    )


def stacked_rows(frame: GFrame) -> np.ndarray:
    """All block rows stacked into one (sum of d_m) x d matrix."""
    rows = [b for b in frame.blocks if b.shape[0] > 0]
    if not rows:
        return np.zeros((0, frame.domain_dim), dtype=frame.dtype)
    return np.vstack(rows)


@dataclass(frozen=True)
class RieszReport:
    is_riesz: bool
    lower: float
    upper: float
    vector_count: int
    synthesis_min_sv: float


def _spectrum(s: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of the frame operator ``s``, from one values-only solve."""
    w = np.linalg.eigvalsh(linalg.hermitian_part(s))
    return linalg._finite(w, "the spectrum of the frame operator")


def _riesz(frame: GFrame, w: np.ndarray, tol: float) -> RieszReport:
    count, d = sum(frame.block_rows), frame.domain_dim
    # The squared singular values of the stacked rows V are the top
    # min(count, d) eigenvalues w of S = V*V.  With more vectors than
    # dimensions V has a kernel, so the lower Riesz bound is zero.
    lower = float(w[d - count]) if 0 < count <= d else 0.0
    upper = float(w[-1])
    ok = count == d and lower > tol * upper
    return RieszReport(ok, lower, upper, count, float(np.sqrt(max(lower, 0.0))))


def is_g_riesz_basis(frame: GFrame, tol: float = DEFAULT_TOL) -> RieszReport:
    """Riesz classification through the synthesis matrix of induced vectors.

    The family is a Riesz basis exactly when the induced vectors number
    ``domain_dim`` and the synthesis matrix has full rank; the reported
    bounds are its squared extreme singular values, read from the spectrum
    of the frame operator.
    """
    _check_tol(tol)
    return _riesz(frame, _spectrum(frame_operator_matrix(frame)), tol)


@dataclass(frozen=True)
class OnbReport:
    is_onb: bool
    cross_gram_residual: float
    parseval_residual: float
    first_zero_row: Optional[tuple]  # (block index, row index), 1-based


def _onb(frame: GFrame, w: np.ndarray, tol: float) -> OnbReport:
    count, d = sum(frame.block_rows), frame.domain_dim
    # V*V - I has the eigenvalues w - 1.  V V* - I shares those of the top
    # min(count, d) of w and has count - d more equal to -1.
    with np.errstate(over="ignore"):  # a residual past float64 is inf and settles nothing
        squares = np.square(w - 1.0)
        parseval = float(np.sqrt(squares.sum()))
        cross = float(np.sqrt(squares[max(d - count, 0):].sum() + max(count - d, 0)))
    sizes = (1.0, float(w[-1]))
    zero_row = None
    for i, b in enumerate(frame.blocks):
        if b.shape[0] == 0:
            continue
        norms = np.linalg.norm(b, axis=1)
        j = int(np.argmin(norms))
        if linalg._at_most(norms[j], 0.0, *sizes, rtol=tol):
            zero_row = (i + 1, j + 1)
            break
    has_zero_rows = zero_row is not None or any(r == 0 for r in frame.block_rows)
    ok = linalg._at_most(max(cross, parseval), 0.0, *sizes, rtol=tol) and not has_zero_rows
    return OnbReport(ok, cross, parseval, zero_row)


def is_g_orthonormal_basis(frame: GFrame, tol: float = DEFAULT_TOL) -> OnbReport:
    """Orthonormal-basis classification.

    Condition (i), the cross-Gram identity between all block pairs, is
    equivalent to the stacked rows ``V`` having identity Gram; condition
    (ii) is the Parseval identity for the frame operator ``S = V*V``.  Both
    residuals are read from the spectrum of ``S`` and allowed ``tol`` times
    ``max(1, lambda_max(S))``.
    """
    _check_tol(tol)
    return _onb(frame, _spectrum(frame_operator_matrix(frame)), tol)


def _basis_tests(frame: GFrame, s: np.ndarray, tol: float) -> tuple:
    """Both basis tests of ``frame``, whose frame operator is ``s``, from one solve of ``s``."""
    w = _spectrum(s)
    return _riesz(frame, w, tol), _onb(frame, w, tol)


def basis_tests(frame: GFrame, tol: float = DEFAULT_TOL) -> tuple:
    """:func:`is_g_riesz_basis` and :func:`is_g_orthonormal_basis`, from one spectrum of ``S``."""
    _check_tol(tol)
    return _basis_tests(frame, frame_operator_matrix(frame), tol)


@dataclass(frozen=True)
class Classification:
    is_g_frame: bool
    is_g_exact: bool
    is_g_riesz: bool
    is_g_onb: bool
    exactness_witness: Optional[int]
    detail: str


def classify(frame: GFrame, tol: float = DEFAULT_TOL) -> Classification:
    """All four predicates at once, with a diagnostics summary.

    ``S`` is formed once: its :func:`frame_operator` gives the bounds and the
    exactness test, and one values-only solve of it both basis tests.
    """
    _check_tol(tol)
    fo = frame_operator(frame)
    is_frame = fo.lower > tol * fo.upper
    riesz, onb = _basis_tests(frame, fo.s, tol)
    if is_frame:
        exact = _exactness(frame, fo, tol)
        is_exact, witness = exact.is_exact, exact.witness
    else:
        is_exact, witness = False, None
    parts = [
        f"bounds=({fo.lower:.6g}, {fo.upper:.6g})",
        f"riesz_bounds=({riesz.lower:.6g}, {riesz.upper:.6g})",
        f"induced_vectors={riesz.vector_count}",
        f"cross_gram_residual={onb.cross_gram_residual:.3e}",
        f"parseval_residual={onb.parseval_residual:.3e}",
    ]
    if witness is not None:
        parts.append(f"removable_block={witness}")
    if onb.first_zero_row is not None:
        parts.append(
            f"zero_induced_vector=(block {onb.first_zero_row[0]},"
            f" row {onb.first_zero_row[1]})"
        )
    return Classification(
        is_g_frame=is_frame,
        is_g_exact=is_exact,
        is_g_riesz=riesz.is_riesz,
        is_g_onb=onb.is_onb,
        exactness_witness=witness,
        detail="; ".join(parts),
    )


def compose_right(frame: GFrame, u) -> GFrame:
    """New family whose blocks act through ``u`` first."""
    _check_type(frame, GFrame, "the frame")
    mat = linalg._matrix(u, "the operator", square=True)
    if mat.shape[1] != frame.domain_dim:
        raise ShapeMismatch(
            f"operator is {mat.shape[0]}x{mat.shape[1]}, domain dimension is"
            f" {frame.domain_dim}"
        )
    blocks = [linalg._product(b, mat, f"composed block {i + 1}") for i, b in enumerate(frame.blocks)]
    return new_gframe(frame.domain_dim, blocks, labels=frame.labels)


def inverse_root(frame: GFrame, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``S^(-1/2)`` for the frame operator ``S``, from one ``eigh`` of the symmetrised ``S``.

    The same eigenvalues decide the refusals, as in :func:`canonical_dual`.
    The result ``r`` is Hermitian, commutes with ``S`` and satisfies ``r S r = I``
    up to rounding.
    """
    _check_tol(tol)
    s = frame_operator_matrix(frame)
    w, v = np.linalg.eigh(linalg.hermitian_part(s))
    linalg._finite(w, "the spectrum of the frame operator")
    _check_invertible(float(w[0]), float(w[-1]), tol)
    return linalg.hermitian_part((v * (1.0 / np.sqrt(w))) @ v.conj().T)


def parseval_transform(frame: GFrame, tol: float = DEFAULT_TOL) -> GFrame:
    """Compose every block with the inverse square root of the frame operator.

    The result has frame operator equal to the identity.
    """
    return compose_right(frame, inverse_root(frame, tol))
