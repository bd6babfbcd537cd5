"""Block-operator frame model and every single-family analysis.

A :class:`GFrame` is an ordered family of dense blocks, block ``m`` of shape
``(d_m, d)``, realizing an operator from the common d-dimensional domain into
a d_m-dimensional coefficient space.  Block indices are 0-based internally;
everything user-facing (witnesses, certificates, reports) is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels, linalg
from .errors import Empty, LengthMismatch, NonFinite, NotAFrame, ShapeMismatch, Singular

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class GFrame:
    domain_dim: int
    blocks: tuple
    labels: Optional[tuple] = None

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
    """Validate shapes and freeze an immutable family.

    1-d block inputs are accepted as single rows.  All blocks are promoted to
    a common dtype (complex128 when any input is complex, float64 otherwise)
    and marked read-only.
    """
    d = int(domain_dim)
    if d < 1:
        raise ShapeMismatch(f"domain dimension must be positive, got {d}")
    mats = []
    for i, raw in enumerate(blocks):
        a = np.asarray(raw)
        if a.ndim == 1:
            a = a[np.newaxis, :]
        if a.ndim != 2:
            raise ShapeMismatch(f"block {i + 1} has ndim {a.ndim}, expected 2")
        if a.shape[1] != d and a.shape[0] != 0:
            raise ShapeMismatch(
                f"block {i + 1} has {a.shape[1]} columns, domain dimension is {d}"
            )
        mats.append(a)
    if not mats:
        raise Empty("a family needs at least one block")
    dtype = np.result_type(np.float64, *(a.dtype for a in mats))
    dtype = np.complex128 if np.issubdtype(dtype, np.complexfloating) else np.float64
    frozen = []
    for i, a in enumerate(mats):
        # Zero-row blocks encode the zero operator onto a trivial summand
        # and are allowed; the finiteness check is vacuous for them.
        b = np.ascontiguousarray(a.reshape(a.shape[0], d), dtype=dtype)
        if b.size and not np.isfinite(b).all():
            raise NonFinite(f"block {i + 1} contains NaN or Inf entries")
        b.setflags(write=False)
        frozen.append(b)
    if labels is not None:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(frozen):
            raise LengthMismatch(
                f"{len(labels)} labels for {len(frozen)} blocks"
            )
    return GFrame(domain_dim=d, blocks=tuple(frozen), labels=labels)


def apply(frame: GFrame, h) -> list:
    """Analysis map: the list of per-block coefficient vectors."""
    x = np.asarray(h).ravel()
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
    """Frame operator with its extreme eigenvalues and unit witness vectors."""
    s = frame_operator_matrix(frame)
    eig = linalg.hermitian_eig(s)
    linalg._finite(eig.eigenvalues, "the spectrum of the frame operator")
    return FrameOperatorResult(
        s=s,
        lower=float(eig.eigenvalues[0]),
        upper=float(eig.eigenvalues[-1]),
        witness_low=eig.eigenvectors[:, 0],
        witness_high=eig.eigenvectors[:, -1],
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
    then :class:`Singular` when it is below ``linalg``'s rank tolerance.
    """
    if not lower > tol * upper:
        raise NotAFrame(f"lower bound {lower:.3e} not above threshold {tol * upper:.3e}")
    if lower <= max(linalg.RANK_RTOL * upper, linalg.ABS_FLOOR):
        raise Singular(f"smallest eigenvalue {lower:.3e} below rank tolerance")


def canonical_dual(frame: GFrame, tol: float = DEFAULT_TOL) -> GFrame:
    """The dual family obtained by composing each block with the inverse frame operator.

    The refusals come from the eigenvalues of :func:`frame_operator`, and
    one linear solve of the symmetrised operator gives the inverse.
    """
    fo = frame_operator(frame)
    _check_invertible(fo.lower, fo.upper, tol)
    eye = np.eye(frame.domain_dim, dtype=frame.dtype)
    return compose_right(frame, np.linalg.solve(linalg.hermitian_part(fo.s), eye))


def is_dual_pair(first: GFrame, second: GFrame, tol: float = DEFAULT_TOL) -> bool:
    """Whether the mixed synthesis sums reproduce the identity both ways.

    ``M = sum_i first_i* second_i`` must satisfy ``|M - I|_F <= tol``, with
    ``tol`` an absolute tolerance.  The other way round the sum is ``M*``,
    and ``|M* - I|_F = |M - I|_F``, so one residual decides both.
    """
    if first.n_blocks != second.n_blocks:
        raise LengthMismatch(
            f"{first.n_blocks} blocks versus {second.n_blocks}"
        )
    if first.domain_dim != second.domain_dim:
        raise ShapeMismatch("domain dimensions differ")
    if first.block_rows != second.block_rows:
        raise ShapeMismatch("per-block row counts differ")
    mixed = linalg._product(
        stacked_rows(first).conj().T, stacked_rows(second), "the mixed synthesis sum"
    )
    return linalg.frobenius(mixed - np.eye(first.domain_dim)) <= tol


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
    ``S - G_i``, the operator of row ``i`` of the identity in the kernel's
    split operator with base ``S`` and deltas ``-G_i``, so each removal is
    solved component by component.
    """
    fo = frame_operator(frame)
    threshold = tol * fo.upper
    if not fo.lower > threshold:
        raise NotAFrame("exactness is only defined for frames")
    n = frame.n_blocks
    operator = _kernels._SplitOperator(fo.s, -block_grams(frame))
    batches = _kernels._batches(n, operator.step)
    lows = np.concatenate(
        [operator.extremes(np.eye(min(p.stop, n) - p.start, n, p.start))[0] for p in batches]
    )
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


def _synthesis(frame: GFrame) -> tuple:
    """The stacked rows ``V``, their singular values from one values-only SVD, and ``|V|_2^2``.

    Both basis tests read these.  Refuses ``V`` whose squared 2-norm
    overflows float64; it bounds every entry of ``V V*`` and ``V*V``.
    """
    v = stacked_rows(frame)
    # with no rows, one zero singular value gives the zero bounds
    s = np.linalg.svd(v, compute_uv=False) if v.size else np.zeros(1)
    upper = float(linalg._product(s[:1], s[:1], "the squared norm of the stacked rows"))
    return v, s, upper


def _riesz(frame: GFrame, synthesis: tuple, tol: float) -> RieszReport:
    v, s, upper = synthesis
    count = v.shape[0]
    # With more vectors than dimensions the synthesis map has a kernel, so
    # the true lower Riesz bound over coefficient sequences is zero.
    lower = 0.0 if count > frame.domain_dim else float(s[-1] ** 2)
    min_sv = float(s[-1]) if count <= frame.domain_dim else 0.0
    ok = count == frame.domain_dim and lower > tol * upper
    return RieszReport(ok, lower, upper, count, min_sv)


def is_g_riesz_basis(frame: GFrame, tol: float = DEFAULT_TOL) -> RieszReport:
    """Riesz classification through the synthesis matrix of induced vectors.

    The family is a Riesz basis exactly when the induced vectors number
    ``domain_dim`` and the synthesis matrix has full rank; the reported
    bounds are the squared extreme singular values.
    """
    return _riesz(frame, _synthesis(frame), tol)


@dataclass(frozen=True)
class OnbReport:
    is_onb: bool
    cross_gram_residual: float
    parseval_residual: float
    first_zero_row: Optional[tuple]  # (block index, row index), 1-based


def _onb(frame: GFrame, synthesis: tuple, tol: float) -> OnbReport:
    v, _, upper = synthesis
    d = frame.domain_dim
    cross = linalg.frobenius(v @ v.conj().T - np.eye(v.shape[0]))
    parseval = linalg.frobenius(v.conj().T @ v - np.eye(d))
    abs_tol = tol * max(1.0, upper)
    zero_row = None
    for i, b in enumerate(frame.blocks):
        if b.shape[0] == 0:
            continue
        norms = np.linalg.norm(b, axis=1)
        j = int(np.argmin(norms))
        if norms[j] <= abs_tol:
            zero_row = (i + 1, j + 1)
            break
    has_zero_rows = zero_row is not None or any(r == 0 for r in frame.block_rows)
    ok = cross <= abs_tol and parseval <= abs_tol and not has_zero_rows
    return OnbReport(ok, cross, parseval, zero_row)


def is_g_orthonormal_basis(frame: GFrame, tol: float = DEFAULT_TOL) -> OnbReport:
    """Orthonormal-basis classification.

    Condition (i), the cross-Gram identity between all block pairs, is
    equivalent to the stacked rows having identity Gram; condition (ii) is
    the Parseval identity for the frame operator.  Both residuals are
    allowed ``tol`` times ``max(1, |V|_2^2)`` for the stacked rows ``V``.
    """
    return _onb(frame, _synthesis(frame), tol)


def basis_tests(frame: GFrame, tol: float = DEFAULT_TOL) -> tuple:
    """:func:`is_g_riesz_basis` and :func:`is_g_orthonormal_basis`, from one SVD of the rows."""
    synthesis = _synthesis(frame)
    return _riesz(frame, synthesis, tol), _onb(frame, synthesis, tol)


@dataclass(frozen=True)
class Classification:
    is_g_frame: bool
    is_g_exact: bool
    is_g_riesz: bool
    is_g_onb: bool
    exactness_witness: Optional[int]
    detail: str


def classify(frame: GFrame, tol: float = DEFAULT_TOL) -> Classification:
    """All four predicates at once, with a diagnostics summary."""
    bounds = optimal_bounds(frame, tol)
    riesz, onb = basis_tests(frame, tol)
    if bounds.is_frame:
        exact = is_g_exact(frame, tol)
        is_exact, witness = exact.is_exact, exact.witness
    else:
        is_exact, witness = False, None
    parts = [
        f"bounds=({bounds.lower:.6g}, {bounds.upper:.6g})",
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
        is_g_frame=bounds.is_frame,
        is_g_exact=is_exact,
        is_g_riesz=riesz.is_riesz,
        is_g_onb=onb.is_onb,
        exactness_witness=witness,
        detail="; ".join(parts),
    )


def compose_right(frame: GFrame, u) -> GFrame:
    """New family whose blocks act through ``u`` first."""
    mat = linalg.as_matrix(u, square=True)
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
