"""Bridge between block families and ordinary vector frames.

Pulling a frame of each coefficient space back through the block adjoints
produces a family of vectors in the domain; frame, Riesz, and orthonormality
questions can then be answered on either side and must agree.

Each group of vectors is one read-only matrix whose rows are its vectors,
in one dtype.  Vector questions run on the family's GFrame view: each group
is one block whose rows are its conjugated vectors ``v*``, so the block
analysis answers them.  :func:`check_operator_identity` compares the block
frame operator, one product of the stacked block rows, with
:func:`vector_frame_operator`, one product of the vectors that
:func:`induced_vectors` pulls back.  For the orthonormal spec those vectors
are the conjugated block rows, bit for bit, so the two operators agree
exactly; a fault in the pull-back, such as a dropped conjugate, shows as a
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import EnvelopeViolation, LengthMismatch, ShapeMismatch
from .gframe import (
    DEFAULT_TOL,
    BoundsReport,
    GFrame,
    OnbReport,
    RieszReport,
    _basis_tests,
    _check_dim,
    _check_tol,
    _check_type,
    _finite_real,
    _frozen,
    _sequence,
    frame_operator_matrix,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
)
from .weaving import (
    UniversalReport,
    VerificationRecord,
    _check_report,
    universal_bounds_exhaustive,
)


@dataclass(frozen=True)
class VectorFamily:
    """Vectors in the domain, grouped by the block index they came from."""

    domain_dim: int
    groups: tuple  # per group, a read-only (count, domain_dim) matrix of its vectors as rows

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def flat(self) -> tuple:
        """All vectors in (group, position) lexicographic order."""
        return tuple(v for group in self.groups for v in group)


def make_vector_family(domain_dim: int, groups) -> VectorFamily:
    """Freeze each group, a matrix whose rows are its vectors, as a read-only copy."""
    d = _check_dim(domain_dim)
    frozen = []
    for gi, group in enumerate(_sequence(groups, "groups")):
        rows = linalg._matrix(group, f"group {gi + 1}")
        if rows.size and rows.shape[1] != d:
            raise ShapeMismatch(
                f"group {gi + 1} has a vector of length {rows.shape[1]},"
                f" domain dimension is {d}"
            )
        frozen.append(_frozen(rows.reshape(-1, d)))
    return VectorFamily(domain_dim=d, groups=tuple(frozen))


@dataclass(frozen=True)
class SubspaceFrameSpec:
    """Per block, a frame of the block's coefficient space.

    Per-block bounds are computed from the vectors, never asserted, and the
    declared envelope must contain all of them.  ``strict_envelope`` records
    whether the envelope inequalities are strict; a tight spec (equal lower
    and upper envelope) is accepted but flagged.
    """

    groups: tuple  # per block, a read-only matrix whose rows lie in C^{d_m}; () when empty
    per_block_bounds: tuple  # (lower, upper) per nonempty group, None for empty
    envelope: tuple  # (lower, upper)
    strict_envelope: bool


def make_subspace_spec(groups, envelope: Optional[tuple] = None) -> SubspaceFrameSpec:
    """Compute per-block bounds and validate them against the envelope."""
    frozen = []
    bounds = []
    for gi, group in enumerate(_sequence(groups, "groups")):
        rows = linalg._matrix(group, f"group {gi + 1}")
        if not rows.size:  # no vectors, or vectors of length 0
            frozen.append(tuple())
            bounds.append(None)
            continue
        rows = _frozen(rows)
        what = f"group {gi + 1} Gram matrix"
        w = np.linalg.eigvalsh(linalg._product(rows.T, rows.conj(), what))
        linalg._finite(w, f"the spectrum of the {what}")
        bounds.append((float(w[0]), float(w[-1])))
        frozen.append(rows)
    present = [b for b in bounds if b is not None]
    if envelope is None:
        if not present:
            envelope = (1.0, 1.0)
        else:
            envelope = (min(b[0] for b in present), max(b[1] for b in present))
    bound = _sequence(envelope, "the envelope")
    if not (len(bound) == 2 and all(map(_finite_real, bound)) and bound[0] <= bound[1]):
        raise EnvelopeViolation(f"envelope {bound} must be two finite numbers, lower at most upper")
    lo, hi = map(float, bound)
    if lo <= 0:
        raise EnvelopeViolation(f"envelope lower bound must be positive, got {lo}")
    for gi, b in enumerate(bounds):
        if b is None:
            continue
        if not (linalg._at_most(lo, b[0], b[1]) and linalg._at_most(b[1], hi, b[1])):
            raise EnvelopeViolation(
                f"group {gi + 1} bounds ({b[0]:.6g}, {b[1]:.6g}) escape the"
                f" envelope ({lo:.6g}, {hi:.6g})"
            )
    return SubspaceFrameSpec(
        groups=tuple(frozen),
        per_block_bounds=tuple(bounds),
        envelope=(lo, hi),
        strict_envelope=lo < hi,
    )


def onb_families(dims: Sequence[int], scale: float = 1.0) -> SubspaceFrameSpec:
    """Canonical (optionally scaled) orthonormal bases of each coefficient space."""
    if not _finite_real(scale):
        raise ShapeMismatch(f"scale must be a finite real number, got {scale!r}")
    sizes = [_check_dim(dm, "coefficient dimension", least=0) for dm in _sequence(dims, "dims")]
    groups = [scale * np.eye(dm) for dm in sizes]
    square = linalg._finite(float(scale) * float(scale), "the squared scale")
    return make_subspace_spec(groups, envelope=(square, square))


def induced_vectors(frame: GFrame, spec: SubspaceFrameSpec) -> VectorFamily:
    """Pull the per-block vectors back through the block adjoints.

    One product per block: row ``j`` of ``rows @ B.conj()`` is ``(B* u_j)^T``
    for the spec's ``j``-th vector ``u_j``.
    """
    _check_type(frame, GFrame, "the frame")
    _check_type(spec, SubspaceFrameSpec, "the spec")
    if len(spec.groups) != frame.n_blocks:
        raise LengthMismatch(
            f"spec has {len(spec.groups)} groups, family has {frame.n_blocks} blocks"
        )
    groups = []
    for i, (block, rows) in enumerate(zip(frame.blocks, spec.groups)):
        if len(rows) and rows.shape[1] != block.shape[0]:
            raise ShapeMismatch(
                f"group {i + 1} vector length {rows.shape[1]} does not match"
                f" block rows {block.shape[0]}"
            )
        what = f"the induced-vector matrix of group {i + 1}"
        groups.append(linalg._product(rows, block.conj(), what) if len(rows) else rows)
    return make_vector_family(frame.domain_dim, groups)


def vector_frame_operator(family: VectorFamily) -> np.ndarray:
    """Sum of the rank-one terms ``v v*`` of all vectors, as one product of the stacked vectors."""
    _check_type(family, VectorFamily, "the vector family")
    if not family.flat:
        return np.zeros((family.domain_dim, family.domain_dim))
    rows = np.array(family.flat)
    return linalg._product(rows.T, rows.conj(), "the vector frame operator")


def _as_gframe(family: VectorFamily) -> GFrame:
    """The family as a block family: group ``m`` is the block whose rows are its ``v*``."""
    _check_type(family, VectorFamily, "the vector family")
    return new_gframe(family.domain_dim, [rows.conj() for rows in family.groups])


def frame_bounds_vectors(family: VectorFamily, tol: float = DEFAULT_TOL) -> BoundsReport:
    """Optimal ordinary-frame bounds of the vector family."""
    return optimal_bounds(_as_gframe(family), tol)


def is_riesz_basis_vectors(family: VectorFamily, tol: float = DEFAULT_TOL) -> RieszReport:
    """Riesz test on the synthesis matrix of the flattened family."""
    return is_g_riesz_basis(_as_gframe(family), tol)


def is_onb_vectors(family: VectorFamily, tol: float = DEFAULT_TOL) -> OnbReport:
    """Orthonormal-basis test: Gram and frame operator both equal the identity.

    An empty group counts as a zero-row block and fails the test.  The
    witness follows :func:`is_g_orthonormal_basis`: the smallest-norm vector
    of the first group that has a near-zero vector, as (group, position).
    """
    return is_g_orthonormal_basis(_as_gframe(family), tol)


def universal_bounds_vectors(
    first: VectorFamily,
    second: VectorFamily,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
) -> UniversalReport:
    """Exhaustive universal bounds where selections move whole groups.

    All vectors coming from one block index travel together, matching the
    double-sum structure of the block-level weaving.
    """
    return universal_bounds_exhaustive(_as_gframe(first), _as_gframe(second), tol, cap)


def check_operator_identity(frame: GFrame, tol: float = linalg.ZERO_RTOL) -> VerificationRecord:
    """The block frame operator equals the induced-vector frame operator.

    Both are the same sum of rank-one terms, so the entrywise difference must
    sit at rounding level, at most ``tol`` times the largest entry of the
    block operator, and the Riesz and orthonormality verdicts computed
    on either side, from the spectrum of that side's operator, must agree.
    """
    _check_tol(tol)
    _check_type(frame, GFrame, "the frame")
    vectors = induced_vectors(frame, onb_families(frame.block_rows))
    s_blocks = frame_operator_matrix(frame)
    s_vectors = vector_frame_operator(vectors)
    diff = float(np.abs(s_blocks - s_vectors).max(initial=0.0))
    size = float(np.abs(s_blocks).max(initial=0.0))
    riesz, onb = _basis_tests(frame, s_blocks, DEFAULT_TOL)
    riesz_b, onb_b = riesz.is_riesz, onb.is_onb
    riesz, onb = _basis_tests(_as_gframe(vectors), s_vectors, DEFAULT_TOL)
    riesz_v, onb_v = riesz.is_riesz, onb.is_onb
    ok = linalg._at_most(diff, 0.0, size, rtol=tol) and riesz_b == riesz_v and onb_b == onb_v
    return VerificationRecord(
        name="operator-identity",
        passed=ok,
        computed={
            "max_entry_difference": diff,
            "riesz_blocks": riesz_b,
            "riesz_vectors": riesz_v,
            "onb_blocks": onb_b,
            "onb_vectors": onb_v,
        },
        expected={"max_entry_difference_at_most": tol * size, "verdicts_match": True},
    )


def check_weaving_transfer(
    first: GFrame,
    second: GFrame,
    spec_first: SubspaceFrameSpec,
    spec_second: SubspaceFrameSpec,
    tol: float = DEFAULT_TOL,
    cap: Optional[int] = None,
    report: Optional[UniversalReport] = None,
) -> VerificationRecord:
    """Woven-ness transfers between block level and induced-vector level.

    The verdicts must agree, and when both sides are woven the optimal
    universal bounds satisfy the four envelope-scaled inequalities coming
    from the per-block frame bounds.  ``report`` is the block pair's
    exhaustive :class:`UniversalReport` when the caller already holds it;
    without it the pair is scanned here.
    """
    _check_tol(tol)
    vf = induced_vectors(first, spec_first)
    vg = induced_vectors(second, spec_second)
    a1, b1 = spec_first.envelope
    a2, b2 = spec_second.envelope
    if report is None:
        report = universal_bounds_exhaustive(first, second, tol, cap)
    _check_report(first, second, report, woven=False)
    v_rep = universal_bounds_vectors(vf, vg, tol, cap)
    computed = {
        "block_woven": report.woven,
        "vector_woven": v_rep.woven,
        "block_bounds": (report.lower, report.upper),
        "vector_bounds": (v_rep.lower, v_rep.upper),
    }
    ok = report.woven == v_rep.woven
    detail = ""
    if not spec_first.strict_envelope or not spec_second.strict_envelope:
        detail = "tight envelope (equal lower and upper) accepted but flagged"
    if ok and report.woven:
        a_g, b_g = report.lower, report.upper
        a_v, b_v = v_rep.lower, v_rep.upper
        ok = (
            linalg._at_most(a_g * min(a1, a2), a_v, b_g, b_v)
            and linalg._at_most(b_v, b_g * max(b1, b2), b_g, b_v)
            and linalg._at_most(a_v / max(b1, b2), a_g, b_g, b_v)
            and linalg._at_most(b_g, b_v / min(a1, a2), b_g, b_v)
        )
    return VerificationRecord(
        name="weaving-transfer",
        passed=ok,
        computed=computed,
        expected={
            "verdicts_match": True,
            "envelope_first": (a1, b1),
            "envelope_second": (a2, b2),
        },
        detail=detail,
    )
