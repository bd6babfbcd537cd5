"""Induced vector families and the block-to-vector transfer checks."""

import numpy as np
import pytest

from gweave import _kernels, induced, linalg
from gweave.errors import (
    Empty,
    EnvelopeViolation,
    GWeaveError,
    LengthMismatch,
    NonFinite,
    ShapeMismatch,
)
from gweave.gframe import frame_operator, frame_operator_matrix, new_gframe
from gweave.induced import (
    check_operator_identity,
    check_weaving_transfer,
    frame_bounds_vectors,
    induced_vectors,
    is_onb_vectors,
    is_riesz_basis_vectors,
    make_subspace_spec,
    make_vector_family,
    onb_families,
    universal_bounds_vectors,
    vector_frame_operator,
)
from gweave.suite import (
    build_duplicate_vs_split_pair,
    build_projection_family,
    build_shifted_projection_pair,
    build_window_pair,
)
from gweave.weaving import universal_bounds_exhaustive

from conftest import linalg_calls, random_gframe
from oracles import accumulated_frame_operator, rayleigh_sample_range


def random_spec(rng, frame):
    """Random frames of each block's coefficient space, not orthonormal in general."""
    groups = []
    for dm in frame.block_rows:
        count = dm + int(rng.integers(0, 3))
        groups.append([rng.standard_normal(dm) for _ in range(count)])
    # resample any group that is not a frame of its block space
    for gi, group in enumerate(groups):
        dm = frame.block_rows[gi]
        while dm and np.linalg.matrix_rank(np.stack(group)) < dm:
            groups[gi] = [rng.standard_normal(dm) for _ in range(len(group))]
            group = groups[gi]
    return make_subspace_spec(groups)


class TestSpecs:
    def test_singleton_bases(self):
        spec = onb_families([1, 1, 1])
        assert spec.envelope == (1.0, 1.0)
        assert all(b == (1.0, 1.0) for b in spec.per_block_bounds)
        assert not spec.strict_envelope

    def test_scaled_bases(self):
        spec = onb_families([3, 2], scale=2.0)
        assert spec.envelope == (4.0, 4.0)
        assert spec.per_block_bounds[0] == (pytest.approx(4.0), pytest.approx(4.0))

    def test_zero_dimension_gives_empty_group(self):
        spec = onb_families([2, 0, 1])
        assert spec.groups[1] == ()
        assert spec.per_block_bounds[1] is None

    def test_envelope_violation(self):
        with pytest.raises(EnvelopeViolation):
            make_subspace_spec([[np.array([2.0, 0.0]), np.array([0.0, 2.0])]], envelope=(1.0, 2.0))

    @pytest.mark.parametrize(
        "envelope", [(2.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1.0)]
    )
    @pytest.mark.parametrize("groups", [[[], []], [[np.array([1.0])]]])
    def test_envelope_no_frame_has_is_refused(self, groups, envelope):
        with pytest.raises(EnvelopeViolation):
            make_subspace_spec(groups, envelope=envelope)

    @pytest.mark.parametrize("envelope", [None, (1.0, 2.0)])
    def test_a_group_whose_gram_overflows_is_nonfinite(self, envelope):
        """The second group's Gram entry 1e310 is refused by name, with no warning."""
        groups = [[np.array([1.0])], [np.array([1e155])]]
        with pytest.raises(NonFinite, match="^group 2 "):
            make_subspace_spec(groups, envelope)

    @pytest.mark.parametrize("groups", [[[]], [[], []], [[[]], [[], []]], [np.zeros((3, 0))]])
    def test_a_spec_of_empty_groups_gets_the_unit_envelope(self, groups):
        spec = make_subspace_spec(groups)
        assert spec.envelope == (1.0, 1.0) and not spec.strict_envelope
        assert spec.groups == ((),) * len(groups)
        assert spec.per_block_bounds == (None,) * len(groups)

    def test_computed_envelope_and_strictness(self):
        groups = [
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            [np.array([2.0])],
        ]
        spec = make_subspace_spec(groups)
        assert spec.envelope == (1.0, 4.0)
        assert spec.strict_envelope


class TestInducedVectors:
    def test_projection_family_recovers_basis(self):
        frame = build_projection_family(4, 1)
        fam = induced_vectors(frame, onb_families(frame.block_rows))
        stacked = np.stack(fam.flat)
        np.testing.assert_allclose(stacked, np.eye(4))

    def test_scaled_spec_scales_vectors(self):
        frame = build_projection_family(4, 3)
        fam = induced_vectors(frame, onb_families(frame.block_rows, scale=2.0))
        rep = frame_bounds_vectors(fam)
        assert rep.lower == pytest.approx(4.0)
        assert rep.upper == pytest.approx(4.0)

    def test_parity_split_family_permutes_basis(self):
        pair = build_duplicate_vs_split_pair(4)
        fam = induced_vectors(pair.second, onb_families(pair.second.block_rows))
        assert is_riesz_basis_vectors(fam).is_riesz
        assert is_onb_vectors(fam).is_onb

    def test_group_count_mismatch(self):
        frame = build_projection_family(3, 1)
        with pytest.raises(LengthMismatch):
            induced_vectors(frame, onb_families([1, 1]))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_random_specs_against_per_vector_oracles(self, complex_mode):
        """Whole-group products match per-vector matvecs and rank-one sums; vectors are frozen."""
        rng = np.random.default_rng(21 + complex_mode)
        for _ in range(4):
            frame = random_gframe(rng, d=5, n=4, complex_mode=complex_mode)
            groups = []
            for dm in frame.block_rows:
                vecs = [rng.standard_normal(dm) for _ in range(dm + int(rng.integers(0, 3)))]
                if complex_mode:
                    vecs = [v + 1j * rng.standard_normal(dm) for v in vecs]
                groups.append(vecs)
            spec = make_subspace_spec(groups)
            for vecs, bounds in zip(groups, spec.per_block_bounds):
                op = sum(np.outer(v, v.conj()) for v in vecs)
                w = np.linalg.eigvalsh(op)
                assert np.max(np.abs(np.array(bounds) - w[[0, -1]])) <= 1e-12 * max(1.0, w[-1])
            fam = induced_vectors(frame, spec)
            assert fam.n_groups == frame.n_blocks
            for block, vecs, got in zip(frame.blocks, groups, fam.groups):
                want = np.array([block.conj().T @ u for u in vecs])
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            # the block view's witnesses are eigenvectors of the vectors' own operator
            op = vector_frame_operator(fam)
            rep = frame_bounds_vectors(fam)
            for value, w in ((rep.lower, rep.witness_low), (rep.upper, rep.witness_high)):
                assert np.linalg.norm(op @ w - value * w) <= 1e-10 * max(1.0, rep.upper)
            vf = make_vector_family(frame.domain_dim, [[np.array(v) for v in fam.flat]])
            for family_groups in (spec.groups, fam.groups, vf.groups):
                for v in (v for group in family_groups for v in group):
                    assert not v.flags.writeable
                    with pytest.raises(ValueError):
                        v[0] = 0.0

    def test_a_group_mixing_real_and_complex_vectors_is_complex(self):
        mixed = [np.array([1.0, 0.0]), np.array([0.0, 1j])]
        spec = make_subspace_spec([mixed, [np.array([2.0])]])
        fam = make_vector_family(2, [mixed, [np.array([2.0, 0.0])]])
        for family_groups in (spec.groups, fam.groups):
            assert family_groups[0].dtype == np.complex128
            assert all(v.dtype == np.complex128 for v in family_groups[0])
            assert family_groups[1].dtype == np.float64
        integers = make_vector_family(2, [[np.array([1, 0]), np.array([0, 1])]])
        assert integers.groups[0].dtype == np.float64


class TestVectorPredicates:
    def test_canonical_basis(self):
        fam = make_vector_family(3, [[np.eye(3)[i]] for i in range(3)])
        rep = frame_bounds_vectors(fam)
        assert (rep.lower, rep.upper) == (pytest.approx(1.0), pytest.approx(1.0))
        riesz = is_riesz_basis_vectors(fam)
        assert riesz.is_riesz and riesz.lower == pytest.approx(1.0)
        assert is_onb_vectors(fam).is_onb

    def test_doubled_basis_bounds(self):
        fam = make_vector_family(2, [[np.eye(2)[i], np.eye(2)[i]] for i in range(2)])
        rep = frame_bounds_vectors(fam)
        assert (rep.lower, rep.upper) == (pytest.approx(2.0), pytest.approx(2.0))
        assert not is_riesz_basis_vectors(fam).is_riesz

    def test_random_family_bracket(self):
        rng = np.random.default_rng(2)
        vecs = [rng.standard_normal(3) for _ in range(5)]
        fam = make_vector_family(3, [vecs])
        rep = frame_bounds_vectors(fam)
        lo, hi, _ = rayleigh_sample_range(vector_frame_operator(fam), 1000, 2)
        assert rep.lower - 1e-9 <= lo and hi <= rep.upper + 1e-9

    def test_family_without_groups_is_refused(self):
        fam = make_vector_family(3, [])
        for analyse in (frame_bounds_vectors, is_riesz_basis_vectors, is_onb_vectors):
            with pytest.raises(Empty):
                analyse(fam)
        with pytest.raises(Empty) as info:
            universal_bounds_vectors(fam, fam)
        assert isinstance(info.value, GWeaveError)

    def test_gram_and_operator_share_nonzero_spectrum(self):
        rng = np.random.default_rng(3)
        vecs = [rng.standard_normal(4) for _ in range(3)]
        fam = make_vector_family(4, [vecs])
        t = np.column_stack(vecs)
        op_eigs = np.linalg.eigvalsh(vector_frame_operator(fam))
        gram_eigs = np.linalg.eigvalsh(t.conj().T @ t)
        np.testing.assert_allclose(op_eigs[-3:], gram_eigs, atol=1e-9)

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_vector_frame_operator_against_accumulation_oracle(self, complex_mode):
        rng = np.random.default_rng(4)
        groups = [[rng.standard_normal(4) for _ in range(k)] for k in (2, 0, 3)]
        if complex_mode:
            groups[2][1] = groups[2][1] + 1j * rng.standard_normal(4)
        fam = make_vector_family(4, groups)
        op = vector_frame_operator(fam)
        assert op.dtype == (np.complex128 if complex_mode else np.float64)
        oracle = accumulated_frame_operator(list(fam.flat), 4)
        assert np.max(np.abs(op - oracle)) <= 1e-12

    def test_vector_frame_operator_of_no_vectors_is_zero(self):
        for groups in ([], [[], []]):
            op = vector_frame_operator(make_vector_family(3, groups))
            assert op.shape == (3, 3) and not op.any()


class TestVectorWeaving:
    def test_window_pair_scaled_universal(self):
        pair = build_window_pair(8)
        vf = induced_vectors(pair.first, onb_families(pair.first.block_rows, scale=2.0))
        vg = induced_vectors(pair.second, onb_families(pair.second.block_rows, scale=2.0))
        rep = universal_bounds_vectors(vf, vg)
        assert rep.lower == pytest.approx(4.0, abs=1e-9)
        assert rep.upper == pytest.approx(8.0, abs=1e-9)

    def test_shifted_pair_vanishes_at_first_block(self):
        pair = build_shifted_projection_pair(8)
        vf = induced_vectors(pair.first, onb_families(pair.first.block_rows, scale=2.0))
        vg = induced_vectors(pair.second, onb_families(pair.second.block_rows, scale=2.0))
        rep = universal_bounds_vectors(vf, vg)
        assert not rep.woven
        assert rep.argmin.indices == (1,)
        assert rep.lower == pytest.approx(0.0, abs=1e-12)

    def test_identical_families_ignore_selection(self):
        rng = np.random.default_rng(4)
        frame = random_gframe(rng, d=3, n=4)
        fam = induced_vectors(frame, onb_families(frame.block_rows))
        rep = universal_bounds_vectors(fam, fam)
        bounds = frame_bounds_vectors(fam)
        assert rep.lower == pytest.approx(bounds.lower, abs=1e-10)
        assert rep.upper == pytest.approx(bounds.upper, abs=1e-10)

    def test_onb_specs_reduce_to_block_weaving(self):
        rng = np.random.default_rng(5)
        first = random_gframe(rng, d=3, n=4)
        second = random_gframe(rng, d=3, n=4)
        vf = induced_vectors(first, onb_families(first.block_rows))
        vg = induced_vectors(second, onb_families(second.block_rows))
        v_rep = universal_bounds_vectors(vf, vg)
        g_rep = universal_bounds_exhaustive(first, second)
        assert v_rep.lower == pytest.approx(g_rep.lower, abs=1e-10)
        assert v_rep.upper == pytest.approx(g_rep.upper, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_complex_pairs_with_random_specs_match_a_brute_scan(self, seed):
        rng = np.random.default_rng(100 + seed)
        first = random_gframe(rng, n=int(rng.integers(2, 7)), complex_mode=True)
        second = random_gframe(rng, d=first.domain_dim, n=first.n_blocks, complex_mode=True)
        vf = induced_vectors(first, random_spec(rng, first))
        vg = induced_vectors(second, random_spec(rng, second))
        rep = universal_bounds_vectors(vf, vg)
        spectra = []
        for mask in range(1 << vf.n_groups):
            chosen = [
                v
                for m in range(vf.n_groups)
                for v in (vf.groups[m] if (mask >> m) & 1 else vg.groups[m])
            ]
            spectra.append(
                np.linalg.eigvalsh(accumulated_frame_operator(chosen, vf.domain_dim))
            )
        lows = np.array([w[0] for w in spectra])
        highs = np.array([w[-1] for w in spectra])
        assert rep.lower == pytest.approx(lows.min(), abs=1e-10)
        assert rep.upper == pytest.approx(highs.max(), abs=1e-10)
        assert lows[rep.argmin.mask] == pytest.approx(rep.lower, abs=1e-10)
        assert highs[rep.argmax.mask] == pytest.approx(rep.upper, abs=1e-10)


class TestOperatorIdentity:
    def test_projection_family(self):
        frame = build_projection_family(4, 1)
        rec = check_operator_identity(frame)
        assert rec.passed
        np.testing.assert_allclose(frame_operator(frame).s, np.eye(4), atol=1e-14)

    def test_duplicate_rows_family(self):
        pair = build_duplicate_vs_split_pair(4)
        rec = check_operator_identity(pair.first)
        assert rec.passed
        np.testing.assert_allclose(frame_operator(pair.first).s, 2 * np.eye(16), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_families(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_gframe(rng, complex_mode=seed % 2 == 1)
        rec = check_operator_identity(frame)
        assert rec.passed, rec.computed

    def test_reads_no_eigenvectors(self, monkeypatch):
        frame = random_gframe(np.random.default_rng(12), d=4, n=3, complex_mode=True)
        expected = check_operator_identity(frame)

        def refuse(*args):
            raise AssertionError("an eigenvector was read")

        monkeypatch.setattr(linalg, "_fix_phases", refuse)
        assert check_operator_identity(frame) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_orthonormal_spec_gives_bitwise_equal_operators(self, seed):
        frame = random_gframe(np.random.default_rng(seed), complex_mode=seed % 2 == 1)
        assert check_operator_identity(frame).computed["max_entry_difference"] == 0.0

    def test_fails_when_the_induced_vectors_drop_the_conjugate(self, monkeypatch):
        frame = random_gframe(np.random.default_rng(3), d=4, n=3, complex_mode=True)
        assert check_operator_identity(frame).passed

        def unconjugated(frame, spec):
            groups = [rows @ block for block, rows in zip(frame.blocks, spec.groups)]
            return make_vector_family(frame.domain_dim, groups)

        monkeypatch.setattr(induced, "induced_vectors", unconjugated)
        rec = check_operator_identity(frame)
        assert not rec.passed
        assert rec.computed["max_entry_difference"] > 1e-3

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_one_spectrum_per_side(self, monkeypatch, complex_mode):
        """No SVD and no eigenvectors: one values-only solve of each side's operator.

        The other values-only solves are the spec's, one per group Gram matrix.
        """
        frame = random_gframe(np.random.default_rng(5), complex_mode=complex_mode)
        expected = check_operator_identity(frame)
        sides = [
            frame_operator_matrix(frame),
            vector_frame_operator(induced_vectors(frame, onb_families(frame.block_rows))),
        ]
        calls = linalg_calls(monkeypatch, "svd", "eigh")
        solved = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or real_eigvalsh(a))
        assert check_operator_identity(frame) == expected
        assert calls == []
        assert len(solved) == 2 + frame.n_blocks
        for a, s in zip(solved[-2:], sides):
            np.testing.assert_array_equal(a, linalg.hermitian_part(s))

    def test_orthonormal_basis_with_a_zero_row_block(self):
        frame = new_gframe(2, [[1.0, 0.0], [0.0, 1.0], np.zeros((0, 2))])
        rec = check_operator_identity(frame)
        assert rec.passed, rec.computed
        assert rec.computed["max_entry_difference"] == 0.0
        assert not rec.computed["onb_blocks"] and not rec.computed["onb_vectors"]

    def test_identity_against_accumulation_oracle(self):
        rng = np.random.default_rng(11)
        frame = random_gframe(rng, d=4, n=3)
        fam = induced_vectors(frame, onb_families(frame.block_rows))
        oracle = accumulated_frame_operator(list(fam.flat), 4)
        assert np.max(np.abs(frame_operator(frame).s - oracle)) <= 1e-12


class TestWeavingTransfer:
    def test_shifted_pair_not_woven_on_both_levels(self):
        pair = build_shifted_projection_pair(8)
        spec_f = onb_families(pair.first.block_rows, scale=2.0)
        spec_g = onb_families(pair.second.block_rows, scale=2.0)
        rec = check_weaving_transfer(pair.first, pair.second, spec_f, spec_g)
        assert rec.passed
        assert not rec.computed["block_woven"]
        assert not rec.computed["vector_woven"]

    def test_window_pair_transfers_with_tight_envelopes(self):
        pair = build_window_pair(8)
        spec_f = onb_families(pair.first.block_rows, scale=2.0)
        spec_g = onb_families(pair.second.block_rows, scale=2.0)
        rec = check_weaving_transfer(pair.first, pair.second, spec_f, spec_g)
        assert rec.passed
        assert rec.computed["block_woven"] and rec.computed["vector_woven"]
        assert "tight envelope" in rec.detail

    def test_a_given_report_replaces_the_block_scan(self, monkeypatch):
        """With the pair's report the record is the same, and only the vector pair is scanned."""
        pair = build_window_pair(8)
        spec_f = onb_families(pair.first.block_rows, scale=2.0)
        spec_g = onb_families(pair.second.block_rows, scale=2.0)
        expected = check_weaving_transfer(pair.first, pair.second, spec_f, spec_g)
        report = universal_bounds_exhaustive(pair.first, pair.second)
        scans = []
        scan = _kernels.weaving_scan
        monkeypatch.setattr(_kernels, "weaving_scan", lambda *a: scans.append(1) or scan(*a))
        got = check_weaving_transfer(pair.first, pair.second, spec_f, spec_g, report=report)
        assert got == expected and scans == [1]

        other = build_window_pair(9)
        with pytest.raises(LengthMismatch):
            check_weaving_transfer(
                pair.first,
                pair.second,
                spec_f,
                spec_g,
                report=universal_bounds_exhaustive(other.first, other.second),
            )
        with pytest.raises(ShapeMismatch):
            check_weaving_transfer(pair.first, pair.second, spec_f, spec_g, report=expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_with_random_block_frames(self, seed):
        rng = np.random.default_rng(seed)
        first = random_gframe(rng, d=3, n=3)
        second = random_gframe(rng, d=3, n=3)
        rec = check_weaving_transfer(
            first, second, random_spec(rng, first), random_spec(rng, second)
        )
        assert rec.passed, rec.computed
