"""Family model, frame operator, bounds, duals, and classification."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave import linalg
from gweave.errors import Empty, NonFinite, NotAFrame, ShapeMismatch, Singular
from gweave.gframe import (
    apply,
    basis_tests,
    canonical_dual,
    classify,
    coefficient_energy,
    compose_right,
    frame_operator,
    frame_operator_matrix,
    inverse_root,
    is_dual_pair,
    is_g_exact,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
    parseval_transform,
)
from gweave.suite import build_nonunitary_operators, build_projection_family, random_unitary
from gweave.weaving import check_dual_weaving

from conftest import linalg_calls, random_frame, random_gframe
from oracles import rayleigh_sample_range, svd_basis_tests

GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0


def _spd_frame(rng, n, shift, complex_mode):
    """Rows of a random ``n x n`` matrix ``a`` and of ``sqrt(shift) I``: ``S = a*a + shift I``."""
    a = rng.standard_normal((n, n))
    if complex_mode:
        a = a + 1j * rng.standard_normal((n, n))
    return new_gframe(n, [a, math.sqrt(shift) * np.eye(n)])


# A frame whose operator diag(1, 1e-14) is above threshold at tol 0 but below the rank tolerance.
NEARLY_SINGULAR = new_gframe(2, [[1.0, 0.0], [0.0, 1e-7]])


def _removal_oracle(frame):
    """Smallest eigenvalue of the frame operator without block i, one dense solve per block."""
    grams = [b.conj().T @ b for b in frame.blocks]
    s = sum(grams)
    return np.array([np.linalg.eigvalsh(s - g)[0] for g in grams])


class TestConstruction:
    def test_rows_of_identity(self):
        frame = new_gframe(3, [np.eye(3)[i] for i in range(3)])
        assert frame.n_blocks == 3
        assert frame.block_rows == (1, 1, 1)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            new_gframe(3, [np.zeros((2, 4))])

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            new_gframe(3, [])

    def test_blocks_frozen(self):
        frame = new_gframe(2, [np.eye(2)])
        with pytest.raises(ValueError):
            frame.blocks[0][0, 0] = 5.0

    def test_zero_row_block_allowed(self):
        frame = new_gframe(2, [np.zeros((0, 2)), np.eye(2)])
        assert frame.block_rows == (0, 2)
        assert optimal_bounds(frame).is_frame

    def test_a_family_keeps_its_own_copy_of_each_block(self):
        """Changing an input array after ``new_gframe`` leaves the family unchanged."""
        inputs = [np.eye(2), np.eye(2)[0], np.asfortranarray(np.eye(2)), np.eye(2)[:, ::-1]]
        for block in inputs:
            frame = new_gframe(2, [block])
            assert not np.shares_memory(frame.blocks[0], block)
            assert frame.blocks[0].flags.c_contiguous and block.flags.writeable
            upper = optimal_bounds(frame).upper
            block *= 5.0
            assert optimal_bounds(frame).upper == upper

    @pytest.mark.parametrize(
        "entry, value",
        [(2**70, 2.0**70), (Fraction(1, 3), 1.0 / 3.0), (np.float32(0.5), 0.5), (np.int8(3), 3.0),
         (True, 1.0), (np.True_, 1.0)],
    )
    def test_numbers_that_convert_still_build(self, entry, value):
        """Python integers beyond int64, fractions, numpy scalars and bools are numbers."""
        for row in ([entry], np.array([entry], dtype=object)):
            block = new_gframe(1, [row]).blocks[0]
            assert block.dtype == np.float64 and block[0, 0] == value
        mixed = new_gframe(2, [[entry, 1j]]).blocks[0]
        assert mixed.dtype == np.complex128 and mixed[0, 0] == value


class TestApply:
    def test_projection_locality(self):
        frame = build_projection_family(4, 3)
        coeffs = apply(frame, np.eye(4)[1])
        norms = [float(np.linalg.norm(c)) for c in coeffs]
        assert norms[1] == pytest.approx(1.0)
        assert sum(norms) == pytest.approx(1.0)

    def test_zero_vector(self):
        frame = build_projection_family(3)
        assert all(np.allclose(c, 0) for c in apply(frame, np.zeros(3)))

    @pytest.mark.parametrize("seed", range(4))
    def test_energy_identity(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_gframe(rng, complex_mode=seed % 2 == 1)
        h = rng.standard_normal(frame.domain_dim)
        energy = coefficient_energy(frame, h)
        s = frame_operator(frame).s
        quadratic = float(np.real(np.vdot(h, s @ h)))
        assert energy == pytest.approx(quadratic, rel=1e-9)

    def test_wrong_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            apply(build_projection_family(3), np.zeros(4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 5), n=st.integers(1, 5))
def test_energy_identity_property(seed, d, n):
    rng = np.random.default_rng(seed)
    frame = random_gframe(rng, d=d, n=n)
    h = rng.standard_normal(d)
    s = frame_operator(frame).s
    assert coefficient_energy(frame, h) == pytest.approx(
        float(np.real(np.vdot(h, s @ h))), rel=1e-9, abs=1e-12
    )


class TestFrameOperator:
    def test_projection_family_is_tight(self):
        fo = frame_operator(build_projection_family(5, 3))
        np.testing.assert_allclose(fo.s, np.eye(5), atol=1e-14)
        assert (fo.lower, fo.upper) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_two_by_two_hand_example(self):
        frame = new_gframe(2, [np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        fo = frame_operator(frame)
        np.testing.assert_allclose(fo.s, [[2.0, 1.0], [1.0, 1.0]])
        assert fo.lower == pytest.approx(GOLDEN[0])
        assert fo.upper == pytest.approx(GOLDEN[1])

    def test_witnesses_attain_bounds(self):
        rng = np.random.default_rng(17)
        frame = random_gframe(rng, d=4, n=4)
        fo = frame_operator(frame)
        for x, value in ((fo.witness_low, fo.lower), (fo.witness_high, fo.upper)):
            quotient = np.vdot(x, fo.s @ x).real / np.vdot(x, x).real
            assert quotient == pytest.approx(value, abs=1e-9)


class TestOptimalBounds:
    def test_zero_family_is_not_a_frame(self):
        rep = optimal_bounds(new_gframe(2, [np.zeros((1, 2))]))
        assert (rep.lower, rep.upper) == (pytest.approx(0.0, abs=1e-15), pytest.approx(0.0, abs=1e-15))
        assert not rep.is_frame

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bracket_rayleigh_sampling(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_gframe(rng, d=4, n=4)
        rep = optimal_bounds(frame)
        lo, hi, _ = rayleigh_sample_range(frame_operator(frame).s, 1000, seed)
        assert rep.lower - 1e-9 <= lo and hi <= rep.upper + 1e-9


class TestDuals:
    def test_onb_is_self_dual(self):
        frame = build_projection_family(4, 1)
        dual = canonical_dual(frame)
        assert all(np.allclose(a, b) for a, b in zip(frame.blocks, dual.blocks))

    def test_scalar_pair(self):
        frame = new_gframe(1, [np.array([[1.0]]), np.array([[1.0]])])
        dual = canonical_dual(frame)
        np.testing.assert_allclose(dual.blocks[0], [[0.5]])
        np.testing.assert_allclose(dual.blocks[1], [[0.5]])

    @pytest.mark.parametrize("seed", range(3))
    def test_canonical_dual_reconstructs_identity(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_frame(rng, complex_mode=seed == 2)
        dual = canonical_dual(frame)
        mixed = sum(f.conj().T @ g for f, g in zip(frame.blocks, dual.blocks))
        assert linalg.frobenius(mixed - np.eye(frame.domain_dim)) <= 1e-8
        assert is_dual_pair(frame, dual)
        assert is_dual_pair(dual, frame)

    def test_non_parseval_family_is_not_self_dual(self):
        frame = new_gframe(1, [np.array([[1.0]]), np.array([[1.0]])])
        assert not is_dual_pair(frame, frame)

    @pytest.mark.parametrize("seed", range(5))
    def test_dual_verdict_is_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        d, n = 3, 3
        first = random_gframe(rng, d=d, n=n)
        second = new_gframe(d, [b + 0.1 * rng.standard_normal(b.shape) for b in first.blocks])
        assert is_dual_pair(first, second) == is_dual_pair(second, first)

    @pytest.mark.parametrize("complex_mode", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_dual_verdict_matches_the_block_sum(self, seed, complex_mode):
        """One product of the stacked rows decides as the per-block sum does, off the boundary.

        Both add the same terms in another order, so the residuals differ by a
        few roundings of entries of order 1, far below 1e-6 of a residual near 1e-6.
        """
        rng = np.random.default_rng(seed)
        frame = random_gframe(rng, complex_mode=complex_mode, min_rows_total=8)
        dual = canonical_dual(frame)
        noisy = new_gframe(
            frame.domain_dim, [b + 1e-6 * rng.standard_normal(b.shape) for b in dual.blocks]
        )
        mixed = sum(f.conj().T @ g for f, g in zip(frame.blocks, noisy.blocks))
        residual = np.linalg.norm(mixed - np.eye(frame.domain_dim))
        assert is_dual_pair(frame, noisy, residual * (1 + 1e-6))
        assert not is_dual_pair(frame, noisy, residual * (1 - 1e-6))

    def test_not_a_frame_rejected(self):
        with pytest.raises(NotAFrame):
            canonical_dual(new_gframe(2, [np.array([1.0, 0.0])]))


class TestDualSolve:
    """The canonical dual's one solve of the frame operator."""

    def test_identity(self):
        frame = new_gframe(3, list(np.eye(3)))
        np.testing.assert_allclose(np.vstack(canonical_dual(frame).blocks), np.eye(3))

    def test_scaled_identity(self):
        frame = new_gframe(2, list(math.sqrt(2.0) * np.eye(2)))
        dual = np.vstack(canonical_dual(frame).blocks)
        np.testing.assert_allclose(dual, np.eye(2) / math.sqrt(2.0))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_residual_on_random_spd(self, complex_mode):
        frame = _spd_frame(np.random.default_rng(21), 5, 0.5, complex_mode)
        dual = canonical_dual(frame)
        # sum_i b_i* (b_i S^-1) = S S^-1
        mixed = sum(f.conj().T @ g for f, g in zip(frame.blocks, dual.blocks))
        assert linalg.frobenius(mixed - np.eye(5)) <= 1e-8 * math.sqrt(5)

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            canonical_dual(NEARLY_SINGULAR, tol=0.0)
        with pytest.raises(NotAFrame):  # the frame test comes first
            canonical_dual(NEARLY_SINGULAR)

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_one_eigensolve(self, monkeypatch, complex_mode):
        frame = random_frame(np.random.default_rng(4), complex_mode=complex_mode)
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        canonical_dual(frame)
        assert calls == ["eigh"]


class TestExactness:
    def test_projection_family_exact(self):
        rep = is_g_exact(build_projection_family(4, 1))
        assert rep.is_exact
        assert rep.witness is None
        assert all(lo <= rep.threshold for lo in rep.removal_lower_bounds)

    def test_redundant_family_not_exact(self):
        frame = new_gframe(2, [np.eye(2), np.array([1.0, 0.0])])
        rep = is_g_exact(frame)
        assert not rep.is_exact
        assert rep.witness == 2
        assert rep.removal_lower_bounds[1] > rep.threshold

    def test_removals_past_the_mask_width(self):
        # 70 coordinate rows and a second copy of coordinate 66: only the
        # removals of block 66 and of the copy (block 71) keep a frame.
        d = 70
        frame = new_gframe(d, [np.eye(d)[i] for i in range(d)] + [np.eye(d)[65]])
        rep = is_g_exact(frame)
        assert rep.witness == 66
        lows = np.array(rep.removal_lower_bounds)
        assert len(lows) == 71
        assert np.flatnonzero(lows > rep.threshold).tolist() == [65, 70]
        np.testing.assert_array_equal(lows, _removal_oracle(frame))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_block_sparse_removals_against_dense_oracle(self, complex_mode):
        # coordinates in components {0, 3}, {1, 4, 5} and the single 2, 6, 7
        rng = np.random.default_rng(7)
        d = 8
        blocks = []
        for support in ([0, 3], [1, 4, 5], [2], [0, 3], [1, 4, 5], [6], [7]):
            b = np.zeros((2, d), dtype=complex if complex_mode else float)
            b[:, support] = rng.standard_normal((2, len(support)))
            if complex_mode:
                b[:, support] += 1j * rng.standard_normal((2, len(support)))
            blocks.append(b)
        blocks.append(np.eye(d))
        frame = new_gframe(d, blocks)
        rep = is_g_exact(frame)
        np.testing.assert_allclose(rep.removal_lower_bounds, _removal_oracle(frame), atol=1e-12)
        assert rep.witness == 1


class TestRiesz:
    def test_hand_example(self):
        frame = new_gframe(2, [np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        rep = is_g_riesz_basis(frame)
        assert rep.is_riesz
        assert rep.lower == pytest.approx(GOLDEN[0])
        assert rep.upper == pytest.approx(GOLDEN[1])

    def test_too_many_vectors(self):
        frame = new_gframe(2, [np.eye(2), np.array([1.0, 1.0])])
        rep = is_g_riesz_basis(frame)
        assert not rep.is_riesz
        assert rep.vector_count == 3
        assert rep.lower == 0.0


class TestOnb:
    def test_projection_family(self):
        assert is_g_orthonormal_basis(build_projection_family(4, 1)).is_onb

    def test_scaled_family_fails(self):
        frame = compose_right(build_projection_family(4, 1), 2.0 * np.eye(4))
        rep = is_g_orthonormal_basis(frame)
        assert not rep.is_onb
        assert rep.parseval_residual > 1.0

    def test_duplicate_blocks_fail_cross_gram(self):
        frame = new_gframe(2, [np.eye(2), np.eye(2)])
        rep = is_g_orthonormal_basis(frame)
        assert not rep.is_onb
        assert rep.cross_gram_residual > 1.0


class TestCompose:
    def test_identity_composition(self):
        frame = build_projection_family(3, 1)
        composed = compose_right(frame, np.eye(3))
        assert all(np.allclose(a, b) for a, b in zip(frame.blocks, composed.blocks))

    def test_doubling_scales_bounds(self):
        frame = compose_right(build_projection_family(4, 1), 2.0 * np.eye(4))
        rep = optimal_bounds(frame)
        assert (rep.lower, rep.upper) == (pytest.approx(4.0), pytest.approx(4.0))

    def test_shift_creates_zero_induced_vector(self):
        d = 5
        _, shift = build_nonunitary_operators(d)
        frame = compose_right(build_projection_family(d, 1), shift)
        rep = is_g_orthonormal_basis(frame)
        assert not rep.is_onb
        assert rep.first_zero_row == (1, 1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_unitary_invariance_of_bounds(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_gframe(rng, d=4, n=4)
        u = random_unitary(4, seed)
        a = optimal_bounds(frame)
        b = optimal_bounds(compose_right(frame, u))
        assert b.lower == pytest.approx(a.lower, abs=1e-9)
        assert b.upper == pytest.approx(a.upper, abs=1e-9)


class TestParsevalTransform:
    def test_parseval_input_unchanged(self):
        frame = build_projection_family(4, 1)
        out = parseval_transform(frame)
        assert all(np.allclose(a, b, atol=1e-12) for a, b in zip(frame.blocks, out.blocks))

    def test_doubled_family_rescaled(self):
        frame = new_gframe(2, [np.eye(2), np.eye(2)])
        out = parseval_transform(frame)
        for b in out.blocks:
            np.testing.assert_allclose(b, np.eye(2) / math.sqrt(2.0), atol=1e-12)
        rep = optimal_bounds(out)
        assert (rep.lower, rep.upper) == (pytest.approx(1.0), pytest.approx(1.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_family_becomes_parseval(self, seed):
        rng = np.random.default_rng(seed)
        frame = random_frame(rng, complex_mode=seed == 1)
        out = parseval_transform(frame)
        s = frame_operator(out).s
        assert linalg.frobenius(s - np.eye(frame.domain_dim)) <= 1e-8


class TestInverseRoot:
    """The inverse square root of the frame operator, from one eigensolve."""

    def test_identity(self):
        np.testing.assert_allclose(inverse_root(new_gframe(3, list(np.eye(3)))), np.eye(3))

    def test_diagonal(self):
        r = inverse_root(new_gframe(2, [[2.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(r, np.diag([0.5, 1.0 / 3.0]))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_multiply_back_and_commute(self, complex_mode):
        frame = _spd_frame(np.random.default_rng(31), 6, 0.1, complex_mode)
        m = sum(b.conj().T @ b for b in frame.blocks)
        r = inverse_root(frame)
        assert linalg.frobenius(r - r.conj().T) <= 1e-10
        assert linalg.frobenius(r @ m @ r - np.eye(6)) <= 1e-8 * 6
        assert linalg.frobenius(r @ m - m @ r) <= 1e-8 * linalg.frobenius(m)

    def test_singular_rejected(self):
        for transform in (inverse_root, parseval_transform):
            with pytest.raises(Singular):
                transform(NEARLY_SINGULAR, tol=0.0)
            with pytest.raises(NotAFrame):  # the frame test comes first
                transform(NEARLY_SINGULAR)

    def test_subnormal_frame_operator_is_refused(self):
        # S = 1e-320 I is well conditioned but subnormal: it holds about 11 bits
        subnormal = new_gframe(2, [[1e-160, 0.0], [0.0, 1e-160]])
        assert optimal_bounds(subnormal).lower == optimal_bounds(subnormal).upper == 1e-320
        for transform in (canonical_dual, inverse_root, parseval_transform, check_dual_weaving):
            with pytest.raises(Singular, match="below the normal range of float64"):
                transform(subnormal)
        scaled = new_gframe(2, [[2.0**-24, 0.0], [0.0, 2.0**-24]])  # S = 2^-48 I
        np.testing.assert_array_equal(np.vstack(canonical_dual(scaled).blocks), 2.0**24 * np.eye(2))
        np.testing.assert_array_equal(np.vstack(parseval_transform(scaled).blocks), np.eye(2))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_parseval_transform_takes_one_eigensolve(self, monkeypatch, complex_mode):
        frame = random_frame(np.random.default_rng(8), complex_mode=complex_mode)
        calls = linalg_calls(monkeypatch, "eigh", "eigvalsh")
        parseval_transform(frame)
        assert calls == ["eigh"]


class TestClassification:
    def test_chain_on_corpus(self):
        corpus = [
            build_projection_family(4, 1),
            build_projection_family(4, 3),
            new_gframe(2, [np.array([1.0, 0.0]), np.array([1.0, 1.0])]),
            new_gframe(2, [np.eye(2), np.eye(2)]),
            new_gframe(2, [np.array([1.0, 0.0])]),
        ]
        rng = np.random.default_rng(5)
        corpus += [random_gframe(rng) for _ in range(5)]
        for frame in corpus:
            cls = classify(frame)
            if cls.is_g_onb:
                assert cls.is_g_riesz
                rep = is_g_riesz_basis(frame)
                assert rep.lower == pytest.approx(1.0, abs=1e-9)
                assert rep.upper == pytest.approx(1.0, abs=1e-9)
            if cls.is_g_riesz:
                assert cls.is_g_frame and cls.is_g_exact

    def test_onb_classification(self):
        cls = classify(build_projection_family(3, 1))
        assert cls.is_g_frame and cls.is_g_exact and cls.is_g_riesz and cls.is_g_onb

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_one_spectrum_answers_both_basis_tests(self, monkeypatch, complex_mode):
        """No SVD: one values-only solve of ``S`` per family; ``classify`` adds one ``eigh``."""
        frame = random_gframe(np.random.default_rng(6), complex_mode=complex_mode)
        riesz, onb = is_g_riesz_basis(frame), is_g_orthonormal_basis(frame)
        s = linalg.hermitian_part(frame_operator_matrix(frame))
        calls = linalg_calls(monkeypatch, "svd", "eigh")
        solved = []
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a, *r, **k: solved.append(a) or real_eigvalsh(a, *r, **k)
        )
        cls = classify(frame)
        assert cls.is_g_frame and calls == ["eigh"]
        # the exactness test's kernel solves stacks of component matrices, one axis more
        matrices = [a for a in solved if a.ndim == 2]
        assert len(matrices) == 1
        np.testing.assert_array_equal(matrices[0], s)
        assert (cls.is_g_riesz, cls.is_g_onb) == (riesz.is_riesz, onb.is_onb)
        calls.clear()
        solved.clear()
        assert basis_tests(frame) == (riesz, onb)
        assert is_g_riesz_basis(frame) == riesz and is_g_orthonormal_basis(frame) == onb
        assert calls == [] and len(solved) == 3
        for a in solved:
            np.testing.assert_array_equal(a, s)


CORPUS_KINDS = ["near_orthonormal", "square", "wide", "tall", "rank_deficient", "column_scaled"]


def _corpus_family(rng, kind, complex_mode):
    """Stacked rows of one kind, d from 1 to 8, cut into blocks of one or more rows."""
    d = int(rng.integers(1, 9))

    def gaussian(rows, cols):
        g = rng.standard_normal((rows, cols))
        return g + 1j * rng.standard_normal((rows, cols)) if complex_mode else g

    if kind == "near_orthonormal":
        v = np.linalg.qr(gaussian(d, d))[0] + 10 ** rng.uniform(-12, -4) * gaussian(d, d)
    elif kind == "square":
        v = gaussian(d, d)
    elif kind == "wide":  # fewer rows than d, none at all included
        v = gaussian(int(rng.integers(0, d)), d)
    elif kind == "tall":
        v = gaussian(d + int(rng.integers(1, d + 3)), d)
    elif kind == "rank_deficient":
        rank = int(rng.integers(0, d))
        v = gaussian(int(rng.integers(1, d + 3)), rank) @ gaussian(rank, d)
    else:  # column_scaled
        v = gaussian(d, d)
        v[:, int(rng.integers(d))] *= 10.0 ** -int(rng.integers(2, 7))
    cuts = np.sort(rng.integers(0, len(v) + 1, size=int(rng.integers(0, 4))))
    return new_gframe(d, [b for b in np.split(v, cuts) if len(b)] or [np.zeros((0, d))])


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("kind", CORPUS_KINDS)
def test_basis_tests_match_the_svd_reference(kind, complex_mode):
    """The spectrum of ``S`` gives an SVD of the rows' verdicts, and its values to ``eps |S|``.

    A singular value is compared by its square, the eigenvalue of ``S`` it is
    read from: its root moves by up to 5e-11 on a column scaled by 1e-6.
    """
    rng = np.random.default_rng([CORPUS_KINDS.index(kind), complex_mode])
    for _ in range(50):
        frame = _corpus_family(rng, kind, complex_mode)
        riesz, onb = basis_tests(frame)
        ref = svd_basis_tests(frame)
        assert (riesz.is_riesz, onb.is_onb) == (ref["is_riesz"], ref["is_onb"])
        assert riesz.vector_count == sum(frame.block_rows)
        got = {
            "lower": riesz.lower,
            "upper": riesz.upper,
            "cross_gram_residual": onb.cross_gram_residual,
            "parseval_residual": onb.parseval_residual,
            "min_sv_squared": riesz.synthesis_min_sv**2,
        }
        ref["min_sv_squared"] = ref["synthesis_min_sv"] ** 2
        bound = 1e-14 * max(1.0, ref["upper"])
        for key, value in got.items():
            assert abs(value - ref[key]) <= bound, (key, value, ref[key])


class TestOverflow:
    """Rows of 1e155 give Gram entries of 1e310, beyond float64: refused, with no warning."""

    BIG = new_gframe(2, [[1e155, 0.0], [0.0, 1e155]])

    @pytest.mark.parametrize(
        "analysis",
        [frame_operator_matrix, optimal_bounds, is_g_riesz_basis, is_g_orthonormal_basis,
         basis_tests, classify, canonical_dual, parseval_transform, is_g_exact],
    )
    def test_single_family_analyses_refuse(self, analysis):
        with pytest.raises(NonFinite):
            analysis(self.BIG)

    def test_dual_pair_test_refuses(self):
        with pytest.raises(NonFinite):
            is_dual_pair(self.BIG, self.BIG)

    def test_the_largest_finite_operator_is_answered(self):
        """Rows of 1e154 give ``S = 1e308 I``: finite, and symmetrising it must not overflow."""
        frame = new_gframe(2, [[1e154, 0.0], [0.0, 1e154]])
        bounds = optimal_bounds(frame)
        assert bounds.lower == bounds.upper == pytest.approx(1e308)
        riesz, onb = basis_tests(frame)
        assert riesz.is_riesz and not onb.is_onb
        np.testing.assert_allclose(inverse_root(frame), 1e-154 * np.eye(2))


class TestFrameOperatorMatrix:
    def test_zero_row_family_gives_the_zero_operator(self):
        frame = new_gframe(3, [np.zeros((0, 3)), np.zeros((0, 3))])
        np.testing.assert_array_equal(frame_operator_matrix(frame), np.zeros((3, 3)))

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_one_product_matches_the_block_sum(self, complex_mode):
        frame = random_gframe(np.random.default_rng(9), d=5, n=4, complex_mode=complex_mode)
        expected = sum(b.conj().T @ b for b in frame.blocks)
        # the sum runs in another order: each entry may move by a few roundings of its terms
        atol = 16 * np.finfo(np.float64).eps * np.abs(expected).max()
        np.testing.assert_allclose(frame_operator_matrix(frame), expected, rtol=0, atol=atol)
