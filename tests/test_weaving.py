"""Weaving construction, universal bounds, search, and the inequality checks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gweave import _kernels, linalg, weaving
from gweave.errors import (
    GWeaveError,
    LengthMismatch,
    NonFinite,
    NotUnitary,
    NotWoven,
    ShapeMismatch,
    TooManyBlocks,
)
from gweave.gframe import (
    DEFAULT_TOL,
    block_grams,
    compose_right,
    frame_operator,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
)
from gweave.induced import check_operator_identity, check_weaving_transfer, onb_families
from gweave.suite import (
    build_duplicate_vs_split_pair,
    build_nonunitary_operators,
    build_overlapping_coordinate_pair,
    build_projection_family,
    build_scaled_split_pair,
    build_shifted_projection_pair,
    build_window_pair,
    random_unitary,
)
from gweave.weaving import (
    WeavingSelection,
    _pair_kernel_inputs,
    _woven_threshold,
    check_additive_upper_bound,
    check_dual_weaving,
    check_parseval_transform_weaving,
    check_strict_sum_gap,
    check_unitary_weaving_invariance,
    check_universal_envelope,
    effective_cap,
    is_weaving_g_onb,
    is_weaving_g_riesz,
    is_woven,
    universal_bounds_exhaustive,
    universal_bounds_search,
    weave,
    weaving_bounds,
)

from conftest import (
    basis_pair,
    basis_walks,
    dense_pairs,
    perturbed_woven_pair,
    random_frame,
    random_gframe,
    zero_row_basis_pairs,
)
from oracles import (
    brute_weaving_basis,
    brute_weaving_spectra,
    fewest_rows_mask,
    full_weaving_scan,
    mixed_frame_operator,
    sequential_bounds_search,
)


class TestSelection:
    def test_from_indices_roundtrip(self):
        sel = WeavingSelection.from_indices(8, [1, 3, 8])
        assert sel.indices == (1, 3, 8)
        assert sel.mask == 0b10000101
        assert sel.complement.indices == (2, 4, 5, 6, 7)
        assert sel.size == 3

    def test_bitmask_string_uses_one_based_positions(self):
        sel = WeavingSelection.from_indices(8, [1])
        assert sel.bitmask_string() == "0b000000010"
        assert WeavingSelection(8, 0).bitmask_string() == "0b000000000"

    def test_mask_bounds_validated(self):
        with pytest.raises(ShapeMismatch):
            WeavingSelection(3, 8)
        with pytest.raises(ShapeMismatch):
            WeavingSelection.from_indices(3, [4])


class TestWeave:
    def test_full_selection_returns_first(self):
        pair = build_window_pair(5)
        sel = WeavingSelection(5, (1 << 5) - 1)
        woven = weave(pair.first, pair.second, sel)
        assert all(np.allclose(a, b) for a, b in zip(woven.blocks, pair.first.blocks))

    def test_empty_selection_returns_second(self):
        pair = build_window_pair(5)
        woven = weave(pair.first, pair.second, WeavingSelection(5, 0))
        assert all(np.allclose(a, b) for a, b in zip(woven.blocks, pair.second.blocks))

    def test_labels_are_woven_when_both_families_carry_them(self):
        first = new_gframe(2, [[1.0, 0.0], [0.0, 1.0]], labels=["f1", "f2"])
        second = new_gframe(2, [[2.0, 0.0], [0.0, 2.0]], labels=["s1", "s2"])
        selection = WeavingSelection.from_indices(2, [2])
        assert weave(first, second, selection).labels == ("s1", "f2")
        assert weave(second, first, selection).labels == ("f1", "s2")
        unlabelled = new_gframe(2, second.blocks)
        assert weave(first, unlabelled, selection).labels is None
        assert weave(unlabelled, first, selection).labels is None

    def test_block_count_mismatch(self):
        with pytest.raises(LengthMismatch):
            weave(
                build_projection_family(3, 1),
                build_projection_family(3, 1),
                WeavingSelection(2, 0),
            )

    def test_scaled_split_selected_bounds(self):
        pair = build_scaled_split_pair(9)
        low = weaving_bounds(pair.first, pair.second, WeavingSelection.from_indices(9, [2]))
        assert low.lower == pytest.approx(0.5, abs=1e-9)
        high = weaving_bounds(pair.first, pair.second, WeavingSelection.from_indices(9, [4]))
        assert high.upper == pytest.approx(1.5, abs=1e-9)

    def test_shifted_pair_selected_lower_vanishes(self):
        pair = build_shifted_projection_pair(8)
        rep = weaving_bounds(pair.first, pair.second, WeavingSelection.from_indices(8, [1]))
        assert rep.lower == pytest.approx(0.0, abs=1e-12)
        # the uncovered direction is coordinate 2
        woven = weave(pair.first, pair.second, WeavingSelection.from_indices(8, [1]))
        s = frame_operator(woven).s
        assert abs(s[1, 1]) <= 1e-14


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), mask=st.integers(0, 15))
def test_complementary_weavings_sum_to_both_operators(seed, mask):
    rng = np.random.default_rng(seed)
    first = random_gframe(rng, d=3, n=4)
    second = random_gframe(rng, d=3, n=4)
    sel = WeavingSelection(4, mask)
    s1 = frame_operator(weave(first, second, sel)).s
    s2 = frame_operator(weave(second, first, sel)).s
    total = frame_operator(first).s + frame_operator(second).s
    assert linalg.frobenius(s1 + s2 - total) <= 1e-10


class TestExhaustive:
    def test_pair_with_itself(self):
        rng = np.random.default_rng(0)
        frame = random_frame(rng, d=3, n=4)
        rep = universal_bounds_exhaustive(frame, frame)
        bounds = optimal_bounds(frame)
        assert rep.lower == pytest.approx(bounds.lower, abs=1e-10)
        assert rep.upper == pytest.approx(bounds.upper, abs=1e-10)
        assert rep.woven

    def test_cap_enforced(self):
        frame = build_projection_family(4, 1)
        with pytest.raises(TooManyBlocks):
            universal_bounds_exhaustive(frame, frame, cap=3)

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("GWEAVE_EXHAUSTIVE_CAP", "3")
        assert effective_cap() == 3
        frame = build_projection_family(4, 1)
        with pytest.raises(TooManyBlocks):
            universal_bounds_exhaustive(frame, frame)

    @pytest.mark.parametrize("cap", [7.9, 8.0, True, False, "4", "8", None])
    def test_a_cap_that_is_not_an_integer_is_refused(self, monkeypatch, cap):
        monkeypatch.delenv("GWEAVE_EXHAUSTIVE_CAP", raising=False)
        if cap is None:  # no cap reads the environment, which must hold an integer
            monkeypatch.setenv("GWEAVE_EXHAUSTIVE_CAP", "7.9")
        frame = build_projection_family(8, 1)
        with pytest.raises(TooManyBlocks, match="must be an integer"):
            universal_bounds_exhaustive(frame, frame, cap=cap)
        with pytest.raises(TooManyBlocks, match="must be an integer"):
            effective_cap(cap)

    @pytest.mark.parametrize("cap", [np.int64(8), np.uint8(8), 8])
    def test_numpy_and_python_integer_caps_are_accepted(self, cap):
        assert effective_cap(cap) == 8 and type(effective_cap(cap)) is int
        frame = build_projection_family(8, 1)
        assert universal_bounds_exhaustive(frame, frame, cap=cap).woven

    @pytest.mark.parametrize("seed", [1, 2])
    def test_swap_symmetry_and_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        first = random_gframe(rng, d=3, n=5)
        second = random_gframe(rng, d=3, n=5)
        ab = universal_bounds_exhaustive(first, second)
        ba = universal_bounds_exhaustive(second, first)
        assert ab.lower == pytest.approx(ba.lower, abs=1e-10)
        assert ab.upper == pytest.approx(ba.upper, abs=1e-10)
        assert ab.woven == ba.woven
        lows, highs = brute_weaving_spectra(first, second)
        assert np.all(ab.lower - 1e-10 <= lows)
        assert np.all(highs <= ab.upper + 1e-10)

    def test_witnesses_attain(self):
        pair = build_scaled_split_pair(9)
        rep = universal_bounds_exhaustive(pair.first, pair.second)
        at_min = weaving_bounds(pair.first, pair.second, rep.argmin)
        at_max = weaving_bounds(pair.first, pair.second, rep.argmax)
        assert at_min.lower == pytest.approx(rep.lower, abs=1e-10)
        assert at_max.upper == pytest.approx(rep.upper, abs=1e-10)

    @pytest.mark.parametrize("first_complex", [False, True])
    @pytest.mark.parametrize("second_complex", [False, True])
    def test_pair_inputs_are_bitwise_the_stack_expressions(self, first_complex, second_complex):
        """``base``, ``deltas`` and the threshold equal their expressions over both Gram stacks."""
        rng = np.random.default_rng(17)
        for _ in range(3):
            first = random_gframe(rng, d=5, n=6, complex_mode=first_complex)
            second = random_gframe(rng, d=5, n=6, complex_mode=second_complex)
            p, q = block_grams(first), block_grams(second)
            dtype = np.result_type(p.dtype, q.dtype)
            base, deltas, p_sum, q_sum = _pair_kernel_inputs(first, second)
            for got, want in (
                (base, q.astype(dtype).sum(0)),
                (deltas, p.astype(dtype) - q.astype(dtype)),
                (p_sum, p.sum(0)),
                (q_sum, q.sum(0)),
            ):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
            tol = 1e-3
            want = tol * max(
                float(np.linalg.eigvalsh(p.sum(0))[-1]), float(np.linalg.eigvalsh(q.sum(0))[-1])
            )
            assert _woven_threshold(p_sum, q_sum, tol) == want
            assert universal_bounds_exhaustive(first, second, tol).threshold == want


# Rows of 1e155 give Gram entries of 1e310, beyond float64.
BIG = new_gframe(2, [[1e155, 0.0], [0.0, 1e155]])
ONE = new_gframe(2, [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("second", [BIG, ONE], ids=["big-big", "big-one"])
@pytest.mark.parametrize(
    "question",
    [
        universal_bounds_exhaustive,
        lambda first, second: universal_bounds_search(first, second, 1),
        is_weaving_g_riesz,
        is_weaving_g_onb,
    ],
    ids=["exhaustive", "search", "riesz", "onb"],
)
def test_a_pair_whose_grams_overflow_is_refused(question, second):
    """Refused before any scan, with no warning and no report holding inf."""
    for pair in ((BIG, second), (second, BIG)):
        with pytest.raises(NonFinite):
            question(*pair)


# Two-coordinate pairs with rows of size x, and by how much the two
# families' Gram sums add to x**2 on the diagonal.
HUGE_SHAPES = {
    "swap": (([1, 0], [0, 1]), ([0, 1], [1, 0]), 2.0),
    "same": (([1, 0], [0, 1]), ([1, 0], [0, 1]), 2.0),
    "three": (([1, 0], [0, 1], [0.5, 0.5]), ([0, 1], [1, 0], [0.5, -0.5]), 2.5),
}


@pytest.mark.parametrize("x", [1e80, 1e150, 1e153, 9e153, 1.3e154])
@pytest.mark.parametrize("shape", sorted(HUGE_SHAPES))
@pytest.mark.parametrize("search", [False, True], ids=["exhaustive", "search"])
def test_huge_entries_give_scaled_bounds_or_nonfinite(x, shape, search):
    """Rows up to 1.3e154: the bounds of the unit pair times ``x**2``, or ``NonFinite``.

    Refused exactly when the Gram sums of both families add past float64 (a
    mixed weaving of the three-row pair at 9e153 overflows although each
    family's sum is finite); otherwise answered with no warning, NaN or inf.
    """
    first_rows, second_rows, total = HUGE_SHAPES[shape]

    def question(scale):
        first = new_gframe(2, [np.multiply(scale, r) for r in first_rows])
        second = new_gframe(2, [np.multiply(scale, r) for r in second_rows])
        if search:
            return universal_bounds_search(first, second, 2)
        return universal_bounds_exhaustive(first, second)

    unit = question(1.0)
    if total * x * x > np.finfo(np.float64).max:
        with pytest.raises(NonFinite):
            question(x)
        return
    rep = question(x)
    got = np.array([rep.lower, rep.upper, rep.threshold]) / (x * x)
    np.testing.assert_allclose(got, [unit.lower, unit.upper, unit.threshold], rtol=0, atol=1e-12)


class TestSearch:
    def test_full_budget_equals_exhaustive_exactly(self):
        rng = np.random.default_rng(3)
        first = random_gframe(rng, d=3, n=4)
        second = random_gframe(rng, d=3, n=4)
        exact = universal_bounds_exhaustive(first, second)
        searched = universal_bounds_search(first, second, budget=1 << 4)
        assert searched == exact

    def test_finds_scaled_split_bounds_with_small_budget(self):
        pair = build_scaled_split_pair(9)
        rep = universal_bounds_search(pair.first, pair.second, budget=200, seed=0)
        assert rep.method == "search"
        assert rep.lower == pytest.approx(0.5, abs=1e-9)
        assert rep.upper == pytest.approx(1.5, abs=1e-9)

    def test_pair_with_itself_any_budget(self):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, d=3, n=5)
        rep = universal_bounds_search(frame, frame, budget=1, seed=9)
        bounds = optimal_bounds(frame)
        assert rep.lower == pytest.approx(bounds.lower, abs=1e-10)
        assert rep.upper == pytest.approx(bounds.upper, abs=1e-10)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_soundness_against_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        first = random_gframe(rng, d=3, n=6)
        second = random_gframe(rng, d=3, n=6)
        exact = universal_bounds_exhaustive(first, second)
        searched = universal_bounds_search(first, second, budget=5, seed=seed)
        assert searched.lower >= exact.lower - 1e-12
        assert searched.upper <= exact.upper + 1e-12

    def test_deterministic_given_seed(self):
        pair = build_window_pair(8)
        a = universal_bounds_search(pair.first, pair.second, budget=20, seed=42)
        b = universal_bounds_search(pair.first, pair.second, budget=20, seed=42)
        assert a == b


    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        pair = build_window_pair(8)
        with pytest.raises(ShapeMismatch):
            universal_bounds_search(pair.first, pair.second, budget=4, seed=seed)

    def test_more_than_62_blocks_gets_the_kernel_check(self):
        first = new_gframe(1, [np.ones((1, 1))] * 63)
        second = new_gframe(1, [2 * np.ones((1, 1))] * 63)
        with pytest.raises(TooManyBlocks, match="^63 blocks: masks beyond 62 blocks"):
            universal_bounds_search(first, second, budget=4)

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_search_solves_few_neighbours(self, monkeypatch, complex_mode):
        """Most neighbours are certified: solves of every kind stay below 20% of the masks.

        The count holds ``eigvalsh`` matrices, the linear solves that find the
        current masks' eigenvectors, and ``eigh`` matrices, which this pair
        needs none of: ``eigh`` runs only for a row whose solve fails.  About
        11% of the masks get one of them; without the Rayleigh floors it is
        about 30%, and with no certification every examined mask is solved.
        """
        rng = np.random.default_rng(32)
        first = random_gframe(rng, d=6, n=32, complex_mode=complex_mode)
        second = random_gframe(rng, d=6, n=32, complex_mode=complex_mode)
        expected = sequential_bounds_search(first, second, 16, seed=1)
        solved = {"eigvalsh": [], "eigh": [], "solve1": []}

        def count(module, name):
            solver = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda a, *b, solver=solver: solved[name].append(len(a)) or solver(a, *b)
            )

        count(np.linalg, "eigvalsh")
        count(np.linalg, "eigh")
        count(_kernels._umath_linalg, "solve1")
        got = universal_bounds_search(first, second, 16, seed=1)
        assert got == expected
        assert solved["eigh"] == [] and solved["eigvalsh"] and solved["solve1"]
        assert sum(map(sum, solved.values())) <= 0.2 * got.subsets_examined

    def test_budget_spanning_several_descent_groups_equals_sequential_descents(self):
        rng = np.random.default_rng(21)
        first = random_gframe(rng, d=3, n=12)
        second = random_gframe(rng, d=3, n=12)
        budget = 3 * _kernels._ROUND_MASKS // 12
        got = universal_bounds_search(first, second, budget, seed=4)
        assert got == sequential_bounds_search(first, second, budget, seed=4)


TIED_SEARCH_PAIRS = {
    "window": lambda: build_window_pair(10),
    "scaled_split": lambda: build_scaled_split_pair(9),
    "shifted": lambda: build_shifted_projection_pair(8),
    "duplicate_vs_split": lambda: build_duplicate_vs_split_pair(4),
}


@st.composite
def search_pairs(draw):
    """Random real or complex pairs, some blocks shared by both (null), or a tied suite pair."""
    kind = draw(st.sampled_from(["random", *TIED_SEARCH_PAIRS]))
    if kind != "random":
        pair = TIED_SEARCH_PAIRS[kind]()
        return pair.first, pair.second
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    complex_mode = draw(st.booleans())
    first = random_gframe(rng, d, n, complex_mode)
    second = list(random_gframe(rng, d, n, complex_mode).blocks)
    for i in draw(st.sets(st.integers(0, n - 1))):
        second[i] = first.blocks[i]
    return first, new_gframe(d, second)


@settings(max_examples=100, deadline=None)
@given(
    pair=st.one_of(search_pairs(), dense_pairs(max_blocks=12)),
    budget=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    round_masks=st.sampled_from([None, 1, 16, 64]),
)
def test_lockstep_search_equals_sequential_descents(pair, budget, seed, round_masks):
    """Report, witnesses and subsets_examined equal those of one descent at a time.

    A small ``_ROUND_MASKS`` splits the descents into many groups (one
    descent per group at 1).
    """
    first, second = pair
    with pytest.MonkeyPatch.context() as mp:
        if round_masks is not None:
            mp.setattr(_kernels, "_ROUND_MASKS", round_masks)
        got = universal_bounds_search(first, second, budget, seed)
    assert got == sequential_bounds_search(first, second, budget, seed)


@pytest.mark.parametrize("seed", range(16))
def test_the_sampled_interval_lies_inside_the_exact_one(seed):
    """At budgets 8 and 16 each sampled end lies inside the exact interval, bitwise.

    Random pairs of 24 blocks of 0-3 rows in ``d = 6``: a block with zero
    rows in both families is null.  The search and the scan read each mask's
    operator from the same live columns, so a sampled end is some mask's
    exact value.  On ten of these pairs a mask read with its null bits as
    columns of their own differs from that value in the last bits, enough
    to put an end outside, by up to 5.7e-14.
    """
    rng = np.random.default_rng(seed)
    first, second = (
        new_gframe(6, [rng.standard_normal((int(rng.integers(0, 4)), 6)) for _ in range(24)])
        for _ in range(2)
    )
    exact = universal_bounds_exhaustive(first, second, cap=62)
    for budget in (8, 16):
        got = universal_bounds_search(first, second, budget)
        assert exact.lower <= got.lower and got.upper <= exact.upper
        assert got == sequential_bounds_search(first, second, budget)


@st.composite
def diagonal_pairs(draw):
    """Pairs of diagonal blocks with entries 0, 1 or 2, so every operator sum is exact.

    About half the blocks are the same in both families (null), and the
    others differ in one coordinate or several, so many one-bit neighbours
    tie a descent's value bitwise and their Weyl bounds tie it too.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 12))
    d = draw(st.integers(1, 3))
    first = [np.diag(rng.integers(0, 3, size=d).astype(float)) for _ in range(n)]
    second = [np.diag(rng.integers(0, 3, size=d).astype(float)) for _ in range(n)]
    for i in range(n):
        if rng.integers(2):
            second[i] = first[i]
    return new_gframe(d, first), new_gframe(d, second)


@settings(max_examples=80, deadline=None)
@given(pair=diagonal_pairs(), budget=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_a_neighbour_that_ties_a_look_is_solved(pair, budget, seed):
    """Certification is strict: with the margin at 0, a bound equal to a look's value certifies nothing.

    A neighbour that ties the best value and has a smaller mask than the
    witness changes the argmin; only by solving it does the report keep the
    tie rule.
    """
    first, second = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weaving._kernels, "_margin", lambda *args: 0.0)
        got = universal_bounds_search(first, second, budget, seed)
    assert got == sequential_bounds_search(first, second, budget, seed)


class TestIsWoven:
    def test_shifted_pair_not_woven_with_certificate(self):
        pair = build_shifted_projection_pair(8)
        verdict = is_woven(pair.first, pair.second)
        assert not verdict.woven
        assert verdict.certificate.indices == (1,)
        rep = weaving_bounds(pair.first, pair.second, verdict.certificate)
        assert rep.lower <= 1e-12

    def test_window_pair_woven(self):
        pair = build_window_pair(8)
        assert is_woven(pair.first, pair.second).woven

    def test_search_strategy_counterexample_is_conclusive(self):
        pair = build_shifted_projection_pair(8)
        verdict = is_woven(pair.first, pair.second, strategy="search", budget=64, seed=1)
        if not verdict.woven:
            rep = weaving_bounds(pair.first, pair.second, verdict.certificate)
            assert rep.lower <= verdict.report.threshold


@pytest.mark.parametrize("strategy", ["exhaustive", "search"])
def test_a_weaving_of_fewer_rows_than_d_is_never_woven_at_tol_0(strategy):
    """Every weaving of two one-row blocks in d = 3 has two rows, so its operator is singular.

    Rounding can put a computed least eigenvalue of such an operator above
    0, so the bound must come from the row counts.
    """
    for seed in range(200):
        rng = np.random.default_rng(seed)
        first, second = (new_gframe(3, rng.standard_normal((2, 1, 3))) for _ in range(2))
        verdict = is_woven(first, second, tol=0.0, strategy=strategy, budget=2, seed=seed)
        assert not verdict.woven
        assert verdict.report.lower == 0.0 and verdict.certificate.mask == 0


@st.composite
def sparse_row_pairs(draw):
    """Pairs of up to 10 blocks with 0-2 rows each, some of them null.

    A null block is the same block in both families, with no rows or some,
    or the same rows with a zero row appended in the second family, so
    that the same operator comes from different row counts.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(1, 11))
    d = int(rng.integers(1, 7))
    complex_mode = draw(st.booleans())

    def block():
        b = rng.standard_normal((int(rng.integers(0, 3)), d))
        return b + 1j * rng.standard_normal(b.shape) if complex_mode else b

    first, second = [block() for _ in range(n)], [block() for _ in range(n)]
    for i in range(n):
        kind = rng.integers(4)
        if kind == 1:
            second[i] = first[i]
        elif kind == 2:
            second[i] = np.concatenate([first[i], np.zeros((1, d))])
    return new_gframe(d, first), new_gframe(d, second)


@settings(max_examples=150, deadline=None)
@given(pair=sparse_row_pairs())
def test_a_weaving_of_fewer_rows_than_d_pins_the_lower_bound_at_0(pair):
    """Its bound is exactly 0 at the smallest such mask; the rest is the full scan's.

    A pair with no such weaving reports the full scan's whole tuple.
    """
    first, second = pair
    rep = universal_bounds_exhaustive(first, second)
    base, deltas = _pair_kernel_inputs(first, second)[:2]
    full = full_weaving_scan(base, deltas)
    got = (rep.lower, rep.argmin.mask, rep.upper, rep.argmax.mask)
    singular = fewest_rows_mask(first, second)
    if singular is None:
        assert got == full
    else:
        assert got == (0.0, singular, *full[2:])
        assert not rep.woven
        assert abs(full[0]) <= _kernels._SplitOperator(base, deltas).margin


@settings(max_examples=100, deadline=None)
@given(pair=sparse_row_pairs(), data=st.data())
def test_a_search_below_the_cube_reads_the_exhaustive_lower_bound(pair, data):
    """Where some weaving has fewer than ``d`` rows, the search's lower end is the exhaustive one.

    Its upper end, from the ascents alone, is at most the exhaustive one.
    """
    first, second = pair
    assume(first.n_blocks > 1 and fewest_rows_mask(first, second) is not None)
    budget = data.draw(st.integers(1, (1 << first.n_blocks) - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    found = universal_bounds_search(first, second, budget, seed)
    exact = universal_bounds_exhaustive(first, second)
    assert (found.lower, found.argmin) == (exact.lower, exact.argmin)
    assert found.upper <= exact.upper and not found.woven


class TestChecks:
    def test_additive_upper_bound_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            first = random_gframe(rng, d=3, n=4)
            second = random_gframe(rng, d=3, n=4)
            report = universal_bounds_exhaustive(first, second)
            assert check_additive_upper_bound(first, second, report).passed

    def test_envelope_and_gap_on_woven_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            first, second, _ = perturbed_woven_pair(rng, d=3, n=4)
            report = universal_bounds_exhaustive(first, second)
            assert check_universal_envelope(first, second, report).passed
            assert check_strict_sum_gap(first, second, report).passed

    def test_envelope_requires_woven(self):
        pair = build_shifted_projection_pair(8)
        report = universal_bounds_exhaustive(pair.first, pair.second)
        with pytest.raises(NotWoven):
            check_universal_envelope(pair.first, pair.second, report)

    def test_identical_pair_attains_equality(self):
        rng = np.random.default_rng(9)
        frame = random_frame(rng, d=3, n=4)
        rec = check_universal_envelope(frame, frame, universal_bounds_exhaustive(frame, frame))
        assert rec.passed
        assert rec.computed["universal_lower"] == pytest.approx(
            rec.expected["lower_at_most"], abs=1e-10
        )

    def test_dual_weaving_scalar_values(self):
        frame = new_gframe(1, [np.array([[1.0]]), np.array([[1.0]])])
        rec = check_dual_weaving(frame)
        assert rec.passed
        # four weavings with operators 2, 5/4, 5/4, 1/2
        assert rec.computed["universal_lower"] == pytest.approx(0.5, abs=1e-12)
        assert rec.computed["universal_upper"] == pytest.approx(2.0, abs=1e-12)
        assert rec.expected["lower_at_least"] == pytest.approx(0.25, abs=1e-12)

    def test_dual_weaving_on_random_frames(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            assert check_dual_weaving(random_frame(rng, d=3, n=4)).passed

    def test_parseval_transform_weaving(self):
        pair = build_scaled_split_pair(9)
        report = universal_bounds_exhaustive(pair.first, pair.second)
        rec = check_parseval_transform_weaving(pair.first, pair.second, report)
        assert rec.passed
        assert rec.expected["lower_at_least"] == pytest.approx(1.0 / 3.0)
        assert rec.expected["upper_at_most"] == pytest.approx(3.0)

    def test_parseval_transform_reads_no_eigenvectors(self, monkeypatch):
        pair = build_scaled_split_pair(9)
        report = universal_bounds_exhaustive(pair.first, pair.second)
        expected = check_parseval_transform_weaving(pair.first, pair.second, report)

        def refuse(*args):
            raise AssertionError("an eigenvector was read")

        monkeypatch.setattr(linalg, "_fix_phases", refuse)
        assert check_parseval_transform_weaving(pair.first, pair.second, report) == expected

    def test_parseval_transform_requires_woven(self):
        pair = build_shifted_projection_pair(8)
        report = universal_bounds_exhaustive(pair.first, pair.second)
        with pytest.raises(NotWoven):
            check_parseval_transform_weaving(pair.first, pair.second, report)

    @pytest.mark.parametrize(
        "statement",
        [
            check_additive_upper_bound,
            check_universal_envelope,
            check_strict_sum_gap,
            check_parseval_transform_weaving,
        ],
    )
    def test_statements_refuse_a_bad_report(self, statement):
        """A report that is not a UniversalReport, or is one of another pair, is an input error."""
        pair = build_scaled_split_pair(9)
        window = build_window_pair(8)
        with pytest.raises(ShapeMismatch):
            statement(pair.first, pair.second, 1e-8)
        other = universal_bounds_exhaustive(window.first, window.second)
        with pytest.raises(LengthMismatch):
            statement(pair.first, pair.second, other)


def _scaled_pair(seed, complex_mode, k):
    """Two random 6-block frames on C^4 or R^4, every block multiplied by ``2**k``."""
    rng = np.random.default_rng(seed)
    pair = [random_frame(rng, d=4, n=6, complex_mode=complex_mode) for _ in range(2)]
    return [new_gframe(4, [b * 2.0**k for b in f.blocks]) for f in pair]


def _statement_verdicts(first, second, spec_scale):
    """Each statement check's verdict on the pair, or the name of the error it raised."""

    def verdict(check, *args):
        try:
            return check(*args).passed
        except GWeaveError as exc:
            return type(exc).__name__

    report = universal_bounds_exhaustive(first, second)
    specs = [onb_families(f.block_rows, spec_scale) for f in (first, second)]
    on_report = (
        check_additive_upper_bound,
        check_universal_envelope,
        check_strict_sum_gap,
        check_parseval_transform_weaving,
    )
    verdicts = {check.__name__: verdict(check, first, second, report) for check in on_report}
    verdicts["check_dual_weaving"] = verdict(check_dual_weaving, first)
    verdicts["check_weaving_transfer"] = verdict(
        check_weaving_transfer, first, second, *specs, 1e-8, None, report
    )
    verdicts["check_operator_identity"] = verdict(check_operator_identity, first)
    return verdicts


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    complex_mode=st.booleans(),
    k=st.integers(-24, 20),
    spec_scale=st.sampled_from([0.5, 2.0, 3.0]),
)
# An absolute slack of 1e-9 fails the first example's dual weaving and the second's transfer.
@example(seed=0, complex_mode=False, k=12, spec_scale=2.0)
@example(seed=2, complex_mode=True, k=8, spec_scale=3.0)
# An absolute floor of 1e-12 on the rank test refuses this one's dual as Singular.
@example(seed=0, complex_mode=False, k=-24, spec_scale=2.0)
def test_statement_verdicts_do_not_change_when_both_families_are_scaled(
    seed, complex_mode, k, spec_scale
):
    """The statements are exact and homogeneous, so scaling every block by 2**k keeps each verdict.

    Scaling by a power of two is exact in floating point, so every computed
    value scales exactly too, and only a slack that does not scale with
    them can change a verdict.
    """
    base = _statement_verdicts(*_scaled_pair(seed, complex_mode, 0), spec_scale)
    assume(all(v is True for v in base.values()))
    assert _statement_verdicts(*_scaled_pair(seed, complex_mode, k), spec_scale) == base


class TestWeavingBases:
    def test_onb_pair_with_itself(self):
        frame = build_projection_family(6, 1)
        assert is_weaving_g_riesz(frame, frame).holds
        rep = is_weaving_g_onb(frame, frame)
        assert rep.holds
        assert rep.witness is None

    def test_overlapping_pair_not_weaving_riesz(self):
        pair = build_overlapping_coordinate_pair(6)
        rep = is_weaving_g_riesz(pair.first, pair.second)
        assert not rep.holds
        assert rep.witness is not None
        # the specific mixed family called out by the construction also fails
        sel = WeavingSelection.from_indices(pair.first.n_blocks, [1, 2])
        from gweave.gframe import is_g_riesz_basis

        assert not is_g_riesz_basis(weave(pair.first, pair.second, sel)).is_riesz

    def test_duplicate_pair_not_weaving_riesz(self):
        pair = build_duplicate_vs_split_pair(2)
        rep = is_weaving_g_riesz(pair.first, pair.second)
        assert not rep.holds
        from gweave.gframe import is_g_riesz_basis

        full = WeavingSelection(pair.first.n_blocks, (1 << pair.first.n_blocks) - 1)
        assert not is_g_riesz_basis(weave(pair.first, pair.second, full)).is_riesz

    def test_scaled_composition_not_weaving_onb(self):
        frame = build_projection_family(5, 1)
        scaled = compose_right(frame, 2.0 * np.eye(5))
        assert not is_weaving_g_onb(scaled, scaled).holds

    def test_cap_enforced(self):
        frame = build_projection_family(5, 1)
        with pytest.raises(TooManyBlocks):
            is_weaving_g_onb(frame, frame, cap=4)


CLASSIFIERS = {"riesz": is_weaving_g_riesz, "onb": is_weaving_g_onb}


def _tol_at(first, second, kind, mask):
    """The tolerance at which the weaving of ``mask`` sits exactly on its threshold."""
    s = mixed_frame_operator(first, second, mask)
    if kind == "onb":
        return linalg.frobenius(s - np.eye(first.domain_dim))
    w = np.linalg.eigvalsh(s)
    if w[-1] == 0:  # the zero operator: lower = tol * upper = 0 for every tol
        return 0.0
    # a singular weaving's ratio is 0, which rounding can make slightly negative;
    # a negative tol is refused, and 0 puts that weaving on its threshold
    return max(0.0, float(w[0] / w[-1]))


def _assert_same_report(got, want, kind):
    assert got.holds == want.holds
    assert got.witness == want.witness
    if want.holds and kind == "riesz":
        assert got.lower == pytest.approx(want.lower, abs=1e-10)
        assert got.upper == pytest.approx(want.upper, abs=1e-10)
    else:
        assert (got.lower, got.upper) == (want.lower, want.upper)


@settings(max_examples=80, deadline=None)
# every weaving of this pair is the zero operator, so its threshold ratio is 0 / 0
@example(seed=0, rows=[1, 0], complex_mode=False, kind="riesz", fail_late=None, drop=0, tol="band")
# a singular weaving whose computed ratio is -3.5e-17, so the band tol is 0
@example(
    seed=0, rows=[2, 0], complex_mode=False, kind="riesz", fail_late="duplicate", drop=0, tol="band"
)
@given(
    seed=st.integers(0, 10_000),
    rows=st.lists(st.integers(0, 2), min_size=2, max_size=6),
    complex_mode=st.booleans(),
    kind=st.sampled_from(["riesz", "onb"]),
    fail_late=st.sampled_from([None, "scale", "duplicate"]),
    drop=st.none() | st.integers(0, 5),
    tol=st.sampled_from([1e-8, 1e-3, 0.5, "band"]),
)
def test_basis_classifiers_match_per_weaving_loop(
    seed, rows, complex_mode, kind, fail_late, drop, tol
):
    """Verdict, witness and failing bounds equal the per-weaving loop's on every input.

    ``drop`` empties one block of the second family, so row counts differ
    between weavings; ``tol`` "band" puts one weaving exactly on its
    threshold, inside the rounding band the kernel leaves to the loop.
    """
    rng = np.random.default_rng(seed)
    rows = list(rows)
    if fail_late == "duplicate":
        rows[-1] = rows[-2]
    assume(sum(rows) > 0)
    noise = 0.02 if kind == "riesz" else 1e-6 if tol == "band" else 0.0
    first, second = basis_pair(rng, rows, complex_mode, noise, fail_late)
    if drop is not None:
        blocks = list(second.blocks)
        blocks[drop % len(blocks)] = blocks[drop % len(blocks)][:0]
        second = new_gframe(second.domain_dim, blocks)
    if tol == "band":
        tol = _tol_at(first, second, kind, int(rng.integers(0, 1 << len(rows))))
    got = CLASSIFIERS[kind](first, second, tol)
    _assert_same_report(got, brute_weaving_basis(first, second, kind, tol), kind)


@settings(max_examples=60, deadline=None)
@example(
    seed=0, rows=[2, 0], complex_mode=False, kind="riesz", fail_late="duplicate", drop=0,
    tol="band", leaf=0, round_=1,
)
@given(
    seed=st.integers(0, 10_000),
    rows=st.lists(st.integers(0, 2), min_size=4, max_size=10),
    complex_mode=st.booleans(),
    kind=st.sampled_from(["riesz", "onb"]),
    fail_late=st.sampled_from([None, "scale", "duplicate"]),
    drop=st.none() | st.integers(0, 9),
    tol=st.sampled_from([1e-8, 1e-3, 0.5, "band"]),
    leaf=st.sampled_from([0, 1]),
    round_=st.sampled_from([1, 3, 16]),
)
def test_deep_subcube_splits_match_per_weaving_loop(
    seed, rows, complex_mode, kind, fail_late, drop, tol, leaf, round_
):
    """With leaves of one or two masks the basis search splits pairs of up to 10 blocks all the way.

    Small rounds make it test few nodes at a time, so certified subcubes,
    walked leaves and untested nodes interleave; verdict, witness and
    bounds must still be those of the per-weaving loop.
    """
    rng = np.random.default_rng(seed)
    rows = list(rows)
    if fail_late == "duplicate":
        rows[-1] = rows[-2]
    assume(sum(rows) > 0)
    noise = 0.02 if kind == "riesz" else 1e-6 if tol == "band" else 0.0
    first, second = basis_pair(rng, rows, complex_mode, noise, fail_late)
    if drop is not None:
        blocks = list(second.blocks)
        blocks[drop % len(blocks)] = blocks[drop % len(blocks)][:0]
        second = new_gframe(second.domain_dim, blocks)
    if tol == "band":
        tol = _tol_at(first, second, kind, int(rng.integers(0, 1 << len(rows))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_LEAF_FREE", leaf)
        mp.setattr(_kernels, "_ROUND", round_)
        got = CLASSIFIERS[kind](first, second, tol)
    _assert_same_report(got, brute_weaving_basis(first, second, kind, tol), kind)


@pytest.mark.parametrize("kind", ["riesz", "onb"])
def test_a_subcube_with_a_completion_of_more_than_d_rows_is_not_certified(kind):
    """Mask 0 is an orthonormal basis, but mask 1 takes a two-row block and has three rows.

    Every weaving's operator lies between ``I`` and ``I + e2 e2*``, so only
    the row counts of the completions tell the subcube apart.
    """
    first = new_gframe(2, [np.eye(2), np.eye(2)[1:]])
    second = new_gframe(2, [np.eye(2)[:1], np.eye(2)[1:]])
    got = CLASSIFIERS[kind](first, second)
    assert got.witness == WeavingSelection(2, 1)
    _assert_same_report(got, brute_weaving_basis(first, second, kind, DEFAULT_TOL), kind)


@pytest.mark.parametrize("complex_mode", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_passing_riesz_bounds_are_the_exhaustive_ones(seed, complex_mode):
    rng = np.random.default_rng(seed)
    first, second = basis_pair(rng, [1, 2, 1, 2, 1, 1, 2], complex_mode, noise=0.02)
    got = is_weaving_g_riesz(first, second)
    exhaustive = universal_bounds_exhaustive(first, second)
    assert got.holds
    assert got.lower == exhaustive.lower
    assert got.upper == exhaustive.upper


@pytest.mark.parametrize("kind", ["riesz", "onb"])
def test_weaving_on_its_threshold_goes_to_the_per_weaving_classifier(monkeypatch, kind):
    rng = np.random.default_rng(12)
    first, second = basis_pair(rng, [1, 2, 1, 1, 2], noise=0.02 if kind == "riesz" else 1e-6)
    masks = range(1 << first.n_blocks)
    ratios = [_tol_at(first, second, kind, m) for m in masks]
    # the tightest weaving: below (riesz) or above (onb) the threshold every other one clears
    mask = int(np.argmin(ratios) if kind == "riesz" else np.argmax(ratios))
    tol = ratios[mask]
    built = []
    real_weave = weaving.weave
    monkeypatch.setattr(weaving, "weave", lambda *a: built.append(a[2].mask) or real_weave(*a))
    got = CLASSIFIERS[kind](first, second, tol)
    assert mask in built
    _assert_same_report(got, brute_weaving_basis(first, second, kind, tol), kind)


@pytest.mark.parametrize("kind", ["riesz", "onb"])
def test_classifiers_build_a_weaving_only_for_the_failure(monkeypatch, kind):
    rng = np.random.default_rng(13)
    noise = 0.02 if kind == "riesz" else 0.0
    fail = "duplicate" if kind == "riesz" else "scale"
    passing = basis_pair(rng, [1, 2, 1, 2, 2, 1, 1, 2, 1, 1], noise=noise)
    failing = basis_pair(rng, [1, 2, 1, 2, 2, 1, 1, 2, 1, 1], noise=noise, fail_late=fail)
    built = []
    solves = []
    walked = basis_walks(monkeypatch)  # the masks of each walk of the basis search
    scans = []
    real_weave = weaving.weave
    real_eigvalsh = np.linalg.eigvalsh
    real_eigh = np.linalg.eigh
    scan = _kernels.weaving_scan

    monkeypatch.setattr(weaving, "weave", lambda *a: built.append(a[2].mask) or real_weave(*a))
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda *a, **k: solves.append(1) or real_eigvalsh(*a, **k)
    )
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: solves.append(1) or real_eigh(*a, **k))
    monkeypatch.setattr(_kernels, "weaving_scan", lambda *a: scans.append(1) or scan(*a))
    n = passing[0].n_blocks
    assert CLASSIFIERS[kind](*passing).holds
    assert built == []
    # the whole cube is one certified subcube: no mask is walked
    assert walked == []
    if kind == "onb":  # the kernel settles the ONB test with no eigensolve
        assert solves == []
        assert scans == []
    else:  # the bounds of the report come from one scan
        assert scans == [1]
    walked.clear()
    solves.clear()
    rep = CLASSIFIERS[kind](*failing)
    assert not rep.holds
    assert built == [rep.witness.mask]
    if kind == "onb":  # only the per-weaving test of the failure solves, once
        assert solves == [1]
        assert sum(walked) <= 1 << _kernels._LEAF_FREE
    else:  # the half with the last block from the second family is certified
        assert sum(walked) < (1 << n) // 2


def test_an_onb_node_whose_own_mask_fails_goes_straight_to_its_leaf(monkeypatch):
    """Only the weavings that take the last block from the first family fail.

    The root splits once.  The half with that block from the second family
    is certified, and the other half's own mask alone already fails, so the
    leaf that holds it is walked next, with no split of the levels between:
    one residual batch per round of node tests, then one walked leaf.
    """
    rng = np.random.default_rng(13)
    first, second = basis_pair(rng, [1, 2, 1, 2, 2, 1, 1, 2, 1, 1], fail_late="scale")
    batches = []
    residuals = _kernels._SplitOperator.residuals
    monkeypatch.setattr(
        _kernels._SplitOperator,
        "residuals",
        lambda self, bits: batches.append(len(bits)) or residuals(self, bits),
    )
    got = is_weaving_g_onb(first, second)
    assert batches == [1, 2, 1 << _kernels._LEAF_FREE]
    assert got.witness == WeavingSelection(10, 1 << 9)
    _assert_same_report(got, brute_weaving_basis(first, second, "onb", DEFAULT_TOL), "onb")


@settings(max_examples=150, deadline=None)
@given(
    pair=zero_row_basis_pairs(),
    tol=st.sampled_from([0.0, 1e-8, 0.2, 0.5]),
    kind=st.sampled_from(["riesz", "onb"]),
)
def test_every_mask_the_basis_search_settles_passes_the_per_weaving_classifier(pair, tol, kind):
    """Settling is sound over the whole cube, past the first failure too.

    The basis search yields strictly ascending masks, and the weaving of
    every mask it does not yield passes the per-weaving classifier.
    """
    first, second = pair
    n = first.n_blocks
    base, deltas, _, _ = _pair_kernel_inputs(first, second)
    rows = first.block_rows, second.block_rows
    yielded = list(_kernels.basis_search(base, deltas, rows, tol, onb=kind == "onb"))
    assert all(type(mask) is int for mask in yielded)
    assert all(a < b for a, b in zip(yielded, yielded[1:]))
    assert set(yielded) <= set(range(1 << n))
    for mask in sorted(set(range(1 << n)) - set(yielded)):
        woven = weave(first, second, WeavingSelection(n, mask))
        if kind == "onb":
            assert is_g_orthonormal_basis(woven, tol).is_onb
        else:
            assert is_g_riesz_basis(woven, tol).is_riesz


@pytest.mark.parametrize("tol", [0.2, 0.9])
def test_onb_verdict_at_large_tol_follows_the_per_weaving_classifier(tol):
    # |S - I|_F = 0.75, yet at tol 0.9 the row of norm 0.5 counts as a zero row
    frame = new_gframe(2, [[0.5, 0.0], [0.0, 1.0]])
    got = is_weaving_g_onb(frame, frame, tol)
    _assert_same_report(got, brute_weaving_basis(frame, frame, "onb", tol), "onb")
    assert not got.holds


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.floats(0.1, 10.0),
    complex_mode=st.booleans(),
    fail_late=st.sampled_from([None, "duplicate"]),
)
def test_scaling_both_families_scales_bounds_by_c_squared(seed, c, complex_mode, fail_late):
    """Riesz verdict, witness and universal witnesses stay; passing and universal bounds scale by c**2."""
    rng = np.random.default_rng(seed)
    first, second = basis_pair(rng, [1, 2, 1, 1, 1], complex_mode, 0.02, fail_late)
    scaled = [new_gframe(f.domain_dim, [c * b for b in f.blocks]) for f in (first, second)]
    k = c * c

    rep = is_weaving_g_riesz(first, second)
    rep_c = is_weaving_g_riesz(*scaled)
    assert (rep_c.holds, rep_c.witness) == (rep.holds, rep.witness)
    if rep.holds:
        assert rep_c.lower == pytest.approx(k * rep.lower, rel=1e-10)
        assert rep_c.upper == pytest.approx(k * rep.upper, rel=1e-10)

    if fail_late is None:  # every weaving is a frame, so both extremes are strict
        uni = universal_bounds_exhaustive(first, second)
        uni_c = universal_bounds_exhaustive(*scaled)
        assert uni_c.woven == uni.woven
        assert (uni_c.argmin, uni_c.argmax) == (uni.argmin, uni.argmax)
        assert uni_c.lower == pytest.approx(k * uni.lower, rel=1e-10)
        assert uni_c.upper == pytest.approx(k * uni.upper, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(pair=dense_pairs(max_blocks=12))
def test_swapping_the_families_complements_the_witnesses(pair):
    """Selection ``s`` of (first, second) is selection ``~s`` of (second, first)."""
    first, second = pair
    rep = universal_bounds_exhaustive(first, second)
    swapped = universal_bounds_exhaustive(second, first)
    assert swapped.lower == pytest.approx(rep.lower, abs=1e-10)
    assert swapped.upper == pytest.approx(rep.upper, abs=1e-10)
    low = mixed_frame_operator(first, second, swapped.argmin.complement.mask)
    high = mixed_frame_operator(first, second, swapped.argmax.complement.mask)
    assert np.linalg.eigvalsh(low)[0] == pytest.approx(rep.lower, abs=1e-10)
    assert np.linalg.eigvalsh(high)[-1] == pytest.approx(rep.upper, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(pair=dense_pairs(max_blocks=12), seed=st.integers(0, 2**32 - 1))
def test_permuting_both_families_keeps_the_bounds(pair, seed):
    first, second = pair
    perm = np.random.default_rng(seed).permutation(first.n_blocks)
    permuted = [new_gframe(f.domain_dim, [f.blocks[i] for i in perm]) for f in pair]
    rep = universal_bounds_exhaustive(first, second)
    rep_p = universal_bounds_exhaustive(*permuted)
    assert rep_p.lower == pytest.approx(rep.lower, abs=1e-10)
    assert rep_p.upper == pytest.approx(rep.upper, abs=1e-10)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(3, 5), complex_mode=st.booleans())
def test_composing_both_families_with_a_unitary_keeps_the_bounds(seed, d, complex_mode):
    """``S_s`` becomes ``U* S_s U`` for every selection, so the universal bounds stay put.

    At 14 blocks of order at most 5 the scan takes its branch-and-bound
    path; conjugation changes the rounding of every envelope but not the
    answer.
    """
    rng = np.random.default_rng(seed)
    first = random_gframe(rng, d=d, n=14, complex_mode=complex_mode)
    second = random_gframe(rng, d=d, n=14, complex_mode=complex_mode)
    a = rng.standard_normal((d, d))
    if complex_mode:
        a = a + 1j * rng.standard_normal((d, d))
    u = np.linalg.qr(a)[0]
    rep = universal_bounds_exhaustive(first, second)
    rep_u = universal_bounds_exhaustive(compose_right(first, u), compose_right(second, u))
    assert rep_u.lower == pytest.approx(rep.lower, abs=1e-10)
    assert rep_u.upper == pytest.approx(rep.upper, abs=1e-10)


class TestUnitaryInvariance:
    def test_identity_operator(self):
        frame = build_projection_family(5, 1)
        assert check_unitary_weaving_invariance(frame, frame, np.eye(5)).passed

    def test_random_unitary(self):
        frame = build_projection_family(6, 1)
        u = random_unitary(6, seed=2)
        rec = check_unitary_weaving_invariance(frame, frame, u)
        assert rec.passed
        assert rec.computed["composed_pair_holds"]

    def test_scaling_rejected_and_fails_directly(self):
        frame = build_projection_family(5, 1)
        scale2, _ = build_nonunitary_operators(5)
        with pytest.raises(NotUnitary) as err:
            check_unitary_weaving_invariance(frame, frame, scale2)
        assert "isometry" in str(err.value)
        composed = compose_right(frame, scale2)
        assert not is_weaving_g_onb(composed, composed).holds

    def test_shift_rejected_and_fails_directly(self):
        frame = build_projection_family(5, 1)
        _, shift = build_nonunitary_operators(5)
        with pytest.raises(NotUnitary) as err:
            check_unitary_weaving_invariance(frame, frame, shift)
        assert "surjectivity" in str(err.value)
        composed = compose_right(frame, shift)
        assert not is_weaving_g_onb(composed, composed).holds
