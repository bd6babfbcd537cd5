"""The enumeration kernel: brute-force agreement, tie rules, the exact reductions and the tree."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gweave import _kernels, weaving
from gweave.gframe import block_grams, new_gframe
from gweave.suite import (
    build_duplicate_vs_split_pair,
    build_scaled_split_pair,
    build_shifted_projection_pair,
    build_window_pair,
)
from gweave.weaving import (
    DEFAULT_EXHAUSTIVE_CAP,
    _pair_kernel_inputs,
    is_weaving_g_onb,
    is_weaving_g_riesz,
    universal_bounds_exhaustive,
    universal_bounds_search,
)

from conftest import basis_pair, basis_walks, dense_pairs, random_gframe
from oracles import brute_weaving_spectra, full_weaving_scan, mixed_frame_operator


def _pair_inputs(first, second):
    p = block_grams(first)
    q = block_grams(second)
    dtype = np.result_type(p.dtype, q.dtype)
    base = np.ascontiguousarray(q.sum(axis=0).astype(dtype))
    deltas = np.ascontiguousarray((p - q).astype(dtype))
    return base, deltas


def _spectra(base, deltas, masks, *bounds):
    """``mask_spectra`` on the split operator of ``base`` and ``deltas``."""
    operator = _kernels._SplitOperator(base, deltas)
    return _kernels.mask_spectra(operator, len(deltas), masks, *bounds)


def test_tie_breaking_conventions():
    # Identical families: every mask ties, so argmin must be the smallest
    # mask and argmax the largest.
    frame = new_gframe(3, [np.eye(3)[i] for i in range(3)])
    base, deltas = _pair_inputs(frame, frame)
    lower, amin, upper, amax = _kernels.weaving_scan(base, deltas)
    assert amin == 0
    assert amax == (1 << 3) - 1
    assert lower == pytest.approx(1.0)
    assert upper == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [3, 4])
def test_matches_brute_enumeration(seed):
    rng = np.random.default_rng(seed)
    first = random_gframe(rng, d=3, n=4)
    second = random_gframe(rng, d=3, n=4)
    lows, highs = brute_weaving_spectra(first, second)
    base, deltas = _pair_inputs(first, second)
    lower, amin, upper, amax = _kernels.weaving_scan(base, deltas)
    assert lower == pytest.approx(float(lows.min()), abs=1e-10)
    assert upper == pytest.approx(float(highs.max()), abs=1e-10)
    assert lows[amin] == pytest.approx(lower, abs=1e-10)
    assert highs[amax] == pytest.approx(upper, abs=1e-10)

    lo, hi = _spectra(base, deltas, np.arange(len(lows)))
    np.testing.assert_allclose(lo, lows, atol=1e-10)
    np.testing.assert_allclose(hi, highs, atol=1e-10)


def _block(rng, d, cols, complex_mode):
    """Up to two rows supported on the coordinates ``cols``."""
    rows = int(rng.integers(0, 3))
    b = np.zeros((rows, d), dtype=complex if complex_mode else float)
    b[:, cols] = rng.standard_normal((rows, len(cols)))
    if complex_mode:
        b[:, cols] += 1j * rng.standard_normal((rows, len(cols)))
    return b


@st.composite
def structured_pairs(draw):
    """Pairs with null blocks whose operators are direct sums under a coordinate permutation.

    Coordinates split into groups of the drawn sizes, then get shuffled; each
    block is supported on a random union of groups.  A null block is the
    same block in both families, or zero rows in both.  One group gives a
    dense pair.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    nulls = draw(st.sets(st.integers(0, n - 1)))
    complex_mode = draw(st.booleans())
    d = sum(sizes)
    perm = rng.permutation(d)
    groups = np.split(perm, np.cumsum(sizes)[:-1])

    def block():
        chosen = rng.permutation(len(groups))[: int(rng.integers(1, len(groups) + 1))]
        return _block(rng, d, np.concatenate([groups[g] for g in chosen]), complex_mode)

    def blocks(null):
        a = block()
        if not null:
            return a, block()
        if rng.integers(2):
            return a, a
        return np.zeros((0, d)), np.zeros((0, d))

    first, second = zip(*(blocks(i in nulls) for i in range(n)))
    return new_gframe(d, first), new_gframe(d, second)


def _tie_class(first, second, mask):
    """Masks whose brute-force frame operator is bitwise that of ``mask``."""
    target = mixed_frame_operator(first, second, mask)
    return [
        m
        for m in range(1 << first.n_blocks)
        if np.array_equal(mixed_frame_operator(first, second, m), target)
    ]


@settings(max_examples=60, deadline=None)
@given(pair=structured_pairs())
def test_reductions_match_brute_enumeration(pair):
    first, second = pair
    lows, highs = brute_weaving_spectra(first, second)
    base, deltas = _pair_inputs(first, second)
    lower, amin, upper, amax = _kernels.weaving_scan(base, deltas)
    assert lower == pytest.approx(float(lows.min()), abs=1e-10)
    assert upper == pytest.approx(float(highs.max()), abs=1e-10)
    assert lows[amin] == pytest.approx(lower, abs=1e-10)
    assert highs[amax] == pytest.approx(upper, abs=1e-10)
    assert amin == min(_tie_class(first, second, amin))
    assert amax == max(_tie_class(first, second, amax))

    lo, hi = _spectra(base, deltas, np.arange(len(lows)))
    np.testing.assert_allclose(lo, lows, atol=1e-10)
    np.testing.assert_allclose(hi, highs, atol=1e-10)


def _dense_margin(base, deltas):
    """The margin from the dense norms, ``8 ((d + 2)^2 + k) u N``, over the ``k`` live deltas."""
    deltas = deltas[deltas.any(axis=(1, 2))]
    norm = np.linalg.norm(base) + np.linalg.norm(deltas, axis=(1, 2)).sum()
    return 4 * ((len(base) + 2) ** 2 + len(deltas)) * np.finfo(np.float64).eps * norm


@pytest.mark.parametrize("complex_mode", [False, True])
def test_margin_from_the_pieces_is_the_dense_margin(complex_mode):
    """Random pairs, dense and split into components: the dense formula to 1e-12, relative.

    The norms are those of the live deltas; the split pairs have null blocks.
    Scaled by ``2**1000``, where the dense norms' squares overflow, the
    pieces give exactly ``2**1000`` times the margin and the norms.
    """
    rng = np.random.default_rng(7)
    for trial in range(40):
        d, n = int(rng.integers(1, 9)), int(rng.integers(1, 16))
        if trial % 2:
            first, second = (random_gframe(rng, d, n, complex_mode) for _ in range(2))
        else:
            groups = np.split(rng.permutation(d), np.sort(rng.choice(d, 2)))

            def family():
                cols = [groups[rng.integers(len(groups))] for _ in range(n)]
                return new_gframe(d, [_block(rng, d, c, complex_mode) for c in cols])

            first, second = family(), family()
        base, deltas = _pair_inputs(first, second)
        operator = _kernels._SplitOperator(base, deltas)
        dense = _dense_margin(base, deltas)
        assert abs(operator.margin - dense) <= 1e-12 * dense
        live = deltas[deltas.any(axis=(1, 2))]
        np.testing.assert_allclose(operator.norms, np.linalg.norm(live, axis=(1, 2)), rtol=1e-14)
        huge = _kernels._SplitOperator(base * 2.0**1000, deltas * 2.0**1000)
        assert huge.margin == operator.margin * 2.0**1000
        assert np.array_equal(huge.norms, operator.norms * 2.0**1000)


@pytest.mark.parametrize(
    "build, size",
    [
        (build_window_pair, 16),
        (build_scaled_split_pair, 14),
        (build_shifted_projection_pair, 14),
        (build_duplicate_vs_split_pair, 6),
    ],
)
def test_tied_constructions_order_the_tree_by_the_dense_norms(build, size):
    """The norms from the pieces are bitwise those of ``np.linalg.norm``, so the tree's order is too.

    The operator keeps the live deltas alone.
    """
    ex = build(size)
    base, deltas = _pair_inputs(ex.first, ex.second)
    norms = _kernels._SplitOperator(base, deltas).norms
    live = deltas[deltas.any(axis=(1, 2))]
    assert norms.tobytes() == np.linalg.norm(live, axis=(1, 2)).tobytes()


def test_all_null_pair():
    rng = np.random.default_rng(5)
    frame = random_gframe(rng, d=4, n=5, complex_mode=True, min_rows_total=5)
    base, deltas = _pair_inputs(frame, frame)
    lower, amin, upper, amax = _kernels.weaving_scan(base, deltas)
    w = np.linalg.eigvalsh(base)
    assert (amin, amax) == (0, (1 << 5) - 1)
    assert lower == pytest.approx(w[0], abs=1e-10)
    assert upper == pytest.approx(w[-1], abs=1e-10)


def test_diagonal_pair_needs_no_eigensolve(monkeypatch):
    # Every operator of a coordinate-separable pair is diagonal, so the scan
    # reads its extremes off the diagonal.  Bit 2 is null: clear in the
    # argmin, set in the argmax.
    first = new_gframe(4, list(np.diag([0.5, 2.0, 1.0, 1.5])))
    second = new_gframe(4, list(np.diag([1.0, 1.0, 1.0, 3.0])))
    base, deltas = _pair_inputs(first, second)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert _kernels.weaving_scan(base, deltas) == (0.25, 0b0001, 9.0, 0b0111)
    assert calls == []


def test_numpy_path_full_pipeline():
    rng = np.random.default_rng(9)
    first = random_gframe(rng, d=3, n=4)
    second = random_gframe(rng, d=3, n=4)
    rep = universal_bounds_exhaustive(first, second)
    lows, highs = brute_weaving_spectra(first, second)
    assert rep.lower == pytest.approx(float(lows.min()), abs=1e-10)
    assert rep.upper == pytest.approx(float(highs.max()), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 62),
    d=st.integers(1, 16),
    complex_mode=st.booleans(),
    count=st.integers(1, 700),
    cut=st.floats(0.0, 1.0),
)
# products big enough that BLAS leaves its small-matrix path, where a row's
# rounding depends on its position among a few hundred rows
@example(seed=1, n=40, d=10, complex_mode=True, count=600, cut=0.3)
@example(seed=2, n=62, d=16, complex_mode=False, count=700, cut=0.6)
@example(seed=3, n=50, d=12, complex_mode=True, count=300, cut=0.9)
def test_mask_spectra_is_batch_invariant(seed, n, d, complex_mode, count, cut):
    """A mask's spectrum is bitwise the same in one batch, a permutation, a split, alone and tested."""
    rng = np.random.default_rng(seed)
    first = random_gframe(rng, d=d, n=n, complex_mode=complex_mode)
    second = random_gframe(rng, d=d, n=n, complex_mode=complex_mode)
    base, deltas = _pair_inputs(first, second)
    masks = rng.integers(0, 1 << n, size=count)
    lo, hi = _spectra(base, deltas, masks)

    perm = rng.permutation(count)
    lo_p, hi_p = _spectra(base, deltas, masks[perm])
    assert np.array_equal(lo_p, lo[perm]) and np.array_equal(hi_p, hi[perm])

    cut = int(cut * count)
    head = _spectra(base, deltas, masks[:cut])
    tail = _spectra(base, deltas, masks[cut:])
    assert np.array_equal(np.concatenate([head[0], tail[0]]), lo)
    assert np.array_equal(np.concatenate([head[1], tail[1]]), hi)

    for i in rng.choice(count, size=min(count, 12), replace=False):
        one_lo, one_hi = _spectra(base, deltas, masks[i : i + 1])
        assert (one_lo[0], one_hi[0]) == (lo[i], hi[i])

    # With a floor and a ceiling per mask, a mask is solved, with the same
    # bits, exactly when its spectrum is not well inside them.
    gap = rng.choice([-0.5, 0.5], size=(2, count)) * (hi - lo + 1)
    got_lo, got_hi = _spectra(base, deltas, masks, lo - gap[0], hi + gap[1])
    solved = (gap < 0).any(axis=0)
    assert np.array_equal(got_lo[solved], lo[solved]) and np.array_equal(got_hi[solved], hi[solved])
    assert (got_lo[~solved] == np.inf).all() and (got_hi[~solved] == -np.inf).all()


@settings(max_examples=100, deadline=None)
@given(pair=dense_pairs(), batch_floats=st.sampled_from([None, 256, 4096]))
def test_certified_scan_equals_full_scan(pair, batch_floats):
    """Skipping the certified masks changes nothing: bounds, witnesses and tie rules are ``==``.

    A small ``_BATCH_FLOATS`` caps chunks at a few dozen masks.
    """
    base, deltas = _pair_inputs(*pair)
    with pytest.MonkeyPatch.context() as mp:
        if batch_floats is not None:
            mp.setattr(_kernels, "_BATCH_FLOATS", batch_floats)
        scanned = _kernels.weaving_scan(base, deltas)
    assert scanned == full_weaving_scan(base, deltas)


@st.composite
def direct_sums(draw):
    """Pairs whose every block is a direct sum over two or three coordinate groups.

    Each block stacks up to two Gaussian rows per group, supported on that
    group, so each group is one component of every operator, and a group of
    size 1 lies on the diagonal.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2, 9))
    sizes = rng.integers(1, 4, size=int(rng.integers(2, 4)))
    complex_mode = draw(st.booleans())
    d = int(sizes.sum())
    groups = np.split(rng.permutation(d), np.cumsum(sizes)[:-1])

    def family():
        return [np.vstack([_block(rng, d, g, complex_mode) for g in groups]) for _ in range(n)]

    return new_gframe(d, family()), new_gframe(d, family())


@settings(max_examples=80, deadline=None)
@given(pair=st.one_of(structured_pairs(), direct_sums()), batch_floats=st.sampled_from([1, 16]))
def test_certified_scan_of_direct_sums_equals_full_scan(pair, batch_floats):
    """Certification on the diagonal and per component, with chunks of one mask or a few."""
    base, deltas = _pair_inputs(*pair)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BATCH_FLOATS", batch_floats)
        scanned = _kernels.weaving_scan(base, deltas)
    assert scanned == full_weaving_scan(base, deltas)


def test_scan_that_fits_in_one_chunk_is_solved_whole(monkeypatch):
    rng = np.random.default_rng(6)
    first = random_gframe(rng, d=4, n=8)
    second = random_gframe(rng, d=4, n=8)
    base, deltas = _pair_inputs(first, second)
    expected = full_weaving_scan(base, deltas)
    monkeypatch.setattr(_kernels, "_definite", lambda stack: pytest.fail("Cholesky test ran"))
    assert _kernels.weaving_scan(base, deltas) == expected


@pytest.mark.parametrize("complex_mode", [False, True])
def test_scan_solves_few_selections(monkeypatch, complex_mode):
    """On a dense pair Cholesky certifies most selections, so at most a quarter get an eigensolve."""
    rng = np.random.default_rng(14)
    first = random_gframe(rng, d=6, n=14, complex_mode=complex_mode)
    second = random_gframe(rng, d=6, n=14, complex_mode=complex_mode)
    base, deltas = _pair_inputs(first, second)
    expected = full_weaving_scan(base, deltas)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    assert _kernels.weaving_scan(base, deltas) == expected
    assert 0 < sum(solved) <= (1 << 14) // 4


@pytest.mark.parametrize("complex_mode", [False, True])
def test_cholesky_gufunc_returns_nan_for_exactly_the_failures(complex_mode):
    """The private LAPACK gufunc behind ``np.linalg.cholesky`` keeps the contract the scan relies on."""
    rng = np.random.default_rng(8)
    g = rng.standard_normal((60, 5, 10))
    if complex_mode:
        g = g + 1j * rng.standard_normal((60, 5, 10))
    shift = rng.uniform(0, 8 if complex_mode else 4, size=(60, 1, 1))
    stack = g @ g.conj().transpose(0, 2, 1) - shift * np.eye(5)
    with np.errstate(invalid="ignore"):
        factor = _kernels._umath_linalg.cholesky_lo(stack)
    failed = np.isnan(factor).any(axis=(1, 2))
    assert 0 < failed.sum() < len(stack)
    for a, f, bad in zip(stack, factor, failed):
        if bad:
            assert np.isnan(f).all()
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(a)
        else:
            assert np.array_equal(f, np.linalg.cholesky(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(_kernels._definite(stack), ~failed)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_inside_with_a_shift_per_row_matches_scalar_shifts(complex_mode):
    """Row by row, per-row floors and ceilings give the verdict of the same values as scalars.

    The shifts include the untested ``-inf``/``+inf`` and, on diagonal rows,
    the exact extreme eigenvalues, where the test must fail.
    """
    rng = np.random.default_rng(9)
    g = rng.standard_normal((48, 4, 4))
    if complex_mode:
        g = g + 1j * rng.standard_normal((48, 4, 4))
    stack = g @ g.conj().transpose(0, 2, 1)
    stack[::4] = np.diag([1.0, 2.0, 3.0, 5.0])
    w = np.linalg.eigvalsh(stack)
    floor = w[:, 0] - rng.choice([-1.0, 0.0, 0.5, 2.0], size=48)
    ceiling = w[:, -1] + rng.choice([-1.0, 0.0, 0.5, 2.0], size=48)
    floor[1::7] = -np.inf
    ceiling[2::5] = np.inf
    got = _kernels._inside(stack, floor, ceiling)
    assert 0 < got.sum() < len(stack)
    assert not got[::4][(floor[::4] == 1.0) | (ceiling[::4] == 5.0)].any()
    for j in range(len(stack)):
        assert got[j] == _kernels._inside(stack[j : j + 1], floor[j], ceiling[j])[0]


def _opening(k):
    """The depth at which the subcube search of ``k`` live blocks opens."""
    return min(max(0, k - _kernels._LEAF_FREE), (4 * _kernels._ROUND).bit_length() - 1)


def _envelope_depths(monkeypatch):
    """The depth of every node whose envelope the subcube search forms, once per side."""
    depths = []
    envelopes = _kernels._envelopes

    def counted(operator, order):
        envelope = envelopes(operator, order)

        def formed(masks, node_depths, side):
            depths.extend(node_depths.tolist())
            yield from envelope(masks, node_depths, side)

        return formed

    monkeypatch.setattr(_kernels, "_envelopes", counted)
    return depths


def test_branch_and_bound_equals_full_scan():
    """Small batches and rounds and no block minimum: the tree expands inner nodes, and is ``==``.

    Bounds, witnesses and ties all match.  The ``integer`` kind of
    ``dense_pairs`` ties bitwise inside a dense component, so a subcube
    pruned or a leaf mask ruled out without a strict margin changes a witness.
    A ``_ROUND`` of 1 or 4 opens the search at depth 2 or 4, so a pair with
    more live blocks than that plus ``_LEAF_FREE`` has inner nodes, and the
    one that holds the argmin is never pruned: it must be expanded.
    """
    expanded = []

    @settings(max_examples=200, deadline=None)
    @given(
        pair=st.one_of(dense_pairs(), structured_pairs(), direct_sums()),
        batch_floats=st.sampled_from([1, 16, 64]),
        round_=st.sampled_from([1, 4]),
    )
    def check(pair, batch_floats, round_):
        base, deltas = _pair_inputs(*pair)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BATCH_FLOATS", batch_floats)
            mp.setattr(_kernels, "_TREE_BLOCKS", 1)
            mp.setattr(_kernels, "_ROUND", round_)
            depths = _envelope_depths(mp)
            scanned = _kernels.weaving_scan(base, deltas)
            k = sum(bool(delta.any()) for delta in deltas)
            top, inner = _opening(k), _opening(k) < k - _kernels._LEAF_FREE
        assert scanned == full_weaving_scan(base, deltas)
        if depths:  # the search ran over subcubes
            assert min(depths) == top
            assert (max(depths) > top) == inner
            expanded.append(inner)

    check()
    assert any(expanded)


@settings(max_examples=100, deadline=None)
@given(
    pair=st.one_of(dense_pairs(), structured_pairs(), direct_sums()),
    tree_blocks=st.sampled_from([1, 64]),
    round_=st.sampled_from([1, 16]),
)
def test_a_closed_lower_side_takes_no_lower_test(pair, tree_blocks, round_):
    """With ``rows`` that give a weaving no rows, the lower side reads 0 and the upper one the full scan's.

    The first family's row counts are 0 and the second's ``d``, so the
    smallest weaving of fewer than ``d`` rows sets every live bit and clears
    every null one.  Over subcubes (a ``_TREE_BLOCKS`` of 1) or as one leaf
    (64), no Cholesky test has a finite floor and no node a lower envelope.
    """
    base, deltas = _pair_inputs(*pair)
    floors, sides = [], []
    inside, envelopes = _kernels._inside, _kernels._envelopes

    def tested(stack, floor, ceiling):
        floors.append(floor)
        return inside(stack, floor, ceiling)

    def counted(operator, order):
        envelope = envelopes(operator, order)

        def formed(masks, depths, side):
            sides.extend([side] * len(masks))
            yield from envelope(masks, depths, side)

        return formed

    n = len(deltas)
    rows = (np.zeros(n, dtype=int), np.full(n, len(base)))
    live = int(np.left_shift(1, np.flatnonzero(deltas.any(axis=(1, 2)))).sum())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_TREE_BLOCKS", tree_blocks)
        mp.setattr(_kernels, "_ROUND", round_)
        mp.setattr(_kernels, "_inside", tested)
        mp.setattr(_kernels, "_envelopes", counted)
        scanned = _kernels.weaving_scan(base, deltas, rows)
    assert scanned == (0.0, live, *full_weaving_scan(base, deltas)[2:])
    assert all(np.all(np.asarray(floor) == -np.inf) for floor in floors)
    assert 0 not in sides


def _tree_calls(monkeypatch):
    """The live blocks of each scan whose search runs over subcubes, not the cube as one leaf."""
    calls = []
    search = _kernels._subcube_search

    def counted(operator, cube, *args):
        if not cube:
            calls.append(len(operator.norms))
        return search(operator, cube, *args)

    monkeypatch.setattr(_kernels, "_subcube_search", counted)
    return calls


def test_diagonal_pairs_and_one_chunk_scans_take_no_tree(monkeypatch):
    """Subcubes need a component that is not 1 x 1 and enough blocks.

    Otherwise the whole cube is one leaf, in one batch or in many.
    """
    calls = _tree_calls(monkeypatch)
    for build, size in [
        (build_window_pair, 16),
        (build_scaled_split_pair, 14),
        (build_shifted_projection_pair, 14),
    ]:
        ex = build(size)
        base, deltas = _pair_inputs(ex.first, ex.second)
        assert 1 << size > _kernels._BATCH_FLOATS // size  # more than one batch of diagonals
        assert _kernels.weaving_scan(base, deltas) == full_weaving_scan(base, deltas)
    rng = np.random.default_rng(6)
    one_chunk = _pair_inputs(random_gframe(rng, d=4, n=8), random_gframe(rng, d=4, n=8))
    assert _kernels.weaving_scan(*one_chunk) == full_weaving_scan(*one_chunk)
    assert calls == []

    # 2**12 masks of order 16 fill 64 batches, but a component of order 16
    # needs 10 + (16 - 4) // 3 = 14 blocks, and one of order 8 needs 11: the
    # cube is one leaf, with the Cholesky test
    wide = _pair_inputs(random_gframe(rng, d=16, n=12), random_gframe(rng, d=16, n=12))
    assert _kernels.weaving_scan(*wide) == full_weaving_scan(*wide)
    short = _pair_inputs(random_gframe(rng, d=8, n=10), random_gframe(rng, d=8, n=10))
    assert _kernels.weaving_scan(*short) == full_weaving_scan(*short)
    assert calls == []

    for d, n in [(8, 11), (6, 10), (4, 12)]:
        dense = _pair_inputs(random_gframe(rng, d=d, n=n), random_gframe(rng, d=d, n=n))
        assert _kernels.weaving_scan(*dense) == full_weaving_scan(*dense)
    assert calls == [11, 10, 12]


def test_enough_blocks_in_one_batch_take_the_tree(monkeypatch):
    """A dense pair of order 4 with 10 live blocks fits one batch of masks and runs over subcubes."""
    calls = _tree_calls(monkeypatch)
    rng = np.random.default_rng(11)
    base, deltas = _pair_inputs(random_gframe(rng, d=4, n=10), random_gframe(rng, d=4, n=10))
    assert 1 << 10 <= _kernels._SplitOperator(base, deltas).step
    assert _kernels.weaving_scan(base, deltas) == full_weaving_scan(base, deltas)
    assert calls == [10]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("complex_mode", [False, True])
def test_tree_prunes_most_of_the_cube(monkeypatch, seed, complex_mode):
    """At n=18, d=4 eigensolves and Cholesky tests together stay under one per 32 selections."""
    rng = np.random.default_rng(seed)
    first = random_gframe(rng, d=4, n=18, complex_mode=complex_mode)
    second = random_gframe(rng, d=4, n=18, complex_mode=complex_mode)
    base, deltas = _pair_inputs(first, second)
    matrices = []
    eigvalsh = np.linalg.eigvalsh
    definite = _kernels._definite
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: matrices.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(_kernels, "_definite", lambda a: matrices.append(len(a)) or definite(a))
    scanned = _kernels.weaving_scan(base, deltas)
    assert 0 < sum(matrices) <= (1 << 18) // 32
    monkeypatch.undo()
    assert scanned == full_weaving_scan(base, deltas)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_pair_with_a_weaving_of_fewer_rows_solves_a_quarter_of_the_cube(monkeypatch, seed):
    """At n=12, d=16 with 0-3 rows per block, eigensolves and Cholesky tests stay under 2^12 / 4.

    The lower bound is 0 from the row counts, and the scan searches the
    upper side alone: 533 and 451 on these pairs, where searching both sides
    made 8,243 and 4,189.
    """
    rng = np.random.default_rng(seed)
    first, second = (
        new_gframe(16, [rng.standard_normal((int(rng.integers(0, 4)), 16)) for _ in range(12)])
        for _ in range(2)
    )
    matrices = []
    eigvalsh = np.linalg.eigvalsh
    definite = _kernels._definite
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: matrices.append(len(a) if a.ndim == 3 else 1) or eigvalsh(a)
    )
    monkeypatch.setattr(_kernels, "_definite", lambda a: matrices.append(len(a)) or definite(a))
    rep = universal_bounds_exhaustive(first, second)
    assert rep.lower == 0.0 and 0 < sum(matrices) <= (1 << 12) // 4


@pytest.mark.parametrize("batch_floats", [1, 40, 200, 1000])
def test_every_tree_batch_fits_the_batch_size(monkeypatch, batch_floats):
    """No batch exceeds ``_BATCH_FLOATS`` floats, in the tree or in any other kernel entry.

    The tree's node envelopes, own masks and leaf completions run in batches
    of the bound, and so do the stacks of ``mask_spectra``,
    ``neighbour_quotients`` and the basis classifiers; a stack holds at
    least one operator, of 16 floats, or of 64 for the classifiers' pair.
    At the ONB test's tolerance each weaving of its pair settles on its own
    but no subcube does, so it walks every mask; the Riesz test walks the
    quarter of a fail-late pair next to its failures.
    """
    rng = np.random.default_rng(3)
    base, deltas = _pair_inputs(random_gframe(rng, d=4, n=14), random_gframe(rng, d=4, n=14))
    expected = full_weaving_scan(base, deltas)
    masks = rng.integers(0, 1 << 14, size=300)
    lo, hi = _spectra(base, deltas, masks)
    lowest = masks % 2 == 0
    shift = np.where(lowest, lo - 1.0, hi + 1.0)
    pair = basis_pair(rng, [1] * 8, noise=0.02)
    late = basis_pair(rng, [1] * 8, noise=0.02, fail_late="duplicate")
    w = np.array([np.linalg.eigvalsh(mixed_frame_operator(*pair, m)) for m in range(1 << 8)])
    # every weaving clears it by far more than the rounding margin, and the
    # envelope of no leaf does
    onb_tol = 1.01 * np.sqrt(np.square(w - 1.0).sum(axis=1)).max()
    monkeypatch.setattr(_kernels, "_BATCH_FLOATS", batch_floats)
    calls = _tree_calls(monkeypatch)
    batches = []
    mask_bits = _kernels._mask_bits
    monkeypatch.setattr(
        _kernels, "_mask_bits", lambda masks, k: batches.append(len(masks)) or mask_bits(masks, k)
    )
    assert _kernels.weaving_scan(base, deltas) == expected
    assert calls == [14]
    step = max(1, batch_floats // 16)
    assert max(batches) == step

    floats = []  # float64 entries of each stack built
    stack = _kernels._stack
    monkeypatch.setattr(
        _kernels,
        "_stack",
        lambda base, flat, bits: floats.append(bits.shape[0] * flat.shape[1])
        or stack(base, flat, bits),
    )
    walked = basis_walks(monkeypatch)
    spectra = []
    for size, walks, run in (
        (64, 1 << 6, lambda: is_weaving_g_riesz(*late).holds and pytest.fail("Riesz")),
        (64, 1 << 8, lambda: is_weaving_g_onb(*pair, onb_tol).holds or pytest.fail("ONB")),
        (16, 0, lambda: spectra.extend(_spectra(base, deltas, masks))),
        (16, 0, lambda: _quotients(base, deltas, masks, lowest, shift)),
    ):
        floats.clear()
        walked.clear()
        run()
        step = max(1, batch_floats // size)
        assert max(floats) == size * step <= max(batch_floats, size)
        assert sum(walked) >= walks
    assert np.array_equal(spectra[0], lo) and np.array_equal(spectra[1], hi)


def test_a_subcube_whose_bound_meets_the_incumbent_is_searched(monkeypatch):
    """Pruning is strict: with the margin at 0, a bound equal to the incumbent keeps its subcube.

    Coordinates 2 and 3 are fixed diagonal entries 0 and 100, below and above
    every eigenvalue of the 2 x 2 component, so every mask ties on both sides
    and so does every envelope.  Only by expanding every subcube does the
    argmax reach the largest mask.  Rounds of one node and leaves of one
    free block open the search at depth 2 with its leaves at depth 5, so
    every node of depths 2 to 4 must be expanded.
    """
    rng = np.random.default_rng(2)
    base = np.diag([10.0, 10.0, 0.0, 100.0])
    base[0, 1] = base[1, 0] = 1.0
    deltas = np.zeros((6, 4, 4))
    for delta in deltas:
        delta[:2, :2] = rng.uniform(-0.5, 0.5, size=(2, 2))
        delta[:2, :2] += delta[:2, :2].T
        delta[:2, :2] /= 2
    monkeypatch.setattr(_kernels, "_BATCH_FLOATS", 24)
    monkeypatch.setattr(_kernels, "_TREE_BLOCKS", 1)
    monkeypatch.setattr(_kernels, "_margin", lambda *args: 0.0)
    monkeypatch.setattr(_kernels, "_ROUND", 1)
    monkeypatch.setattr(_kernels, "_LEAF_FREE", 1)
    calls = _tree_calls(monkeypatch)
    depths = _envelope_depths(monkeypatch)
    expected = full_weaving_scan(base, deltas)
    assert _kernels.weaving_scan(base, deltas) == expected == (0.0, 0, 100.0, 63)
    assert calls == [6]
    # both sides of every node: 4 at the opening, twice as many each level down
    assert np.bincount(depths).tolist() == [0, 0, 8, 16, 32, 64]


def _seeded_pair(kind, n, seed):
    """A pair of ``n`` blocks, all of them non-null, for the subcube search.

    ``real`` and ``complex`` are dense Gaussian pairs; ``block_sparse`` puts
    every block on three coordinate groups of orders 3, 2 and 1, with a
    unit row in the first group so no block is empty; ``integer`` draws the
    first family from two small integer blocks and repeats a third in the
    second, so masks of the same counts tie bitwise.
    """
    rng = np.random.default_rng(seed)
    if kind in ("real", "complex"):
        complex_mode = kind == "complex"
        return _pair_inputs(*(random_gframe(rng, 4, n, complex_mode) for _ in range(2)))
    if kind == "block_sparse":
        groups = np.split(rng.permutation(6), [3, 5])

        def family():
            return [
                np.vstack([np.eye(6)[groups[0][:1]]] + [_block(rng, 6, g, False) for g in groups])
                for _ in range(n)
            ]

        return _pair_inputs(new_gframe(6, family()), new_gframe(6, family()))
    pool = [rng.integers(-2, 3, size=(2, 4)).astype(float) for _ in range(3)]
    first = [pool[int(rng.integers(2))] for _ in range(n)]
    return _pair_inputs(new_gframe(4, first), new_gframe(4, [pool[2]] * n))


@pytest.mark.parametrize(
    "kind, n, seed",
    [
        ("real", 16, 0),
        ("complex", 14, 1),
        ("block_sparse", 13, 2),
        ("integer", 12, 3),
        ("integer", 15, 4),
    ],
)
def test_tree_pairs_of_12_to_16_blocks_expand_below_the_opening(monkeypatch, kind, n, seed):
    """At the default rounds the search opens at depth 6 and its leaves lie 2 to 6 levels down.

    The node that holds each witness is never pruned, so inner nodes are
    expanded, and the result is ``==`` that of solving every mask.
    """
    base, deltas = _seeded_pair(kind, n, seed)
    assert all(delta.any() for delta in deltas)
    calls = _tree_calls(monkeypatch)
    depths = _envelope_depths(monkeypatch)
    scanned = _kernels.weaving_scan(base, deltas)
    assert calls == [n]
    assert min(depths) == 6 < max(depths) <= n - _kernels._LEAF_FREE
    monkeypatch.undo()
    assert scanned == full_weaving_scan(base, deltas)


def test_the_search_opens_with_the_64_subcubes_of_the_six_largest_blocks(monkeypatch):
    """No envelope is formed above depth 6, and the first batch solved is the opening's own masks.

    Those are the 64 masks that set any of the six blocks of largest norm,
    in the order of the operator's norms, and no other bits.
    """
    rng = np.random.default_rng(29)
    base, deltas = _pair_inputs(random_gframe(rng, d=6, n=12), random_gframe(rng, d=6, n=12))
    top = np.argsort(-_kernels._SplitOperator(base, deltas).norms, kind="stable")[:6]
    opening = [sum(1 << int(top[j]) for j in range(6) if m >> j & 1) for m in range(64)]
    batches = []
    mask_bits = _kernels._mask_bits
    monkeypatch.setattr(
        _kernels, "_mask_bits", lambda masks, k: batches.append(list(masks)) or mask_bits(masks, k)
    )
    calls = _tree_calls(monkeypatch)
    depths = _envelope_depths(monkeypatch)
    scanned = _kernels.weaving_scan(base, deltas)
    assert calls == [12]
    assert sorted(batches[0]) == sorted(opening)
    assert min(depths) == 6 and depths.count(6) == 2 * 64
    monkeypatch.undo()
    assert scanned == full_weaving_scan(base, deltas)


def test_a_pair_where_every_selection_ties_both_extremes_scans_exactly(monkeypatch):
    """16 blocks on a 3 x 3 component between fixed diagonal entries 0 and 100.

    Every selection ties the minimum 0 and the maximum 100, so the tree can
    prune nothing, and the witnesses must still be the smallest and the
    largest mask.  One search serves both sides, so each node's own mask and
    each leaf completion is solved once: with the envelopes, at most
    ``3 * 2**15`` matrices go to ``eigvalsh``.
    """
    rng = np.random.default_rng(16)
    base = np.diag([10.0, 10.0, 10.0, 0.0, 100.0])
    base[:3, :3] += 1.0
    deltas = np.zeros((16, 5, 5))
    for delta in deltas:
        part = rng.uniform(-0.5, 0.5, size=(3, 3))
        delta[:3, :3] = (part + part.T) / 2
    expected = full_weaving_scan(base, deltas)
    calls = _tree_calls(monkeypatch)
    matrices = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: matrices.append(len(a)) or eigvalsh(a))
    assert _kernels.weaving_scan(base, deltas) == expected == (0.0, 0, 100.0, (1 << 16) - 1)
    assert calls == [16]
    assert sum(matrices) <= 3 * (1 << 15)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    d=st.integers(1, 3),
    complex_mode=st.booleans(),
)
# a dense solve of these operators moves an extreme by an ulp
@example(seed=0, n=7, d=1, complex_mode=True)
@example(seed=11, n=7, d=3, complex_mode=False)
def test_mask_spectra_at_the_scans_witnesses_reads_its_extremes(seed, n, d, complex_mode):
    """``mask_spectra`` of the scan's argmin and argmax gives the scan's ``lower`` and ``upper``, ``==``.

    The coordinates split into random groups, and each block is one Gaussian
    row on one group, so the operators split into components, 1 x 1 ones
    included, and no block is null.
    """
    rng = np.random.default_rng(seed)
    groups = np.split(rng.permutation(d), np.flatnonzero(rng.integers(0, 2, size=d - 1)) + 1)

    def block():
        cols = groups[rng.integers(len(groups))]
        b = np.zeros((1, d), dtype=complex if complex_mode else float)
        b[0, cols] = rng.standard_normal(len(cols))
        if complex_mode:
            b[0, cols] += 1j * rng.standard_normal(len(cols))
        return b

    first = new_gframe(d, [block() for _ in range(n)])
    second = new_gframe(d, [block() for _ in range(n)])
    base, deltas = _pair_inputs(first, second)
    lower, amin, upper, amax = _kernels.weaving_scan(base, deltas)
    lo, hi = _spectra(base, deltas, [amin, amax])
    assert (lo[0], hi[1]) == (lower, upper)


@st.composite
def null_block_pairs(draw):
    """Real or complex pairs of up to ten blocks of 0-3 rows, at least one of them null.

    A null block is the same in both families, or has zero rows in both.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 5))
    complex_mode = draw(st.booleans())

    def block():
        b = rng.standard_normal((int(rng.integers(0, 4)), d))
        return b + 1j * rng.standard_normal(b.shape) if complex_mode else b

    first, second = [block() for _ in range(n)], [block() for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        first[i] = second[i] = first[i] if rng.integers(2) else np.zeros((0, d))
    return new_gframe(d, first), new_gframe(d, second)


def _scan_values(base, deltas, masks):
    """Each mask's extremes as the scan reads them: the live deltas alone, with the mask's live bits."""
    live = np.flatnonzero(deltas.any(axis=(1, 2)))
    bits = (np.asarray(masks, dtype=np.int64)[:, np.newaxis] >> live) & 1
    return _kernels._SplitOperator(base, deltas[live]).extremes(bits.astype(np.float64))


def _same(got, expected):
    return all(np.array_equal(a, b) for a, b in zip(got, expected))


@settings(max_examples=100, deadline=None)
@given(pair=null_block_pairs(), data=st.data())
def test_every_entry_reads_the_scans_value_for_each_mask(pair, data):
    """Each mask reads ``==`` the value the full scan gives it, through every kernel entry.

    The entries are ``mask_spectra``, the witnesses of ``descent_search``,
    every mask ``basis_search`` walks and ``one_bit_spectra``.  The full
    scan's witnesses read its bounds.
    """
    base, deltas = _pair_inputs(*pair)
    n = len(deltas)
    lower, amin, upper, amax = full_weaving_scan(base, deltas)
    lo, hi = _scan_values(base, deltas, [amin, amax])
    assert (lo[0], hi[1]) == (lower, upper)

    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    assert _same(_spectra(base, deltas, masks), _scan_values(base, deltas, masks))

    seeds = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    d_lower, d_amin, d_upper, d_amax, _ = _kernels.descent_search(base, deltas, seeds)
    lo, hi = _scan_values(base, deltas, [d_amin, d_amax])
    assert (lo[0], hi[1]) == (d_lower, d_upper)

    # At tol 1 no weaving passes lambda_min > lambda_max, and the level lies
    # above every eigenvalue, so no node settles and no mask is proved: every
    # mask is walked, solved and yielded.
    walked = []
    extremes = _kernels._SplitOperator.extremes

    def solved(operator, bits, *bounds):
        values = extremes(operator, bits, *bounds)
        walked.append((bits.astype(np.int64) @ np.left_shift(1, np.arange(n)), values))
        return values

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels._SplitOperator, "extremes", solved)
        yielded = list(_kernels.basis_search(base, deltas, np.zeros((2, n), dtype=int), 1.0))
    assert yielded == list(range(1 << n))
    assert np.array_equal(np.concatenate([m for m, _ in walked]), np.arange(1 << n))
    for masks, values in walked:
        assert _same(values, _scan_values(base, deltas, masks))

    one_bit = _scan_values(base, deltas, 1 << np.arange(n))
    assert _same(_kernels.one_bit_spectra(base, deltas), one_bit)


@pytest.mark.parametrize("build, size", [(build_window_pair, 24), (build_duplicate_vs_split_pair, 12)])
def test_search_solves_structured_pairs_by_component(monkeypatch, build, size):
    """Above the cap the search meets the declared bounds (1, 2), and solves no matrix larger than a component.

    Both pairs are coordinate-diagonal, of order 24 and 144: every component
    is 1 x 1.  Every ``eigvalsh``, ``eigh`` and linear solve of the search is
    counted, in ``mask_spectra``, in ``neighbour_quotients`` and for the Weyl
    steps, except the two frame-bound solves of the woven threshold, which
    the exhaustive report computes the same way.
    """
    ex = build(size)
    base, deltas, _, _ = _pair_kernel_inputs(ex.first, ex.second)
    largest = max((len(b) for b, _ in _kernels._SplitOperator(base, deltas).blocks), default=1)
    assert largest == 1
    orders = []
    threshold = []

    def count(module, name):
        solver = getattr(module, name)

        def counted(a, *args):
            if not threshold:
                orders.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
            return solver(a, *args)

        monkeypatch.setattr(module, name, counted)

    def uncounted(*args, woven_threshold=weaving._woven_threshold):
        threshold.append(1)
        out = woven_threshold(*args)
        threshold.pop()
        return out

    count(np.linalg, "eigvalsh")
    count(np.linalg, "eigh")
    count(_kernels._umath_linalg, "solve1")
    monkeypatch.setattr(weaving, "_woven_threshold", uncounted)
    assert ex.first.n_blocks > DEFAULT_EXHAUSTIVE_CAP
    rep = universal_bounds_search(ex.first, ex.second, 16, seed=0)
    assert (rep.lower, rep.upper) == ex.expected["universal"] == (1.0, 2.0)
    assert all(order <= largest for order in orders)


def _neighbour_spectra(base, deltas, masks):
    n = len(deltas)
    neighbours = (masks[:, np.newaxis] ^ (np.int64(1) << np.arange(n))).ravel()
    lo, hi = _spectra(base, deltas, neighbours)
    return lo.reshape(len(masks), n), hi.reshape(len(masks), n)


def _quotients(base, deltas, masks, lowest, shift):
    """``neighbour_quotients`` on the split operator of ``base`` and ``deltas``."""
    operator = _kernels._SplitOperator(base, deltas)
    return _kernels.neighbour_quotients(operator, masks, np.asarray(lowest), np.asarray(shift))


def _quotients_in_range(base, deltas, masks, lowest, shift):
    """``neighbour_quotients`` with each entry checked against its neighbour's spectrum."""
    got = _quotients(base, deltas, masks, lowest, shift)
    lo, hi = _neighbour_spectra(base, deltas, masks)
    margin = _kernels._SplitOperator(base, deltas).margin
    assert (got >= lo - margin).all() and (got <= hi + margin).all()
    return got


def _eigh_quotients(base, deltas, masks, lowest):
    """The same quotients at the eigenvectors of ``np.linalg.eigh``."""
    out = []
    for mask, low in zip(masks, lowest):
        bits = (int(mask) >> np.arange(len(deltas))) & 1
        s = base + np.tensordot(bits, deltas, axes=1)
        u = np.linalg.eigh(s)[1][:, 0 if low else -1]
        own = (u.conj() @ s @ u).real
        out.append([own + (1 - 2 * b) * (u.conj() @ delta @ u).real for b, delta in zip(bits, deltas)])
    return np.array(out)


def _count_eigh(monkeypatch):
    rows = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: rows.append(len(a)) or eigh(a))
    return rows


@pytest.mark.parametrize("complex_mode", [False, True])
def test_neighbour_quotients_lie_in_their_neighbours_spectra(monkeypatch, complex_mode):
    """One inverse-iteration step per component gives quotients as tight as eigh's, without calling eigh.

    On a random dense pair, one component, they are eigh's quotients.  On a
    pair whose every block is a direct sum over coordinate groups of sizes
    2, 3, 3, 1 and 1, the operators split into three components and two
    1 x 1 coordinates.  eigh's eigenvector of the whole operator then lies in
    one piece, and each entry is the least quotient over the pieces on a
    descent row, so no greater than eigh's, and the greatest on an ascent
    row, so no less.
    """
    rng = np.random.default_rng(40)

    def dense():
        return [random_gframe(rng, d=6, n=20, complex_mode=complex_mode) for _ in range(2)]

    def split():
        groups = np.split(rng.permutation(10), [2, 5, 8, 9])

        def family():
            blocks = [np.vstack([_block(rng, 10, g, complex_mode) for g in groups]) for _ in range(20)]
            return new_gframe(10, blocks)

        return family(), family()

    for pair, pieces in [(dense, ([6], 0)), (split, ([2, 3, 3], 2))]:
        base, deltas = _pair_inputs(*pair())
        operator = _kernels._SplitOperator(base, deltas)
        assert (sorted(len(b) for b, _ in operator.blocks), len(operator.diag_base)) == pieces
        masks = rng.integers(0, 1 << 20, size=300)
        lowest = rng.random(300) < 0.5
        lo, hi = _spectra(base, deltas, masks)
        margin = operator.margin
        eigh_rows = _count_eigh(monkeypatch)
        shift = np.where(lowest, lo - margin, hi + margin)
        got = _quotients_in_range(base, deltas, masks, lowest, shift)
        assert eigh_rows == []
        monkeypatch.undo()
        scale = np.abs(got).max()
        expected = _eigh_quotients(base, deltas, masks, lowest)
        if pair is dense:
            np.testing.assert_allclose(got, expected, atol=1e-9 * scale)
        else:
            beyond = np.where(lowest[:, np.newaxis], got - expected, expected - got)
            assert (beyond <= 1e-9 * scale).all()


def test_neighbour_quotients_of_the_zero_operator_and_a_repeated_extreme(monkeypatch):
    """Deltas of rank 2 in 5 dimensions, with ``base = 0`` and ``base = 2 I``.

    Mask 0 is then ``0`` or ``2 I``, and the masks of one or two blocks repeat
    their smallest eigenvalue.  Every unit vector of ``c I`` is an
    eigenvector, and the step from just below or above ``c`` gives
    ``1 / sqrt(5)`` in every coordinate.
    """
    rng = np.random.default_rng(41)
    g = rng.standard_normal((8, 2, 5))
    deltas = g.transpose(0, 2, 1) @ g / 4
    masks = np.array([0, 0, 1, 6, 255])
    lowest = np.array([True, False, True, False, True])
    eigh_rows = _count_eigh(monkeypatch)
    for c in (0.0, 2.0):
        base = c * np.eye(5)
        lo, hi = _spectra(base, deltas, masks)
        margin = _kernels._SplitOperator(base, deltas).margin
        shift = np.where(lowest, lo - margin, hi + margin)
        got = _quotients_in_range(base, deltas, masks, lowest, shift)
        at_ones = c + deltas.sum(axis=(1, 2)) / 5
        np.testing.assert_allclose(got[:2], [at_ones, at_ones], rtol=0, atol=1e-13)
    assert eigh_rows == []


def test_neighbour_quotients_past_float64_bound_nothing():
    """A quotient that overflows reads -inf on an ascent row (+inf on a descent row), not inf or NaN.

    ``base`` is the frame operator of the block ``[x, x, x]`` at ``x = 8.5e153``:
    every entry is 7.2e307, and its largest eigenvalue, 2.2e308, is beyond
    float64, so every quotient near its eigenvector overflows.  A descent
    row, near the eigenvalue 0, keeps a finite quotient.
    """
    base = np.full((3, 3), 8.5e153**2)
    operator = _kernels._SplitOperator(base, np.eye(3)[np.newaxis])
    masks = np.array([0, 0, 1, 1])
    lowest = np.array([True, False, True, False])
    lo, hi = _kernels.mask_spectra(operator, 1, masks)
    shift = np.where(lowest, lo - operator.margin, hi + operator.margin)
    got = _kernels.neighbour_quotients(operator, masks, lowest, shift)[:, 0]
    assert np.isfinite(got[lowest]).all()
    assert (got[~lowest] == -np.inf).all()


def _diagonal_quotients(base, deltas, masks, lowest):
    """Each one-bit neighbour's least diagonal entry where ``lowest`` holds, else its greatest."""
    n = len(deltas)
    neighbours = masks[:, np.newaxis] ^ (1 << np.arange(n))
    bits = (neighbours[:, :, np.newaxis] >> np.arange(n)) & 1
    entries = np.diagonal(base + np.tensordot(bits, deltas, axes=1), axis1=-2, axis2=-1).real
    return np.where(lowest[:, np.newaxis], entries.min(axis=2), entries.max(axis=2))


@pytest.mark.parametrize("complex_mode", [False, True])
def test_neighbour_quotients_fall_back_to_eigh_on_a_singular_shift(monkeypatch, complex_mode):
    """Diagonal pieces need no solve; a component whose solve fails takes eigh's eigenvector.

    A coordinate-diagonal pair, and the all-zero pair, split into 1 x 1
    coordinates: each quotient is a neighbour's own diagonal entry, exactly,
    with no linear solve and no eigh, even at a shift that would make the
    solve singular.

    The same operators as one component of order 3: block 0 cancels the
    off-diagonal entries of ``base``, so with bit 0 set every operator is
    diagonal while its coordinates stay connected.  A shift exactly at an
    eigenvalue makes the component's solve singular, and eigh's eigenvectors
    of a diagonal operator are coordinate vectors, so the quotients equal
    eigh's exactly.
    """
    dtype = complex if complex_mode else float
    base = np.diag([1.0, 2.0, 4.0]).astype(dtype)
    deltas = np.array([np.diag(v) for v in ([1.0, 0, 0], [0, -1.0, 0], [0, 0, 2.0])], dtype=dtype)
    masks = np.arange(8)
    lowest = masks % 2 == 0
    lo, hi = _spectra(base, deltas, masks)
    solves = []
    solve1 = _kernels._umath_linalg.solve1
    monkeypatch.setattr(
        _kernels._umath_linalg, "solve1", lambda a, b: solves.append(len(a)) or solve1(a, b)
    )
    eigh_rows = _count_eigh(monkeypatch)
    got = _quotients_in_range(base, deltas, masks, lowest, np.where(lowest, lo, hi))
    np.testing.assert_array_equal(got, _diagonal_quotients(base, deltas, masks, lowest))
    zero = np.zeros((3, 3, 3), dtype=dtype)
    got = _quotients_in_range(zero[0], zero, masks, lowest, np.zeros(8))
    assert (got == 0).all()
    assert solves == [] and eigh_rows == []

    off = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=dtype)
    if complex_mode:
        off[0, 1], off[1, 0] = 1j, -1j
    masks = 1 | masks << 1  # bit 0 set: the diagonal operators above
    deltas = np.concatenate([-off[np.newaxis], deltas])
    assert [len(b) for b, _ in _kernels._SplitOperator(base + off, deltas).blocks] == [3]
    got = _quotients_in_range(base + off, deltas, masks, lowest, np.where(lowest, lo, hi))
    assert sum(solves) == sum(eigh_rows) == len(masks)
    np.testing.assert_array_equal(got, _eigh_quotients(base + off, deltas, masks, lowest))

    # A shift 1e-300 below the eigenvalue 0 of diag(0, 2, 4) gives a finite x
    # whose squared norm overflows, so x / |x| is the zero vector, whose
    # quotients of 0 bound nothing: eigh runs for that row.
    del eigh_rows[:]
    base = np.diag([0.0, 2.0, 4.0]).astype(dtype) + off
    got = _quotients_in_range(base, deltas, masks[:1], [True], [-1e-300])
    assert eigh_rows == [1] and solves[-1] == 1
    np.testing.assert_array_equal(got, _eigh_quotients(base, deltas, masks[:1], [True]))
