"""The enumeration kernel: brute-force agreement, tie-breaking and the exact reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gweave import _kernels
from gweave.gframe import block_grams, new_gframe
from gweave.weaving import universal_bounds_exhaustive

from conftest import random_gframe
from oracles import brute_weaving_spectra, mixed_frame_operator


def _pair_inputs(first, second):
    p = block_grams(first)
    q = block_grams(second)
    dtype = np.result_type(p.dtype, q.dtype)
    base = np.ascontiguousarray(q.sum(axis=0).astype(dtype))
    deltas = np.ascontiguousarray((p - q).astype(dtype))
    return base, deltas


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

    lo, hi = _kernels.mask_spectra(base, deltas, np.arange(len(lows)))
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

    lo, hi = _kernels.mask_spectra(base, deltas, np.arange(len(lows)))
    np.testing.assert_allclose(lo, lows, atol=1e-10)
    np.testing.assert_allclose(hi, highs, atol=1e-10)


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
