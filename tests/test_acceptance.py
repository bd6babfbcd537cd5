"""End-to-end acceptance battery.

Every test pins one headline guarantee of the package at its final
tolerance and prints a one-line verdict, so running this module alone gives
a complete pass/fail digest of the deliverable.
"""

import numpy as np
import pytest

from gweave import linalg
from gweave.gframe import (
    canonical_dual,
    compose_right,
    frame_operator,
    is_g_exact,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    new_gframe,
    optimal_bounds,
    parseval_transform,
)
from gweave.induced import (
    check_operator_identity,
    induced_vectors,
    onb_families,
    universal_bounds_vectors,
)
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
    is_weaving_g_onb,
    is_woven,
    universal_bounds_exhaustive,
    universal_bounds_search,
    weave,
    weaving_bounds,
)

from conftest import perturbed_woven_pair, random_frame, random_gframe
from oracles import rayleigh_extremes_refined

EPS = 1e-9


def _report(message: str):
    print(f"[PASS] {message}")


def test_scaled_split_pair_universal_bounds():
    pair = build_scaled_split_pair(9)
    rep = universal_bounds_exhaustive(pair.first, pair.second)
    assert rep.lower == pytest.approx(0.5, abs=EPS)
    assert rep.upper == pytest.approx(1.5, abs=EPS)
    for fam in (pair.first, pair.second):
        bounds = optimal_bounds(fam)
        assert bounds.lower == pytest.approx(1.0, abs=EPS)
        assert bounds.upper == pytest.approx(1.0, abs=EPS)
    assert rep.argmin.contains(2)
    assert rep.argmax.contains(4)
    _report(
        "scaled-split pair: universal bounds (0.5, 1.5), per-family bounds (1, 1),"
        f" argmin {rep.argmin} has block 2, argmax {rep.argmax} has block 4"
    )


def test_shifted_projection_pair_not_woven():
    pair = build_shifted_projection_pair(8)
    verdict = is_woven(pair.first, pair.second)
    assert not verdict.woven
    assert verdict.certificate.indices == (1,)
    rep = weaving_bounds(pair.first, pair.second, verdict.certificate)
    assert rep.lower <= 1e-12
    woven = weave(pair.first, pair.second, verdict.certificate)
    e2 = np.eye(8)[1]
    energy = sum(float(np.vdot(b @ e2, b @ e2).real) for b in woven.blocks)
    assert energy <= 1e-12
    _report(
        "shifted-projection pair: not woven, certificate {1} annihilates"
        " coordinate 2"
    )


def test_window_pair_universal_bounds_both_levels():
    pair = build_window_pair(8)
    rep = universal_bounds_exhaustive(pair.first, pair.second)
    assert rep.lower == pytest.approx(1.0, abs=EPS)
    assert rep.upper == pytest.approx(2.0, abs=EPS)
    vf = induced_vectors(pair.first, onb_families(pair.first.block_rows, scale=2.0))
    vg = induced_vectors(pair.second, onb_families(pair.second.block_rows, scale=2.0))
    v_rep = universal_bounds_vectors(vf, vg)
    assert v_rep.lower == pytest.approx(4.0, abs=EPS)
    assert v_rep.upper == pytest.approx(8.0, abs=EPS)
    _report(
        "window pair: block-level universal bounds (1, 2), doubled-basis"
        " vector-level bounds (4, 8)"
    )


def test_duplicate_vs_split_classifications_and_weaving():
    pair = build_duplicate_vs_split_pair(4)
    assert pair.first.domain_dim == 16
    riesz_second = is_g_riesz_basis(pair.second)
    assert riesz_second.is_riesz
    assert riesz_second.lower == pytest.approx(1.0, abs=EPS)
    assert riesz_second.upper == pytest.approx(1.0, abs=EPS)
    bounds_first = optimal_bounds(pair.first)
    assert bounds_first.is_frame
    assert bounds_first.lower == pytest.approx(2.0, abs=EPS)
    assert bounds_first.upper == pytest.approx(2.0, abs=EPS)
    exact_first = is_g_exact(pair.first)
    assert not exact_first.is_exact
    assert exact_first.witness is not None
    assert not is_g_riesz_basis(pair.first).is_riesz
    rep = universal_bounds_exhaustive(pair.first, pair.second)
    assert rep.woven
    assert rep.lower == pytest.approx(1.0, abs=EPS)
    assert rep.upper == pytest.approx(2.0, abs=EPS)
    _report(
        "duplicate-vs-split pair at grid 4 (dimension 16): split family Riesz"
        " (1, 1), duplicate family (2, 2) neither exact nor Riesz, pair woven"
        " with universal bounds (1, 2)"
    )


def test_overlapping_pair_exactness_lost_under_weaving():
    pair = build_overlapping_coordinate_pair(8)
    assert pair.first.domain_dim == 11
    assert is_g_exact(pair.first).is_exact
    assert is_g_exact(pair.second).is_exact
    rep = universal_bounds_exhaustive(pair.first, pair.second)
    assert rep.lower == pytest.approx(1.0, abs=EPS)
    assert rep.upper == pytest.approx(3.0, abs=EPS)
    mixed = weave(
        pair.first, pair.second, WeavingSelection.from_indices(8, [1, 2])
    )
    mixed_bounds = optimal_bounds(mixed)
    assert mixed_bounds.is_frame
    mixed_exact = is_g_exact(mixed)
    assert not mixed_exact.is_exact
    assert mixed_exact.removal_lower_bounds[1] > mixed_exact.threshold
    assert not is_g_riesz_basis(mixed).is_riesz
    _report(
        "overlapping-coordinate pair at 8 blocks (dimension 11): both families"
        " exact, universal bounds (1, 3), the {1,2} weaving is a frame that is"
        " neither exact (block 2 removable) nor Riesz"
    )


def test_dual_weaving_guarantees_on_random_frames():
    count = 50
    for seed in range(count):
        rng = np.random.default_rng(1000 + seed)
        frame = random_frame(rng, d=int(rng.integers(2, 7)), n=int(rng.integers(2, 7)))
        bounds = optimal_bounds(frame)
        dual = canonical_dual(frame)
        b1 = bounds.upper
        b2 = optimal_bounds(dual).upper
        rep = universal_bounds_exhaustive(frame, dual)
        assert rep.lower >= min(1.0 / (2 * b1), 1.0 / (2 * b2)) - EPS, seed
        assert rep.upper <= b1 + b2 + EPS, seed
    _report(
        f"dual weaving: {count} random frames weave with their canonical duals"
        " inside the guaranteed bounds"
    )


def test_parseval_transform_keeps_pairs_woven():
    count = 50
    for seed in range(count):
        rng = np.random.default_rng(2000 + seed)
        first, second, rep = perturbed_woven_pair(
            rng, d=int(rng.integers(2, 6)), n=int(rng.integers(2, 6))
        )
        s = sum(b.conj().T @ b for b in first.blocks)
        w, v = np.linalg.eigh(s)
        root = (v / np.sqrt(w)) @ v.conj().T
        t_first = new_gframe(first.domain_dim, [b @ root for b in first.blocks])
        t_second = new_gframe(second.domain_dim, [b @ root for b in second.blocks])
        rep2 = universal_bounds_exhaustive(t_first, t_second)
        assert rep2.woven, seed
        assert rep2.lower >= rep.lower / rep.upper - EPS, seed
        assert rep2.upper <= rep.upper / rep.lower + EPS, seed
        parseval = parseval_transform(first)
        s = frame_operator(parseval).s
        assert linalg.frobenius(s - np.eye(first.domain_dim)) <= 1e-8, seed
    _report(
        f"inverse-root transform: {count} woven pairs stay woven inside"
        " [A/B, B/A] and the transformed family is Parseval"
    )


def test_universal_bound_inequalities_on_random_woven_pairs():
    count = 100
    for seed in range(count):
        rng = np.random.default_rng(3000 + seed)
        first, second, rep = perturbed_woven_pair(
            rng, d=int(rng.integers(2, 6)), n=int(rng.integers(2, 6))
        )
        b1 = optimal_bounds(first)
        b2 = optimal_bounds(second)
        assert rep.lower <= min(b1.lower, b2.lower) + EPS, seed
        assert rep.upper >= max(b1.upper, b2.upper) - EPS, seed
        assert rep.lower < b1.lower + b2.lower - EPS, seed
        assert rep.upper < b1.upper + b2.upper - EPS, seed
        assert rep.upper <= b1.upper + b2.upper + EPS, seed
    _report(
        f"universal bound inequalities: {count} woven pairs satisfy the"
        " envelope, strict-gap, and additive-upper relations"
    )


def test_block_and_vector_operators_identical_with_matching_verdicts():
    count = 100
    for seed in range(count):
        rng = np.random.default_rng(4000 + seed)
        frame = random_gframe(rng, complex_mode=seed % 3 == 0)
        rec = check_operator_identity(frame)
        assert rec.passed, (seed, rec.computed)
    _report(
        f"operator identity: {count} random families have identical block and"
        " induced-vector frame operators (1e-12 entrywise) with matching"
        " Riesz and orthonormality verdicts"
    )


def test_unitary_invariance_and_counterexamples():
    d = 12
    frame = build_projection_family(d, 1)
    u = random_unitary(d, seed=5)
    composed = compose_right(frame, u)
    rep = is_weaving_g_onb(composed, composed)
    assert rep.holds
    scale2, shift = build_nonunitary_operators(d)
    scaled = compose_right(frame, scale2)
    assert not is_g_orthonormal_basis(scaled).is_onb
    scaled_bounds = optimal_bounds(scaled)
    assert scaled_bounds.lower == pytest.approx(4.0, abs=EPS)
    assert scaled_bounds.upper == pytest.approx(4.0, abs=EPS)
    shifted = compose_right(frame, shift)
    onb_rep = is_g_orthonormal_basis(shifted)
    assert not onb_rep.is_onb
    assert onb_rep.first_zero_row == (1, 1)
    vectors = induced_vectors(shifted, onb_families(shifted.block_rows))
    assert float(np.linalg.norm(vectors.groups[0][0])) <= 1e-12
    _report(
        "unitary composition at 12 blocks keeps the orthonormal weaving;"
        " doubling reports operator bounds (4, 4) and the shift reports a zero"
        " induced vector"
    )


def test_spectral_bounds_agree_with_sampling_oracle():
    count = 30
    for seed in range(count):
        rng = np.random.default_rng(5000 + seed)
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        first = random_gframe(rng, d=d, n=n)
        second = random_gframe(rng, d=d, n=n)
        for fam in (first, second):
            bounds = optimal_bounds(fam)
            lo, hi = rayleigh_extremes_refined(
                frame_operator(fam).s, samples=10_000, seed=seed
            )
            assert bounds.lower == pytest.approx(lo, abs=1e-6), seed
            assert bounds.upper == pytest.approx(hi, abs=1e-6), seed
        rep = universal_bounds_exhaustive(first, second)
        oracle_lo = np.inf
        oracle_hi = -np.inf
        for mask in range(1 << n):
            woven = weave(first, second, WeavingSelection(n, mask))
            lo, hi = rayleigh_extremes_refined(
                frame_operator(woven).s, samples=10_000, seed=seed + mask
            )
            oracle_lo = min(oracle_lo, lo)
            oracle_hi = max(oracle_hi, hi)
        assert rep.lower == pytest.approx(oracle_lo, abs=1e-6), seed
        assert rep.upper == pytest.approx(oracle_hi, abs=1e-6), seed
        searched = universal_bounds_search(first, second, budget=1 << n, seed=seed)
        assert searched == rep, seed
    _report(
        f"oracle consistency: {count} instances match the sampled"
        " Rayleigh-quotient oracle within 1e-6 and full-budget search equals"
        " exhaustive enumeration exactly"
    )
