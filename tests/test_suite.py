"""Example constructions reproduce their declared constants; battery behavior."""

import numpy as np
import pytest

from gweave import _kernels, suite, weaving
from gweave.errors import ShapeMismatch, TooManyBlocks
from gweave.gframe import (
    is_g_exact,
    is_g_orthonormal_basis,
    is_g_riesz_basis,
    optimal_bounds,
)
from gweave.suite import (
    SuiteConfig,
    build_duplicate_vs_split_pair,
    build_overlapping_coordinate_pair,
    build_projection_family,
    build_scaled_split_pair,
    build_shifted_projection_pair,
    build_window_pair,
    run_suite,
)
from gweave.weaving import universal_bounds_exhaustive, universal_bounds_search

from oracles import brute_universal


class TestProjectionFamily:
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_tight_bounds(self, d):
        rep = optimal_bounds(build_projection_family(d, 3))
        assert rep.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.upper == pytest.approx(1.0, abs=1e-9)

    def test_single_block_at_dimension_one(self):
        frame = build_projection_family(1, 3)
        assert frame.n_blocks == 1
        np.testing.assert_allclose(frame.blocks[0], [[1.0]])

    @pytest.mark.parametrize("d", [2, 5])
    def test_one_row_variant_is_onb(self, d):
        assert is_g_orthonormal_basis(build_projection_family(d, 1)).is_onb

    def test_three_row_variant_is_not_onb(self):
        assert not is_g_orthonormal_basis(build_projection_family(5, 3)).is_onb


class TestShiftedPair:
    def test_both_families_tight(self):
        pair = build_shifted_projection_pair(8)
        for fam in (pair.first, pair.second):
            rep = optimal_bounds(fam)
            assert rep.lower == pytest.approx(1.0, abs=1e-9)
            assert rep.upper == pytest.approx(1.0, abs=1e-9)

    def test_not_woven_with_expected_certificate(self):
        pair = build_shifted_projection_pair(8)
        rep = universal_bounds_exhaustive(pair.first, pair.second)
        assert not rep.woven
        assert rep.argmin.indices == (1,)
        assert rep.lower <= 1e-12


class TestWindowPair:
    @pytest.mark.parametrize("n", [8, 10])
    def test_universal_bounds(self, n):
        pair = build_window_pair(n)
        rep = universal_bounds_exhaustive(pair.first, pair.second)
        assert rep.woven
        assert rep.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.upper == pytest.approx(2.0, abs=1e-9)
        assert brute_universal(pair.first, pair.second) == (
            pytest.approx(1.0, abs=1e-12),
            pytest.approx(2.0, abs=1e-12),
        )


class TestScaledSplitPair:
    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_universal_bounds_stable_under_truncation(self, n):
        pair = build_scaled_split_pair(n)
        rep = universal_bounds_exhaustive(pair.first, pair.second)
        assert rep.lower == pytest.approx(0.5, abs=1e-9)
        assert rep.upper == pytest.approx(1.5, abs=1e-9)
        assert rep.argmin.contains(2)
        assert rep.argmax.contains(4)

    def test_families_tight(self):
        pair = build_scaled_split_pair(9)
        for fam in (pair.first, pair.second):
            rep = optimal_bounds(fam)
            assert rep.lower == pytest.approx(1.0, abs=1e-9)
            assert rep.upper == pytest.approx(1.0, abs=1e-9)


class TestDuplicateVsSplit:
    def test_first_family(self):
        pair = build_duplicate_vs_split_pair(4)
        rep = optimal_bounds(pair.first)
        assert rep.lower == pytest.approx(2.0, abs=1e-9)
        assert rep.upper == pytest.approx(2.0, abs=1e-9)
        exact = is_g_exact(pair.first)
        assert not exact.is_exact
        # removing block 2 keeps a frame, as declared
        assert exact.removal_lower_bounds[1] > exact.threshold
        assert not is_g_riesz_basis(pair.first).is_riesz

    def test_second_family_riesz(self):
        pair = build_duplicate_vs_split_pair(4)
        rep = is_g_riesz_basis(pair.second)
        assert rep.is_riesz
        assert rep.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.upper == pytest.approx(1.0, abs=1e-9)

    def test_universal_bounds(self):
        pair = build_duplicate_vs_split_pair(4)
        rep = universal_bounds_exhaustive(pair.first, pair.second)
        assert rep.woven
        assert rep.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.upper == pytest.approx(2.0, abs=1e-9)

    def test_odd_k_rejected(self):
        from gweave.errors import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            build_duplicate_vs_split_pair(3)


class TestOverlappingPair:
    @pytest.mark.parametrize("n", [8, 12])
    def test_universal_bounds_stable_under_truncation(self, n):
        pair = build_overlapping_coordinate_pair(n)
        rep = universal_bounds_exhaustive(pair.first, pair.second)
        assert rep.woven
        assert rep.lower == pytest.approx(1.0, abs=1e-9)
        assert rep.upper == pytest.approx(3.0, abs=1e-9)

    def test_block_shapes(self):
        pair = build_overlapping_coordinate_pair(8)
        assert pair.first.domain_dim == 11
        assert all(r == 4 for r in pair.first.block_rows)

    def test_exactness(self):
        pair = build_overlapping_coordinate_pair(8)
        assert is_g_exact(pair.first).is_exact
        assert is_g_exact(pair.second).is_exact

    def test_asymmetry_witnesses(self):
        # exactness is lost under weaving while each ingredient is exact;
        # one Riesz member does not force the other to be Riesz
        dup = build_duplicate_vs_split_pair(4)
        assert is_g_riesz_basis(dup.second).is_riesz
        assert not is_g_riesz_basis(dup.first).is_riesz
        assert universal_bounds_exhaustive(dup.first, dup.second).woven


@pytest.mark.parametrize(
    "build, size",
    [
        (build_shifted_projection_pair, 8),
        (build_window_pair, 8),
        (build_scaled_split_pair, 9),
        (build_duplicate_vs_split_pair, 4),
        (build_overlapping_coordinate_pair, 8),
    ],
)
def test_provenance_covers_exactly_the_expected_keys(build, size):
    ex = build(size)
    assert set(ex.derived) <= set(ex.expected)
    assert list(ex.provenance) == list(ex.expected)
    assert {ex.provenance[k] for k in ex.derived} <= {"derived"}
    assert set(ex.provenance.values()) <= {"declared", "derived"}


class TestRunSuite:
    def test_default_config_passes(self):
        report = run_suite()
        failed = [r.name for r in report.records if not r.passed]
        assert report.passed, failed

    def test_records_sorted_by_name(self):
        report = run_suite()
        names = [r.name for r in report.records]
        assert names == sorted(names)

    def test_dim_scale_preserves_constants(self):
        report = run_suite(SuiteConfig(dim_scale=1.5))
        failed = [r.name for r in report.records if not r.passed]
        assert report.passed, failed

    def test_small_cap_falls_back_to_search(self):
        report = run_suite(SuiteConfig(cap=4, search_budget=64))
        assert any(r.method == "search" for r in report.records)
        assert report.passed

    def test_additive_upper_bound_reads_sampled_reports(self):
        report = run_suite(SuiteConfig(cap=4, search_budget=64))
        rec = next(r for r in report.records if r.name == "additive-upper-bound")
        assert rec.passed and rec.method == "search"
        pairs = {"window": build_window_pair(8), "scaled_split": build_scaled_split_pair(9)}
        for key, pair in pairs.items():
            upper = rec.computed[key]["universal_upper"]
            assert upper <= rec.expected[key]["at_most"]
            lower_end, upper_end = pair.expected["universal"]
            assert lower_end <= upper <= upper_end + 1e-9

    @pytest.mark.parametrize(
        "cap, skipped",
        [
            (
                0,
                {
                    "window-pair-vector-transfer",
                    "shifted-pair-vector-transfer",
                    "parseval-transform-weaving",
                    "dual-pair-weaving-guarantee",
                    "unitary-composition-preserves-onb-weaving",
                },
            ),
            (9, set()),
        ],
    )
    def test_skipped_statements_are_those_the_cap_refuses(self, cap, skipped):
        report = run_suite(SuiteConfig(cap=cap))
        assert report.passed
        assert {r.name for r in report.records if r.method == "skipped"} == skipped
        assert len(report.records) == 22

    @pytest.mark.parametrize("budget", [0, -5])
    def test_a_budget_below_one_is_refused_with_the_search_message(self, monkeypatch, budget):
        pair = build_scaled_split_pair(9)
        with pytest.raises(ShapeMismatch) as search_error:
            universal_bounds_search(pair.first, pair.second, budget)
        # refused before any family is built, at the default scale where no pair is sampled
        monkeypatch.setattr(suite, "build_projection_family", lambda *a: pytest.fail("built"))
        with pytest.raises(ShapeMismatch) as suite_error:
            run_suite(SuiteConfig(search_budget=budget))
        assert str(suite_error.value) == str(search_error.value)

    @pytest.mark.parametrize("cap", [4.0, 7.9, True, "4"])
    def test_a_cap_that_is_not_an_integer_is_refused(self, cap):
        with pytest.raises(TooManyBlocks, match=f"must be an integer, got {cap!r}"):
            run_suite(SuiteConfig(cap=cap))

    def test_a_numpy_integer_cap_runs_as_that_cap(self):
        report = run_suite(SuiteConfig(cap=np.int64(4)))
        assert report.to_dict()["config"]["cap"] == 4
        assert type(report.config.cap) is int

    @pytest.mark.parametrize("budget", [2.5, 4.0, True, "4", None])
    def test_a_budget_that_is_not_an_integer_is_refused(self, budget):
        pair = build_scaled_split_pair(9)
        message = f"budget must be an integer of at least 1, got {budget!r}"
        for question in (
            lambda: universal_bounds_search(pair.first, pair.second, budget),
            lambda: weaving.is_woven(pair.first, pair.second, strategy="search", budget=budget),
            lambda: run_suite(SuiteConfig(dim_scale=4, search_budget=budget)),
        ):
            with pytest.raises(ShapeMismatch) as error:
                question()
            assert str(error.value) == message

    def test_a_numpy_integer_budget_is_a_budget(self):
        pair = build_scaled_split_pair(9)
        want = universal_bounds_search(pair.first, pair.second, 4)
        assert universal_bounds_search(pair.first, pair.second, np.int64(4)) == want
        assert universal_bounds_search(pair.first, pair.second, np.uint8(4)) == want

    def test_dual_statement_checks_its_scalar_pair_when_the_window_family_is_refused(self):
        report = run_suite(SuiteConfig(cap=3))
        rec = next(r for r in report.records if r.name == "dual-pair-weaving-guarantee")
        assert rec.passed and rec.method == "exhaustive"
        assert rec.computed["window_second"] is None
        assert rec.computed["scalar"]["universal_lower"] == pytest.approx(0.5)

    @pytest.mark.parametrize("dim_scale", [1.0, 1.5])
    def test_statements_reuse_the_suite_reports(self, monkeypatch, dim_scale):
        """10 scans of 10 distinct pairs, and 2 ONB classifications.

        The bound statements and ``check_weaving_transfer`` take the reports
        the suite already holds.  The ONB weavings of the one-row projections
        and of their unitary image are the only per-selection
        classifications, each one pass over the masks.
        """
        calls = {"weaving_scan": 0, "is_weaving_g_riesz": 0, "is_weaving_g_onb": 0}
        for name in calls:
            module = _kernels if name == "weaving_scan" else weaving
            kernel = getattr(module, name)

            def counted(*args, name=name, kernel=kernel):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(module, name, counted)
        assert run_suite(SuiteConfig(dim_scale=dim_scale)).passed
        assert calls == {"weaving_scan": 10, "is_weaving_g_riesz": 0, "is_weaving_g_onb": 2}

    def test_report_serializable(self):
        import json

        doc = run_suite().to_dict()
        json.dumps(doc)
        assert doc["passed"] is True
        assert list(doc) == ["passed", "config", "records"]
        assert list(doc["config"]) == ["dim_scale", "cap", "tol", "seed", "search_budget"]
        fields = ["name", "passed", "method", "computed", "expected", "provenance", "detail"]
        assert all(list(r) == fields for r in doc["records"])

    def test_report_carries_the_cap_the_run_used(self, monkeypatch):
        monkeypatch.delenv("GWEAVE_EXHAUSTIVE_CAP", raising=False)
        report = run_suite(SuiteConfig())
        for value in ("3", "x"):  # read after the run, neither may change the report
            monkeypatch.setenv("GWEAVE_EXHAUSTIVE_CAP", value)
            assert report.to_dict()["config"]["cap"] == weaving.DEFAULT_EXHAUSTIVE_CAP
        monkeypatch.setenv("GWEAVE_EXHAUSTIVE_CAP", "3")
        assert run_suite(SuiteConfig()).to_dict()["config"]["cap"] == 3
