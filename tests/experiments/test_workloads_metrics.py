"""Tests for workload generation, metrics, and reporting."""

import numpy as np
import pytest

from repro.core.params import Loc
from repro.errors import ReproError
from repro.experiments import metrics, report, workloads


class TestLocationCombos:
    def test_excludes_all_device(self):
        combos = workloads.location_combos(3)
        assert len(combos) == 7
        assert (Loc.DEVICE,) * 3 not in combos

    def test_two_operands(self):
        combos = workloads.location_combos(2)
        assert len(combos) == 3


class TestValidationSets:
    def test_daxpy_set_size(self):
        probs = workloads.daxpy_validation_set("quick")
        assert len(probs) == 4 * 3
        assert all(p.routine.name == "axpy" for p in probs)

    def test_gemm_location_set_size(self):
        probs = workloads.gemm_location_validation_set("quick")
        assert len(probs) == 4 * 7

    def test_gemm_shape_set_full_offload_only(self):
        probs = workloads.gemm_shape_validation_set("quick")
        assert all(workloads.is_full_offload(p) for p in probs)
        # fat-by-thin and thin-by-fat per (edge, ratio)
        assert len(probs) == 1 * 2 * 2

    def test_paper_scale_sizes(self):
        probs = workloads.gemm_location_validation_set("paper")
        dims = {p.dims[0] for p in probs}
        assert dims == {4096, 8192, 12288, 16384}

    def test_unknown_scale_rejected(self):
        with pytest.raises(ReproError):
            workloads.daxpy_validation_set("huge")

    def test_shape_dims_fat(self):
        m, n, k = workloads.shape_dims(4096, 3, fat_by_thin=True)
        assert m == n
        assert m > 4 * k
        # Volume approximately preserved (rounding to 128s).
        assert m * n * k == pytest.approx(4096 ** 3, rel=0.5)

    def test_shape_dims_thin(self):
        m, n, k = workloads.shape_dims(4096, 3, fat_by_thin=False)
        assert m == n
        assert k > 4 * m

    def test_eval_sets_nonempty(self):
        assert workloads.gemm_evaluation_set("tiny")
        assert workloads.daxpy_evaluation_set("tiny")

    def test_is_full_offload(self):
        from repro.core.params import gemm_problem

        assert workloads.is_full_offload(gemm_problem(64, 64, 64))
        assert not workloads.is_full_offload(
            gemm_problem(64, 64, 64, loc_a=Loc.DEVICE))


class TestTileSweeps:
    def test_sweep_respects_constraint(self):
        from repro.core.params import gemm_problem

        p = gemm_problem(4096, 4096, 4096)
        sweep = workloads.tile_sweep(p, "quick")
        assert all(t <= 4096 / 1.5 for t in sweep)
        assert sweep == sorted(sweep)

    def test_sweep_fallback_for_tiny_problems(self):
        from repro.core.params import gemm_problem

        p = gemm_problem(300, 300, 300)
        sweep = workloads.tile_sweep(p, "quick")
        assert len(sweep) >= 1

    def test_fig1_sweep_reaches_problem_size(self):
        sweep = workloads.fig1_tile_sweep(4096, "quick")
        assert max(sweep) == 4096
        assert min(sweep) == 512


class TestMetrics:
    def test_percent_error_sign_convention(self):
        assert metrics.percent_error(1.2, 1.0) == pytest.approx(20.0)
        assert metrics.percent_error(0.8, 1.0) == pytest.approx(-20.0)

    def test_percent_error_invalid_measured(self):
        with pytest.raises(ReproError):
            metrics.percent_error(1.0, 0.0)

    def test_error_distribution_summary(self):
        dist = metrics.ErrorDistribution.from_samples(
            "x", [-10.0, -5.0, 0.0, 5.0, 10.0])
        assert dist.median == 0.0
        assert dist.mean == 0.0
        assert dist.min == -10.0 and dist.max == 10.0
        assert dist.q1 == -5.0 and dist.q3 == 5.0
        assert dist.n == 5

    def test_error_distribution_tail_quantiles(self):
        samples = [float(v) for v in range(1, 101)]
        dist = metrics.ErrorDistribution.from_samples("x", samples)
        assert dist.p95 == pytest.approx(95.05)
        assert dist.p99 == pytest.approx(99.01)

    def test_mean_abs_does_not_cancel_mixed_signs(self):
        """Regression: mean_abs was |mean(e)|, which let over- and
        under-predictions cancel; it must be mean(|e|)."""
        dist = metrics.ErrorDistribution.from_samples(
            "x", [-10.0, -5.0, 0.0, 5.0, 10.0])
        assert dist.mean == 0.0
        assert dist.mean_abs == pytest.approx(6.0)
        skewed = metrics.ErrorDistribution.from_samples("y", [-30.0, 10.0])
        assert skewed.mean_abs == pytest.approx(20.0)
        assert skewed.mean_abs != abs(skewed.mean)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ReproError):
            metrics.ErrorDistribution.from_samples("x", [])

    def test_geomean(self):
        assert metrics.geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_rejects_non_positive(self):
        with pytest.raises(ReproError):
            metrics.geomean([1.0, 0.0])

    def test_improvement_pct(self):
        assert metrics.geomean_improvement_pct([1.1, 1.1]) == pytest.approx(
            10.0, rel=1e-6)

    def test_speedup(self):
        assert metrics.speedup(2.0, 1.0) == 2.0
        with pytest.raises(ReproError):
            metrics.speedup(0.0, 1.0)


class TestReport:
    def test_format_table_aligned(self):
        out = report.format_table(["a", "bb"], [[1, 2.5], [3, 4.0]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1

    def test_format_table_with_title(self):
        out = report.format_table(["x"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_ascii_series_dimensions(self):
        out = report.ascii_series([1, 2, 3], [1.0, 4.0, 2.0], width=30,
                                  height=6)
        assert "*" in out

    def test_ascii_series_validates(self):
        with pytest.raises(ValueError):
            report.ascii_series([1], [1, 2])
        with pytest.raises(ValueError):
            report.ascii_series([], [])

    def test_section(self):
        sec = report.section("Title", "body")
        assert "=====" in sec


class TestPercentiles:
    def test_linear_interpolation_convention(self):
        # Even-sized sample: p50 is the midpoint average.
        assert metrics.percentiles([1.0, 2.0, 3.0, 4.0], (50,)) == [2.5]
        # Odd-sized sample: p50 is the middle element.
        assert metrics.percentiles([3.0, 1.0, 2.0], (50,)) == [2.0]

    def test_endpoints_and_defaults(self):
        samples = list(range(101))
        p50, p95, p99 = metrics.percentiles(samples)
        assert (p50, p95, p99) == (50.0, 95.0, 99.0)
        assert metrics.percentiles(samples, (0, 100)) == [0.0, 100.0]

    def test_single_sample_is_every_percentile(self):
        assert metrics.percentiles([7.0], (1, 50, 99)) == [7.0, 7.0, 7.0]

    def test_empty_sample_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            metrics.percentiles([])

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ReproError, match="outside"):
            metrics.percentiles([1.0], (101,))
        with pytest.raises(ReproError, match="outside"):
            metrics.percentiles([1.0], (-1,))

    def test_latency_summary_keys_and_values(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        summary = metrics.latency_summary(samples)
        assert summary == {
            "n": 4,
            "mean": pytest.approx(2.5),
            "min": 1.0,
            "max": 4.0,
            "p50": pytest.approx(2.5),
            "p95": pytest.approx(3.85),
            "p99": pytest.approx(3.97),
        }

    def test_latency_summary_json_ready(self):
        import json

        text = json.dumps(metrics.latency_summary([1.0, 2.0]))
        assert json.loads(text)["n"] == 2

    def test_latency_summary_empty_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            metrics.latency_summary([])
