"""Shared percentile/latency-summary helper tests (repro.obs.stats).

Every versioned report (``repro.serve/v1``, ``repro.cluster/v1``) and
the experiment metrics compute tails through this one module; the
regression tests here pin the math and the single-code-path guarantee.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs.stats import LATENCY_PERCENTILES, latency_summary, percentiles


class TestPercentiles:
    def test_linear_interpolation_midpoint(self):
        # Even-sized sample: p50 is the midpoint average under numpy's
        # default linear interpolation.
        assert percentiles([1.0, 2.0, 3.0, 4.0], (50,)) == [2.5]

    def test_known_tails(self):
        samples = list(range(1, 101))  # 1..100
        p50, p95, p99 = percentiles(samples)
        assert p50 == pytest.approx(50.5)
        assert p95 == pytest.approx(95.05)
        assert p99 == pytest.approx(99.01)

    def test_single_sample_is_every_percentile(self):
        assert percentiles([0.42]) == [0.42, 0.42, 0.42]

    def test_empty_sample_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            percentiles([])

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ReproError, match="outside"):
            percentiles([1.0], (101,))
        with pytest.raises(ReproError, match="-1"):
            percentiles([1.0], (-1,))

    def test_nan_percentile_rejected_explicitly(self):
        # Regression: the old per-p `0 <= p <= 100` check rejected NaN
        # only as a side effect of NaN comparisons being False; the
        # explicit isfinite check must keep rejecting it and name the
        # offending value.
        with pytest.raises(ReproError, match="nan"):
            percentiles([1.0], (float("nan"),))

    def test_infinite_percentile_rejected(self):
        with pytest.raises(ReproError, match="inf"):
            percentiles([1.0], (float("inf"),))
        with pytest.raises(ReproError, match="inf"):
            percentiles([1.0], (float("-inf"),))

    def test_boundary_percentiles_accepted(self):
        assert percentiles([1.0, 2.0, 3.0], (0, 100)) == [1.0, 3.0]

    def test_empty_percentile_list_is_empty_result(self):
        assert percentiles([1.0, 2.0], ()) == []

    def test_mixed_valid_invalid_names_the_bad_one(self):
        with pytest.raises(ReproError, match="101"):
            percentiles([1.0], (50, 101, 99))

    def test_accepts_numpy_arrays(self):
        assert percentiles(np.array([1.0, 2.0, 3.0]), (50,)) == [2.0]

    def test_accepts_generator_of_percentiles(self):
        assert percentiles([1.0, 2.0, 3.0], iter((50,))) == [2.0]


class TestLatencySummary:
    def test_keys_and_values(self):
        samples = [0.010, 0.020, 0.030, 0.100]
        summary = latency_summary(samples)
        assert set(summary) == {"n", "mean", "min", "max",
                                "p50", "p95", "p99"}
        assert summary["n"] == 4
        assert summary["min"] == 0.010
        assert summary["max"] == 0.100
        assert summary["mean"] == pytest.approx(0.040)
        assert summary["p50"] == pytest.approx(0.025)

    def test_empty_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            latency_summary([])

    def test_json_ready(self):
        import json
        json.dumps(latency_summary([0.001, 0.002]))

    def test_percentile_set_matches_constant(self):
        summary = latency_summary([1.0, 2.0])
        for p in LATENCY_PERCENTILES:
            assert f"p{p}" in summary


class TestSingleCodePath:
    def test_serve_and_cluster_reports_import_from_stats(self):
        import repro.cluster.report as cluster_report
        import repro.serve.report as serve_report
        from repro.obs.stats import latency_summary as shared

        assert cluster_report.latency_summary is shared
        assert serve_report.latency_summary is shared
