"""Acceptance: percentile-aware admission beats mean-based on p99 SLO.

One fixed overloaded bursty workload (240 tiny requests in bursts of 16
at 4000/s nominal, tight deadline slack, 2 GPUs) served twice with shed
admission — once judging deadlines against the mean predicted
completion, once against the predicted p99 (the online-refined
:class:`~repro.core.tailbank.PercentileBank`).  The tail-aware run must
shed the requests whose p99 blows the deadline *before* they queue up
and wreck their neighbours, lifting SLO attainment on the identical
request stream.

Also here: the downgrade SLO-accounting regression suite — pre-PR,
``admit()``'s downgrade branch erased ``request.deadline``, silently
removing every downgraded request from SLO statistics (the report
filtered on ``deadline is not None``).  These tests fail against that
behaviour.
"""

import pytest

from repro.serve import (BlasServer, ServeError, ServerConfig, WorkloadSpec,
                         dump_serve_document, generate_workload,
                         serve_document, serve_report)

SEED = 7
SPEC = WorkloadSpec(arrival="bursty", rate=4000.0, n_requests=240,
                    scale="tiny", seed=SEED, deadline_fraction=0.9,
                    slack_lo=0.5, slack_hi=3.0, burst_size=16)


def _serve(tb2, models_tb2, percentile, admission="shed"):
    config = ServerConfig(n_gpus=2, admission=admission,
                          admission_percentile=percentile, seed=SEED)
    server = BlasServer(tb2, models_tb2, config)
    return server.serve(generate_workload(SPEC))


@pytest.fixture(scope="module")
def mean_outcome(tb2, models_tb2):
    return _serve(tb2, models_tb2, None)


@pytest.fixture(scope="module")
def tail_outcome(tb2, models_tb2):
    return _serve(tb2, models_tb2, 99.0)


class TestTailBeatsMean:
    def test_same_request_stream(self, mean_outcome, tail_outcome):
        mean = serve_report(mean_outcome)["requests"]
        tail = serve_report(tail_outcome)["requests"]
        assert mean["total"] == tail["total"] == 240
        assert mean["slo"]["with_deadline"] == tail["slo"]["with_deadline"]

    @pytest.mark.parametrize("percentile", [95.0, 99.0])
    def test_attainment_improves(self, tb2, models_tb2, mean_outcome,
                                 tail_outcome, percentile):
        outcome = (tail_outcome if percentile == 99.0
                   else _serve(tb2, models_tb2, percentile))
        mean = serve_report(mean_outcome)["requests"]["slo"]
        tail = serve_report(outcome)["requests"]["slo"]
        assert tail["attainment"] > mean["attainment"]
        assert tail["met"] > mean["met"]
        assert tail["missed"] < mean["missed"]

    def test_pinned_numbers(self, mean_outcome, tail_outcome):
        mean = serve_report(mean_outcome)["requests"]["slo"]
        tail = serve_report(tail_outcome)["requests"]["slo"]
        assert (mean["met"], mean["missed"]) == (60, 8)
        assert (tail["met"], tail["missed"]) == (75, 3)
        assert mean["with_deadline"] == 214

    def test_tail_rejections_counted(self, tail_outcome):
        tail = serve_report(tail_outcome)["prediction"]["tail"]
        # Rejections attributable to the tail alone: the mean predicted
        # completion met the deadline, the p99 one did not.
        assert tail["tail_rejections"] == 21


class TestTailDocument:
    def test_tail_block_shape(self, tail_outcome):
        doc = serve_document(tail_outcome)  # validates internally
        tail = doc["report"]["prediction"]["tail"]
        assert tail["percentile"] == 99.0
        assert 99.0 in tail["percentiles"]
        assert tail["observations"] > 0
        assert tail["refits"] > 0
        assert tail["buckets"]
        for bucket in tail["buckets"]:
            assert all(v > 0 for v in bucket["quantiles"].values())

    def test_document_is_reproducible(self, tb2, models_tb2, tail_outcome):
        again = _serve(tb2, models_tb2, 99.0)
        first = dump_serve_document(serve_document(tail_outcome))
        second = dump_serve_document(serve_document(again))
        assert first == second

    def test_mean_document_carries_no_tail_keys(self, mean_outcome):
        """Mean-based runs keep their exact pre-tail document bytes:
        no tail block, no downgraded SLO bucket, nothing optional."""
        blob = dump_serve_document(serve_document(mean_outcome))
        assert '"tail"' not in blob
        assert '"tail_rejections"' not in blob
        assert '"downgraded": {' not in blob


class TestDowngradeSLOAccounting:
    """Regression: downgraded requests stay in the SLO statistics."""

    @pytest.fixture(scope="class")
    def downgrade_outcome(self, tb2, models_tb2):
        return _serve(tb2, models_tb2, None, admission="downgrade")

    def test_downgrade_preserves_original_deadline(self, downgrade_outcome):
        downgraded = [r for r in downgrade_outcome.requests if r.downgraded]
        assert downgraded
        for r in downgraded:
            assert r.deadline is None          # scheduling: best-effort
            assert r.original_deadline is not None  # accounting: kept
            assert r.slo_deadline == r.original_deadline

    def test_downgraded_requests_count_toward_slo(self, downgrade_outcome):
        """Pre-PR the report filtered on ``deadline is not None``, so
        every downgraded request vanished from with_deadline."""
        report = serve_report(downgrade_outcome)
        counts = report["requests"]
        slo = counts["slo"]
        assert counts["downgraded"] > 0
        assert slo["with_deadline"] == 214  # same stream as shed/mean
        sub = slo["downgraded"]
        assert sub["with_deadline"] == counts["downgraded"]
        assert sub["met"] + sub["missed"] == sub["with_deadline"]
        assert sub["met"] <= slo["met"] and sub["missed"] <= slo["missed"]

    def test_document_validates(self, downgrade_outcome):
        doc = serve_document(downgrade_outcome)
        assert "downgraded" in doc["report"]["requests"]["slo"]


class TestConfigValidation:
    def test_percentile_range(self, tb2, models_tb2):
        for bad in (0.0, -1.0, 150.0, float("nan"), True):
            with pytest.raises(ServeError):
                ServerConfig(admission_percentile=bad)

    def test_boundary_values_accepted(self):
        assert ServerConfig(admission_percentile=100.0).admission_percentile \
            == 100.0
        assert ServerConfig(admission_percentile=50).admission_percentile == 50

    def test_mean_mode_has_no_bank(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=1))
        assert server.tail_bank is None

    def test_tail_mode_builds_bank(self, tb2, models_tb2):
        config = ServerConfig(n_gpus=1, admission_percentile=95.0)
        server = BlasServer(tb2, models_tb2, config)
        assert server.tail_bank is not None
        assert 95.0 in server.tail_bank.percentiles
