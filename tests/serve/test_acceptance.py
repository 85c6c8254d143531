"""Acceptance: pinned serving numbers and the model-vs-round-robin claim.

One fixed 4-GPU Poisson workload (48 requests at 8000/s, seed 11,
tiny sizes) served twice — once with model-guided placement, once
round-robin.  The pinned SLO attainment and p99 protect against silent
behaviour drift; the comparison asserts the paper-style claim that
predicted-completion-time placement beats blind rotation on both
makespan and tail latency.  Host offload and admission are disabled so
the two policies face the identical request stream on the GPUs alone.
"""

import pytest

from repro.serve import (BlasServer, ServerConfig, WorkloadSpec,
                         dump_serve_document, generate_workload,
                         serve_document, serve_report)

SEED = 11
SPEC = WorkloadSpec(arrival="poisson", rate=8000.0, n_requests=48,
                    scale="tiny", seed=SEED)


def _serve(tb2, models_tb2, placement):
    config = ServerConfig(n_gpus=4, placement=placement, admission="none",
                          host_offload=False, seed=SEED)
    server = BlasServer(tb2, models_tb2, config)
    return server.serve(generate_workload(SPEC))


@pytest.fixture(scope="module")
def model_outcome(tb2, models_tb2):
    return _serve(tb2, models_tb2, "model")


@pytest.fixture(scope="module")
def rr_outcome(tb2, models_tb2):
    return _serve(tb2, models_tb2, "round_robin")


class TestPinnedNumbers:
    def test_everything_completes(self, model_outcome):
        report = serve_report(model_outcome)
        assert report["requests"]["completed"] == 48
        assert report["requests"]["failed"] == 0
        assert report["requests"]["shed"] == 0

    def test_slo_attainment_pinned(self, model_outcome):
        slo = serve_report(model_outcome)["requests"]["slo"]
        assert slo["with_deadline"] == 33
        assert slo["met"] == 26
        assert slo["attainment"] == pytest.approx(26 / 33)

    def test_p99_latency_pinned(self, model_outcome):
        latency = serve_report(model_outcome)["latency"]
        assert latency["p99"] == pytest.approx(0.01732236705803818,
                                               rel=1e-9)
        assert latency["p50"] == pytest.approx(0.00577405856102541,
                                               rel=1e-9)

    def test_makespan_pinned(self, model_outcome):
        report = serve_report(model_outcome)
        assert report["makespan"] == pytest.approx(0.020593664919147506,
                                                   rel=1e-9)

    def test_document_is_reproducible(self, tb2, models_tb2, model_outcome):
        again = _serve(tb2, models_tb2, "model")
        first = dump_serve_document(serve_document(model_outcome))
        second = dump_serve_document(serve_document(again))
        assert first == second


class TestModelBeatsRoundRobin:
    def test_makespan(self, model_outcome, rr_outcome):
        model = serve_report(model_outcome)["makespan"]
        rr = serve_report(rr_outcome)["makespan"]
        assert model < rr

    def test_p99_latency(self, model_outcome, rr_outcome):
        model = serve_report(model_outcome)["latency"]["p99"]
        rr = serve_report(rr_outcome)["latency"]["p99"]
        assert model < rr

    def test_same_workload_was_served(self, model_outcome, rr_outcome):
        """The comparison is apples-to-apples: both policies completed
        the same 48 requests."""
        for outcome in (model_outcome, rr_outcome):
            report = serve_report(outcome)
            assert report["requests"]["completed"] == 48
            assert report["requests"]["shed"] == 0
            assert report["requests"]["failed"] == 0
