"""The repro.serve/v1 document schema and its validator."""

import copy
import json

import pytest

from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.serve import (
    BlasServer,
    SERVE_SCHEMA_VERSION,
    ServerConfig,
    WorkloadSpec,
    dump_serve_document,
    generate_workload,
    serve_document,
    validate_serve_json,
)


@pytest.fixture(scope="module")
def document(tb2, models_tb2):
    spec = WorkloadSpec(n_requests=16, rate=2000.0, seed=4)
    metrics = MetricsRegistry()
    server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=4),
                        metrics=metrics)
    outcome = server.serve(generate_workload(spec))
    return serve_document(outcome, metrics=metrics,
                          context={"machine": "testbed_ii"})


class TestWellFormedDocuments:
    def test_generated_document_validates(self, document):
        validate_serve_json(document)  # serve_document validated already

    def test_schema_version_pinned(self, document):
        assert document["schema"] == SERVE_SCHEMA_VERSION == "repro.serve/v1"

    def test_dump_round_trips_through_json(self, document):
        text = dump_serve_document(document)
        assert text.endswith("\n")
        parsed = json.loads(text)
        validate_serve_json(parsed)
        assert dump_serve_document(parsed) == text

    def test_workers_cover_gpus_then_host(self, document):
        names = [w["worker"] for w in document["report"]["workers"]]
        assert names == ["gpu0", "gpu1", "host"]

    def test_worker_records_carry_exactly_their_counters(self, document):
        # No residency counter: the dispatcher keeps no weight cache.
        for worker in document["report"]["workers"]:
            assert list(worker) == [
                "worker", "busy_seconds", "utilization", "batches",
                "requests", "h2d_bytes", "d2h_bytes", "kernels"]

    def test_metrics_section_present(self, document):
        counters = document["metrics"]["counters"]
        assert counters["serve.requests"] == 16


class TestRejections:
    def _mutated(self, document, mutate):
        doc = copy.deepcopy(document)
        mutate(doc)
        return doc

    def test_non_object_rejected(self):
        with pytest.raises(ReproError, match=r"\$"):
            validate_serve_json([1, 2, 3])

    def test_wrong_schema_version(self, document):
        doc = self._mutated(document,
                            lambda d: d.update(schema="repro.serve/v0"))
        with pytest.raises(ReproError, match=r"\$\.schema"):
            validate_serve_json(doc)

    def test_missing_report_field(self, document):
        doc = self._mutated(document,
                            lambda d: d["report"].pop("throughput_rps"))
        with pytest.raises(ReproError, match="throughput_rps"):
            validate_serve_json(doc)

    def test_negative_count_rejected(self, document):
        def mutate(d):
            d["report"]["requests"]["completed"] = -1
        with pytest.raises(ReproError, match="completed"):
            validate_serve_json(self._mutated(document, mutate))

    def test_bool_is_not_a_count(self, document):
        def mutate(d):
            d["report"]["requests"]["shed"] = True
        with pytest.raises(ReproError, match="shed"):
            validate_serve_json(self._mutated(document, mutate))

    def test_attainment_outside_unit_interval(self, document):
        def mutate(d):
            d["report"]["requests"]["slo"]["attainment"] = 1.2
        with pytest.raises(ReproError, match="attainment"):
            validate_serve_json(self._mutated(document, mutate))

    def test_met_missed_exceeding_deadline_count(self, document):
        def mutate(d):
            slo = d["report"]["requests"]["slo"]
            slo["met"] = slo["with_deadline"] + 1
        with pytest.raises(ReproError, match="with_deadline"):
            validate_serve_json(self._mutated(document, mutate))

    def test_incomplete_latency_summary(self, document):
        def mutate(d):
            d["report"]["latency"].pop("p99")
        with pytest.raises(ReproError, match=r"latency\.p99"):
            validate_serve_json(self._mutated(document, mutate))

    def test_empty_worker_list(self, document):
        def mutate(d):
            d["report"]["workers"] = []
        with pytest.raises(ReproError, match="workers"):
            validate_serve_json(self._mutated(document, mutate))

    def test_utilization_above_one(self, document):
        def mutate(d):
            d["report"]["workers"][0]["utilization"] = 1.5
        with pytest.raises(ReproError, match="utilization"):
            validate_serve_json(self._mutated(document, mutate))

    def test_missing_metrics_family(self, document):
        doc = self._mutated(document,
                            lambda d: d["metrics"].pop("histograms"))
        with pytest.raises(ReproError, match="histograms"):
            validate_serve_json(doc)

    def test_error_message_carries_json_path(self, document):
        def mutate(d):
            d["report"]["workers"][1]["kernels"] = "many"
        with pytest.raises(ReproError,
                           match=r"\$\.report\.workers\[1\]\.kernels"):
            validate_serve_json(self._mutated(document, mutate))


class TestResilienceBlock:
    """The optional ``report.resilience`` key: absent on clean runs,
    present and validated on faulted ones."""

    @pytest.fixture(scope="class")
    def faulted_document(self, tb2, models_tb2):
        from repro.sim.faults import DeviceFailure, FaultPlan

        plan = FaultPlan(name="kill0", lifecycle=(
            DeviceFailure(device=0, onset=1e-3),))
        spec = WorkloadSpec(n_requests=24, rate=6000.0, seed=9)
        server = BlasServer(tb2.with_faults(plan), models_tb2,
                            ServerConfig(n_gpus=2, seed=9))
        outcome = server.serve(generate_workload(spec))
        return serve_document(outcome)

    def test_clean_document_has_no_resilience_key(self, document):
        assert "resilience" not in document["report"]

    def test_faulted_document_carries_resilience(self, faulted_document):
        res = faulted_document["report"]["resilience"]
        assert set(res) == {"counters", "stats", "health", "transitions"}
        assert res["stats"]["drains"] >= 1
        states = {d["state"] for d in res["health"]}
        assert states <= {"healthy", "degraded", "failed", "recovering"}
        validate_serve_json(faulted_document)

    def _mutated(self, document, mutate):
        doc = copy.deepcopy(document)
        mutate(doc)
        return doc

    def test_rejects_negative_stat(self, faulted_document):
        def mutate(d):
            d["report"]["resilience"]["stats"]["drains"] = -1
        with pytest.raises(ReproError, match=r"resilience\.stats\.drains"):
            validate_serve_json(self._mutated(faulted_document, mutate))

    def test_rejects_non_int_counter(self, faulted_document):
        def mutate(d):
            d["report"]["resilience"]["counters"]["retries"] = 1.5
        with pytest.raises(ReproError,
                           match=r"resilience\.counters\.retries"):
            validate_serve_json(self._mutated(faulted_document, mutate))

    def test_rejects_unknown_health_state(self, faulted_document):
        def mutate(d):
            d["report"]["resilience"]["health"][0]["state"] = "zombie"
        with pytest.raises(ReproError, match="zombie"):
            validate_serve_json(self._mutated(faulted_document, mutate))

    def test_rejects_malformed_transition(self, faulted_document):
        def mutate(d):
            d["report"]["resilience"]["transitions"][0].pop("event")
        with pytest.raises(ReproError,
                           match=r"transitions\[0\]\.event"):
            validate_serve_json(self._mutated(faulted_document, mutate))

    def test_rejects_negative_transition_time(self, faulted_document):
        def mutate(d):
            d["report"]["resilience"]["transitions"][0]["t"] = -0.5
        with pytest.raises(ReproError, match=r"transitions\[0\]\.t"):
            validate_serve_json(self._mutated(faulted_document, mutate))


class TestDegenerateRuns:
    """Builder + validator on runs with nothing (or one thing) in them:
    all-shed (no latency sample at all), all-downgraded, single
    request.  Every document must validate as built."""

    def _run(self, tb2, models_tb2, admission, n=12, percentile=None):
        # deadline_fraction=1 with near-zero slack: every request gets
        # a deadline no placement can meet.
        spec = WorkloadSpec(n_requests=n, rate=2000.0, seed=3,
                            deadline_fraction=1.0,
                            slack_lo=1e-6, slack_hi=2e-6)
        config = ServerConfig(n_gpus=2, admission=admission,
                              admission_percentile=percentile, seed=3)
        server = BlasServer(tb2, models_tb2, config)
        return server.serve(generate_workload(spec))

    def test_all_shed_has_null_latency(self, tb2, models_tb2):
        doc = serve_document(self._run(tb2, models_tb2, "shed"))
        report = doc["report"]
        assert report["requests"]["shed"] == report["requests"]["total"]
        assert report["requests"]["completed"] == 0
        assert report["latency"] is None
        assert report["requests"]["slo"]["attainment"] == 0.0
        validate_serve_json(doc)

    def test_all_downgraded_stays_in_slo(self, tb2, models_tb2):
        doc = serve_document(self._run(tb2, models_tb2, "downgrade"))
        counts = doc["report"]["requests"]
        assert counts["downgraded"] == counts["total"]
        slo = counts["slo"]
        assert slo["with_deadline"] == counts["total"]
        assert slo["downgraded"]["with_deadline"] == counts["total"]
        assert (slo["downgraded"]["met"] + slo["downgraded"]["missed"]
                == counts["total"])
        validate_serve_json(doc)

    def test_single_request(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=1, rate=100.0, seed=3)
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=1, seed=3))
        doc = serve_document(server.serve(generate_workload(spec)))
        report = doc["report"]
        assert report["requests"]["total"] == 1
        assert report["latency"]["n"] == 1
        assert report["latency"]["p50"] == report["latency"]["p99"]
        validate_serve_json(doc)

    def test_all_shed_tail_mode_validates(self, tb2, models_tb2):
        """Zero completions = zero bank observations; the tail block
        must still emit and validate."""
        doc = serve_document(self._run(tb2, models_tb2, "shed",
                                       percentile=99.0))
        tail = doc["report"]["prediction"]["tail"]
        assert tail["observations"] == 0
        assert tail["percentile"] == 99.0
        validate_serve_json(doc)


class TestTailBlockRejections:
    """validate_serve_json on corrupted ``prediction.tail`` blocks."""

    @pytest.fixture(scope="class")
    def tail_document(self, tb2, models_tb2):
        # 48 completions push the global bucket past refit_every=32,
        # so the document carries at least one fitted bucket.
        spec = WorkloadSpec(n_requests=48, rate=2000.0, seed=4)
        config = ServerConfig(n_gpus=2, seed=4, admission_percentile=99.0)
        server = BlasServer(tb2, models_tb2, config)
        return serve_document(server.serve(generate_workload(spec)))

    def _mutated(self, document, mutate):
        doc = copy.deepcopy(document)
        mutate(doc)
        return doc

    def test_valid_as_built(self, tail_document):
        validate_serve_json(tail_document)
        assert tail_document["report"]["prediction"]["tail"]["buckets"]

    def test_rejects_out_of_range_percentile(self, tail_document):
        def mutate(d):
            d["report"]["prediction"]["tail"]["percentile"] = 0
        with pytest.raises(ReproError, match=r"tail\.percentile"):
            validate_serve_json(self._mutated(tail_document, mutate))

    def test_rejects_negative_rejection_count(self, tail_document):
        def mutate(d):
            d["report"]["prediction"]["tail"]["tail_rejections"] = -1
        with pytest.raises(ReproError, match="tail_rejections"):
            validate_serve_json(self._mutated(tail_document, mutate))

    def test_rejects_non_positive_quantile(self, tail_document):
        def mutate(d):
            bucket = d["report"]["prediction"]["tail"]["buckets"][0]
            bucket["quantiles"]["p99"] = 0.0
        with pytest.raises(ReproError, match="p99"):
            validate_serve_json(self._mutated(tail_document, mutate))

    def test_rejects_empty_percentile_list(self, tail_document):
        def mutate(d):
            d["report"]["prediction"]["tail"]["percentiles"] = []
        with pytest.raises(ReproError, match="percentiles"):
            validate_serve_json(self._mutated(tail_document, mutate))
