"""Chaos-harness tests: scenarios, the repro.chaos/v1 document, and
its validator.

The expensive end-to-end runs share one module-scoped document per
scenario; unit tests cover scenario construction, recovery-time
mining, and the validator's error paths.
"""

import copy

import pytest

from repro.errors import ReproError
from repro.serve import (BlasServer, ServeError, ServerConfig, WorkloadSpec,
                         generate_workload, serve_report)
from repro.serve.chaos import (
    CHAOS_SCHEMA_VERSION,
    SCENARIOS,
    build_scenario,
    dump_chaos_document,
    recovery_times,
    run_chaos,
    validate_chaos_json,
)

SPEC = WorkloadSpec(n_requests=32, rate=8000.0, seed=11)
CONFIG = ServerConfig(n_gpus=4, seed=11)


@pytest.fixture(scope="module")
def docs(tb2, models_tb2):
    return {name: run_chaos(tb2, models_tb2, name, spec=SPEC,
                            config=CONFIG, seed=11)
            for name in sorted(SCENARIOS)}


class TestScenarioLibrary:
    def test_expected_scenarios_registered(self):
        assert set(SCENARIOS) == {"kill-one-gpu", "rolling-brownout",
                                  "flapping-device", "all-gpus-degraded"}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ServeError, match="unknown chaos scenario"):
            build_scenario("meteor-strike", SPEC, 4, seed=0)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios_build_deterministically(self, name):
        a = build_scenario(name, SPEC, 4, seed=3)
        b = build_scenario(name, SPEC, 4, seed=3)
        assert a == b
        assert a.lifecycle, "scenario schedules no faults"
        for fault in a.lifecycle:
            assert 0 <= fault.device < 4

    def test_seed_picks_the_victim(self):
        devices = {build_scenario("kill-one-gpu", SPEC, 4, seed=s)
                   .lifecycle[0].device for s in range(32)}
        assert len(devices) > 1, "every seed killed the same GPU"

    def test_plan_carries_scenario_name(self):
        scenario = build_scenario("rolling-brownout", SPEC, 4, seed=0)
        plan = scenario.plan()
        assert plan.name == "chaos:rolling-brownout"
        assert plan.lifecycle == scenario.lifecycle
        assert plan.any_faults and not plan.any_event_faults


class TestRecoveryTimes:
    def tr(self, t, device, event):
        return {"t": t, "device": device, "event": event}

    def test_open_and_close_one_outage(self):
        out = recovery_times([self.tr(1.0, 0, "failed"),
                              self.tr(3.5, 0, "recovered")])
        assert out["n_outages"] == 1 and out["n_recovered"] == 1
        assert out["mean_recovery_seconds"] == 2.5
        assert out["max_recovery_seconds"] == 2.5

    def test_unrecovered_outage_counts(self):
        out = recovery_times([self.tr(1.0, 0, "breaker-opened")])
        assert out == {"n_outages": 1, "n_recovered": 0,
                       "n_unrecovered": 1, "mean_recovery_seconds": None,
                       "max_recovery_seconds": None}

    def test_refailure_merges_into_one_outage(self):
        # A re-opened breaker before any recovery extends the same
        # outage; the clock runs from the first down event.
        out = recovery_times([self.tr(1.0, 0, "failed"),
                              self.tr(2.0, 0, "breaker-reopened"),
                              self.tr(4.0, 0, "recovered")])
        assert out["n_outages"] == 1
        assert out["max_recovery_seconds"] == 3.0

    def test_devices_tracked_independently(self):
        out = recovery_times([self.tr(1.0, 0, "failed"),
                              self.tr(2.0, 1, "failed"),
                              self.tr(3.0, 1, "recovered")])
        assert out["n_outages"] == 2
        assert out["n_recovered"] == 1 and out["n_unrecovered"] == 1

    def test_non_outage_events_ignored(self):
        out = recovery_times([self.tr(1.0, 0, "degraded"),
                              self.tr(2.0, 0, "healthy")])
        assert out["n_outages"] == 0


class TestChaosRuns:
    def test_documents_validate(self, docs):
        for doc in docs.values():
            validate_chaos_json(doc)  # run_chaos validated already
            assert doc["schema"] == CHAOS_SCHEMA_VERSION == "repro.chaos/v1"

    def test_conservation_holds_in_every_scenario(self, docs):
        for name, doc in docs.items():
            assert doc["conservation"]["ok"], (name,
                                               doc["conservation"])

    def test_kill_one_gpu_retains_slo(self, docs):
        kill = docs["kill-one-gpu"]
        assert kill["slo_retention"] is not None
        assert kill["slo_retention"] >= 0.8, kill["slo_retention"]
        # The kill produced exactly one unrecovered outage (permanent).
        assert kill["recovery"]["n_outages"] >= 1
        assert kill["resilience"]["stats"]["drains"] >= 1

    def test_flapping_device_recovers(self, docs):
        flap = docs["flapping-device"]
        assert flap["recovery"]["n_recovered"] >= 1
        assert flap["resilience"]["stats"]["recoveries"] >= 1

    def test_identical_seed_is_byte_identical(self, tb2, models_tb2, docs):
        again = run_chaos(tb2, models_tb2, "kill-one-gpu", spec=SPEC,
                          config=CONFIG, seed=11)
        assert (dump_chaos_document(again)
                == dump_chaos_document(docs["kill-one-gpu"]))

    def test_different_seed_changes_the_run(self, tb2, models_tb2, docs):
        other = run_chaos(tb2, models_tb2, "kill-one-gpu", spec=SPEC,
                          config=CONFIG, seed=12)
        assert (dump_chaos_document(other)
                != dump_chaos_document(docs["kill-one-gpu"]))

    def test_baseline_matches_fault_free_serve(self, docs):
        # The baseline leg never drains, requeues, or sheds for
        # unavailability — it is a plain fault-free serve.
        for name, doc in docs.items():
            base = doc["baseline"]
            assert base["requeued"] == 0, name
            assert base["failed"] == 0, name


class TestSummaryJudgesLikeTheServeReport:
    """Each leg's SLO attainment and p99 are the serve report's: a
    downgraded request is judged against the deadline it arrived with,
    and p99 comes from the one quantile path in ``obs.stats``."""

    def test_downgrade_legs_match_serve_report(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=120, rate=3000.0, seed=1)
        config = ServerConfig(n_gpus=2, admission="downgrade", seed=1)
        doc = run_chaos(tb2, models_tb2, "kill-one-gpu", spec=spec,
                        config=config, seed=1)
        plan = build_scenario("kill-one-gpu", spec, 2, seed=1).plan()
        for leg, machine in (("baseline", tb2.with_faults(None)),
                             ("chaos", tb2.with_faults(plan))):
            outcome = BlasServer(machine, models_tb2, config).serve(
                generate_workload(spec))
            assert any(r.downgraded and r.original_deadline is not None
                       for r in outcome.requests), leg
            report = serve_report(outcome)
            assert (doc[leg]["slo_attainment"]
                    == report["requests"]["slo"]["attainment"]), leg
            assert doc[leg]["p99_latency"] == report["latency"]["p99"], leg

    def test_no_deadlines_reads_none(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=16, rate=8000.0, seed=3,
                            deadline_fraction=0.0)
        doc = run_chaos(tb2, models_tb2, "kill-one-gpu", spec=spec,
                        config=CONFIG, seed=3)
        assert doc["baseline"]["slo_attainment"] is None
        assert doc["chaos"]["slo_attainment"] is None
        assert doc["slo_retention"] is None


class TestChaosValidator:
    @pytest.fixture()
    def doc(self, docs):
        return copy.deepcopy(docs["kill-one-gpu"])

    def test_rejects_non_dict(self):
        with pytest.raises(ReproError, match=r"\$"):
            validate_chaos_json([])

    def test_rejects_wrong_schema(self, doc):
        doc["schema"] = "repro.chaos/v0"
        with pytest.raises(ReproError, match=r"\$\.schema"):
            validate_chaos_json(doc)

    def test_rejects_unknown_scenario_name(self, doc):
        doc["scenario"]["name"] = "meteor-strike"
        with pytest.raises(ReproError, match=r"\$\.scenario\.name"):
            validate_chaos_json(doc)

    def test_rejects_empty_event_list(self, doc):
        doc["scenario"]["events"] = []
        with pytest.raises(ReproError, match=r"\$\.scenario\.events"):
            validate_chaos_json(doc)

    def test_rejects_negative_counts(self, doc):
        doc["chaos"]["completed"] = -1
        with pytest.raises(ReproError, match=r"\$\.chaos\.completed"):
            validate_chaos_json(doc)

    def test_rejects_inconsistent_recovery(self, doc):
        doc["recovery"]["n_recovered"] = doc["recovery"]["n_outages"] + 1
        doc["recovery"]["n_unrecovered"] = 0
        with pytest.raises(ReproError, match=r"\$\.recovery"):
            validate_chaos_json(doc)

    def test_rejects_inconsistent_conservation(self, doc):
        doc["conservation"] = {"ok": False, "violations": []}
        with pytest.raises(ReproError, match=r"\$\.conservation"):
            validate_chaos_json(doc)

    def test_rejects_missing_resilience(self, doc):
        del doc["resilience"]
        with pytest.raises(ReproError, match=r"\$\.resilience"):
            validate_chaos_json(doc)

    def test_rejects_out_of_range_attainment(self, doc):
        doc["chaos"]["slo_attainment"] = 1.5
        with pytest.raises(ReproError, match="slo_attainment"):
            validate_chaos_json(doc)
