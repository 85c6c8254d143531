"""Fault-domain serving tests: health monitor, breaker, drain, requeue.

Covers the :class:`repro.serve.resilience.HealthMonitor` state machine
in isolation, the requeue-preserves-arrival contract, and end-to-end
lifecycle-fault runs (kill / degrade / brownout) through
:class:`BlasServer`.  Tests that need other thresholds than the
defaults patch the module constants.
"""

import numpy as np
import pytest

from repro.core.params import Loc, gemm_problem
from repro.obs import MetricsRegistry, find_conservation_violations
from repro.serve import (
    BlasServer,
    HealthMonitor,
    HealthState,
    Request,
    RequestState,
    ServeError,
    ServerConfig,
    WorkloadSpec,
    generate_workload,
    serve_report,
)
from repro.serve import resilience, server as server_module
from repro.sim.faults import (
    DeviceDegradation,
    DeviceFailure,
    FaultPlan,
    LinkBrownout,
)


class TestHealthMonitorStateMachine:
    def test_starts_healthy_and_neutral(self):
        monitor = HealthMonitor(2)
        for i in range(2):
            assert monitor.available(i)
            assert monitor.penalty(i) == 1.0
            assert monitor.devices[i].state is HealthState.HEALTHY
        assert monitor.transitions == []

    def test_rejects_empty_fleet(self):
        with pytest.raises(ServeError, match="non-positive"):
            HealthMonitor(0)

    def test_sustained_inflation_degrades_then_recovers(self, monkeypatch):
        monkeypatch.setattr(resilience, "HEALTH_ALPHA", 0.5)
        monkeypatch.setattr(resilience, "DEGRADED_INFLATION", 2.0)
        monkeypatch.setattr(resilience, "RECOVERED_INFLATION", 1.2)
        monitor = HealthMonitor(1)
        # Observed 4x slower than predicted: EWMA climbs past 2.0.
        t = 0.0
        while monitor.devices[0].state is HealthState.HEALTHY:
            monitor.on_success(0, observed=4.0, predicted=1.0, now=t)
            t += 1.0
            assert t < 20.0, "never degraded"
        assert monitor.devices[0].state is HealthState.DEGRADED
        # Degraded domains stay in rotation but pay their inflation.
        assert monitor.available(0)
        assert monitor.penalty(0) == monitor.devices[0].ewma > 2.0
        # Back on-model: EWMA decays through the hysteresis band.
        while monitor.devices[0].state is HealthState.DEGRADED:
            monitor.on_success(0, observed=1.0, predicted=1.0, now=t)
            t += 1.0
            assert t < 40.0, "never recovered"
        assert monitor.devices[0].state is HealthState.HEALTHY
        assert monitor.penalty(0) == 1.0
        events = [tr["event"] for tr in monitor.transitions]
        assert events == ["degraded", "healthy"]

    def test_hysteresis_band_prevents_flapping(self, monkeypatch):
        monkeypatch.setattr(resilience, "HEALTH_ALPHA", 1.0)
        monkeypatch.setattr(resilience, "DEGRADED_INFLATION", 2.5)
        monkeypatch.setattr(resilience, "RECOVERED_INFLATION", 1.25)
        monitor = HealthMonitor(1)
        monitor.on_success(0, observed=3.0, predicted=1.0, now=0.0)
        assert monitor.devices[0].state is HealthState.DEGRADED
        # 2.0x sits between the thresholds: state must not change.
        monitor.on_success(0, observed=2.0, predicted=1.0, now=1.0)
        assert monitor.devices[0].state is HealthState.DEGRADED
        monitor.on_success(0, observed=1.0, predicted=1.0, now=2.0)
        assert monitor.devices[0].state is HealthState.HEALTHY

    def test_consecutive_faults_open_the_breaker(self, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_FAULTS", 2)
        monitor = HealthMonitor(1)
        assert not monitor.on_fault(0, now=0.0)   # first strike
        assert monitor.available(0)
        assert monitor.on_fault(0, now=1.0)       # second opens it
        assert monitor.devices[0].state is HealthState.FAILED
        assert not monitor.available(0)
        # Further faults on an already-failed domain are absorbed.
        assert not monitor.on_fault(0, now=2.0)
        assert monitor.devices[0].breaker_opens == 1

    def test_success_resets_the_fault_streak(self, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_FAULTS", 2)
        monitor = HealthMonitor(1)
        monitor.on_fault(0, now=0.0)
        monitor.on_success(0, observed=1.0, predicted=1.0, now=1.0)
        assert not monitor.on_fault(0, now=2.0)   # streak restarted
        assert monitor.devices[0].state is not HealthState.FAILED

    def test_probe_success_closes_breaker_and_clears_history(
            self, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_FAULTS", 1)
        monitor = HealthMonitor(1)
        monitor.on_fault(0, now=0.0)
        assert monitor.begin_recovery(0, now=1.0)
        assert monitor.devices[0].state is HealthState.RECOVERING
        assert monitor.available(0)
        assert monitor.penalty(0) == resilience.RECOVERING_PENALTY > 1.0
        monitor.on_success(0, observed=1.0, predicted=1.0, now=2.0)
        assert monitor.devices[0].state is HealthState.HEALTHY
        assert monitor.devices[0].ewma == 1.0
        assert monitor.devices[0].recovered_t == 2.0
        events = [tr["event"] for tr in monitor.transitions]
        assert events == ["breaker-opened", "breaker-halfopen", "recovered"]

    def test_probe_fault_reopens_breaker_immediately(self, monkeypatch):
        monkeypatch.setattr(resilience, "BREAKER_FAULTS", 3)
        monitor = HealthMonitor(1)
        monitor.force_fail(0, now=0.0)
        monitor.begin_recovery(0, now=1.0)
        # One fault suffices in half-open, regardless of BREAKER_FAULTS.
        assert monitor.on_fault(0, now=2.0)
        assert monitor.devices[0].state is HealthState.FAILED
        assert monitor.devices[0].breaker_opens == 2
        assert monitor.transitions[-1]["event"] == "breaker-reopened"

    def test_force_fail_is_idempotent(self):
        monitor = HealthMonitor(2)
        assert monitor.force_fail(1, now=0.5)
        assert not monitor.force_fail(1, now=0.6)
        assert monitor.devices[1].breaker_opens == 1
        assert monitor.available(0) and not monitor.available(1)

    def test_begin_recovery_requires_failed_state(self):
        monitor = HealthMonitor(1)
        assert not monitor.begin_recovery(0, now=0.0)
        assert monitor.devices[0].state is HealthState.HEALTHY

    def test_snapshot_is_json_ready(self):
        monitor = HealthMonitor(2)
        monitor.force_fail(0, now=0.25)
        snap = monitor.snapshot()
        assert [d["index"] for d in snap] == [0, 1]
        assert snap[0]["state"] == "failed"
        assert snap[1]["state"] == "healthy"
        for d in snap:
            assert set(d) == {"index", "state", "ewma_inflation",
                              "consecutive_faults", "breaker_opens"}


class TestServerConfigValidation:
    def test_defaults_are_valid(self):
        ServerConfig()  # must not raise

    def test_threshold_constants_are_consistent(self):
        """The thresholds no run configures hold the invariants the
        serving loop relies on."""
        for value in (server_module.TIMEOUT_FACTOR,
                      server_module.TIMEOUT_FLOOR,
                      server_module.BREAKER_COOLOFF,
                      resilience.RECOVERED_INFLATION):
            assert 0.0 < value < float("inf")
        assert server_module.TIMEOUT_FACTOR > 1.0
        assert 0.0 < resilience.HEALTH_ALPHA <= 1.0
        assert (resilience.RECOVERED_INFLATION
                < resilience.DEGRADED_INFLATION)
        assert resilience.RECOVERING_PENALTY >= 1.0
        assert resilience.BREAKER_FAULTS >= 1
        assert server_module.BATCH_MAX >= 1


class TestRequeuePreservesArrival:
    """A drained or timed-out request keeps its original arrival (and
    deadline), so EDF slack and reported latency stay honest."""

    def test_watchdog_fallback_keeps_arrival(self, tb2, models_tb2):
        broken = tb2.with_faults(FaultPlan(name="always-fail", seed=5,
                                           transfer_fail_rate=1.0))
        deadline = 123.456
        req = Request(req_id=0, arrival=0.0, deadline=deadline,
                      problem=gemm_problem(2048, 2048, 2048, np.float64))
        server = BlasServer(broken, models_tb2,
                            ServerConfig(n_gpus=1, seed=5))
        outcome = server.serve([req])
        r = outcome.requests[0]
        assert r.state is RequestState.DONE
        assert r.fallback and r.worker == "host"
        # The requeue did not restamp arrival to the failure time ...
        assert r.arrival == 0.0
        assert r.deadline == deadline
        # ... so latency covers the whole wedged-then-retried span,
        # which must include the watchdog wait.
        assert r.latency > server_module.TIMEOUT_FLOOR
        assert r.latency == r.completion_t - 0.0
        assert not find_conservation_violations(outcome.requests)

    def test_drain_requeue_keeps_arrival(self, tb2, models_tb2):
        # Onset lands mid-workload so device 0 has queued/in-flight
        # work to drain (horizon = 24/6000 = 4 ms).
        plan = FaultPlan(name="kill0", lifecycle=(
            DeviceFailure(device=0, onset=1e-3),))
        spec = WorkloadSpec(n_requests=24, rate=6000.0, seed=9)
        server = BlasServer(tb2.with_faults(plan), models_tb2,
                            ServerConfig(n_gpus=2, seed=9))
        requests = generate_workload(spec)
        arrivals = {r.req_id: r.arrival for r in requests}
        deadlines = {r.req_id: r.deadline for r in requests}
        outcome = server.serve(requests)
        moved = [r for r in outcome.requests if r.requeues > 0]
        assert moved, "the dead device drained nothing"
        for r in outcome.requests:
            assert r.arrival == arrivals[r.req_id]
            assert r.deadline == deadlines[r.req_id]


class TestLifecycleServing:
    def run(self, machine, models, plan, spec=None, config=None,
            metrics=None):
        spec = spec or WorkloadSpec(n_requests=24, rate=6000.0, seed=9)
        config = config or ServerConfig(n_gpus=2, seed=9)
        server = BlasServer(machine.with_faults(plan), models, config,
                            metrics=metrics)
        return server.serve(generate_workload(spec))

    def test_device_failure_drains_and_conserves(self, tb2, models_tb2):
        metrics = MetricsRegistry()
        plan = FaultPlan(name="kill0", lifecycle=(
            DeviceFailure(device=0, onset=1e-3),))
        outcome = self.run(tb2, models_tb2, plan, metrics=metrics)
        assert outcome.faulted
        stats = outcome.resilience_stats
        assert stats.drains >= 1
        assert stats.requeues >= 1
        assert not find_conservation_violations(outcome.requests)
        # The monitor saw the failure and logged it.
        assert any(tr["event"] == "failed" and tr["device"] == 0
                   for tr in outcome.health_transitions)
        counters = metrics.as_dict()["counters"]
        assert counters["serve.device_failures"] == 1
        # A permanently-dead device serves nothing after onset: all its
        # drained work landed elsewhere, and the report says so.
        report = serve_report(outcome)
        assert "resilience" in report
        assert report["resilience"]["stats"]["drains"] == stats.drains

    def test_failed_device_recovers_and_serves_again(self, tb2, models_tb2):
        plan = FaultPlan(name="blip0", lifecycle=(
            DeviceFailure(device=0, onset=1e-4, duration=2e-3),))
        outcome = self.run(tb2, models_tb2, plan,
                           spec=WorkloadSpec(n_requests=32, rate=4000.0,
                                             seed=9))
        events = [tr["event"] for tr in outcome.health_transitions
                  if tr["device"] == 0]
        assert "failed" in events
        assert "recovered" in events, events
        assert outcome.resilience_stats.recoveries >= 1
        assert not find_conservation_violations(outcome.requests)

    def test_degradation_and_brownout_complete_everything(self, tb2,
                                                          models_tb2):
        plan = FaultPlan(name="slow", lifecycle=(
            DeviceDegradation(device=0, onset=0.0, slowdown=4.0),
            LinkBrownout(device=1, onset=0.0, bandwidth_factor=0.25),
        ))
        outcome = self.run(tb2, models_tb2, plan)
        assert outcome.faulted
        assert not find_conservation_violations(outcome.requests)
        done = outcome.done_requests()
        assert done
        # Nothing dies under pure slowdowns: no drains, no breakers.
        assert outcome.resilience_stats.drains == 0
        assert outcome.resilience_stats.breaker_opens == 0

    def test_degraded_runs_slower_than_clean(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=16, rate=8000.0, seed=3)
        clean = self.run(tb2, models_tb2, None, spec=spec)
        plan = FaultPlan(name="slow-all", lifecycle=tuple(
            DeviceDegradation(device=i, onset=0.0, slowdown=4.0)
            for i in range(2)))
        slow = self.run(tb2, models_tb2, plan, spec=spec)
        assert slow.end_time > clean.end_time

    def test_batches_inside_a_window_replay_the_slowed_program(
            self, tb2, models_tb2):
        # One shape, one request at a time: the first batch records the
        # healthy program, and the batches launched inside the window
        # must not replay it (their kernels run 4x slower).
        problem = gemm_problem(2048, 2048, 2048, np.float64,
                               Loc.DEVICE, Loc.DEVICE, Loc.DEVICE)
        requests = [Request(req_id=i, arrival=0.05 * (i + 1), problem=problem)
                    for i in range(6)]
        plan = FaultPlan(name="window", lifecycle=(
            DeviceDegradation(device=0, onset=0.17, duration=0.1,
                              slowdown=4.0),))
        server = BlasServer(tb2.with_faults(plan), models_tb2, ServerConfig(
            n_gpus=1, seed=2, host_offload=False))
        outcome = server.serve(requests)
        service = [r.completion_t - r.dispatch_t for r in outcome.requests]
        inside, outside = service[3:5], service[:3] + service[5:]
        assert min(inside) > 3.0 * max(outside), service
        assert {key[2] for key in server.programs} == {(1.0, 1.0),
                                                       (4.0, 1.0)}

    def test_lifecycle_event_beyond_fleet_is_ignored(self, tb2, models_tb2):
        plan = FaultPlan(name="ghost", lifecycle=(
            DeviceFailure(device=7, onset=1e-4),))
        outcome = self.run(tb2, models_tb2, plan)
        assert outcome.resilience_stats.drains == 0
        assert all(tr["device"] != 7 for tr in outcome.health_transitions)
