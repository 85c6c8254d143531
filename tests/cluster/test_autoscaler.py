"""Autoscaler unit tests: EWMA feeds, demand math, hysteresis.

The scaler is pure arithmetic over deterministic inputs, so every
branch is pinned directly: what the EWMAs converge to, what fleet size
the demand model implies, and when the backlog valve / cooldown /
bounds override it.  The thresholds are the module constants
(``TARGET_UTILIZATION``, ``UP_BACKLOG``, ``DOWN_BACKLOG``,
``RATE_ALPHA``, ``COOLDOWN``, ...); only the fleet bounds are set here.
"""

import pytest

from repro.cluster import Autoscaler, AutoscalerConfig
from repro.cluster.autoscaler import COOLDOWN
from repro.serve import ServeError


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs,match", [
        ({"min_nodes": 0}, "min_nodes"),
        ({"min_nodes": 4, "max_nodes": 2}, "max_nodes"),
    ])
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(ServeError, match=match):
            AutoscalerConfig(**kwargs)

    def test_defaults_are_valid(self):
        AutoscalerConfig()


class TestSignalFeeds:
    def test_rate_ewma_converges_to_arrival_rate(self):
        # RATE_ALPHA = 0.05: 400 samples leave (0.95)^400 ~ 1e-9 of the
        # zero start.
        scaler = Autoscaler(AutoscalerConfig(), 2)
        for i in range(400):
            scaler.observe_arrival(i * 0.01)  # steady 100 req/s
        assert scaler.ewma_rate == pytest.approx(100.0, rel=0.05)

    def test_first_arrival_sets_no_rate(self):
        scaler = Autoscaler(AutoscalerConfig(), 2)
        scaler.observe_arrival(1.0)
        assert scaler.ewma_rate == 0.0

    def test_non_advancing_arrival_ignored(self):
        scaler = Autoscaler(AutoscalerConfig(), 2)
        scaler.observe_arrival(1.0)
        scaler.observe_arrival(1.0)  # zero gap: no 1/0 blowup
        assert scaler.ewma_rate == 0.0

    def test_first_service_sample_seeds_ewma(self):
        scaler = Autoscaler(AutoscalerConfig(), 2)
        scaler.observe_service(0.25)
        assert scaler.ewma_service == 0.25

    def test_nonpositive_service_ignored(self):
        scaler = Autoscaler(AutoscalerConfig(), 2)
        scaler.observe_service(0.0)
        scaler.observe_service(-1.0)
        assert scaler.ewma_service is None


class TestDemandModel:
    def test_desired_is_demand_over_capacity(self):
        # 10 req/s x 0.35 s/req = 3.5 busy-sec/sec of offered load;
        # 2 GPUs x 0.7 target = 1.4 per node -> ceil(2.5) = 3 nodes.
        config = AutoscalerConfig(min_nodes=1, max_nodes=8)
        scaler = Autoscaler(config, 2)
        scaler.ewma_rate = 10.0
        scaler.ewma_service = 0.35
        assert scaler.desired_nodes() == 3

    def test_no_signal_means_floor(self):
        scaler = Autoscaler(AutoscalerConfig(min_nodes=3), 2)
        assert scaler.desired_nodes() == 3

    def test_clamped_to_bounds(self):
        config = AutoscalerConfig(min_nodes=2, max_nodes=5)
        scaler = Autoscaler(config, 2)
        scaler.ewma_rate = 1000.0
        scaler.ewma_service = 1.0
        assert scaler.desired_nodes() == 5


class TestDecide:
    def make(self, **kwargs):
        defaults = dict(min_nodes=1, max_nodes=8)
        defaults.update(kwargs)
        return Autoscaler(AutoscalerConfig(**defaults), 2)

    def test_demand_drives_up(self):
        scaler = self.make()
        scaler.ewma_rate = 10.0
        scaler.ewma_service = 0.35  # desired 3
        assert scaler.decide(0.0, active=2, fleet_backlog=0.0) == "up"
        event = scaler.events[-1]
        assert event["action"] == "up"
        assert event["reason"]["desired"] == 3

    def test_backlog_valve_overrides_demand(self):
        # Demand says hold, but predicted backlog per node is past the
        # valve: scale up anyway.
        scaler = self.make()
        scaler.ewma_rate = 1.0
        scaler.ewma_service = 0.1  # desired 1
        assert scaler.decide(0.0, active=2, fleet_backlog=2.0) == "up"
        assert scaler.events[-1]["reason"]["backlog_per_node"] == 1.0

    def test_down_needs_low_demand_and_low_backlog(self):
        scaler = self.make()
        scaler.ewma_rate = 1.0
        scaler.ewma_service = 0.1  # desired 1
        # Backlog still above the floor: hold.
        assert scaler.decide(0.0, active=3, fleet_backlog=0.3) is None
        assert scaler.decide(0.0, active=3, fleet_backlog=0.0) == "down"

    def test_cooldown_suppresses_actions(self):
        scaler = self.make()
        scaler.ewma_rate = 10.0
        scaler.ewma_service = 0.35
        assert scaler.decide(0.0, active=2, fleet_backlog=0.0) == "up"
        assert scaler.decide(0.4 * COOLDOWN, active=2,
                             fleet_backlog=0.0) is None
        assert scaler.decide(COOLDOWN, active=2, fleet_backlog=0.0) == "up"

    def test_bounds_suppress_actions(self):
        scaler = self.make(min_nodes=2, max_nodes=3)
        scaler.ewma_rate = 1000.0
        scaler.ewma_service = 1.0
        assert scaler.decide(0.0, active=3, fleet_backlog=99.0) is None
        scaler.ewma_rate = 0.001
        scaler.ewma_service = 0.001
        assert scaler.decide(10.0, active=2, fleet_backlog=0.0) is None
        assert scaler.events == []

    def test_events_carry_full_reason(self):
        scaler = self.make()
        scaler.ewma_rate = 10.0
        scaler.ewma_service = 0.35
        scaler.decide(1.5, active=2, fleet_backlog=0.2)
        event = scaler.events[-1]
        assert event["t"] == 1.5
        assert set(event["reason"]) == {
            "ewma_rate", "ewma_service", "fleet_backlog",
            "backlog_per_node", "desired", "active"}
