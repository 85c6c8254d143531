"""The fleet configuration surface: six settable values, and the fixed
thresholds that replaced the cluster knobs no run ever set.

What stays settable is what the ``repro cluster`` CLI and the benchmark
suite set: the fleet size, GPUs per node, the router policy, whether to
autoscale, and the autoscaler's node bounds.  The router's ring and
spill settings, the autoscaler's EWMA, hysteresis, cooldown and
warm-up, and the barrier tick are module constants at the values their
knobs defaulted to, which keeps same-seed cluster documents
byte-identical.  The knobs must not come back as config fields or as
router keywords.
"""

import dataclasses

import pytest

from repro.cluster import AutoscalerConfig, ClusterConfig, ClusterRouter
from repro.cluster import autoscaler as autoscaler_module
from repro.cluster import coordinator as coordinator_module
from repro.cluster import router as router_module

#: (module, constant, the default of the knob it replaced)
CONSTANTS = [
    (autoscaler_module, "TARGET_UTILIZATION", 0.7),
    (autoscaler_module, "UP_BACKLOG", 0.5),
    (autoscaler_module, "DOWN_BACKLOG", 0.05),
    (autoscaler_module, "RATE_ALPHA", 0.05),
    (autoscaler_module, "SERVICE_ALPHA", 0.05),
    (autoscaler_module, "COOLDOWN", 1.0),
    (autoscaler_module, "WARMUP", 0.25),
    (router_module, "REPLICAS", 64),
    (router_module, "SPILL_WIDTH", 2),
    (router_module, "SPILL_BACKLOG", 0.25),
    (coordinator_module, "TICK", 0.05),
]

REMOVED_AUTOSCALER_FIELDS = ("target_utilization", "up_backlog",
                             "down_backlog", "rate_alpha", "service_alpha",
                             "cooldown", "warmup")
REMOVED_CLUSTER_FIELDS = ("replicas", "spill_width", "spill_backlog", "tick")


class TestFields:
    def test_cluster_config_fields(self):
        names = tuple(f.name for f in dataclasses.fields(ClusterConfig))
        assert names == ("nodes", "gpus_per_node", "router", "autoscale",
                         "autoscaler")

    def test_autoscaler_config_fields(self):
        names = tuple(f.name for f in dataclasses.fields(AutoscalerConfig))
        assert names == ("min_nodes", "max_nodes")

    @pytest.mark.parametrize("name", REMOVED_AUTOSCALER_FIELDS)
    def test_removed_autoscaler_knob_is_not_a_field(self, name):
        with pytest.raises(TypeError, match=name):
            AutoscalerConfig(**{name: 1})

    @pytest.mark.parametrize("name", REMOVED_CLUSTER_FIELDS)
    def test_removed_cluster_knob_is_not_a_field(self, name):
        with pytest.raises(TypeError, match=name):
            ClusterConfig(**{name: 1})

    @pytest.mark.parametrize("name", ("replicas", "spill_width",
                                      "spill_backlog"))
    def test_router_takes_only_policy(self, name):
        with pytest.raises(TypeError, match=name):
            ClusterRouter("predicted", **{name: 1})


class TestConstants:
    @pytest.mark.parametrize(
        "module, name, value", CONSTANTS,
        ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{n}"
             for m, n, _ in CONSTANTS])
    def test_keeps_the_former_default(self, module, name, value):
        constant = getattr(module, name)
        assert type(constant) is type(value)
        assert constant == value
