"""The serving configuration surface: the nine ``ServerConfig`` fields,
their validation, and the fixed thresholds that replaced the knobs no
run ever set.

The thresholds are module constants, read where they are used.  Each
keeps the value its knob defaulted to, which is what keeps same-seed
serve, chaos and cluster documents byte-identical; the knobs must not
come back as config fields or as keywords one layer down.

The config validates its fields once, on construction, and the
dispatcher takes it whole: no config field comes back as a dispatcher
keyword to be validated a second time.
"""

import dataclasses
import inspect

import pytest

from repro.serve import (ADMISSION_MODES, PLACEMENT_POLICIES, Dispatcher,
                         HealthMonitor, ServeError, ServerConfig)
from repro.serve import resilience
from repro.serve import server as server_module

FIELDS = ("n_gpus", "placement", "admission", "model", "batching",
          "host_offload", "seed", "trace", "admission_percentile")

#: (module, constant, the default of the config field it replaced)
CONSTANTS = [
    (server_module, "BATCH_MAX", 4),
    (server_module, "BATCH_SMALL_FLOPS", 4.0e9),
    (server_module, "TIMEOUT_FACTOR", 50.0),
    (server_module, "TIMEOUT_FLOOR", 0.05),
    (server_module, "BREAKER_COOLOFF", 0.05),
    (resilience, "HEALTH_ALPHA", 0.25),
    (resilience, "DEGRADED_INFLATION", 2.5),
    (resilience, "RECOVERED_INFLATION", 1.25),
    (resilience, "BREAKER_FAULTS", 2),
    (resilience, "RECOVERING_PENALTY", 2.0),
]

REMOVED_FIELDS = ("locality", "weight_cache_fraction", "batch_max",
                  "batch_small_flops", "timeout_factor", "timeout_floor",
                  "health_alpha", "degraded_inflation",
                  "recovered_inflation", "breaker_faults",
                  "breaker_cooloff", "hedge_slack", "hedging")


class TestFields:
    def test_exactly_the_nine_fields(self):
        names = tuple(f.name for f in dataclasses.fields(ServerConfig))
        assert names == FIELDS

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_removed_knob_is_not_a_field(self, name):
        with pytest.raises(TypeError, match=name):
            ServerConfig(**{name: 1})

    @pytest.mark.parametrize("name", ("locality", "weight_cache_fraction"))
    def test_dispatcher_takes_no_threshold_keyword(self, tb2, models_tb2,
                                                   name):
        with pytest.raises(TypeError, match=name):
            Dispatcher(tb2, models_tb2, ServerConfig(n_gpus=2),
                       **{name: 1})

    def test_dispatcher_takes_the_config_whole(self):
        params = list(inspect.signature(Dispatcher).parameters)
        assert params == ["machine", "models", "config",
                          "prediction_cache", "monitor", "tail_bank"]

    @pytest.mark.parametrize("name", ("n_gpus", "model", "policy",
                                      "placement", "admission",
                                      "host_offload",
                                      "admission_percentile"))
    def test_dispatcher_takes_no_config_field_keyword(self, tb2,
                                                      models_tb2, name):
        with pytest.raises(TypeError, match=name):
            Dispatcher(tb2, models_tb2, ServerConfig(), **{name: 1})

    def test_dispatcher_reads_its_fields_from_the_config(self, tb2,
                                                         models_tb2):
        config = ServerConfig(n_gpus=3, placement="round_robin",
                              admission="downgrade", model="dr",
                              host_offload=False, admission_percentile=99)
        d = Dispatcher(tb2, models_tb2, config)
        assert d.config is config
        assert [g.name for g in d.gpus] == ["gpu0", "gpu1", "gpu2"]
        # An int percentile is read as a float, once.
        assert d.admission_percentile == 99.0
        assert type(d.admission_percentile) is float

    @pytest.mark.parametrize("name", ("alpha", "degraded_inflation",
                                      "recovered_inflation",
                                      "breaker_faults",
                                      "recovering_penalty"))
    def test_health_monitor_takes_no_threshold_keyword(self, name):
        with pytest.raises(TypeError, match=name):
            HealthMonitor(2, **{name: 1})


class TestConstants:
    @pytest.mark.parametrize(
        "module, name, value", CONSTANTS,
        ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{n}"
             for m, n, _ in CONSTANTS])
    def test_keeps_the_former_default(self, module, name, value):
        constant = getattr(module, name)
        assert type(constant) is type(value)
        assert constant == value


class TestValidation:
    @pytest.mark.parametrize("placement", PLACEMENT_POLICIES)
    def test_every_placement_policy_accepted(self, placement):
        assert ServerConfig(placement=placement).placement == placement

    @pytest.mark.parametrize("admission", ADMISSION_MODES)
    def test_every_admission_mode_accepted(self, admission):
        assert ServerConfig(admission=admission).admission == admission

    @pytest.mark.parametrize("bad", ["random", "", "MODEL", None])
    def test_unknown_placement_rejected(self, bad):
        with pytest.raises(ServeError, match="unknown placement policy"):
            ServerConfig(placement=bad)

    @pytest.mark.parametrize("bad", ["maybe", "", "Shed", None])
    def test_unknown_admission_rejected(self, bad):
        with pytest.raises(ServeError, match="unknown admission mode"):
            ServerConfig(admission=bad)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, None, "2"])
    def test_bad_gpu_count_rejected(self, bad):
        with pytest.raises(ServeError, match="GPU count"):
            ServerConfig(n_gpus=bad)

    @pytest.mark.parametrize("bad", [0.0, 100.5, float("nan"), True, "99"])
    def test_bad_admission_percentile_rejected(self, bad):
        with pytest.raises(ServeError, match="admission_percentile"):
            ServerConfig(admission_percentile=bad)
