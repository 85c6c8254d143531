"""Tests for the noise model, machine configs, and trace utilities."""

import math

import numpy as np
import pytest

# Alias the factories: their names match pytest's "test*" collection
# pattern and would otherwise be collected as tests.
from repro.sim.machine import get_testbed
from tests.machines import custom_machine
from repro.sim.machine import testbed_i as make_testbed_i
from repro.sim.machine import testbed_ii as make_testbed_ii
from repro.errors import SimulationError
from repro.obs.profiler import pair_overlap, profile_trace
from repro.sim.noise import NoiseModel
from repro.sim.trace import TraceRecorder, render_timeline
from repro.units import from_gb_per_s


class TestNoise:
    def test_disabled_returns_exactly_one(self):
        nm = NoiseModel.disabled()
        assert all(nm.duration_factor() == 1.0 for _ in range(10))

    def test_deterministic_given_seed(self):
        a = NoiseModel(seed=7, sigma=0.05)
        b = NoiseModel(seed=7, sigma=0.05)
        assert [a.duration_factor() for _ in range(20)] == [
            b.duration_factor() for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = NoiseModel(seed=1, sigma=0.05)
        b = NoiseModel(seed=2, sigma=0.05)
        assert [a.duration_factor() for _ in range(5)] != [
            b.duration_factor() for _ in range(5)
        ]

    def test_factors_near_one(self):
        nm = NoiseModel(seed=0, sigma=0.02)
        samples = [nm.duration_factor() for _ in range(2000)]
        mean = float(np.mean(np.log(samples)))
        assert abs(mean) < 0.01
        assert all(0.8 < s < 1.25 for s in samples)

    def test_reset_rewinds(self):
        nm = NoiseModel(seed=3, sigma=0.05)
        first = [nm.rate_factor() for _ in range(5)]
        nm.reset()
        assert [nm.rate_factor() for _ in range(5)] == first

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma=-0.1)


class TestNoiseSequence:
    """Pins the exact factor sequence, whatever the draw strategy."""

    STREAMS = {"duration": 0, "latency": 1, "rate": 2}

    @staticmethod
    def _interleaved(nm, rounds):
        """``rounds`` factors of each type, in a rotating order."""
        order = ("latency", "rate", "duration")
        drawn = {name: [] for name in order}
        for i in range(rounds):
            for j in range(3):
                name = order[(i + j) % 3]
                drawn[name].append(getattr(nm, f"{name}_factor")())
        return drawn

    @pytest.mark.parametrize("sigma", [0.02, 0.05])
    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    def test_golden_sequence_across_blocks_and_reset(self, seed, sigma):
        n = 600
        expected = {
            name: [math.exp(sigma * x) for x in np.random.default_rng(
                (k, seed)).standard_normal(n).tolist()]
            for name, k in self.STREAMS.items()}
        nm = NoiseModel(seed=seed, sigma=sigma)
        assert self._interleaved(nm, n) == expected
        nm.reset()
        assert self._interleaved(nm, n) == expected

    def test_zero_sigma_builds_no_rng(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("sigma=0 must not build an RNG")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        nm = NoiseModel(seed=5, sigma=0.0)
        drawn = self._interleaved(nm, 50)
        assert all(f == 1.0 for fs in drawn.values() for f in fs)

    def test_no_module_level_cache_after_serving(self, tb2, models_tb2):
        import repro.sim.noise as noise_module
        from repro.serve import (
            BlasServer, ServerConfig, WorkloadSpec, generate_workload)

        spec = WorkloadSpec(n_requests=16, rate=2000.0, seed=2)
        BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=2)).serve(
            generate_workload(spec))
        containers = {
            name: value for name, value in vars(noise_module).items()
            if not name.startswith("__")
            and isinstance(value, (dict, list, set))}
        assert containers == {"_FACTOR_STREAMS": self.STREAMS}


class TestMachines:
    def test_testbed_i_matches_paper_table2(self):
        tb = make_testbed_i()
        assert tb.h2d.bandwidth == pytest.approx(from_gb_per_s(3.15))
        assert tb.d2h.bandwidth == pytest.approx(from_gb_per_s(3.29))
        assert tb.d2h.bid_slowdown == pytest.approx(1.16)

    def test_testbed_ii_matches_paper_table2(self):
        tb = make_testbed_ii()
        assert tb.h2d.bandwidth == pytest.approx(from_gb_per_s(12.18))
        assert tb.h2d.bid_slowdown == pytest.approx(1.27)
        assert tb.d2h.bid_slowdown == pytest.approx(1.41)

    def test_testbed_ii_higher_bandwidth_lower_byte_per_flop(self):
        t1, t2 = make_testbed_i(), make_testbed_ii()
        assert t2.h2d.bandwidth > 3 * t1.h2d.bandwidth
        ratio1 = t1.h2d.bandwidth / t1.kernels.gemm(np.float64).peak_flops
        ratio2 = t2.h2d.bandwidth / t2.kernels.gemm(np.float64).peak_flops
        # The paper: testbed II has the lower bandwidth/FLOP ratio.
        assert ratio2 < ratio1

    def test_get_testbed_lookup(self):
        assert get_testbed("testbed_i").name == "testbed_i"
        assert get_testbed("testbed_ii").name == "testbed_ii"

    def test_get_testbed_unknown(self):
        with pytest.raises(KeyError):
            get_testbed("testbed_iii")

    def test_custom_machine_parameters(self):
        m = custom_machine(h2d_gb=5.0, dgemm_tflops=2.0, mem_gb=4.0)
        assert m.h2d.bandwidth == pytest.approx(from_gb_per_s(5.0))
        assert m.gpu_mem_bytes == 4 * (1 << 30)

    def test_v100_spikier_than_k40(self):
        k40 = make_testbed_i().kernels.gemm(np.float64)
        v100 = make_testbed_ii().kernels.gemm(np.float64)
        assert v100.spike_amp > k40.spike_amp


class TestTrace:
    def _trace(self):
        tr = TraceRecorder()
        tr.record("h2d", "a", 0.0, 1.0, nbytes=100)
        tr.record("exec", "k", 0.5, 2.0, flops=1e6)
        tr.record("d2h", "c", 2.0, 2.5, nbytes=50)
        return tr

    def test_busy_time(self):
        engines = profile_trace(self._trace()).engines
        assert engines["h2d"].busy_time == pytest.approx(1.0)
        assert engines["exec"].busy_time == pytest.approx(1.5)

    def test_overlap_time(self):
        report = profile_trace(self._trace())
        assert pair_overlap(report, "h2d", "exec") == pytest.approx(0.5)
        assert pair_overlap(report, "h2d", "d2h") == 0.0

    def test_engines_in_first_seen_order(self):
        assert self._trace().engines() == ["h2d", "exec", "d2h"]

    def test_by_engine_filters(self):
        tr = self._trace()
        assert len(tr.by_engine("h2d")) == 1
        assert tr.by_engine("nope") == []

    def test_clear(self):
        tr = self._trace()
        tr.clear()
        assert tr.events == []

    def test_disabled_recorder_drops_events(self):
        tr = TraceRecorder()
        tr.enabled = False
        tr.record("h2d", "x", 0.0, 1.0)
        assert tr.events == []

    def test_record_rejects_end_before_start(self):
        tr = TraceRecorder()
        with pytest.raises(SimulationError, match="ends before it starts"):
            tr.record("h2d", "x", 1.0, 0.5)
        assert tr.events == []

    def test_record_rejects_negative_nbytes(self):
        tr = TraceRecorder()
        with pytest.raises(SimulationError, match="negative nbytes"):
            tr.record("h2d", "x", 0.0, 1.0, nbytes=-1)
        assert tr.events == []

    def test_record_rejects_negative_flops(self):
        tr = TraceRecorder()
        with pytest.raises(SimulationError, match="negative flops"):
            tr.record("exec", "k", 0.0, 1.0, flops=-1.0)
        assert tr.events == []

    def test_record_accepts_zero_duration(self):
        tr = TraceRecorder()
        tr.record("h2d", "x", 1.0, 1.0)
        assert len(tr.events) == 1

    def test_disabled_recorder_skips_validation(self):
        # enabled=False must remain a pure no-op, including for events
        # that would otherwise be rejected.
        tr = TraceRecorder()
        tr.enabled = False
        tr.record("h2d", "x", 1.0, 0.5)
        assert tr.events == []

    def test_render_timeline_contains_engines(self):
        out = render_timeline(self._trace(), width=40)
        assert "h2d" in out and "exec" in out and "d2h" in out

    def test_render_empty(self):
        assert "empty" in render_timeline(TraceRecorder())
