"""Tests for the fault-injection subsystem (sim layer).

Covers the declarative FaultPlan / resolve_plan surface, the seeded
determinism of FaultInjector substreams, and the device-level retry /
refetch / abort machinery the injector drives.
"""

import math

import numpy as np
import pytest

from repro.errors import (
    DeviceMemoryError,
    FaultError,
    PermanentFaultError,
    RetryExhaustedError,
    SimulationError,
    TransientFaultError,
)
from repro.sim import (
    DeviceDegradation,
    DeviceFailure,
    Direction,
    FaultInjector,
    FaultPlan,
    GpuDevice,
    LinkBrownout,
    NAMED_PLANS,
    ResilienceCounters,
    resolve_plan,
    tile_checksum,
)
from repro.sim import faults as faults_module
from repro.obs.profiler import profile_trace
from repro.sim.faults import MAX_ATTEMPTS, as_injector, backoff, corrupt_array
from tests.machines import custom_machine
from repro.sim.noise import NoiseModel


class TestFaultPlan:
    def test_defaults_inject_nothing(self):
        assert not FaultPlan().any_faults

    def test_any_faults_per_knob(self):
        assert FaultPlan(transfer_fail_rate=0.1).any_faults
        assert FaultPlan(kernel_fail_rate=0.1).any_faults
        assert FaultPlan(corruption_rate=0.1).any_faults
        assert FaultPlan(bandwidth_collapse_rate=0.1).any_faults
        assert FaultPlan(mem_pressure_bytes=1).any_faults
        assert FaultPlan(mem_pressure_rate=0.1).any_faults
        assert FaultPlan(scheduled=(("h2d", 0),)).any_faults

    @pytest.mark.parametrize("field", [
        "transfer_fail_rate", "kernel_fail_rate", "corruption_rate",
        "bandwidth_collapse_rate", "mem_pressure_rate",
    ])
    def test_rates_validated(self, field):
        with pytest.raises(SimulationError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(SimulationError):
            FaultPlan(**{field: -0.1})

    def test_collapse_factor_validated(self):
        with pytest.raises(SimulationError):
            FaultPlan(bandwidth_collapse_factor=0.0)
        with pytest.raises(SimulationError):
            FaultPlan(bandwidth_collapse_factor=1.5)

    def test_scheduled_validated(self):
        with pytest.raises(SimulationError):
            FaultPlan(scheduled=(("warp", 0),))
        with pytest.raises(SimulationError):
            FaultPlan(scheduled=(("h2d", -1),))

    def test_with_seed(self):
        plan = FaultPlan(seed=1, transfer_fail_rate=0.5)
        assert plan.with_seed(9).seed == 9
        assert plan.with_seed(9).transfer_fail_rate == 0.5


class TestResolvePlan:
    def test_passthrough(self):
        plan = FaultPlan(seed=4)
        assert resolve_plan(plan) is plan
        assert resolve_plan(None) is None

    @pytest.mark.parametrize("name", sorted(NAMED_PLANS))
    def test_named(self, name):
        assert resolve_plan(name) is NAMED_PLANS[name]

    def test_named_plans_are_escalating(self):
        light, heavy = NAMED_PLANS["light"], NAMED_PLANS["heavy"]
        assert light.transfer_fail_rate < heavy.transfer_fail_rate
        assert light.kernel_fail_rate < heavy.kernel_fail_rate

    def test_key_value_spec(self):
        plan = resolve_plan("transfer_fail_rate=0.05, seed=7")
        assert plan.transfer_fail_rate == 0.05
        assert plan.seed == 7
        assert plan.name == "cli"

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            resolve_plan("apocalyptic")

    def test_unknown_key_rejected(self):
        with pytest.raises(SimulationError):
            resolve_plan("warp_rate=0.1")


class TestRetryBudget:
    def test_constants_keep_the_former_defaults(self):
        assert faults_module.MAX_ATTEMPTS == 4
        assert faults_module.BASE_BACKOFF == 20e-6
        assert faults_module.BACKOFF_FACTOR == 2.0

    def test_exponential_backoff(self):
        assert backoff(0) == pytest.approx(20e-6)
        assert backoff(1) == pytest.approx(20e-6)
        assert backoff(2) == pytest.approx(40e-6)
        assert backoff(3) == pytest.approx(80e-6)

    def test_device_takes_no_retry_keyword(self):
        with pytest.raises(TypeError, match="retry"):
            GpuDevice(custom_machine(), retry=None)


class TestFaultInjector:
    def _decisions(self, injector, n=100):
        return [
            (o.fail, o.rate_factor != 1.0,
             injector.kernel_faults(), injector.corrupts_transfer())
            for o in (injector.transfer_outcome("h2d") for _ in range(n))
        ]

    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=5, transfer_fail_rate=0.3, kernel_fail_rate=0.2,
                         corruption_rate=0.2, bandwidth_collapse_rate=0.3)
        assert (self._decisions(FaultInjector(plan))
                == self._decisions(FaultInjector(plan)))

    def test_different_seed_different_schedule(self):
        plan = FaultPlan(seed=5, transfer_fail_rate=0.3, kernel_fail_rate=0.2,
                         corruption_rate=0.2, bandwidth_collapse_rate=0.3)
        assert (self._decisions(FaultInjector(plan))
                != self._decisions(FaultInjector(plan.with_seed(6))))

    def test_reset_rewinds(self):
        inj = FaultInjector(FaultPlan(seed=2, transfer_fail_rate=0.4))
        first = self._decisions(inj)
        inj.reset()
        assert inj.events["h2d"] == 0 and inj.injected["h2d"] == 0
        assert self._decisions(inj) == first

    def test_substreams_independent(self):
        """Changing one category's rate never shifts another's draws."""
        kernels = []
        for transfer_rate in (0.1, 0.9):
            inj = FaultInjector(FaultPlan(
                seed=3, transfer_fail_rate=transfer_rate,
                kernel_fail_rate=0.3))
            seq = []
            for _ in range(50):
                inj.transfer_outcome("h2d")  # advances h2d + bandwidth
                seq.append(inj.kernel_faults())
            kernels.append(seq)
        assert kernels[0] == kernels[1]

    def test_scheduled_fault_fires_at_index(self):
        inj = FaultInjector(FaultPlan(scheduled=(("h2d", 2),)))
        fails = [inj.transfer_outcome("h2d").fail for _ in range(5)]
        assert fails == [False, False, True, False, False]
        assert inj.events["h2d"] == 5
        assert inj.injected["h2d"] == 1

    def test_rates_hit_roughly_proportionally(self):
        inj = FaultInjector(FaultPlan(seed=8, kernel_fail_rate=0.2))
        hits = sum(inj.kernel_faults() for _ in range(2000))
        assert 300 < hits < 500  # ~400 expected

    def test_as_injector_normalization(self):
        assert as_injector(None) is None
        assert as_injector(FaultPlan()) is None  # nothing to inject
        inj = as_injector(FaultPlan(kernel_fail_rate=0.1))
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj
        with pytest.raises(SimulationError):
            as_injector("heavy")


class TestChecksums:
    def test_corruption_changes_checksum(self, rng):
        tile = rng.standard_normal((32, 32))
        before = tile_checksum(tile)
        assert tile_checksum(tile) == before  # stable
        corrupt_array(tile)
        assert tile_checksum(tile) != before

    def test_checksum_covers_views(self, rng):
        big = rng.standard_normal((64, 64))
        view = big[:16, :16]
        assert tile_checksum(view) == tile_checksum(view.copy())

    def test_corrupt_empty_is_noop(self):
        corrupt_array(np.empty(0))


class TestResilienceCounters:
    def test_accumulate(self):
        a = ResilienceCounters(retries=1, kernel_retries=2)
        a.add(ResilienceCounters(retries=3, refetches=1, host_fallbacks=1))
        assert a.total() == 8
        assert a.any()
        assert a.as_dict() == {
            "retries": 4, "kernel_retries": 2, "refetches": 1,
            "tile_downshifts": 0, "host_fallbacks": 1,
        }
        assert not ResilienceCounters().any()


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(TransientFaultError, FaultError)
        assert issubclass(RetryExhaustedError, PermanentFaultError)
        assert issubclass(DeviceMemoryError, TransientFaultError)

    def test_device_memory_error_carries_tile(self):
        err = DeviceMemoryError(100, 10, 50)
        assert err.requested == 100 and err.free == 10
        tiled = err.with_tile(128)
        assert isinstance(tiled, DeviceMemoryError)
        assert "T=128" in str(tiled)

    def test_retry_exhausted_message(self):
        err = RetryExhaustedError("a01", 4, "transient transfer failure")
        assert err.attempts == 4
        assert "a01" in str(err) and "4 attempts" in str(err)


class TestDeviceFaults:
    """The retry machinery on a real simulated device."""

    def _device(self, plan, **kwargs):
        return GpuDevice(custom_machine(noise_sigma=0.0), faults=plan,
                         **kwargs)

    def test_transfer_failure_retried(self, check_trace):
        dev = self._device(FaultPlan(scheduled=(("h2d", 0),)), trace=True)
        stream = dev.create_stream("s")
        op = dev.memcpy_h2d_async(1 << 20, stream, tag="a00")
        dev.synchronize()
        assert op.done
        assert op.attempts == 2
        assert dev.resilience.retries == 1
        stats = dev.link.stats(Direction.H2D)
        assert stats.faults == 1
        assert stats.transfers == 2  # failed attempt occupies the link
        tags = [e.tag for e in dev.trace.by_engine("h2d")]
        assert tags == ["a00!fault", "a00"]
        check_trace(dev.trace)  # the retry matches the fault event

    def test_backoff_extends_simulated_time(self):
        clean = self._device(None)
        s = clean.create_stream("s")
        clean.memcpy_h2d_async(1 << 20, s, tag="a")
        t_clean = clean.synchronize()

        faulty = self._device(FaultPlan(scheduled=(("h2d", 0),)))
        s = faulty.create_stream("s")
        faulty.memcpy_h2d_async(1 << 20, s, tag="a")
        t_faulty = faulty.synchronize()
        assert t_faulty == pytest.approx(2 * t_clean + backoff(1))

    def test_transfer_exhaustion_surfaces_on_sync(self):
        dev = self._device(FaultPlan(transfer_fail_rate=1.0))
        stream = dev.create_stream("s")
        op = dev.memcpy_h2d_async(1 << 16, stream, tag="a00")
        with pytest.raises(RetryExhaustedError) as exc:
            dev.synchronize()
        assert not op.done
        assert op.attempts == MAX_ATTEMPTS
        assert "a00" in str(exc.value)

    def test_kernel_fault_retried_and_aborted_time_counted(self, check_trace):
        dev = self._device(FaultPlan(scheduled=(("kernel", 0),)), trace=True)
        stream = dev.create_stream("s")
        ran = []
        op = dev.launch_async(1e-3, stream, tag="k0",
                              payload=lambda: ran.append(1))
        dev.synchronize()
        assert op.done
        assert op.attempts == 2
        assert ran == [1]  # payload only runs on the clean attempt
        assert dev.resilience.kernel_retries == 1
        # aborted launch occupies the engine for half its nominal time
        assert profile_trace(dev.trace).engines["exec"].busy_time == \
            pytest.approx(1.5e-3)
        assert [e.tag for e in dev.trace.by_engine("exec")] == \
            ["k0!fault", "k0"]
        check_trace(dev.trace)

    def test_kernel_exhaustion_surfaces_on_sync(self):
        dev = self._device(FaultPlan(kernel_fail_rate=1.0))
        stream = dev.create_stream("s")
        dev.launch_async(1e-3, stream, tag="k0")
        with pytest.raises(RetryExhaustedError):
            dev.synchronize()

    def test_corruption_detected_without_checksum_hooks(self):
        """Timing mode has no arrays; the injected flag itself is the
        detector, and the transfer is re-fetched."""
        dev = self._device(FaultPlan(scheduled=(("corrupt", 0),)))
        stream = dev.create_stream("s")
        op = dev.memcpy_h2d_async(1 << 18, stream, tag="a00")
        dev.synchronize()
        assert op.done
        assert dev.resilience.refetches == 1
        assert op.attempts == 2

    def test_corruption_detected_by_checksum_and_refetched(self, rng):
        dev = self._device(FaultPlan(scheduled=(("corrupt", 0),)))
        stream = dev.create_stream("s")
        src = rng.standard_normal((64, 64))
        dst = np.zeros_like(src)
        expected = tile_checksum(src)
        op = dev.memcpy_h2d_async(
            src.nbytes, stream, tag="a00",
            payload=lambda: dst.__setitem__(slice(None), src),
            verify=lambda: tile_checksum(dst) == expected,
            corrupt=lambda: corrupt_array(dst),
        )
        dev.synchronize()
        assert op.done
        assert dev.resilience.refetches == 1
        assert np.array_equal(dst, src)  # refetch healed the corruption

    def test_bandwidth_collapse_slows_one_transfer(self):
        plan = FaultPlan(scheduled=(("bandwidth", 0),),
                         bandwidth_collapse_factor=0.25)
        clean = self._device(None)
        s = clean.create_stream("s")
        clean.memcpy_h2d_async(1 << 22, s)
        t_clean = clean.synchronize()

        slow = self._device(plan)
        s = slow.create_stream("s")
        slow.memcpy_h2d_async(1 << 22, s)
        t_slow = slow.synchronize()
        assert t_slow > 3 * t_clean  # flow phase runs at 1/4 rate

    def test_static_memory_pressure_shrinks_capacity(self):
        machine = custom_machine(noise_sigma=0.0)
        pressure = machine.gpu_mem_bytes - (1 << 20)
        dev = self._device(FaultPlan(mem_pressure_bytes=pressure))
        dev.alloc(1 << 19, name="fits")
        with pytest.raises(DeviceMemoryError) as exc:
            dev.alloc(1 << 20, name="too big")
        assert exc.value.capacity == 1 << 20

    def test_transient_alloc_failure_retried_then_raises(self):
        dev = self._device(FaultPlan(mem_pressure_rate=1.0))
        with pytest.raises(DeviceMemoryError):
            dev.alloc(1 << 10)
        assert dev.resilience.retries == MAX_ATTEMPTS

    def test_no_plan_means_no_injector(self):
        dev = self._device(None)
        assert dev.faults is None
        dev2 = self._device(FaultPlan())  # all-zero plan normalizes away
        assert dev2.faults is None

    def test_config_attached_plan_builds_injector(self):
        machine = custom_machine(noise_sigma=0.0).with_faults(
            FaultPlan(kernel_fail_rate=0.1))
        dev = GpuDevice(machine)
        assert isinstance(dev.faults, FaultInjector)


class TestNoiseSubstreams:
    """Satellite: per-factor noise substreams (duration/latency/rate)."""

    def test_factors_draw_independently(self):
        a = NoiseModel(seed=7, sigma=0.02)
        plain = [a.duration_factor() for _ in range(20)]

        b = NoiseModel(seed=7, sigma=0.02)
        interleaved = []
        for _ in range(20):
            b.latency_factor()
            b.rate_factor()
            interleaved.append(b.duration_factor())
        assert plain == interleaved

    def test_reset_rewinds_all_substreams(self):
        n = NoiseModel(seed=3, sigma=0.05)
        seq = [(n.duration_factor(), n.latency_factor(), n.rate_factor())
               for _ in range(10)]
        n.reset()
        again = [(n.duration_factor(), n.latency_factor(), n.rate_factor())
                 for _ in range(10)]
        assert seq == again

    def test_disabled_noise_is_exactly_one(self):
        n = NoiseModel.disabled()
        assert n.duration_factor() == 1.0
        assert n.latency_factor() == 1.0
        assert n.rate_factor() == 1.0


class TestLifecycleFaults:
    """Serve-time device-lifecycle events on the FaultPlan."""

    def test_failure_validation(self):
        DeviceFailure(device=0, onset=0.0)  # permanent kill is legal
        with pytest.raises(SimulationError, match="device"):
            DeviceFailure(device=-1, onset=0.0)
        with pytest.raises(SimulationError, match="onset"):
            DeviceFailure(device=0, onset=-1.0)
        with pytest.raises(SimulationError, match="onset"):
            DeviceFailure(device=0, onset=math.nan)
        with pytest.raises(SimulationError, match="duration"):
            DeviceFailure(device=0, onset=0.0, duration=0.0)

    def test_degradation_validation(self):
        with pytest.raises(SimulationError, match="slowdown"):
            DeviceDegradation(device=0, onset=0.0, slowdown=1.0)
        with pytest.raises(SimulationError, match="slowdown"):
            DeviceDegradation(device=0, onset=0.0, slowdown=math.inf)

    def test_brownout_validation(self):
        for factor in (0.0, 1.0, -0.5):
            with pytest.raises(SimulationError, match="bandwidth_factor"):
                LinkBrownout(device=0, onset=0.0, bandwidth_factor=factor)

    def test_end_and_as_dict(self):
        blip = DeviceFailure(device=1, onset=0.5, duration=0.25)
        assert blip.end == 0.75
        assert blip.as_dict() == {"kind": "device_failure", "device": 1,
                                  "onset": 0.5, "duration": 0.25}
        forever = DeviceFailure(device=0, onset=1.0)
        assert forever.end == math.inf
        assert forever.as_dict()["duration"] is None  # JSON-safe
        slow = DeviceDegradation(device=0, onset=0.0, slowdown=3.0)
        assert slow.as_dict()["slowdown"] == 3.0
        brown = LinkBrownout(device=0, onset=0.0, bandwidth_factor=0.25)
        assert brown.as_dict()["bandwidth_factor"] == 0.25

    def test_plan_accepts_lifecycle_tuple(self):
        plan = FaultPlan(name="mixed", lifecycle=(
            DeviceFailure(device=0, onset=1.0),))
        assert plan.any_faults
        # Lifecycle-only plans drive no per-event injector: the
        # byte-identity of fault-free pipelines depends on this split.
        assert not plan.any_event_faults

    def test_plan_rejects_non_lifecycle_entries(self):
        with pytest.raises(SimulationError, match="LifecycleFault"):
            FaultPlan(name="bad", lifecycle=("kill gpu 0",))


class TestDegradedMachineModels:
    def test_scaled_kernels_slow_uniformly(self, tb2):
        clean = tb2.kernels
        slow = clean.scaled(4.0)
        t_clean = clean.gemm_time(2048, 2048, 2048, np.float64)
        assert slow.gemm_time(2048, 2048, 2048, np.float64) > t_clean
        assert slow.axpy_time(1 << 20, np.float64) > clean.axpy_time(
            1 << 20, np.float64)
        # Identity factor shares the memoized models.
        assert clean.scaled(1.0) is clean

    def test_with_degradation_scales_links_and_kernels(self, tb2):
        degraded = tb2.with_degradation(compute_slowdown=2.0,
                                        bandwidth_factor=0.5)
        assert degraded.h2d.bandwidth == tb2.h2d.bandwidth * 0.5
        assert degraded.d2h.bandwidth == tb2.d2h.bandwidth * 0.5
        assert (degraded.kernels.gemm_time(1024, 1024, 1024, np.float64)
                > tb2.kernels.gemm_time(1024, 1024, 1024, np.float64))
        # Identity arguments hand back the same config object.
        assert tb2.with_degradation() is tb2

    def test_with_degradation_validates(self, tb2):
        with pytest.raises(ValueError, match="compute_slowdown"):
            tb2.with_degradation(compute_slowdown=0.5)
        with pytest.raises(ValueError, match="bandwidth_factor"):
            tb2.with_degradation(bandwidth_factor=0.0)
        with pytest.raises(ValueError, match="bandwidth_factor"):
            tb2.with_degradation(bandwidth_factor=1.5)
