"""Failure-injection tests: the system must fail loudly, not silently.

Covers dependency deadlocks, OOM mid-schedule, pathological noise,
inconsistent schedules, and misuse of the async APIs.
"""

import numpy as np
import pytest

from repro.backend.cublas import CublasContext
from repro.core.params import gemm_problem
from repro.errors import (
    DeviceMemoryError,
    ModelError,
    SchedulerError,
    SimulationError,
    StreamError,
)
from repro.runtime.offload import host_operands
from repro.runtime.scheduler import GemmTileScheduler
from repro.sim.device import GpuDevice
from tests.machines import custom_machine


@pytest.fixture()
def dev():
    return GpuDevice(custom_machine(noise_sigma=0.0))


class TestDeadlockDetection:
    def test_wait_on_never_completing_event_detected(self, dev):
        """An op that waits on work never enqueued deadlocks; the global
        synchronize reports it instead of returning silently."""
        s1, s2 = dev.create_stream("a"), dev.create_stream("b")
        dev.launch_async(1e-3, s1)
        ev = s1.record_event()
        # Manufacture an impossible dependency: op on s2 waits for an
        # event recorded after an op that is never dispatched because
        # its own dependency cycle is broken externally.
        from repro.sim.stream import Operation

        orphan = Operation("exec", duration=1e-3, tag="orphan")
        # Never enqueued: recording an event against it by hand.
        from repro.sim.stream import CudaEvent

        fake = CudaEvent(orphan, recorded=True)
        s2.wait_event(fake)
        dev.memcpy_h2d_async(100, s2)
        with pytest.raises(StreamError, match="deadlock"):
            dev.synchronize()

    def test_stream_sync_detects_stall(self, dev):
        from repro.sim.stream import CudaEvent, Operation

        s = dev.create_stream()
        orphan = Operation("exec", duration=1.0, tag="never")
        fake = CudaEvent(orphan, recorded=True)
        s.wait_event(fake)
        dev.launch_async(1e-3, s)
        with pytest.raises(StreamError, match="drain"):
            s.synchronize()


class TestMemoryFailures:
    def test_scheduler_oom_on_oversized_problem(self):
        """A problem exceeding device memory raises (paper scopes these
        out) rather than silently mis-simulating."""
        tiny = custom_machine(mem_gb=0.05, noise_sigma=0.0)
        dev = GpuDevice(tiny)
        ctx = CublasContext(dev)
        problem = gemm_problem(4096, 4096, 4096)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 1024, hosts)
        with pytest.raises(DeviceMemoryError):
            sched.run()

    def test_freed_memory_is_reusable(self, dev):
        cap = dev.mem_capacity
        for _ in range(5):
            buf = dev.alloc(cap)
            dev.free(buf)
        assert dev.mem_free == dev.mem_capacity


class TestDeploymentFailures:
    def test_unstable_measurement_surfaces(self):
        from repro.deploy.regression import measure_until_stable
        from repro.errors import DeploymentError

        rng = np.random.default_rng(0)

        def wild():
            return float(abs(rng.standard_normal()) * 1000)

        with pytest.raises(DeploymentError, match="stabilize"):
            measure_until_stable(wild, max_reps=15)

    def test_model_lookup_for_missing_tile_names_options(self, models_tb2):
        lookup = models_tb2.exec_lookup("gemm", "d")
        with pytest.raises(ModelError) as exc:
            lookup.time(777)
        assert "benchmarked sizes" in str(exc.value)


class TestSchedulerMisuse:
    def test_tile_triple_with_wrong_arity(self, dev):
        ctx = CublasContext(dev)
        problem = gemm_problem(256, 256, 256)
        hosts = host_operands(problem)
        with pytest.raises(SchedulerError):
            GemmTileScheduler(ctx, problem, (128, 128), hosts)

    def test_tile_garbage_type(self, dev):
        ctx = CublasContext(dev)
        problem = gemm_problem(256, 256, 256)
        hosts = host_operands(problem)
        with pytest.raises(SchedulerError):
            GemmTileScheduler(ctx, problem, "big", hosts)

    def test_read_back_host_resident_rejected(self, dev):
        ctx = CublasContext(dev)
        problem = gemm_problem(256, 256, 256)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 128, hosts)
        sched.run()
        with pytest.raises(SchedulerError, match="host"):
            sched.read_back_device_result()
        sched.release()


class TestNoiseRobustness:
    def test_deployment_succeeds_under_heavy_noise(self):
        """10% noise: the CI-driven repetition still converges."""
        from repro.deploy import DeploymentConfig, deploy

        noisy = custom_machine(noise_sigma=0.10, name="very-noisy")
        cfg = DeploymentConfig.quick(routines=[("gemm", np.float64)])
        models = deploy(noisy, cfg)
        assert models.link.h2d.bandwidth == pytest.approx(8e9, rel=0.10)

    def test_pipeline_timing_stable_under_noise(self):
        """Run-to-run variance of the full pipeline stays near the
        injected noise level (no chaotic amplification)."""
        from repro.runtime import CoCoPeLiaLibrary

        machine = custom_machine(noise_sigma=0.03)
        times = []
        for seed in range(6):
            lib = CoCoPeLiaLibrary(machine, models=None, seed=seed * 1000)
            times.append(lib.gemm(2048, 2048, 2048, tile_size=512).seconds)
        spread = (max(times) - min(times)) / np.mean(times)
        assert spread < 0.15
