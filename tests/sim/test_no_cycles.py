"""The simulator's per-run object graph is freed by reference counting.

A served batch builds streams and ops on its GPU's device, and a
scheduler or the replay of a recorded program; a library call builds
a fresh device and link as well.  If any of them sits in a reference
cycle, nothing of the batch is freed until the cycle collector runs,
and serving pays for full collections over an ever larger heap.
Each case below runs with the collector off and then asserts that
``gc.collect()`` finds nothing: every object the run dropped was
already freed when its last reference went away.

The case's own result stays referenced while collecting, so a
long-lived object the caller still holds is never counted; only what
the run let go of is.
"""

import gc

import numpy as np
import pytest

from repro.backend.cublas import CublasContext
from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterCoordinator,
    ClusterWorkloadSpec,
    iter_cluster_workload,
)
from repro.core.params import axpy_problem, gemm_problem
from repro.runtime import CoCoPeLiaLibrary
from repro.runtime.offload import host_operands
from repro.runtime.scheduler import AxpyTileScheduler, GemmTileScheduler
from repro.serve import (
    BlasServer,
    ServerConfig,
    WorkloadSpec,
    generate_workload,
)
from repro.sim.device import GpuDevice
from repro.sim.faults import FaultPlan, resolve_plan
from tests.machines import custom_machine

FAULTS = FaultPlan(name="no-cycles", seed=3, transfer_fail_rate=0.05,
                   kernel_fail_rate=0.05, corruption_rate=0.05)


def cyclic_garbage(run):
    """``(objects only the cycle collector could free, run())``."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        found = gc.collect()
    finally:
        gc.enable()
    return found, result


def run_schedule(machine, problem, scheduler_cls, t):
    device = GpuDevice(machine, seed=1)
    sched = scheduler_cls(CublasContext(device), problem, t,
                          host_operands(problem))
    stats = sched.run()
    sched.release()
    return stats, device.resilience


def wedge_schedule(machine, problem, t):
    """Issue and run a schedule that never completes: the parked
    failures, as counted after the run."""
    device = GpuDevice(machine, seed=1)
    sched = GemmTileScheduler(CublasContext(device), problem, t,
                              host_operands(problem))
    sched._issue()
    device.sim.run()
    sched.release()
    return len(device._fault_failures)


def gpu_batches(server):
    """GPU batches the server launched (each settles exactly once)."""
    return sum(gpu.batches for gpu in server.dispatcher.gpus)


class TestSchedules:
    def test_clean_gemm(self):
        machine = custom_machine()
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        found, _ = cyclic_garbage(lambda: [
            run_schedule(machine, problem, GemmTileScheduler, 512)
            for _ in range(3)])
        assert found == 0

    def test_clean_axpy(self):
        machine = custom_machine()
        problem = axpy_problem(1 << 22, np.float64)
        found, _ = cyclic_garbage(lambda: [
            run_schedule(machine, problem, AxpyTileScheduler, 1 << 18)
            for _ in range(3)])
        assert found == 0

    def test_faulted_gemm(self):
        machine = custom_machine().with_faults(FAULTS)
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        found, results = cyclic_garbage(lambda: [
            run_schedule(machine, problem, GemmTileScheduler, 512)
            for _ in range(3)])
        assert found == 0
        # Every retry kind fired, so the retry paths were all exercised.
        totals = [sum(getattr(res, name) for _stats, res in results)
                  for name in ("retries", "kernel_retries", "refetches")]
        assert all(totals), totals

    def test_wedged_gemm(self):
        # Every transfer fails: the first fetch exhausts its retries,
        # and the ops queued behind it never dispatch.  Their dispatch
        # callbacks must not hold them (or the device) in a cycle.
        machine = custom_machine().with_faults(
            FaultPlan(seed=3, transfer_fail_rate=1.0))
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        found, parked = cyclic_garbage(
            lambda: wedge_schedule(machine, problem, 512))
        assert found == 0
        assert parked == 1


class TestDataMode:
    """Library calls that move real arrays: a finished op's payload
    holds views of the caller's arrays, so a cycle would pin them."""

    @pytest.mark.parametrize("routine", ["gemm", "gemv", "axpy"])
    def test_library_call(self, tb2, models_tb2, routine):
        lib = CoCoPeLiaLibrary(tb2, models_tb2, seed=1)
        rng = np.random.default_rng(0)
        calls = {
            "gemm": lambda: lib.gemm(a=rng.standard_normal((768, 512)),
                                     b=rng.standard_normal((512, 640)),
                                     c=rng.standard_normal((768, 640))),
            "gemv": lambda: lib.gemv(a=rng.standard_normal((1024, 900)),
                                     x=rng.standard_normal(900),
                                     y=rng.standard_normal(1024),
                                     tile_size=512),
            "axpy": lambda: lib.axpy(x=rng.standard_normal(1 << 19),
                                     y=rng.standard_normal(1 << 19)),
        }
        found, _ = cyclic_garbage(calls[routine])
        assert found == 0


class TestServing:
    def test_blas_server(self, tb2, models_tb2):
        requests = generate_workload(
            WorkloadSpec(n_requests=40, rate=2000.0, seed=1))
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=1))
        found, outcome = cyclic_garbage(lambda: server.serve(requests))
        assert found == 0
        assert outcome.done_requests()
        # Most batches replayed a recorded program.
        assert 0 < len(server.programs) < gpu_batches(server)

    def test_event_faulted_blas_server(self, tb2, models_tb2):
        # Half of all transfers fail: batches wedge and time out, their
        # members fall back to the host, breakers open and drain their
        # domains, and the drained work is requeued.  A wedged or
        # drained batch's device still holds the batch in its pending
        # completion callbacks, so settling must let go of the device.
        machine = tb2.with_faults(
            resolve_plan("transfer_fail_rate=0.5,seed=3"))
        requests = generate_workload(WorkloadSpec(
            arrival="bursty", rate=4000.0, n_requests=96, scale="tiny",
            seed=7, deadline_fraction=0.9, slack_lo=0.5, slack_hi=3.0,
            burst_size=16))
        server = BlasServer(machine, models_tb2,
                            ServerConfig(n_gpus=2, seed=7))
        found, outcome = cyclic_garbage(lambda: server.serve(requests))
        assert found == 0
        stats = outcome.resilience_stats
        assert stats.breaker_opens and stats.drains and stats.requeues
        assert any(r.fallback for r in outcome.requests)

    @pytest.mark.parametrize("kills", [None, [(0.4, "node1")]])
    def test_cluster_coordinator(self, tb1, models_tb1, kills):
        coordinator = ClusterCoordinator(
            tb1, models_tb1,
            ClusterConfig(nodes=3, gpus_per_node=2,
                          autoscaler=AutoscalerConfig(min_nodes=2,
                                                      max_nodes=4)),
            ServerConfig(seed=0))
        workload = iter_cluster_workload(
            ClusterWorkloadSpec(n_requests=150, rate=300.0, seed=0))
        found, outcome = cyclic_garbage(
            lambda: coordinator.run(workload, kill_events=kills))
        assert found == 0
        assert outcome.conservation_ok
        servers = [node.server for node in outcome.nodes]
        programs = sum(len(server.programs) for server in servers)
        assert 0 < programs < sum(gpu_batches(s) for s in servers)
