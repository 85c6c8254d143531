"""A replayed device program is indistinguishable from the live schedule.

Each case runs the live tile scheduler on one fresh device and replays
its recorded program on another built the same way (same machine, same
seed, trace and metrics on).  The trace events with their tags, the
link and compute counters, memory use before and after ``release()``,
the metrics registry, and under faults the resilience counters and the
parked failures must all be identical.  A live run without a recorder
is compared too, so recording itself perturbs nothing.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.backend.cublas import CublasContext
from repro.core.params import Loc, axpy_problem, gemm_problem
from repro.errors import DeviceMemoryError
from repro.obs.metrics import MetricsRegistry
from repro.runtime.offload import host_operands
from repro.runtime.program import ALLOC, ProgramRecorder
from repro.runtime.scheduler import AxpyTileScheduler, GemmTileScheduler
from repro.serve import WorkloadSpec, generate_workload
from repro.serve.dispatcher import Dispatcher, coalesce
from repro.serve.server import BATCH_MAX, BATCH_SMALL_FLOPS, ServerConfig
from repro.sim.device import GpuDevice
from repro.sim.faults import FaultPlan
from repro.sim.link import Direction
from tests.machines import custom_machine

from ..sim.test_no_cycles import FAULTS

SCHEDULERS = {"gemm": GemmTileScheduler, "axpy": AxpyTileScheduler}
SEED = 5


def serving_problems():
    """Every problem a tiny-scale serve runs on a GPU: the pool's
    problems and their coalesced batches."""
    requests = generate_workload(WorkloadSpec(
        n_requests=300, scale="tiny", small_fraction=0.5, seed=0))
    problems = {}
    for request in requests:
        problem = request.problem
        batch = [request]
        if problem.flops() <= BATCH_SMALL_FLOPS and (
                problem.routine.name == "axpy" or request.group is not None):
            batch = [request] * BATCH_MAX
        for size in range(1, len(batch) + 1):
            merged = coalesce(batch[:size])
            problems[merged.signature()] = merged
    return list(problems.values())


PROBLEMS = serving_problems()


def build(machine, metrics):
    return GpuDevice(machine, seed=SEED, trace=True, metrics=metrics)


def live(machine, problem, t, recording=False):
    """Run the scheduler; ``(observation, program or None)``."""
    metrics = MetricsRegistry()
    device = build(machine, metrics)
    recorder = ProgramRecorder(device) if recording else None
    scheduler = SCHEDULERS[problem.routine.name](
        CublasContext(device), problem, t, host_operands(problem))
    scheduler._issue()
    program = None
    if recorder is not None:
        recorder.detach()
        program = recorder.program(t)
    return observe(device, scheduler, metrics), program


def replayed(machine, program):
    metrics = MetricsRegistry()
    device = build(machine, metrics)
    return observe(device, program.replay(device), metrics)


def observe(device, pipeline, metrics):
    device.sim.run()
    used = device.mem_capacity - device.mem_free
    pipeline.release()
    return {
        "trace": list(device.trace.events),
        "h2d": device.link.stats(Direction.H2D),
        "d2h": device.link.stats(Direction.D2H),
        "compute": (device.compute.kernels_run, device.compute.busy_time),
        "mem": (used, device.mem_capacity - device.mem_free),
        "metrics": metrics.as_dict(),
        "resilience": device.resilience.as_dict(),
        "failures": [str(exc) for exc in device._fault_failures],
        "idle": [s.idle for s in pipeline.streams],
    }


def assert_equivalent(machine, problem, t):
    plain, _ = live(machine, problem, t)
    recorded, program = live(machine, problem, t, recording=True)
    assert program is not None
    assert recorded == plain
    assert replayed(machine, program) == recorded
    return recorded


def tile_for(machine, models, problem):
    return Dispatcher(machine, models, ServerConfig(n_gpus=1)).predict_gpu(problem).t_best


class TestServingShapes:
    def test_pool_covers_every_serving_kind(self):
        kinds = {(p.routine.name, p.operands[0].loc) for p in PROBLEMS}
        assert kinds == {("gemm", Loc.HOST), ("axpy", Loc.HOST)}
        assert len(PROBLEMS) > 8

    @pytest.mark.parametrize("testbed", ["tb1", "tb2"])
    @pytest.mark.parametrize("problem", PROBLEMS,
                             ids=[p.describe() for p in PROBLEMS])
    def test_replay_matches_live(self, request, testbed, problem):
        machine = request.getfixturevalue(testbed)
        models = request.getfixturevalue(f"models_{testbed}")
        observed = assert_equivalent(
            machine, problem, tile_for(machine, models, problem))
        assert observed["mem"][0] > 0 and observed["mem"][1] == 0
        assert all(observed["idle"])

    @pytest.mark.parametrize("problem", PROBLEMS,
                             ids=[p.describe() for p in PROBLEMS])
    def test_replay_matches_live_on_degraded_copy(self, tb2, models_tb2,
                                                  problem):
        # The server keys programs on the degradation because kernel
        # and transfer times differ on the slowed copy.
        machine = tb2.with_degradation(compute_slowdown=1.7,
                                       bandwidth_factor=0.6)
        assert_equivalent(machine, problem,
                          tile_for(tb2, models_tb2, problem))


#: Every placement of each routine's operands: the scheduler registers a
#: device-resident operand without a transfer, and a program must replay
#: that registration as recorded.
PLACEMENTS = (
    [gemm_problem(1024, 768, 512, np.float64, a, b, c)
     for a, b, c in itertools.product(Loc, repeat=3)]
    + [axpy_problem(1 << 20, np.float64, x, y)
       for x, y in itertools.product(Loc, repeat=2)])


class TestOperandPlacements:
    def test_every_placement_is_covered(self):
        assert len({p.signature() for p in PLACEMENTS}) == 12

    @pytest.mark.parametrize("problem", PLACEMENTS,
                             ids=[p.describe() for p in PLACEMENTS])
    def test_replay_matches_live(self, tb2, models_tb2, problem):
        observed = assert_equivalent(tb2, problem,
                                     tile_for(tb2, models_tb2, problem))
        assert observed["mem"][1] == 0
        assert all(observed["idle"])


class TestFaults:
    @pytest.mark.parametrize("plan", [
        FAULTS, FaultPlan(name="wedge", seed=3, transfer_fail_rate=1.0)])
    def test_faulted_replay_matches_live(self, plan):
        machine = custom_machine().with_faults(plan)
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        observed = assert_equivalent(machine, problem, 512)
        if plan is FAULTS:
            assert observed["resilience"]["retries"] > 0
            assert observed["resilience"]["kernel_retries"] > 0
        else:
            assert observed["failures"]
            assert not all(observed["idle"])

    def test_oom_raises_the_same_error(self):
        machine = custom_machine()
        problem = gemm_problem(2048, 2048, 2048, np.float64)
        _, program = live(machine, problem, 512, recording=True)
        nbytes = sum(step[1] for step in program.steps if step[0] == ALLOC)
        small = dataclasses.replace(machine, gpu_mem_bytes=nbytes // 2)
        scheduler = GemmTileScheduler(
            CublasContext(GpuDevice(small, seed=SEED)), problem, 512,
            host_operands(problem))
        with pytest.raises(DeviceMemoryError) as live_err:
            scheduler._issue()
        with pytest.raises(DeviceMemoryError) as replay_err:
            program.replay(GpuDevice(small, seed=SEED))
        assert live_err.value.tile == replay_err.value.tile == 512
        assert str(live_err.value) == str(replay_err.value)


class TestRecorder:
    def test_program_holds_plain_values(self):
        _, program = live(custom_machine(),
                          gemm_problem(1024, 1024, 1024, np.float64), 256,
                          recording=True)
        plain = (int, float, str)
        assert all(isinstance(v, plain) for step in program.steps
                   for v in step)
        assert program.streams == ("pipe-h2d", "pipe-exec", "pipe-d2h")
        assert program.cache_hits > 0 and program.cache_misses > 0

    def test_detach_forgets_the_recorder(self):
        device = GpuDevice(custom_machine(), seed=SEED)
        recorder = ProgramRecorder(device)
        stream = device.create_stream("s")
        recorder.detach()
        assert device.recorder is None and stream._recorder is None

    def test_compute_mode_is_not_replayable(self):
        # Real data moves through payloads, which a program cannot hold.
        problem = gemm_problem(256, 256, 256, np.float64)
        arrays = [np.ones((256, 256)) for _ in range(3)]
        device = GpuDevice(custom_machine(), seed=SEED)
        recorder = ProgramRecorder(device)
        GemmTileScheduler(CublasContext(device), problem, 128,
                          host_operands(problem, arrays))._issue()
        recorder.detach()
        assert recorder.program(128) is None
