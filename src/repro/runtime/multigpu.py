"""Multi-GPU CoCoPeLia gemm (paper future work: "multi-GPU ... with the
vision of providing a portable auto-tuned heterogeneous BLAS library").

Architecture: ``G`` simulated GPUs share one virtual clock; each has
its own PCIe link and engines (dedicated lanes, as on multi-socket
nodes — host-memory contention between GPUs is not modeled).  The
output matrix is split into ``G`` column blocks; GPU ``g`` fetches the
full A over its own PCIe link, plus its B and C column blocks, and runs
the standard CoCoPeLia reuse pipeline on its shard with a tile chosen
for that shard.  The shards are independent — no peer links, no shared
tiles — and the makespan is the slowest shard's finish time.

Modeling composes directly: each shard is itself a gemm problem
``(M, N/G, K)``, so the multi-GPU prediction is the max of the DR model
over the shards — tile selection happens per shard with the single-GPU
machinery, exactly the portability story the paper closes on.
"""

from __future__ import annotations
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.spec import GEMM
from ..core.distributed import shard_columns
from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem, Loc, gemm_problem
from ..core.select import select_tile
from ..errors import BlasError, SchedulerError
from ..sim.device import GpuDevice
from ..sim.engine import Simulator
from ..sim.machine import MachineConfig
from .offload import OffloadLibrary, bind_operands, host_operands, offload_result
from .result import RunResult
from .scheduler import GemmTileScheduler, ScheduleStats


def shard_problem(problem: CoCoProblem, width: int) -> CoCoProblem:
    """The gemm sub-problem one GPU solves: (M, width, K)."""
    m, _, k = problem.dims
    locs = {op.name: op.loc for op in problem.operands}
    return gemm_problem(m, width, k, problem.dtype,
                        locs["A"], locs["B"], locs["C"])


def predict_multi_gpu(
    problem: CoCoProblem,
    n_gpus: int,
    models: MachineModels,
    model: str = "dr",
) -> float:
    """Predicted multi-GPU makespan: max over shard predictions, with
    per-shard tile selection."""
    worst = 0.0
    for _off, width in shard_columns(problem.dims[1], n_gpus):
        sub = shard_problem(problem, width)
        choice = select_tile(sub, models, model=model)
        worst = max(worst, choice.predicted_time)
    return worst


@dataclass
class MultiGpuResult:
    """Per-shard results plus the overall makespan."""

    seconds: float
    shards: List[RunResult]
    n_gpus: int

    @property
    def flops(self) -> float:
        return sum(s.flops for s in self.shards)

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9

    @property
    def h2d_bytes(self) -> int:
        return sum(s.h2d_bytes for s in self.shards)


class MultiGpuCoCoPeLia(OffloadLibrary):
    """Column-block multi-GPU gemm over homogeneous simulated GPUs."""

    LIBRARY_NAME = "CoCoPeLia-MG"

    def __init__(
        self,
        machine: MachineConfig,
        n_gpus: int,
        models: Optional[MachineModels] = None,
        seed: int = 53,
        trace: bool = False,
        metrics=None,
    ) -> None:
        if n_gpus <= 0:
            raise SchedulerError(f"need at least one GPU, got {n_gpus}")
        super().__init__(machine, seed)
        self.n_gpus = n_gpus
        self.models = models
        #: Record per-device timelines; the most recent call's streams
        #: are exposed as ``last_traces`` (one recorder per shard, all
        #: on the shared clock, so they merge into one timeline).
        self.trace = trace
        self.last_traces: Optional[List] = None
        #: duck-typed MetricsRegistry (repro.obs.metrics), shared by
        #: every shard device (counters aggregate across shards)
        self.metrics = metrics

    def gemm(
        self,
        m: Optional[int] = None,
        n: Optional[int] = None,
        k: Optional[int] = None,
        a: Optional[np.ndarray] = None,
        b: Optional[np.ndarray] = None,
        c: Optional[np.ndarray] = None,
        dtype=np.float64,
        loc_a: Loc = Loc.HOST,
        loc_b: Loc = Loc.HOST,
        loc_c: Loc = Loc.HOST,
        alpha: float = 1.0,
        beta: float = 1.0,
        tile_size: Optional[int] = None,
    ) -> MultiGpuResult:
        """``C = alpha*A@B + beta*C`` across ``n_gpus`` GPUs."""
        problem, _ = bind_operands(GEMM, (m, n, k), (a, b, c), dtype,
                                   (loc_a, loc_b, loc_c))
        n = problem.dims[1]
        shards = shard_columns(n, self.n_gpus)
        self._calls += 1
        if self.metrics is not None:
            self.metrics.counter("multigpu.calls").inc()
            self.metrics.counter("multigpu.shards").inc(len(shards))
        sim = Simulator()
        devices = [
            GpuDevice(self.machine, sim=sim,
                      seed=self._seed + 100 * self._calls + g,
                      trace=self.trace, metrics=self.metrics)
            for g in range(len(shards))
        ]
        if self.trace:
            self.last_traces = [dev.trace for dev in devices]

        schedulers: List[GemmTileScheduler] = []
        for g, (off, width) in enumerate(shards):
            sub = shard_problem(problem, width)
            t = tile_size
            if t is None:
                if self.models is None:
                    raise BlasError(
                        "automatic tile selection requires deployed models"
                    )
                t = select_tile(sub, self.models).t_best
            hosts = host_operands(sub, (
                a,
                np.ascontiguousarray(b[:, off:off + width]) if b is not None
                else None,
                c[:, off:off + width] if c is not None else None,
            ))
            ctx = CublasContext(devices[g])
            schedulers.append(GemmTileScheduler(ctx, sub, t, hosts,
                                                alpha=alpha, beta=beta))
        # Issue all shards, then run the shared clock once.
        t0 = sim.now
        for sched in schedulers:
            sched._issue()
        sim.run()
        end = sim.now
        results = []
        for (off, width), sched in zip(shards, schedulers):
            # Every device is fresh, so its counters are this call's.
            stats = ScheduleStats(end - t0, *sched._snapshot())
            if c is not None and loc_c is Loc.DEVICE:
                c[:, off:off + width] = sched.read_back_device_result()
            sched.release()
            results.append(offload_result(self.LIBRARY_NAME, sched.problem,
                                          stats, sched.t))
        return MultiGpuResult(seconds=end - t0, shards=results,
                              n_gpus=len(shards))
