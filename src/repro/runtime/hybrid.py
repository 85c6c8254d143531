"""Host-assisted gemm (paper future work: "host-assisted execution").

The host CPU computes a column block of C directly from host memory —
no PCIe transfers at all for that block — while the GPU runs the
standard CoCoPeLia pipeline on the rest.  The split ratio is chosen by
the models: sweep candidate host fractions, predict the host block with
a flat CPU-rate model and the GPU shard with the DR model (per-shard
tile selection), and pick the fraction minimizing the predicted
makespan ``max(t_host, t_gpu)``.

On a transfer-bound machine the optimal host share exceeds the naive
``cpu_rate / (cpu_rate + gpu_rate)``, because offloading columns to the
CPU also removes their transfer cost — exactly the effect that makes
host assistance worthwhile in the first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.spec import GEMM
from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem, Loc, gemm_problem
from ..core.select import select_tile
from ..errors import BlasError, SchedulerError
from ..sim.machine import MachineConfig
from .offload import OffloadLibrary, bind_operands, host_operands, offload_result
from .result import RunResult
from .scheduler import GemmTileScheduler

#: Host-column candidates are multiples of this granularity.
HOST_COLUMN_GRANULARITY = 128


def host_gemm_time(machine: MachineConfig, m: int, n_host: int, k: int,
                   dtype) -> float:
    """Predicted CPU time for the host block (flat sustained rate)."""
    if n_host <= 0:
        return 0.0
    rate = machine.cpu_gemm_flops
    if np.dtype(dtype).itemsize == 4:
        rate *= 2.0
    return 2.0 * m * n_host * k / rate


@dataclass(frozen=True)
class HybridSplit:
    """A chosen host/GPU column split with its predictions."""

    n_host: int
    n_gpu: int
    tile: int
    predicted_host: float
    predicted_gpu: float

    @property
    def predicted(self) -> float:
        return max(self.predicted_host, self.predicted_gpu)

    @property
    def host_fraction(self) -> float:
        return self.n_host / (self.n_host + self.n_gpu)


def select_split(
    problem: CoCoProblem,
    machine: MachineConfig,
    models: MachineModels,
    max_host_fraction: float = 0.6,
    steps: int = 13,
) -> HybridSplit:
    """Model-driven host/GPU split for a gemm problem."""
    if problem.routine.name != "gemm":
        raise SchedulerError("host-assisted execution supports gemm only")
    m, n, k = problem.dims
    locs = {op.name: op.loc for op in problem.operands}
    best: Optional[HybridSplit] = None
    for i in range(steps):
        frac = max_host_fraction * i / (steps - 1)
        n_host = int(round(n * frac / HOST_COLUMN_GRANULARITY)
                     ) * HOST_COLUMN_GRANULARITY
        n_host = min(n_host, n - HOST_COLUMN_GRANULARITY)
        n_host = max(n_host, 0)
        n_gpu = n - n_host
        t_host = host_gemm_time(machine, m, n_host, k, problem.dtype)
        sub = gemm_problem(m, n_gpu, k, problem.dtype,
                           locs["A"], locs["B"], locs["C"])
        choice = select_tile(sub, models)
        candidate = HybridSplit(
            n_host=n_host, n_gpu=n_gpu, tile=choice.t_best,
            predicted_host=t_host, predicted_gpu=choice.predicted_time,
        )
        if best is None or candidate.predicted < best.predicted:
            best = candidate
    assert best is not None
    return best


class HybridCoCoPeLia(OffloadLibrary):
    """Host-assisted gemm: CPU block + GPU CoCoPeLia pipeline."""

    LIBRARY_NAME = "CoCoPeLia-Hybrid"

    def __init__(self, machine: MachineConfig,
                 models: Optional[MachineModels] = None,
                 seed: int = 61) -> None:
        super().__init__(machine, seed)
        self.models = models

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
        split: Optional[HybridSplit] = None,
    ) -> RunResult:
        """``C = alpha*A@B + beta*C`` split between host and GPU.

        Host assistance requires host-resident operands (the CPU block
        reads A/B and writes C in place); device-resident operands fall
        back to a pure-GPU split (``n_host = 0``).
        """
        problem, _ = bind_operands(GEMM, (m, n, k), (a, b, c), dtype,
                                   (loc_a, loc_b, loc_c))
        m, n, k = problem.dims
        dtype = problem.dtype
        all_host = all(op.loc is Loc.HOST for op in problem.operands)
        if split is None:
            if self.models is None:
                raise BlasError(
                    "host-assisted split selection requires deployed models"
                )
            if all_host:
                split = select_split(problem, self.machine, self.models)
            else:
                choice = select_tile(problem, self.models)
                split = HybridSplit(0, n, choice.t_best, 0.0,
                                    choice.predicted_time)
        if split.n_host > 0 and not all_host:
            raise BlasError(
                "host assistance needs host-resident operands"
            )
        # --- GPU shard ---
        device = self._next_device()
        gpu_problem = gemm_problem(m, split.n_gpu, k, dtype,
                                   loc_a, loc_b, loc_c)
        hosts = host_operands(gpu_problem, (
            a,
            np.ascontiguousarray(b[:, :split.n_gpu]) if b is not None
            else None,
            c[:, :split.n_gpu] if c is not None else None,
        ))
        sched = GemmTileScheduler(CublasContext(device), gpu_problem,
                                  split.tile, hosts, alpha=alpha, beta=beta)
        # The host block computes concurrently: model it as an event on
        # the same virtual clock (no engine contention with the GPU).
        host_time = host_gemm_time(self.machine, m, split.n_host, k, dtype)
        host_time *= device.noise.duration_factor()
        if split.n_host > 0:
            def compute_host_block() -> None:
                if a is not None:
                    b_host = b[:, split.n_gpu:]
                    c_view = c[:, split.n_gpu:]
                    dt = np.dtype(dtype).type
                    c_view[:, :] = (dt(alpha) * (a @ b_host)
                                    + dt(beta) * c_view)

            device.sim.schedule(host_time, compute_host_block)
        stats = sched.run()
        return offload_result(
            self.LIBRARY_NAME, problem, stats, split.tile, sched,
            predicted_seconds=split.predicted, model="dr+host",
            extra={"n_host": split.n_host, "n_gpu": split.n_gpu,
                   "host_seconds": host_time},
        )
