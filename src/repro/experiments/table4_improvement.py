"""Table IV: mean percentile improvement of CoCoPeLia over the best
competing library, split into full- and partial-offload cases.

For gemm the competitors are the cuBLASXt-like library (best of its
tile sweep) and the BLASX-like library; for daxpy the competitor is the
unified-memory-with-prefetch implementation, as in the paper's
Section V-E.  Improvements are geometric means of per-problem time
ratios, reported as percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import BlasXLibrary, CublasXtLibrary, UnifiedMemoryLibrary
from ..core.params import CoCoProblem
from ..parallel import pmap, task_seed
from ..runtime import CoCoPeLiaLibrary
from ..sim.machine import MachineConfig
from . import workloads
from .fig7_performance import XT_SWEEP
from .harness import (models_for, prime_worker, run_axpy, run_gemm,
                      testbeds, warm_payload)
from .metrics import geomean_improvement_pct, speedup
from .report import format_table

#: Root of the per-problem seed derivation (distinct from fig7's so
#: the two sweeps never share noise streams).
_SEED_ROOT = 7004


@dataclass
class Table4Cell:
    machine: str
    routine: str
    offload: str  # 'full' | 'partial'
    improvement_pct: float
    n_problems: int


@dataclass
class Table4Result:
    scale: str
    cells: List[Table4Cell] = field(default_factory=list)

    def get(self, machine: str, routine: str, offload: str) -> Table4Cell:
        for c in self.cells:
            if (c.machine, c.routine, c.offload) == (machine, routine, offload):
                return c
        raise KeyError((machine, routine, offload))


def _best_competitor_gemm(problem: CoCoProblem, xt: CublasXtLibrary,
                          bx: BlasXLibrary, xt_tiles: Sequence[int]) -> float:
    best = run_gemm(bx, problem).seconds
    for t in xt_tiles:
        if t > problem.min_dim():
            continue
        best = min(best, run_gemm(xt, problem, tile_size=t).seconds)
    return best


def _table4_task(machine: MachineConfig, scale: str, problem: CoCoProblem,
                 xt_tiles: Sequence[int], seed_base: int
                 ) -> Tuple[float, float]:
    """(t_CoCoPeLia, t_best_competitor) for one problem, self-contained.

    gemm problems compete against the best of cuBLASXt's sweep and
    BLASX; axpy problems against unified memory, as in Section V-E.
    Libraries are rebuilt per task with grid-derived seeds, so the
    measurement is execution-order independent.
    """
    models = models_for(machine, scale)
    cc = CoCoPeLiaLibrary(machine, models, seed=task_seed(seed_base, "cc"))
    if problem.routine.name == "axpy":
        um = UnifiedMemoryLibrary(machine, seed=task_seed(seed_base, "um"))
        return run_axpy(cc, problem).seconds, run_axpy(um, problem).seconds
    xt = CublasXtLibrary(machine, seed=task_seed(seed_base, "xt"))
    bx = BlasXLibrary(machine, seed=task_seed(seed_base, "bx"))
    return (run_gemm(cc, problem).seconds,
            _best_competitor_gemm(problem, xt, bx, xt_tiles))


def run(scale: str = "quick",
        machines: Optional[Sequence[MachineConfig]] = None,
        dtypes: Sequence = (np.float64, np.float32),
        parallel=None) -> Table4Result:
    machines = list(machines) if machines is not None else testbeds()
    result = Table4Result(scale=scale)
    xt_tiles = XT_SWEEP[scale]
    tasks = []
    meta: List[Tuple[str, str, str]] = []  # (machine, routine, bucket)
    for machine in machines:
        for dtype in dtypes:
            prefix = "d" if np.dtype(dtype).itemsize == 8 else "s"
            for i, problem in enumerate(
                    workloads.gemm_evaluation_set(scale, dtype)):
                seed_base = task_seed(_SEED_ROOT, machine.name,
                                      f"{prefix}gemm", i)
                tasks.append((machine, scale, problem, xt_tiles,
                              seed_base))
                meta.append((machine.name, f"{prefix}gemm",
                             "full" if workloads.is_full_offload(problem)
                             else "partial"))
        for i, problem in enumerate(workloads.daxpy_evaluation_set(scale)):
            seed_base = task_seed(_SEED_ROOT, machine.name, "daxpy", i)
            tasks.append((machine, scale, problem, xt_tiles, seed_base))
            meta.append((machine.name, "daxpy",
                         "full" if workloads.is_full_offload(problem)
                         else "partial"))
    pooled = isinstance(parallel, int) and parallel > 1
    payload = warm_payload(machines, scale) if pooled else []
    times = pmap(_table4_task, tasks, workers=parallel,
                 initializer=prime_worker, initargs=(payload,))

    # Aggregate per (machine, routine) in submission order, preserving
    # the cell ordering the serial implementation produced.
    ratios: Dict[Tuple[str, str], Dict[str, List[float]]] = {}
    for (machine_name, routine, bucket), (t_cc, t_other) in zip(meta, times):
        cell = ratios.setdefault((machine_name, routine),
                                 {"full": [], "partial": []})
        cell[bucket].append(speedup(t_other, t_cc))
    for (machine_name, routine), buckets in ratios.items():
        for offload, vals in buckets.items():
            if not vals:
                continue
            result.cells.append(Table4Cell(
                machine=machine_name,
                routine=routine,
                offload=offload,
                improvement_pct=geomean_improvement_pct(vals),
                n_problems=len(vals),
            ))
    return result


def render(result: Table4Result) -> str:
    rows = [
        [c.machine, c.routine, c.offload, round(c.improvement_pct, 1),
         c.n_problems]
        for c in result.cells
    ]
    return format_table(
        ["machine", "routine", "offload", "improvement %", "n"],
        rows,
        title="Table IV: geomean improvement of CoCoPeLia over the best "
              "competitor",
    )
