"""Fig. 7: end-to-end library comparison on three scenarios.

CoCoPeLia (runtime tile selection) vs the cuBLASXt-like library (best
of a near-exhaustive tile sweep, the paper's generous setup) vs the
BLASX-like library (static ``T = 2048``), for dgemm and sgemm on both
testbeds, across the paper's three highlighted scenarios:

* ``full``      — all operands on the host (full offload, red in paper);
* ``c_only``    — A and B device-resident, only C on the host (blue);
* ``fat_thin``  — fat-by-thin full offload (green, transfer-heavy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import BlasXLibrary, CublasXtLibrary
from ..core.params import CoCoProblem, Loc, gemm_problem
from ..parallel import pmap, task_seed
from ..runtime import CoCoPeLiaLibrary
from ..sim.machine import MachineConfig
from . import workloads
from .harness import (models_for, prime_worker, run_gemm, testbeds,
                      warm_payload)
from .report import format_table

SCENARIOS = ("full", "c_only", "fat_thin")

#: Root of the per-problem seed derivation; each task's library seeds
#: hang off (root, machine, routine, scenario, problem index).
_SEED_ROOT = 7001

#: Tile sizes tried for cuBLASXt (the paper tests 10 and keeps the best).
XT_SWEEP = {"paper": tuple(range(1024, 10 * 1024 + 1, 1024)),
            "quick": (512, 1024, 1536, 2048, 3072),
            "tiny": (256, 512)}


def _scenario_problems(scenario: str, scale: str, dtype) -> List[CoCoProblem]:
    if scenario == "full":
        return [gemm_problem(d, d, d, dtype)
                for d in workloads._GEMM_SQUARES[scale]]
    if scenario == "c_only":
        return [
            gemm_problem(d, d, d, dtype, Loc.DEVICE, Loc.DEVICE, Loc.HOST)
            for d in workloads._GEMM_SQUARES[scale]
        ]
    if scenario == "fat_thin":
        problems = []
        for edge in workloads._SHAPE_VOLUME_EDGE[scale]:
            for ratio in workloads._SHAPE_RATIOS[scale]:
                m, n, k = workloads.shape_dims(edge, ratio, fat_by_thin=True)
                problems.append(gemm_problem(m, n, k, dtype))
        return problems
    raise ValueError(f"unknown scenario {scenario!r}")


@dataclass
class Fig7Point:
    problem: str
    gflops: Dict[str, float] = field(default_factory=dict)
    tiles: Dict[str, int] = field(default_factory=dict)


@dataclass
class Fig7Result:
    scale: str
    #: (machine, routine, scenario) -> points
    points: Dict[Tuple[str, str, str], List[Fig7Point]] = field(
        default_factory=dict)


def _fig7_task(machine: MachineConfig, scale: str, problem: CoCoProblem,
               xt_tiles: Tuple[int, ...], seed_base: int) -> Fig7Point:
    """Measure one problem under all three libraries, self-contained.

    Libraries are rebuilt per task with seeds derived from the task's
    grid coordinates (never from a shared call counter), so the point
    is identical wherever and whenever it runs.
    """
    models = models_for(machine, scale)
    cc = CoCoPeLiaLibrary(machine, models, seed=task_seed(seed_base, "cc"))
    xt = CublasXtLibrary(machine, seed=task_seed(seed_base, "xt"))
    bx = BlasXLibrary(machine, seed=task_seed(seed_base, "bx"))
    point = Fig7Point(problem=problem.describe())
    r_cc = run_gemm(cc, problem)
    point.gflops["CoCoPeLia"] = r_cc.gflops
    point.tiles["CoCoPeLia"] = r_cc.tile_size
    best_xt = None
    for t in xt_tiles:
        if t > problem.min_dim():
            continue
        r = run_gemm(xt, problem, tile_size=t)
        if best_xt is None or r.seconds < best_xt.seconds:
            best_xt = r
    if best_xt is None:
        best_xt = run_gemm(xt, problem, tile_size=problem.min_dim())
    point.gflops["cuBLASXt"] = best_xt.gflops
    point.tiles["cuBLASXt"] = best_xt.tile_size
    r_bx = run_gemm(bx, problem)
    point.gflops["BLASX"] = r_bx.gflops
    point.tiles["BLASX"] = r_bx.tile_size
    return point


def run(scale: str = "quick",
        machines: Optional[Sequence[MachineConfig]] = None,
        dtypes: Sequence = (np.float64, np.float32),
        parallel=None) -> Fig7Result:
    machines = list(machines) if machines is not None else testbeds()
    result = Fig7Result(scale=scale)
    xt_tiles = XT_SWEEP[scale]
    tasks = []
    keys: List[Tuple[str, str, str]] = []
    for machine in machines:
        for dtype in dtypes:
            prefix = "d" if np.dtype(dtype).itemsize == 8 else "s"
            routine = f"{prefix}gemm"
            for scenario in SCENARIOS:
                for i, problem in enumerate(
                        _scenario_problems(scenario, scale, dtype)):
                    seed_base = task_seed(_SEED_ROOT, machine.name,
                                          routine, scenario, i)
                    tasks.append((machine, scale, problem, xt_tiles,
                                  seed_base))
                    keys.append((machine.name, routine, scenario))
    pooled = isinstance(parallel, int) and parallel > 1
    payload = warm_payload(machines, scale) if pooled else []
    points = pmap(_fig7_task, tasks, workers=parallel,
                  initializer=prime_worker, initargs=(payload,))
    for key, point in zip(keys, points):
        result.points.setdefault(key, []).append(point)
    return result


def render(result: Fig7Result) -> str:
    blocks = []
    for (machine, routine, scenario), pts in sorted(result.points.items()):
        rows = []
        for p in pts:
            rows.append([
                p.problem,
                f"{p.gflops['CoCoPeLia']:.0f} (T={p.tiles['CoCoPeLia']})",
                f"{p.gflops['cuBLASXt']:.0f} (T={p.tiles['cuBLASXt']})",
                f"{p.gflops['BLASX']:.0f} (T={p.tiles['BLASX']})",
                max(p.gflops, key=p.gflops.get),
            ])
        blocks.append(format_table(
            ["problem", "CoCoPeLia GF/s", "cuBLASXt(best-T) GF/s",
             "BLASX GF/s", "winner"],
            rows,
            title=f"Fig. 7 [{machine} / {routine} / {scenario}]",
        ))
    return "\n\n".join(blocks)
