"""Fig. 2: the 3-way-concurrency pipeline with data reuse, visualized.

Runs a small tiled gemm through the CoCoPeLia scheduler on a traced
device and renders the per-engine timeline: initially transfer-bound
(every subkernel waits on h2d), then execution-bound once tiles are
resident — exactly the transition the paper's Fig. 2 illustrates and
the DR model's ``k_in`` term captures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..backend.cublas import CublasContext
from ..core.params import gemm_problem
from ..obs.profiler import pair_overlap, profile_trace
from ..runtime.offload import host_operands
from ..runtime.scheduler import GemmTileScheduler
from ..sim.device import GpuDevice
from ..sim.machine import MachineConfig, get_testbed
from ..sim.trace import render_timeline


@dataclass
class Fig2Result:
    machine: str
    size: int
    tile: int
    seconds: float
    h2d_busy: float
    exec_busy: float
    d2h_busy: float
    h2d_exec_overlap: float
    timeline: str


def run(scale: str = "quick",
        machine: Optional[MachineConfig] = None,
        size: Optional[int] = None,
        tile: Optional[int] = None) -> Fig2Result:
    machine = machine if machine is not None else get_testbed("testbed_ii")
    if size is None:
        size = 1024 if scale == "tiny" else 4096
    if tile is None:
        tile = size // 8
    device = GpuDevice(machine, trace=True)
    ctx = CublasContext(device)
    problem = gemm_problem(size, size, size)
    hosts = host_operands(problem)
    sched = GemmTileScheduler(ctx, problem, tile, hosts)
    stats = sched.run()
    sched.release()
    trace = device.trace
    assert trace is not None
    report = profile_trace(trace)
    return Fig2Result(
        machine=machine.name,
        size=size,
        tile=tile,
        seconds=stats.seconds,
        h2d_busy=report.engines["h2d"].busy_time,
        exec_busy=report.engines["exec"].busy_time,
        d2h_busy=report.engines["d2h"].busy_time,
        h2d_exec_overlap=pair_overlap(report, "h2d", "exec"),
        timeline=render_timeline(trace, width=100,
                                 engines=["h2d", "exec", "d2h"]),
    )


def render(result: Fig2Result) -> str:
    pct = 100.0 * result.h2d_exec_overlap / max(result.exec_busy, 1e-12)
    return (
        f"Fig. 2: reuse pipeline, {result.machine}, dgemm "
        f"{result.size}^3, T={result.tile}\n"
        f"{result.timeline}\n"
        f"makespan {result.seconds * 1e3:.2f} ms | engine busy: "
        f"h2d {result.h2d_busy * 1e3:.2f} ms, exec "
        f"{result.exec_busy * 1e3:.2f} ms, d2h {result.d2h_busy * 1e3:.2f} ms"
        f" | h2d/exec overlap {pct:.0f}% of exec time"
    )
