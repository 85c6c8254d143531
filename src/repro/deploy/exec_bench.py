"""Execution-time micro-benchmarks for tiled kernels (Section IV-A).

For each routine and dtype, measure the kernel execution time of
square sub-problems (``D1 = D2 = D3 = T`` for gemm; ``N = T`` for axpy)
over a sweep of tile sizes, and store them in an
:class:`~repro.core.exec_model.ExecLookup` for runtime value lookups.

Paper sweeps: gemm T = 256, 512, ..., 16384 (64 sizes); daxpy
N = 2^18, 2*2^18, ..., 2^26 (256 sizes).  Measurements repeat until the
95% CI of the mean is within 5% of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..backend.cublas import CublasContext
from ..core.exec_model import ExecLookup
from ..core.params import prefix_for
from ..errors import DeploymentError
from ..parallel import task_seed
from ..sim.device import GpuDevice
from ..sim.machine import MachineConfig
from .regression import measure_until_stable


@dataclass(frozen=True)
class ExecBenchConfig:
    """Knobs for the kernel-time benchmark campaign."""

    #: gemm tile sizes; paper: 256*i for i in 1..64.
    gemm_tiles: Tuple[int, ...] = tuple(256 * i for i in range(1, 65))
    #: axpy chunk lengths; paper: 2^18 * i for i in 1..256.
    axpy_tiles: Tuple[int, ...] = tuple((1 << 18) * i for i in range(1, 257))
    #: gemv square tile edges (routine extension; not in the paper's
    #: deployed set but supported by its per-level methodology).
    gemv_tiles: Tuple[int, ...] = tuple(256 * i for i in range(1, 65))
    rel_half_width: float = 0.05
    confidence: float = 0.95
    min_reps: int = 5
    max_reps: int = 200

    @classmethod
    def quick(cls) -> "ExecBenchConfig":
        """A reduced sweep for tests and fast benchmarks."""
        return cls(
            gemm_tiles=tuple(256 * i for i in (1, 2, 3, 4, 6, 8, 12, 16)),
            axpy_tiles=tuple((1 << 18) * i for i in (1, 2, 4, 8, 16, 32, 64)),
            gemv_tiles=tuple(256 * i for i in (1, 2, 4, 8, 16, 24, 32)),
            min_reps=3,
            max_reps=60,
        )


def _timed(ctx: CublasContext, kernel: str, shapes, dtype, size: int
           ) -> float:
    """Allocate tiles of ``shapes``, run one ``kernel`` launch on them
    and free them; the launch's simulated duration."""
    device = ctx.device
    tiles = [ctx.alloc(shape, dtype) for shape in shapes]
    stream = device.create_stream()
    t0 = device.sim.now
    launch = getattr(ctx, f"{kernel}_async")
    launch(*tiles, stream, tag=f"bench-{kernel}{size}")
    stream.synchronize()
    elapsed = device.sim.now - t0
    for tile in tiles:
        device.free(tile)
    return elapsed


#: routine -> (the config's tile sizes, the kernel timed, its operand
#: shapes for tile size ``t``).  The tiled syrk executes its subkernels
#: as transb gemm tiles, so its t_GPU^T is the gemm tile time measured
#: the same way.
_SWEEPS = {
    "gemm": ("gemm_tiles", "gemm", lambda t: ((t, t),) * 3),
    "syrk": ("gemm_tiles", "gemm", lambda t: ((t, t),) * 3),
    "gemv": ("gemv_tiles", "gemv", lambda t: ((t, t), (t,), (t,))),
    "axpy": ("axpy_tiles", "axpy", lambda t: ((t,), (t,))),
}


def _sweep(routine: str):
    """The :data:`_SWEEPS` entry of one routine; raises if unsupported."""
    try:
        return _SWEEPS[routine]
    except KeyError:
        raise DeploymentError(
            f"no execution benchmark defined for routine {routine!r}"
        ) from None


def _exec_point_task(machine: MachineConfig, routine: str, dtype, t: int,
                     cfg: ExecBenchConfig, seed: int) -> float:
    """Measure one tile size on a fresh, pre-seeded device/context."""
    _, kernel, shapes = _sweep(routine)
    ctx = CublasContext(GpuDevice(machine, seed=seed))
    mean, _ = measure_until_stable(
        lambda: _timed(ctx, kernel, shapes(t), dtype, t),
        rel_half_width=cfg.rel_half_width,
        confidence=cfg.confidence,
        min_reps=cfg.min_reps,
        max_reps=cfg.max_reps,
    )
    return mean


def bench_exec_table(
    machine: MachineConfig,
    routine: str,
    dtype,
    cfg: ExecBenchConfig = ExecBenchConfig(),
    seed: int = 4321,
) -> ExecLookup:
    """Build the ``t_GPU^T`` lookup table for one (routine, dtype).

    Each tile size is measured on its own freshly seeded device (one
    independent task per grid point), in tile order.
    """
    routine = routine.lower()
    tiles = getattr(cfg, _sweep(routine)[0])
    lookup = ExecLookup(routine, prefix_for(dtype))
    for t in tiles:
        lookup.add(t, _exec_point_task(machine, routine, dtype, t, cfg,
                                       task_seed(seed, routine, t)))
    return lookup
