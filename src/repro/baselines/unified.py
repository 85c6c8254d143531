"""Unified-memory daxpy baseline with prefetching.

The paper compares CoCoPeLia daxpy against "a unified memory
implementation with prefetching" (Section V-E).  No CUDA unified memory
exists in this substrate, so we model its two defining performance
characteristics, following the literature the paper cites on unified
memory overheads [3]-[5]:

* page migration moves data at a *reduced* effective bandwidth (fault
  handling, page-sized granularity) — the machine config's
  ``um_bandwidth_factor``;
* ``cudaMemPrefetchAsync`` hides part of the migration behind
  execution — migrations are chunked at prefetch granularity and
  pipelined against the kernel chunks, like a stream pipeline on the
  degraded link.

Implementation: run the chunked axpy pipeline on a shadow machine whose
link bandwidths are scaled by ``um_bandwidth_factor``, with a fixed
page-prefetch chunk size.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.spec import AXPY
from ..core.params import Loc
from ..runtime.offload import OffloadLibrary, bind_operands
from ..runtime.result import RunResult
from ..runtime.scheduler import AxpyTileScheduler
from ..sim.link import LinkDirectionConfig
from ..sim.machine import MachineConfig

#: Elements per prefetch chunk (2 MiB pages * 16, a typical
#: cudaMemPrefetchAsync granularity for large vectors of doubles).
PREFETCH_CHUNK_ELEMS = 1 << 22


def _degraded_machine(machine: MachineConfig) -> MachineConfig:
    """The machine as seen through unified-memory page migration."""
    factor = machine.um_bandwidth_factor

    def scale(cfg: LinkDirectionConfig) -> LinkDirectionConfig:
        return LinkDirectionConfig(
            latency=cfg.latency / factor,  # fault handling adds latency
            bandwidth=cfg.bandwidth * factor,
            bid_slowdown=cfg.bid_slowdown,
        )

    return replace(machine, h2d=scale(machine.h2d), d2h=scale(machine.d2h),
                   name=f"{machine.name}-um")


class UnifiedMemoryLibrary(OffloadLibrary):
    """Unified-memory-with-prefetch baseline (daxpy only)."""

    LIBRARY_NAME = "UnifiedMem"

    def __init__(self, machine: MachineConfig, seed: int = 37) -> None:
        super().__init__(machine, seed)
        self._um_machine = _degraded_machine(machine)

    def axpy(
        self,
        n: Optional[int] = None,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        dtype=np.float64,
        loc_x: Loc = Loc.HOST,
        loc_y: Loc = Loc.HOST,
        alpha: float = 1.0,
        tile_size: Optional[int] = None,
    ) -> RunResult:
        """``y = alpha*x + y`` through simulated unified memory.

        ``tile_size`` overrides the prefetch chunk (elements).
        """
        problem, hosts = bind_operands(AXPY, (n,), (x, y), dtype,
                                       (loc_x, loc_y))
        chunk = min(tile_size if tile_size is not None else
                    PREFETCH_CHUNK_ELEMS, problem.dims[0])
        ctx = CublasContext(self._next_device(self._um_machine))
        return self._run(AxpyTileScheduler(ctx, problem, chunk, hosts,
                                           alpha=alpha))
