"""BLASX-like baseline: fetch-once tile reuse, static tiling size.

Per the paper (Sections II-B.2 and V-E), BLASX improves on cuBLASXt
with a runtime tile-management engine that avoids re-transfers (the
same fetch-once reuse CoCoPeLia's scheduler implements), but its tiling
size is *static*, selected at compile time — the default the paper uses
is ``T = 2048``.  The performance gap between this baseline and
CoCoPeLia therefore isolates exactly the paper's contribution:
problem-aware tiling-size selection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.spec import GEMM
from ..core.params import Loc
from ..runtime.offload import OffloadLibrary, bind_operands
from ..runtime.result import RunResult
from ..runtime.scheduler import GemmTileScheduler
from ..sim.machine import MachineConfig

#: BLASX's compile-time default tiling size.
STATIC_TILE = 2048


class BlasXLibrary(OffloadLibrary):
    """Public BLASX-like entry point (static ``T``, tile reuse)."""

    LIBRARY_NAME = "BLASX"

    def __init__(self, machine: MachineConfig, tile_size: int = STATIC_TILE,
                 seed: int = 29) -> None:
        super().__init__(machine, seed)
        self.tile_size = tile_size

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
    ) -> RunResult:
        """``C = alpha*A@B + beta*C`` with BLASX-style reuse, static T."""
        problem, hosts = bind_operands(GEMM, (m, n, k), (a, b, c), dtype,
                                       (loc_a, loc_b, loc_c))
        tile = min(self.tile_size, problem.min_dim())
        ctx = CublasContext(self._next_device())
        return self._run(GemmTileScheduler(ctx, problem, tile, hosts,
                                           alpha=alpha, beta=beta))
