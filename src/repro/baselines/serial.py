"""Serial (no-overlap) offload baseline.

The naive offload pattern prior work measures against: transfer all
inputs host-to-device, run the routine as one kernel, transfer the
output back — no pipelining at all.  Useful as a sanity floor in tests
("overlap must beat serial") and as the reference point for ablations.

A serial offload is the tile pipeline with a single tile per operand
(``T`` = the largest dim): every transfer and the one kernel then form
one dependency chain, exactly as on a single stream, and the device
counts the traffic as for every other library.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.spec import AXPY, GEMM
from ..core.params import Loc
from ..runtime.offload import OffloadLibrary, bind_operands
from ..runtime.result import RunResult
from ..runtime.scheduler import AxpyTileScheduler, GemmTileScheduler
from ..sim.machine import MachineConfig


class SerialOffloadLibrary(OffloadLibrary):
    """One-shot transfer-compute-transfer offload (no concurrency)."""

    LIBRARY_NAME = "Serial"

    def __init__(self, machine: MachineConfig, seed: int = 41) -> None:
        super().__init__(machine, seed)

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
        """``C = alpha*A@B + beta*C`` with serial full-matrix offload."""
        problem, hosts = bind_operands(GEMM, (m, n, k), (a, b, c), dtype,
                                       (loc_a, loc_b, loc_c))
        ctx = CublasContext(self._next_device())
        return self._run(GemmTileScheduler(ctx, problem, max(problem.dims),
                                           hosts, alpha=alpha, beta=beta))

    def axpy(
        self,
        n: Optional[int] = None,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        dtype=np.float64,
        loc_x: Loc = Loc.HOST,
        loc_y: Loc = Loc.HOST,
        alpha: float = 1.0,
    ) -> RunResult:
        """``y = alpha*x + y`` with serial full-vector offload."""
        problem, hosts = bind_operands(AXPY, (n,), (x, y), dtype,
                                       (loc_x, loc_y))
        ctx = CublasContext(self._next_device())
        return self._run(AxpyTileScheduler(ctx, problem, problem.dims[0],
                                           hosts, alpha=alpha))
