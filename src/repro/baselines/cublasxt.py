"""cuBLASXt-like baseline: streamed tiled gemm with no data reuse.

Mirrors the behaviour the paper (and the BLASX paper it cites [8])
attributes to cuBLASXt: every subkernel ``(i, j, l)`` is dispatched
round-robin to a fixed set of stream pipelines, and each subkernel
transfers *all* its host-resident tiles — A and B are re-fetched every
time, and the C tile round-trips (h2d before the kernel, d2h after)
on every inner-dimension step, serialized per output tile so the
accumulation stays correct.  Double-buffered slots per worker let
transfers overlap kernels.  The tiling size is a user parameter
(cuBLASXt's extra BLAS argument).

This is exactly the no-reuse transfer structure the BTS model (Eq. 4)
assumes, which is why the paper validates that model against cuBLASXt.
Device-resident operands are used in place (cuBLASXt accepts device
pointers), so the get/set flags still shape the traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend.cublas import CublasContext, MatrixView, Tile
from ..blas.spec import GEMM
from ..core.params import CoCoProblem, Loc
from ..errors import SchedulerError
from ..runtime.offload import OffloadLibrary, bind_operands
from ..runtime.result import RunResult
from ..runtime.scheduler import _PipelineBase
from ..runtime.tiles import Grid2D
from ..sim.machine import MachineConfig
from ..sim.memory import HostArray
from ..sim.stream import CudaEvent

#: cuBLASXt's default tiling size (the paper tunes around it).
DEFAULT_TILE = 4096


class _Slot:
    """One persistent device tile with event-guarded reuse."""

    def __init__(self, ctx: CublasContext, shape: Tuple[int, int], dtype,
                 with_data: bool, name: str) -> None:
        self.tile = ctx.alloc(shape, dtype, with_data=with_data, name=name)
        #: Completion of the last operation that used this slot; the
        #: next overwrite must wait for it.
        self.guard: Optional[CudaEvent] = None


class _Worker:
    """One round-robin pipeline: its own streams and buffer slots.

    Slots are sized to the clamped tile shapes (a tile never exceeds
    the operand it comes from), double-buffered per operand.
    """

    def __init__(self, ctx: CublasContext, wid: int, dims, t: int, dtype,
                 with_data: bool) -> None:
        device = ctx.device
        m, n, k = dims
        self.s_h2d = device.create_stream(f"xt{wid}-h2d")
        self.s_exec = device.create_stream(f"xt{wid}-exec")
        self.s_d2h = device.create_stream(f"xt{wid}-d2h")

        def mk(name, rows, cols):
            return _Slot(ctx, (rows, cols), dtype, with_data,
                         f"w{wid}-{name}")

        self.a_slots = [mk(f"a{i}", min(t, m), min(t, k)) for i in range(2)]
        self.b_slots = [mk(f"b{i}", min(t, k), min(t, n)) for i in range(2)]
        self.c_slots = [mk(f"c{i}", min(t, m), min(t, n)) for i in range(2)]
        self.tasks = 0

    @staticmethod
    def pool_bytes(dims, t: int, elem_size: int) -> int:
        """Device bytes one worker's six slots occupy."""
        m, n, k = dims
        per_set = (min(t, m) * min(t, k) + min(t, k) * min(t, n)
                   + min(t, m) * min(t, n))
        return 2 * per_set * elem_size

    def all_slots(self) -> List[_Slot]:
        return self.a_slots + self.b_slots + self.c_slots


class CublasXtScheduler(_PipelineBase):
    """The subkernel pipeline behind :class:`CublasXtLibrary`.

    Host-resident tiles are staged through the workers' slots on every
    use; device-resident operands are used in place, through the shared
    tile store (allocated on first use and shared across subkernels).
    """

    ROUTINE = "gemm"

    def __init__(
        self,
        ctx: CublasContext,
        problem: CoCoProblem,
        t: int,
        hosts: Dict[str, HostArray],
        alpha: float = 1.0,
        beta: float = 1.0,
        nstreams: int = 4,
    ) -> None:
        super().__init__(ctx, problem, hosts)
        if nstreams < 1:
            raise SchedulerError(f"need at least one worker, got {nstreams}")
        m, n, k = problem.dims
        self.t = min(t, max(m, n, k))
        self.alpha = alpha
        self.beta = beta
        self.grid_a = Grid2D(m, k, self.t)
        self.grid_b = Grid2D(k, n, self.t)
        self.grid_c = Grid2D(m, n, self.t)
        with_data = any(h.has_data for h in hosts.values())
        n_tasks = self.grid_c.n_tiles * self.grid_a.col_tiles
        # Workers are capped by the device memory the slot pools need
        # (real cuBLASXt sizes its stream pool the same way); at least
        # one worker is always attempted — a genuinely oversized tile
        # then OOMs, as it would on hardware.  Device-resident operands
        # are tiled in place later, so their bytes are spoken for.
        pool = _Worker.pool_bytes(problem.dims, self.t, problem.elem_size)
        resident = sum(op.elements() for op in problem.operands
                       if op.loc is Loc.DEVICE) * problem.elem_size
        mem_free = ctx.device.mem_free - resident
        mem_cap = max(int(mem_free * 0.9) // max(pool, 1), 1)
        n_workers = max(min(nstreams, n_tasks, mem_cap), 1)
        self.workers = [
            _Worker(ctx, w, problem.dims, self.t, problem.dtype, with_data)
            for w in range(n_workers)
        ]
        self._plan_fetches(
            {"A": self.grid_a, "B": self.grid_b, "C": self.grid_c},
            uncounted=("A", "B", "C"),
        )
        #: Per-C-tile ordering: the event the next round-trip (or
        #: in-place kernel) must wait on.
        self._c_order: Dict[Tuple[int, int], CudaEvent] = {}

    # ------------------------------------------------------------------

    def _stage_tile(self, worker: _Worker, slot: _Slot, name: str,
                    tile: Tuple[Tuple[int, int], Tuple[int, int]], tag: str,
                    extra_wait: Optional[CudaEvent] = None) -> Tile:
        """h2d the host-resident ``(origin, shape)`` tile into a worker
        slot: the slot itself, or a view of it for a smaller edge tile."""
        origin, shape = tile
        s_h2d = worker.s_h2d
        if slot.guard is not None:
            s_h2d.wait_event(slot.guard)
        if extra_wait is not None:
            s_h2d.wait_event(extra_wait)
        dst = slot.tile
        if shape != dst.shape:
            dst = MatrixView(dst, shape)
        self.ctx.set_async(self.hosts[name], origin, dst, s_h2d, tag)
        return dst

    def _issue(self) -> None:
        kt = self.grid_a.col_tiles
        a_dev, b_dev, c_dev = (op.loc is Loc.DEVICE
                               for op in self.problem.operands)
        c_host = self.hosts["C"]
        tagged = self._tagged
        tasks = [
            (i, j, l) for (i, j) in self.grid_c for l in range(kt)
        ]
        for idx, (i, j, l) in enumerate(tasks):
            worker = self.workers[idx % len(self.workers)]
            phase = worker.tasks % 2
            worker.tasks += 1
            # --- inputs ---
            if a_dev:
                a_view = self._fetch("A", i, l).tile
            else:
                a_view = self._stage_tile(
                    worker, worker.a_slots[phase], "A",
                    self.grid_a.tile(i, l),
                    f"h2d:A({i},{l})" if tagged else "")
            if b_dev:
                b_view = self._fetch("B", l, j).tile
            else:
                b_view = self._stage_tile(
                    worker, worker.b_slots[phase], "B",
                    self.grid_b.tile(l, j),
                    f"h2d:B({l},{j})" if tagged else "")
            # --- C (round-trips when host-resident) ---
            prev_c = self._c_order.get((i, j))
            if c_dev:
                c_view = self._fetch("C", i, j).tile
                if prev_c is not None:
                    worker.s_exec.wait_event(prev_c)
            else:
                c_tile = self.grid_c.tile(i, j)
                c_view = self._stage_tile(
                    worker, worker.c_slots[phase], "C", c_tile,
                    f"h2d:C({i},{j})" if tagged else "", extra_wait=prev_c)
            if not (a_dev and b_dev and c_dev):
                worker.s_exec.wait_event(worker.s_h2d.record_event())
            self.ctx.gemm_async(
                a_view, b_view, c_view, worker.s_exec,
                alpha=self.alpha, beta=self.beta if l == 0 else 1.0,
                tag=f"gemm({i},{j},{l})" if tagged else "",
            )
            kernel_ev = worker.s_exec.record_event()
            if not a_dev:
                worker.a_slots[phase].guard = kernel_ev
            if not b_dev:
                worker.b_slots[phase].guard = kernel_ev
            if c_dev:
                self._c_order[(i, j)] = kernel_ev
            else:
                worker.s_d2h.wait_event(kernel_ev)
                self.ctx.get_async(
                    c_view, c_host, c_tile[0], worker.s_d2h,
                    tag=f"d2h:C({i},{j},{l})" if tagged else "")
                d2h_ev = worker.s_d2h.record_event()
                worker.c_slots[phase].guard = d2h_ev
                self._c_order[(i, j)] = d2h_ev

    def release(self) -> None:
        free = self.device.free
        for worker in self.workers:
            for slot in worker.all_slots():
                free(slot.tile)
        super().release()


class CublasXtLibrary(OffloadLibrary):
    """Public cuBLASXt-like entry point with a user-supplied tile size."""

    LIBRARY_NAME = "cuBLASXt"

    def __init__(self, machine: MachineConfig, nstreams: int = 4,
                 seed: int = 17) -> None:
        super().__init__(machine, seed)
        self.nstreams = nstreams

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
        tile_size: int = DEFAULT_TILE,
    ) -> RunResult:
        """``C = alpha*A@B + beta*C`` with cuBLASXt-style pipelining."""
        problem, hosts = bind_operands(GEMM, (m, n, k), (a, b, c), dtype,
                                       (loc_a, loc_b, loc_c))
        ctx = CublasContext(self._next_device())
        return self._run(CublasXtScheduler(
            ctx, problem, tile_size, hosts,
            alpha=alpha, beta=beta, nstreams=self.nstreams,
        ))
