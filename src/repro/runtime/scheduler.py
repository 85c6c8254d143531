"""The CoCoPeLia tile scheduler (paper Section IV-C).

Splits the problem into square tiles, matches tile addresses to host
windows, and issues the whole subkernel pipeline asynchronously using
one stream per operation class — h2d transfers, kernel execution, d2h
transfers — exactly the structure the 3-way-concurrency models assume.

Every scheduler fetches through one tile store,
:meth:`_PipelineBase._fetch`: matrix tiles and vector chunks alike land
in a :class:`~repro.runtime.cache.TileCache` (fetch-once reuse), or, for
operands declared *streamed*, in a single-use list freed with the rest.
Reading a device-resident result back and releasing the tiles are
written once, in the base class, so a new routine is one
:class:`~repro.blas.spec.RoutineSpec`, one subclass declaring its
grids and an ``_issue`` loop, and one thin library method.

The serving layer records the device calls of an ``_issue`` once per
problem, tile and machine, and replays them for later batches
(:mod:`repro.runtime.program`); these classes stay the one definition
of what a pipeline does.

Two gemm subkernel traversal orders are provided for the ablation study:

* ``reuse`` (default): for each output column block, for each output row
  block, sweep the inner dimension — successive subkernels share two of
  their three tiles, so steady-state subkernels fetch at most one tile
  (the DR model's collapse assumption);
* ``l_outer``: inner dimension outermost — same fetch-once totals, but
  every output tile completes only at the very end, so writebacks
  cannot overlap execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..backend.cublas import CublasContext, window
from ..core.params import CoCoProblem, Loc
from ..errors import DeviceMemoryError, SchedulerError
from ..sim.link import Direction
from ..sim.memory import HostArray
from ..sim.stream import Stream
from .cache import TileCache, TileEntry
from .tiles import Grid1D, Grid2D

TRAVERSAL_ORDERS = ("reuse", "l_outer")


@dataclass
class ScheduleStats:
    """What one scheduled run did, as counted by the device.

    The resilience fields are zero on fault-free runs; under fault
    injection they count what the retry machinery had to do during
    *this* run (transfer counts above include the failed attempts, as
    each occupied the link).
    """

    seconds: float
    h2d_bytes: int
    d2h_bytes: int
    h2d_transfers: int
    d2h_transfers: int
    kernels: int
    retries: int = 0
    kernel_retries: int = 0
    refetches: int = 0


class _PipelineBase:
    """Common machinery: streams, the tile store, timed runs, read-back.

    A subclass names its routine in ``ROUTINE``, builds its grids, and
    declares per operand how ``_fetch`` treats it (:meth:`_plan_fetches`).
    """

    ROUTINE = ""

    def __init__(self, ctx: CublasContext, problem: CoCoProblem,
                 hosts: Dict[str, HostArray]) -> None:
        if problem.routine.name != self.ROUTINE:
            raise SchedulerError(
                f"{type(self).__name__} got a {problem.routine.name} problem"
            )
        for op in problem.operands:
            if op.name not in hosts:
                raise SchedulerError(
                    f"missing source data for operand {op.name!r}"
                )
        self.ctx = ctx
        self.problem = problem
        self.device = ctx.device
        self.hosts = hosts
        self._output = next(op for op in problem.operands
                            if op.spec.role.is_output)
        #: the device's duck-typed metrics registry (None = off)
        self.metrics = getattr(self.device, "metrics", None)
        # Cache-metric handles resolved once, not per tile fetch.
        if self.metrics is not None:
            self._m_cache_hits = self.metrics.counter("runtime.cache.hits")
            self._m_cache_misses = self.metrics.counter("runtime.cache.misses")
        self.s_h2d = self.device.create_stream("pipe-h2d")
        self.s_exec = self.device.create_stream("pipe-exec")
        self.s_d2h = self.device.create_stream("pipe-d2h")
        #: Operation tags are observable only through the trace
        #: recorder and fault diagnostics; when neither is active the
        #: per-subkernel f-string formatting is skipped.
        self._tagged = (self.device.trace is not None
                        or self.device.faults is not None)
        self.cache = TileCache(ctx)
        #: Every streamed tile: single use, never looked up, freed by
        #: release().
        self._streamed: list = []

    @property
    def streams(self) -> Tuple[Stream, Stream, Stream]:
        """The pipeline's streams: h2d, exec, d2h."""
        return (self.s_h2d, self.s_exec, self.s_d2h)

    def _plan_fetches(self, grids: Dict[str, object],
                      streamed: Sequence[str] = (),
                      uncounted: Sequence[str] = ()) -> None:
        """Fix how :meth:`_fetch` treats each operand.

        ``grids`` maps every operand to its :class:`Grid1D` (vector) or
        :class:`Grid2D` (matrix); both answer ``tile(i, j)`` and name
        their tiles by ``TILE_TAG``.  Tiles of ``streamed`` input operands
        are fetched afresh on every use instead of cached (also right
        for tiles used exactly once: no cache probe; the output stays
        cached, for write-back and read-back); fetches of
        ``uncounted`` operands are not reported to the
        ``runtime.cache.*`` metrics.
        """
        counting = self.metrics is not None
        plans = {}
        for op in self.problem.operands:
            name = op.name
            resident = op.loc is Loc.DEVICE
            grid = grids[name]
            plans[name] = (
                grid, self.hosts[name], resident,
                name not in streamed, counting and name not in uncounted,
                name + grid.TILE_TAG,
            )
        self._plans = plans

    def _fetch(self, name: str, i: int, j: int = 0) -> TileEntry:
        """Resident tile (or vector chunk) ``(i, j)`` of operand ``name``.

        A cached tile is transferred at most once; tiles of
        device-resident operands are registered without a transfer.
        """
        grid, host, resident, cached, counted, tile_tag = self._plans[name]
        key = (name, i, j)
        if cached:
            entry = self.cache.lookup(key)
            if entry is not None:
                if counted:
                    self._m_cache_hits.inc()
                return entry
        if counted:
            self._m_cache_misses.inc()
        ctx = self.ctx
        label = tile_tag.format(i, j) if self._tagged else ""
        origin, shape = grid.tile(i, j)
        # Allocation errors carry the tiling size, so the routine layer's
        # degradation ladder can downshift to a smaller T.
        try:
            tile = ctx.alloc(shape, self.problem.dtype,
                             with_data=host.has_data, name=label)
        except DeviceMemoryError as exc:
            raise exc.with_tile(self.t) from None
        entry = TileEntry(tile)
        if resident:
            # Already on the GPU: no timed PCIe transfer, only the data
            # copy in compute mode.
            if host.has_data:
                tile.array[...] = host.array[window(origin, shape)]
        else:
            s_h2d = self.s_h2d
            entry.fetch_op = ctx.set_async(
                host, origin, tile, s_h2d,
                tag="h2d:" + label if label else "")
            entry.ready = s_h2d.record_event()
        if cached:
            self.cache.insert(key, entry)
        else:
            self._streamed.append(entry)
        return entry

    def _write_back(self, entry: TileEntry, i: int, j: int = 0) -> None:
        """d2h the finished output tile ``(i, j)`` after the kernels so far."""
        s_d2h = self.s_d2h
        s_d2h.wait_event(self.s_exec.record_event())
        grid, host, *_, tile_tag = self._plans[self._output.name]
        self.ctx.get_async(
            entry.tile, host, grid.tile(i, j)[0], s_d2h,
            tag="d2h:" + tile_tag.format(i, j) if self._tagged else "")

    def _snapshot(self) -> Tuple[int, ...]:
        """Device counters, in :class:`ScheduleStats` field order."""
        dev = self.device
        res = dev.resilience
        return (
            dev.bytes_moved(Direction.H2D),
            dev.bytes_moved(Direction.D2H),
            dev.transfer_count(Direction.H2D),
            dev.transfer_count(Direction.D2H),
            dev.compute.kernels_run,
            res.retries,
            res.kernel_retries,
            res.refetches,
        )

    def _timed_run(self, issue) -> ScheduleStats:
        before = self._snapshot()
        t0 = self.device.sim.now
        issue()
        end = self.device.synchronize()
        after = self._snapshot()
        return ScheduleStats(end - t0,
                             *(a - b for a, b in zip(after, before)))

    def run(self) -> ScheduleStats:
        """Issue the whole pipeline and run the device to completion."""
        return self._timed_run(self._issue)

    def read_back_device_result(self) -> np.ndarray:
        """Assemble the device-resident output operand into an ndarray.

        Verification helper — not part of the timed execution.
        """
        name = self._output.name
        if self._output.loc is not Loc.DEVICE:
            raise SchedulerError(
                f"{name} was written back to the host; read it there")
        grid = self._plans[name][0]
        out = np.zeros(self.hosts[name].shape, dtype=self.problem.dtype)
        for (tile_name, i, j), entry in self.cache.items():
            if tile_name != name:
                continue
            if entry.tile.array is None:
                raise SchedulerError("no data to read back (timing mode)")
            out[window(*grid.tile(i, j))] = entry.tile.array
        return out

    def release(self) -> None:
        """Free every device tile this schedule fetched."""
        self.cache.free_all()
        free = self.device.free
        for entry in self._streamed:
            free(entry.tile)
        self._streamed.clear()


class GemmTileScheduler(_PipelineBase):
    """Pipelined, reuse-aware tiled gemm: ``C = alpha*A@B + beta*C``."""

    ROUTINE = "gemm"

    def __init__(
        self,
        ctx: CublasContext,
        problem: CoCoProblem,
        t: int,
        hosts: Dict[str, HostArray],
        alpha: float = 1.0,
        beta: float = 1.0,
        order: str = "reuse",
        use_cache: bool = True,
        prefetch_depth: Optional[int] = None,
    ) -> None:
        super().__init__(ctx, problem, hosts)
        if prefetch_depth is not None and prefetch_depth < 1:
            raise SchedulerError(
                f"prefetch depth must be >= 1, got {prefetch_depth}"
            )
        #: How many subkernels the h2d stream may run ahead of the
        #: compute stream (None = unbounded, the paper's setting since
        #: evaluated problems fit device memory).
        self.prefetch_depth = prefetch_depth
        if order not in TRAVERSAL_ORDERS:
            raise SchedulerError(
                f"unknown traversal order {order!r}; valid: {TRAVERSAL_ORDERS}"
            )
        # A scalar t gives the paper's square tiling; a (tm, tn, tk)
        # triple gives rectangular tiling (repro.core.rect extension).
        if isinstance(t, int):
            tm = tn = tk = t
        else:
            try:
                tm, tn, tk = (int(v) for v in t)
            except (TypeError, ValueError):
                raise SchedulerError(
                    f"tile size must be an int or a (tm, tn, tk) triple, "
                    f"got {t!r}"
                ) from None
        if min(tm, tn, tk) <= 0:
            raise SchedulerError(f"non-positive tile size {(tm, tn, tk)}")
        m, n, k = problem.dims
        self.t = tm
        self.tiles_mnk = (tm, tn, tk)
        self.alpha = alpha
        self.beta = beta
        self.order = order
        self.use_cache = use_cache
        self.grid_a = Grid2D(m, k, tm, tk)
        self.grid_b = Grid2D(k, n, tk, tn)
        self.grid_c = Grid2D(m, n, tm, tn)
        # C tiles are always cached, even with use_cache=False: the
        # inner-dimension accumulation requires each output tile to stay
        # resident until its last subkernel (this is also what cuBLASXt
        # does — only *input* reuse is absent there).
        self._plan_fetches(
            {"A": self.grid_a, "B": self.grid_b, "C": self.grid_c},
            streamed=() if use_cache else ("A", "B"),
        )

    # ------------------------------------------------------------------

    def _subkernels(self) -> Iterator[Tuple[int, int, int]]:
        mt, nt = self.grid_c.row_tiles, self.grid_c.col_tiles
        kt = self.grid_a.col_tiles
        if self.order == "reuse":
            for j in range(nt):
                for i in range(mt):
                    for l in range(kt):
                        yield i, j, l
        else:  # l_outer
            for l in range(kt):
                for j in range(nt):
                    for i in range(mt):
                        yield i, j, l

    def _issue(self) -> None:
        kt = self.grid_a.col_tiles
        c_set = self._output.set
        done_k: Dict[Tuple[int, int], int] = {}
        kernel_events: list = []
        # Hot inner loop: one iteration per subkernel.  Frequently-read
        # attributes are bound to locals once.
        fetch = self._fetch
        s_exec = self.s_exec
        gemm_async = self.ctx.gemm_async
        alpha, beta = self.alpha, self.beta
        depth = self.prefetch_depth
        tagged = self._tagged
        for idx, (i, j, l) in enumerate(self._subkernels()):
            if depth is not None and idx >= depth:
                # Bounded lookahead: transfers for subkernel `idx` may
                # only start once kernel `idx - depth` has finished.
                self.s_h2d.wait_event(kernel_events[idx - depth])
            ea = fetch("A", i, l)
            eb = fetch("B", l, j)
            ec = fetch("C", i, j)
            ea.make_stream_wait(s_exec)
            eb.make_stream_wait(s_exec)
            ec.make_stream_wait(s_exec)
            done = done_k.get((i, j), 0)
            gemm_async(
                ea.tile, eb.tile, ec.tile, s_exec,
                alpha=alpha, beta=beta if done == 0 else 1.0,
                tag=f"gemm({i},{j},{l})" if tagged else "",
            )
            if depth is not None:
                kernel_events.append(s_exec.record_event())
            done += 1
            done_k[(i, j)] = done
            if done == kt and c_set:
                self._write_back(ec, i, j)

    # Defined on the class itself, not only inherited, so profilers
    # that wrap entry points through the class dictionary find it.
    run = _PipelineBase.run


class SyrkTileScheduler(_PipelineBase):
    """Pipelined tiled syrk: ``C = alpha*A@A^T + beta*C`` (C symmetric,
    lower triangle computed and moved).

    Demonstrates the Section IV-B routine-extension recipe on a reuse
    pattern square tiling cannot mimic with gemm: each A row-panel tile
    serves *both* operand roles (left factor and transposed right
    factor), so the fetched volume is half of the equivalent gemm's and
    only ``Nt(Nt+1)/2`` output tiles exist.
    """

    ROUTINE = "syrk"

    def __init__(
        self,
        ctx: CublasContext,
        problem: CoCoProblem,
        t: int,
        hosts: Dict[str, HostArray],
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> None:
        super().__init__(ctx, problem, hosts)
        if t <= 0:
            raise SchedulerError(f"non-positive tile size {t}")
        n, k = problem.dims
        self.t = t
        self.alpha = alpha
        self.beta = beta
        self.grid_a = Grid2D(n, k, t)
        self.grid_c = Grid2D(n, n, t)
        self._plan_fetches({"A": self.grid_a, "C": self.grid_c})

    def _issue(self) -> None:
        nt = self.grid_c.row_tiles
        kt = self.grid_a.col_tiles
        c_set = self._output.set
        for j in range(nt):
            for i in range(j, nt):  # lower triangle: i >= j
                for l in range(kt):
                    ea = self._fetch("A", i, l)
                    eb = self._fetch("A", j, l)
                    ec = self._fetch("C", i, j)
                    for entry in (ea, eb, ec):
                        entry.make_stream_wait(self.s_exec)
                    beta_eff = self.beta if l == 0 else 1.0
                    # C(i,j) += A(i,:) @ A(j,:)^T — a transb gemm tile.
                    self.ctx.gemm_async(
                        ea.tile, eb.tile, ec.tile, self.s_exec,
                        alpha=self.alpha, beta=beta_eff, transb=True,
                        tag=f"syrk({i},{j},{l})" if self._tagged else "",
                    )
                if c_set:
                    self._write_back(ec, i, j)


class GemvTileScheduler(_PipelineBase):
    """Pipelined tiled gemv: ``y = alpha*A@x + beta*y`` (level-2 BLAS).

    Section III-C: level-2 BLAS has a minor working-set overlap — the
    vectors are reused across the matrix tiles — which this scheduler
    exploits (x chunks fetched once); the matrix, the dominant traffic,
    has no reuse (its tiles are streamed), matching the Eq. 4 (BTS)
    model the paper prescribes for this level.
    """

    ROUTINE = "gemv"

    def __init__(
        self,
        ctx: CublasContext,
        problem: CoCoProblem,
        t: int,
        hosts: Dict[str, HostArray],
        alpha: float = 1.0,
        beta: float = 1.0,
    ) -> None:
        super().__init__(ctx, problem, hosts)
        if t <= 0:
            raise SchedulerError(f"non-positive tile size {t}")
        m, n = problem.dims
        self.t = t
        self.alpha = alpha
        self.beta = beta
        self.grid_a = Grid2D(m, n, t)
        self.grid_x = Grid1D(n, t)
        self.grid_y = Grid1D(m, t)
        self._plan_fetches(
            {"A": self.grid_a, "x": self.grid_x, "y": self.grid_y},
            streamed=("A",), uncounted=("A",),
        )

    def _issue(self) -> None:
        y_set = self._output.set
        s_exec = self.s_exec
        for i in range(self.grid_a.row_tiles):
            ey = self._fetch("y", i)
            ey.make_stream_wait(s_exec)
            for j in range(self.grid_a.col_tiles):
                ex = self._fetch("x", j)
                ex.make_stream_wait(s_exec)
                ea = self._fetch("A", i, j)
                ea.make_stream_wait(s_exec)
                self.ctx.gemv_async(
                    ea.tile, ex.tile, ey.tile, s_exec,
                    alpha=self.alpha, beta=self.beta if j == 0 else 1.0,
                    tag=f"gemv({i},{j})" if self._tagged else "",
                )
            if y_set:
                self._write_back(ey, i)


class AxpyTileScheduler(_PipelineBase):
    """Pipelined chunked axpy: ``y = alpha*x + y`` (level-1 BLAS)."""

    ROUTINE = "axpy"

    def __init__(
        self,
        ctx: CublasContext,
        problem: CoCoProblem,
        t: int,
        hosts: Dict[str, HostArray],
        alpha: float = 1.0,
    ) -> None:
        super().__init__(ctx, problem, hosts)
        (n,) = problem.dims
        self.t = t
        self.alpha = alpha
        self.grid = Grid1D(n, t)
        # Each chunk is used exactly once (x streamed, the y output kept
        # for read-back); neither is reported as cache traffic.
        self._plan_fetches({"x": self.grid, "y": self.grid},
                           streamed=("x",), uncounted=("x", "y"))

    def _issue(self) -> None:
        y_set = self._output.set
        s_exec = self.s_exec
        tagged = self._tagged
        for i in self.grid:
            ex = self._fetch("x", i)
            ey = self._fetch("y", i)
            ex.make_stream_wait(s_exec)
            ey.make_stream_wait(s_exec)
            self.ctx.axpy_async(ex.tile, ey.tile, s_exec,
                                alpha=self.alpha,
                                tag=f"axpy[{i}]" if tagged else "")
            if y_set:
                self._write_back(ey, i)

    # Defined on the class itself (see GemmTileScheduler.run).
    run = _PipelineBase.run
