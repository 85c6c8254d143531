"""The CoCoPeLia end-to-end BLAS routines (paper Fig. 3, right side).

:class:`CoCoPeLiaLibrary` is the public entry point: it binds a machine
and its deployed models, exposes ``gemm`` / ``syrk`` / ``gemv`` /
``axpy`` with automatic tiling-size selection (or an explicit
``tile_size``, mirroring the cuBLASXt-style extra parameter used for
validation), and reuses model decisions across calls with identical
parameters.

Each routine is a thin wrapper over one step, :meth:`_offload`: bind the
operands (:func:`~repro.runtime.offload.bind_operands`), pick ``T``, run
the routine's tile scheduler under the degradation ladder, and report
through :func:`~repro.runtime.offload.offload_result`.  Each invocation
runs on a fresh simulated device (allocation time is neither modeled
nor measured, matching the paper's methodology of excluding buffer
allocation from timings and reusing warm buffers).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.reference import ref_axpy, ref_gemm, ref_gemv, ref_syrk
from ..blas.spec import AXPY, GEMM, GEMV, SYRK
from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem, Loc
from ..core.predcache import PredictionCache
from ..core.select import TileChoice, candidate_tiles, select_tile
from ..errors import (BlasError, DeviceMemoryError, ModelError,
                      RetryExhaustedError)
from ..sim.device import GpuDevice
from ..sim.faults import FaultInjector, ResilienceCounters
from ..sim.machine import MachineConfig
from ..sim.memory import HostArray
from .offload import OffloadLibrary, bind_operands, offload_result
from .result import RunResult
from .scheduler import (AxpyTileScheduler, GemmTileScheduler,
                        GemvTileScheduler, ScheduleStats, SyrkTileScheduler)

#: Degradation-ladder floor: the runtime never downshifts below this
#: tiling size; past it the routine falls back to host reference BLAS.
MIN_TILE = 64


class _ResilientOutcome:
    """What one resilient routine invocation ended up doing."""

    __slots__ = ("stats", "sched", "tile", "resilience", "output")

    def __init__(self, stats, sched, tile, resilience, output=None) -> None:
        self.stats = stats
        self.sched = sched          #: None after a host fallback
        self.tile = tile            #: the tiling size actually used
        self.resilience = resilience
        self.output = output        #: fallback-produced device output


class CoCoPeLiaLibrary(OffloadLibrary):
    """CoCoPeLia's optimized BLAS subset with runtime tile selection."""

    LIBRARY_NAME = "CoCoPeLia"

    def __init__(
        self,
        machine: MachineConfig,
        models: Optional[MachineModels] = None,
        model: str = "auto",
        seed: int = 7,
        trace: bool = False,
        metrics=None,
        prediction_cache: Optional[PredictionCache] = None,
    ) -> None:
        super().__init__(machine, seed)
        self.models = models
        self.model = model
        #: Record engine timelines on every device this library creates;
        #: the most recent call's stream is exposed as ``last_trace``.
        self.trace = trace
        self.last_trace = None
        #: duck-typed MetricsRegistry (repro.obs.metrics); None = off
        self.metrics = metrics
        #: Per-problem model reuse: T_best computed on first invocation
        #: with a given parameter set, reused afterwards.  Pass a shared
        #: PredictionCache to reuse choices across libraries/dispatchers.
        self.prediction_cache = (prediction_cache if prediction_cache
                                 is not None else PredictionCache())

    # ------------------------------------------------------------------

    def _next_device(self, faults: Optional[FaultInjector] = None) -> GpuDevice:
        device = super()._next_device(faults=faults, trace=self.trace,
                                      metrics=self.metrics)
        if self.trace:
            self.last_trace = device.trace
        return device

    # ------------------------------------------------------------------
    # resilience: retry -> smaller T -> host fallback (see DESIGN.md)
    # ------------------------------------------------------------------

    def _smaller_tile(self, problem: CoCoProblem, t):
        """Largest feasible tiling size below ``t``; None at the floor."""
        if not isinstance(t, int):
            smaller = tuple(v // 2 for v in t)
            return smaller if min(smaller) >= MIN_TILE else None
        if self.models is not None:
            try:
                cands = [c for c in candidate_tiles(problem, self.models)
                         if MIN_TILE <= c < t]
                if cands:
                    return max(cands)
            except ModelError:
                pass
        half = t // 2
        return half if half >= MIN_TILE else None

    def _run_resilient(
        self,
        problem: CoCoProblem,
        tile_size,
        make_scheduler: Callable[[CublasContext, object], object],
        outputs: List[np.ndarray],
        fallback: Optional[Callable[[], Optional[np.ndarray]]] = None,
    ) -> _ResilientOutcome:
        """Run one schedule under the degradation ladder.

        With no fault plan this is exactly the pre-resilience fast path
        (one fresh device, one run).  Under a plan: the device layer
        already retries transient faults with backoff; this layer
        catches what escapes it — ``DeviceMemoryError`` re-runs the
        whole schedule at the largest feasible smaller ``T``, and retry
        exhaustion (or hitting the tile floor) falls back to host
        reference BLAS so the caller still gets a correct result.

        ``outputs`` are caller arrays the pipeline mutates in place;
        they are snapshot once and restored before every re-run (and
        before the fallback) so partially-applied ``beta``-scaled
        updates are never applied twice.  One :class:`FaultInjector` is
        shared across all attempts of this call, so a re-run continues
        the fault schedule instead of replaying it.
        """
        if self.metrics is not None:
            self.metrics.counter("runtime.calls").inc()
        plan = self.machine.fault_plan
        if plan is None or not plan.any_faults:
            device = self._next_device()
            sched = make_scheduler(CublasContext(device), tile_size)
            stats = sched.run()
            self._record_run_metrics(tile_size, None)
            return _ResilientOutcome(stats, sched, tile_size, None)

        injector = FaultInjector(plan.with_seed(plan.seed + self._calls))
        total = ResilienceCounters()
        snapshots = [np.copy(arr) for arr in outputs]

        def restore() -> None:
            for arr, snap in zip(outputs, snapshots):
                arr[...] = snap

        t = tile_size
        while True:
            device = self._next_device(faults=injector)
            try:
                sched = make_scheduler(CublasContext(device), t)
                stats = sched.run()
            except DeviceMemoryError:
                total.add(device.resilience)
                smaller = self._smaller_tile(problem, t)
                if smaller is None:
                    break  # at the tile floor: fall back to the host
                total.tile_downshifts += 1
                t = smaller
                restore()
                continue
            except RetryExhaustedError:
                total.add(device.resilience)
                break
            total.add(device.resilience)
            self._record_run_metrics(t, total)
            return _ResilientOutcome(stats, sched, t, total)

        restore()
        total.host_fallbacks += 1
        stats = ScheduleStats(
            seconds=self.machine.host_seconds(problem.flops(),
                                              problem.dtype),
            h2d_bytes=0, d2h_bytes=0, h2d_transfers=0, d2h_transfers=0,
            kernels=0,
        )
        output = fallback() if fallback is not None else None
        self._record_run_metrics(t, total)
        return _ResilientOutcome(stats, None, t, total, output=output)

    def _record_run_metrics(self, tile, resilience) -> None:
        """Fold one call's tile choice + resilience tally into metrics."""
        m = self.metrics
        if m is None:
            return
        if tile is not None:
            t = tile if isinstance(tile, int) else min(tile)
            m.gauge("runtime.selected_tile").set(t)
        if resilience is not None:
            for key, value in resilience.as_dict().items():
                if value:
                    m.counter(f"runtime.{key}").inc(value)

    def _choose_tile(self, problem: CoCoProblem) -> TileChoice:
        if self.models is None:
            raise BlasError(
                "automatic tile selection requires deployed models; "
                "pass tile_size= explicitly or provide MachineModels"
            )
        return select_tile(problem, self.models, model=self.model,
                           cache=self.prediction_cache)

    def predict(self, problem: CoCoProblem, t: int) -> Optional[float]:
        """Model prediction for (problem, T), if models are deployed.

        Returns None when the machine database lacks this routine/dtype
        (explicit-tile calls still run without a prediction).
        """
        if self.models is None:
            return None
        from ..core.registry import predict as predict_fn

        try:
            return predict_fn(self.model, problem, t, self.models,
                              interpolate=True)
        except ModelError:
            return None

    # ------------------------------------------------------------------
    # the one run-to-result step every routine wraps
    # ------------------------------------------------------------------

    def _offload(
        self,
        problem: CoCoProblem,
        hosts: Dict[str, HostArray],
        tile_size,
        make_scheduler: Callable[[CublasContext, object], object],
        reference: Callable[[], np.ndarray],
        predicted: Optional[float] = None,
        model: Optional[str] = None,
        tile_mnk: bool = False,
    ) -> RunResult:
        """Pick ``T``, run the schedule under the ladder, and report.

        ``tile_size=None`` selects ``T`` with this library's model.
        ``reference`` computes the routine's full output on the host
        (the fallback's result).  ``tile_mnk`` reports the gemm tile as
        ``extra`` tile_m / tile_n / tile_k, with ``tile_size`` = tile_m.
        """
        if tile_size is None:
            choice = self._choose_tile(problem)
            tile_size, predicted = choice.t_best, choice.predicted_time
        elif predicted is None and isinstance(tile_size, int):
            predicted = self.predict(problem, tile_size)
        out_op = next(op for op in problem.operands if op.spec.role.is_output)
        out = hosts[out_op.name].array
        on_host = out_op.loc is Loc.HOST

        def fallback() -> Optional[np.ndarray]:
            if out is None:
                return None
            full = reference()
            if not on_host:
                return full
            out[...] = full
            return None

        outputs = [out] if out is not None and on_host else []
        outcome = self._run_resilient(problem, tile_size, make_scheduler,
                                      outputs, fallback)
        t, extra = outcome.tile, {}
        if tile_mnk:
            tm, tn, tk = (t,) * 3 if isinstance(t, int) else t
            t, extra = tm, {"tile_m": tm, "tile_n": tn, "tile_k": tk}
        return offload_result(
            self.LIBRARY_NAME, problem, outcome.stats, t, outcome.sched,
            outcome.output, predicted_seconds=predicted,
            model=model or self.model, extra=extra,
            resilience=outcome.resilience,
        )

    # ------------------------------------------------------------------
    # gemm
    # ------------------------------------------------------------------

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
        tile_size=None,
        order: str = "reuse",
        use_cache: bool = True,
        rect: bool = False,
        prefetch_depth=None,
    ) -> RunResult:
        """``C = alpha*A@B + beta*C`` with 3-way-concurrency offload.

        Either pass real arrays (``a``, ``b``, ``c`` — compute mode; the
        result lands in ``c`` for host-resident C, or in
        ``RunResult.output`` for device-resident C), or pass dimensions
        only (timing mode).  ``tile_size=None`` invokes the runtime tile
        selection with this library's prediction model; ``rect=True``
        searches rectangular (Tm, Tn, Tk) tiles instead of squares (the
        paper's future-work extension, :mod:`repro.core.rect`).
        ``tile_size`` also accepts an explicit (Tm, Tn, Tk) triple.
        """
        problem, hosts = bind_operands(GEMM, (m, n, k), (a, b, c), dtype,
                                       (loc_a, loc_b, loc_c))
        predicted = model = None
        if tile_size is None and rect:
            if self.models is None:
                raise BlasError(
                    "rectangular tile selection requires deployed models"
                )
            from ..core.rect import select_rect_tile

            rect_choice = select_rect_tile(problem, self.models)
            tile_size = rect_choice.tile.as_tuple()
            predicted = rect_choice.predicted_time
            model = "dr-rect"
        elif tile_size is not None and not isinstance(tile_size, int):
            tile_size = tuple(int(v) for v in tile_size)

        def make_sched(ctx: CublasContext, t) -> GemmTileScheduler:
            return GemmTileScheduler(
                ctx, problem, t, hosts,
                alpha=alpha, beta=beta, order=order, use_cache=use_cache,
                prefetch_depth=prefetch_depth,
            )

        return self._offload(
            problem, hosts, tile_size, make_sched,
            lambda: ref_gemm(a, b, c, alpha=alpha, beta=beta),
            predicted=predicted, model=model, tile_mnk=True,
        )

    # ------------------------------------------------------------------
    # syrk (level-3 extension: symmetric rank-k update, built on transb
    # gemm tiles; only the lower triangle of C is computed and moved)
    # ------------------------------------------------------------------

    def syrk(
        self,
        n: Optional[int] = None,
        k: Optional[int] = None,
        a: Optional[np.ndarray] = None,
        c: Optional[np.ndarray] = None,
        dtype=np.float64,
        loc_a: Loc = Loc.HOST,
        loc_c: Loc = Loc.HOST,
        alpha: float = 1.0,
        beta: float = 1.0,
        tile_size: Optional[int] = None,
    ) -> RunResult:
        """``C = alpha*A@A^T + beta*C`` (symmetric C, lower triangle).

        In compute mode only the lower triangle of ``c`` is written —
        standard BLAS syrk semantics.
        """
        problem, hosts = bind_operands(SYRK, (n, k), (a, c), dtype,
                                       (loc_a, loc_c))
        # The diagonal tiles (and the host reference) compute full
        # blocks; BLAS syrk must leave the strict upper triangle
        # untouched, so it is put back after the run.
        if c is not None:
            upper = np.triu_indices(problem.dims[0], k=1)
            keep = c[upper]
        result = self._offload(
            problem, hosts, tile_size,
            lambda ctx, t: SyrkTileScheduler(ctx, problem, t, hosts,
                                             alpha=alpha, beta=beta),
            lambda: ref_syrk(a, c, alpha=alpha, beta=beta),
        )
        if c is not None:
            (c if loc_c is Loc.HOST else result.output)[upper] = keep
        return result

    # ------------------------------------------------------------------
    # gemv (level-2 extension, per the paper's Section IV-B recipe:
    # a routine wrapper over the per-level tile scheduler plus the
    # matching prediction model — Eq. 4 for level 2)
    # ------------------------------------------------------------------

    def gemv(
        self,
        m: Optional[int] = None,
        n: Optional[int] = None,
        a: Optional[np.ndarray] = None,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
        dtype=np.float64,
        loc_a: Loc = Loc.HOST,
        loc_x: Loc = Loc.HOST,
        loc_y: Loc = Loc.HOST,
        alpha: float = 1.0,
        beta: float = 1.0,
        tile_size: Optional[int] = None,
    ) -> RunResult:
        """``y = alpha*A@x + beta*y`` with 3-way-concurrency offload."""
        problem, hosts = bind_operands(GEMV, (m, n), (a, x, y), dtype,
                                       (loc_a, loc_x, loc_y))
        return self._offload(
            problem, hosts, tile_size,
            lambda ctx, t: GemvTileScheduler(ctx, problem, t, hosts,
                                             alpha=alpha, beta=beta),
            lambda: ref_gemv(a, x, y, alpha=alpha, beta=beta),
        )

    # ------------------------------------------------------------------
    # axpy
    # ------------------------------------------------------------------

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
        """``y = alpha*x + y`` with chunked 3-way-concurrency offload."""
        problem, hosts = bind_operands(AXPY, (n,), (x, y), dtype,
                                       (loc_x, loc_y))
        return self._offload(
            problem, hosts, tile_size,
            lambda ctx, t: AxpyTileScheduler(ctx, problem, t, hosts,
                                             alpha=alpha),
            lambda: ref_axpy(x, y, alpha=alpha),
        )
