"""The CoCoPeLia end-to-end BLAS routines (paper Fig. 3, right side).

:class:`CoCoPeLiaLibrary` is the public entry point: it binds a machine
and its deployed models, exposes ``gemm`` / ``axpy`` with automatic
tiling-size selection (or an explicit ``tile_size``, mirroring the
cuBLASXt-style extra parameter used for validation), and reuses model
decisions across calls with identical parameters.

Each invocation runs on a fresh simulated device (allocation time is
neither modeled nor measured, matching the paper's methodology of
excluding buffer allocation from timings and reusing warm buffers).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..backend.cublas import CublasContext
from ..blas.reference import ref_axpy, ref_gemm, ref_gemv, ref_syrk
from ..core.instantiation import MachineModels
from ..core.params import (
    CoCoProblem,
    Loc,
    axpy_problem,
    gemm_problem,
    gemv_problem,
    prefix_for,
    syrk_problem,
)
from ..core.predcache import PredictionCache
from ..core.select import TileChoice, candidate_tiles, select_tile
from ..errors import (BlasError, DeviceMemoryError, ModelError,
                      RetryExhaustedError, SchedulerError)
from ..sim.device import GpuDevice
from ..sim.faults import FaultInjector, ResilienceCounters
from ..sim.machine import MachineConfig
from ..sim.memory import HostArray
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


def _host_operand(problem: CoCoProblem, name: str,
                  array: Optional[np.ndarray]) -> HostArray:
    """Wrap or shadow the source data for one operand."""
    op = next(o for o in problem.operands if o.name == name)
    shape = (op.s1,) if op.is_vector else (op.s1, op.s2)
    if array is None:
        return HostArray.shadow(shape, problem.dtype, name=name)
    if array.ndim == 1 and not op.is_vector or array.ndim == 2 and op.is_vector:
        raise BlasError(f"operand {name} has wrong rank: {array.shape}")
    if tuple(array.shape) != shape:
        raise BlasError(
            f"operand {name} shape {array.shape} != expected {shape}"
        )
    if array.dtype != problem.dtype:
        raise BlasError(
            f"operand {name} dtype {array.dtype} != problem dtype {problem.dtype}"
        )
    return HostArray.wrap(array, pinned=True, name=name)


class CoCoPeLiaLibrary:
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
        self.machine = machine
        self.models = models
        self.model = model
        self._seed = seed
        self._calls = 0
        #: Record engine timelines on every device this library creates;
        #: the most recent call's stream is exposed as ``last_trace``.
        self.trace = trace
        self.last_trace = None
        #: duck-typed MetricsRegistry (repro.obs.metrics); None = off
        self.metrics = metrics
        #: Per-problem model reuse: T_best computed on first invocation
        #: with a given parameter set, reused afterwards.  An external
        #: PredictionCache (shared across libraries/dispatchers) takes
        #: over that memo when provided.
        self.prediction_cache = prediction_cache
        self._tile_choices: Dict[Tuple, TileChoice] = {}

    # ------------------------------------------------------------------

    def _next_device(self, faults: Optional[FaultInjector] = None) -> GpuDevice:
        self._calls += 1
        device = GpuDevice(self.machine, seed=self._seed + self._calls,
                           faults=faults, trace=self.trace,
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

    def _host_fallback_seconds(self, problem: CoCoProblem) -> float:
        """Simulated wall time of running the routine on the host CPU."""
        rate = self.machine.cpu_gemm_flops
        if np.dtype(problem.dtype).itemsize == 4:
            rate *= 2.0  # FP32 runs at twice the sustained FP64 rate
        return problem.flops() / rate

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
            seconds=self._host_fallback_seconds(problem),
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
        if self.prediction_cache is not None:
            return select_tile(problem, self.models, model=self.model,
                               cache=self.prediction_cache)
        sig = problem.signature()
        choice = self._tile_choices.get(sig)
        if choice is None:
            choice = select_tile(problem, self.models, model=self.model)
            self._tile_choices[sig] = choice
        return choice

    def predict(self, problem: CoCoProblem, t: int) -> Optional[float]:
        """Model prediction for (problem, T), if models are deployed.

        Returns None when the machine database lacks this routine/dtype
        (explicit-tile calls still run without a prediction).
        """
        if self.models is None:
            return None
        from ..core.registry import predict as predict_fn
        from ..errors import ModelError

        try:
            return predict_fn(self.model, problem, t, self.models,
                              interpolate=True)
        except ModelError:
            return None

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
        arrays = (a, b, c)
        if any(x is not None for x in arrays):
            if any(x is None for x in arrays):
                raise BlasError("pass all of a, b, c or none of them")
            m2, k2 = a.shape
            k3, n2 = b.shape
            if k2 != k3 or c.shape != (m2, n2):
                raise BlasError(
                    f"gemm operand shapes disagree: A {a.shape}, "
                    f"B {b.shape}, C {c.shape}"
                )
            if (m is not None and m != m2) or (n is not None and n != n2) \
                    or (k is not None and k != k2):
                raise BlasError("explicit dims disagree with array shapes")
            m, n, k = m2, n2, k2
            dtype = a.dtype
        if m is None or n is None or k is None:
            raise BlasError("gemm needs dims (m, n, k) or arrays")
        problem = gemm_problem(m, n, k, dtype, loc_a, loc_b, loc_c)
        choice: Optional[TileChoice] = None
        predicted: Optional[float] = None
        model_name = self.model
        if tile_size is None:
            if rect:
                if self.models is None:
                    raise BlasError(
                        "rectangular tile selection requires deployed models"
                    )
                from ..core.rect import select_rect_tile

                rect_choice = select_rect_tile(problem, self.models)
                tile_size = rect_choice.tile.as_tuple()
                predicted = rect_choice.predicted_time
                model_name = "dr-rect"
            else:
                choice = self._choose_tile(problem)
                tile_size = choice.t_best
                predicted = choice.predicted_time
        elif not isinstance(tile_size, int):
            tile_size = tuple(int(v) for v in tile_size)
        if predicted is None and isinstance(tile_size, int):
            predicted = self.predict(problem, tile_size)
        hosts = {
            "A": _host_operand(problem, "A", a),
            "B": _host_operand(problem, "B", b),
            "C": _host_operand(problem, "C", c),
        }

        def make_sched(ctx: CublasContext, t) -> GemmTileScheduler:
            return GemmTileScheduler(
                ctx, problem, t, hosts,
                alpha=alpha, beta=beta, order=order, use_cache=use_cache,
                prefetch_depth=prefetch_depth,
            )

        outputs = [c] if c is not None and loc_c is Loc.HOST else []

        def fallback() -> Optional[np.ndarray]:
            if c is None:
                return None
            full = ref_gemm(a, b, c, alpha=alpha, beta=beta)
            if loc_c is Loc.DEVICE:
                return full
            c[:, :] = full
            return None

        outcome = self._run_resilient(problem, tile_size, make_sched,
                                      outputs, fallback)
        stats = outcome.stats
        sched = outcome.sched
        output = outcome.output
        if sched is not None:
            if c is not None and loc_c is Loc.DEVICE:
                output = sched.read_back_device_result()
            sched.release()
            tm, tn, tk = sched.tiles_mnk
        else:
            t_used = outcome.tile
            tm, tn, tk = ((t_used,) * 3 if isinstance(t_used, int)
                          else t_used)
        return RunResult(
            library=self.LIBRARY_NAME,
            routine=f"{prefix_for(dtype)}gemm",
            seconds=stats.seconds,
            flops=problem.flops(),
            tile_size=tm,
            h2d_bytes=stats.h2d_bytes,
            d2h_bytes=stats.d2h_bytes,
            h2d_transfers=stats.h2d_transfers,
            d2h_transfers=stats.d2h_transfers,
            kernels=stats.kernels,
            predicted_seconds=predicted,
            model=model_name,
            extra={"tile_m": tm, "tile_n": tn, "tile_k": tk},
            output=output,
            resilience=outcome.resilience,
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
        arrays = (a, c)
        if any(v is not None for v in arrays):
            if any(v is None for v in arrays):
                raise BlasError("pass both a and c or neither")
            n2, k2 = a.shape
            if c.shape != (n2, n2):
                raise BlasError(
                    f"syrk operand shapes disagree: A {a.shape}, C {c.shape}"
                )
            if (n is not None and n != n2) or (k is not None and k != k2):
                raise BlasError("explicit dims disagree with array shapes")
            n, k = n2, k2
            dtype = a.dtype
        if n is None or k is None:
            raise BlasError("syrk needs dims (n, k) or arrays")
        problem = syrk_problem(n, k, dtype, loc_a, loc_c)
        choice: Optional[TileChoice] = None
        if tile_size is None:
            choice = self._choose_tile(problem)
            tile_size = choice.t_best
        hosts = {
            "A": _host_operand(problem, "A", a),
            "C": _host_operand(problem, "C", c),
        }
        # The diagonal tiles compute their full T x T block; BLAS syrk
        # must leave the strict upper triangle untouched, so it is
        # restored after the run.
        upper_backup = None
        if c is not None and loc_c is Loc.HOST:
            upper_idx = np.triu_indices(n, k=1)
            upper_backup = c[upper_idx].copy()

        def make_sched(ctx: CublasContext, t) -> SyrkTileScheduler:
            return SyrkTileScheduler(ctx, problem, t, hosts,
                                     alpha=alpha, beta=beta)

        outputs = [c] if c is not None and loc_c is Loc.HOST else []

        def fallback() -> Optional[np.ndarray]:
            if c is None:
                return None
            full = ref_syrk(a, c, alpha=alpha, beta=beta)
            lower_idx = np.tril_indices(n)
            if loc_c is Loc.DEVICE:
                out = c.copy()
                out[lower_idx] = full[lower_idx]
                return out
            c[lower_idx] = full[lower_idx]
            return None

        outcome = self._run_resilient(problem, tile_size, make_sched,
                                      outputs, fallback)
        stats = outcome.stats
        sched = outcome.sched
        output = outcome.output
        if sched is not None:
            if c is not None and loc_c is Loc.DEVICE:
                output = sched.read_back_device_result()
                upper_idx = np.triu_indices(n, k=1)
                output[upper_idx] = c[upper_idx]
            elif upper_backup is not None:
                c[upper_idx] = upper_backup
            sched.release()
        return RunResult(
            library=self.LIBRARY_NAME,
            routine=f"{prefix_for(dtype)}syrk",
            seconds=stats.seconds,
            flops=problem.flops(),
            tile_size=outcome.tile,
            h2d_bytes=stats.h2d_bytes,
            d2h_bytes=stats.d2h_bytes,
            h2d_transfers=stats.h2d_transfers,
            d2h_transfers=stats.d2h_transfers,
            kernels=stats.kernels,
            predicted_seconds=(choice.predicted_time if choice is not None
                               else self.predict(problem, tile_size)),
            model=self.model,
            output=output,
            resilience=outcome.resilience,
        )

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
        arrays = (a, x, y)
        if any(v is not None for v in arrays):
            if any(v is None for v in arrays):
                raise BlasError("pass all of a, x, y or none of them")
            m2, n2 = a.shape
            if x.shape != (n2,) or y.shape != (m2,):
                raise BlasError(
                    f"gemv operand shapes disagree: A {a.shape}, "
                    f"x {x.shape}, y {y.shape}"
                )
            if (m is not None and m != m2) or (n is not None and n != n2):
                raise BlasError("explicit dims disagree with array shapes")
            m, n = m2, n2
            dtype = a.dtype
        if m is None or n is None:
            raise BlasError("gemv needs dims (m, n) or arrays")
        problem = gemv_problem(m, n, dtype, loc_a, loc_x, loc_y)
        choice: Optional[TileChoice] = None
        if tile_size is None:
            choice = self._choose_tile(problem)
            tile_size = choice.t_best
        hosts = {
            "A": _host_operand(problem, "A", a),
            "x": _host_operand(problem, "x", x),
            "y": _host_operand(problem, "y", y),
        }

        def make_sched(ctx: CublasContext, t) -> GemvTileScheduler:
            return GemvTileScheduler(ctx, problem, t, hosts,
                                     alpha=alpha, beta=beta)

        outputs = [y] if y is not None and loc_y is Loc.HOST else []

        def fallback() -> Optional[np.ndarray]:
            if y is None:
                return None
            full = ref_gemv(a, x, y, alpha=alpha, beta=beta)
            if loc_y is Loc.DEVICE:
                return full
            y[:] = full
            return None

        outcome = self._run_resilient(problem, tile_size, make_sched,
                                      outputs, fallback)
        stats = outcome.stats
        sched = outcome.sched
        output = outcome.output
        if sched is not None:
            if y is not None and loc_y is Loc.DEVICE:
                output = sched.read_back_device_result()
            sched.release()
        return RunResult(
            library=self.LIBRARY_NAME,
            routine=f"{prefix_for(dtype)}gemv",
            seconds=stats.seconds,
            flops=problem.flops(),
            tile_size=outcome.tile,
            h2d_bytes=stats.h2d_bytes,
            d2h_bytes=stats.d2h_bytes,
            h2d_transfers=stats.h2d_transfers,
            d2h_transfers=stats.d2h_transfers,
            kernels=stats.kernels,
            predicted_seconds=(choice.predicted_time if choice is not None
                               else self.predict(problem, tile_size)),
            model=self.model,
            output=output,
            resilience=outcome.resilience,
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
        if x is not None or y is not None:
            if x is None or y is None:
                raise BlasError("pass both x and y or neither")
            if x.shape != y.shape:
                raise BlasError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
            if n is not None and n != x.shape[0]:
                raise BlasError("explicit n disagrees with array length")
            n = x.shape[0]
            dtype = x.dtype
        if n is None:
            raise BlasError("axpy needs n or arrays")
        problem = axpy_problem(n, dtype, loc_x, loc_y)
        choice: Optional[TileChoice] = None
        if tile_size is None:
            choice = self._choose_tile(problem)
            tile_size = choice.t_best
        hosts = {
            "x": _host_operand(problem, "x", x),
            "y": _host_operand(problem, "y", y),
        }

        def make_sched(ctx: CublasContext, t) -> AxpyTileScheduler:
            return AxpyTileScheduler(ctx, problem, t, hosts, alpha=alpha)

        outputs = [y] if y is not None and loc_y is Loc.HOST else []

        def fallback() -> Optional[np.ndarray]:
            if y is None:
                return None
            full = ref_axpy(x, y, alpha=alpha)
            if loc_y is Loc.DEVICE:
                return full
            y[:] = full
            return None

        outcome = self._run_resilient(problem, tile_size, make_sched,
                                      outputs, fallback)
        stats = outcome.stats
        sched = outcome.sched
        output = outcome.output
        if sched is not None:
            if y is not None and loc_y is Loc.DEVICE:
                output = sched.read_back_device_result()
            sched.release()
        return RunResult(
            library=self.LIBRARY_NAME,
            routine=f"{prefix_for(dtype)}axpy",
            seconds=stats.seconds,
            flops=problem.flops(),
            tile_size=outcome.tile,
            h2d_bytes=stats.h2d_bytes,
            d2h_bytes=stats.d2h_bytes,
            h2d_transfers=stats.h2d_transfers,
            d2h_transfers=stats.d2h_transfers,
            kernels=stats.kernels,
            predicted_seconds=(choice.predicted_time if choice is not None
                               else self.predict(problem, tile_size)),
            model=self.model,
            output=output,
            resilience=outcome.resilience,
        )
