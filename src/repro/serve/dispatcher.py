"""Model-guided placement, batching compatibility, and admission.

The dispatcher is the decision core of the serving layer: for each
request it evaluates the deployed CoCoPeLia models to predict service
time on the simulated GPUs, scores each placement by *predicted
completion time*

    score(g) = now + backlog(g) + T_pred(problem)

where ``backlog(g)`` is the remaining predicted time of the request
currently running on ``g`` plus the admission-time predictions of its
queued work.  ``T_pred`` is the same on every GPU, so one placement
pass selects a tile once, however many GPUs it scores.  Placement
routes to the argmin (ties to the lowest GPU index).  A
``round_robin`` policy is kept as the baseline: same execution path,
placement by turn.

Sub-crossover gemms can beat the best GPU placement on the host CPU
(no PCIe transfers, no queueing behind large kernels); the dispatcher
compares against a flat-rate host prediction and routes below the
crossover.  Admission control sheds (or downgrades) requests whose
predicted completion already exceeds their deadline at arrival.  Scores
and the admission estimate scale ``T_pred`` by one per-request
multiplier: the tail bank's inflation at the admission percentile, or
1 under mean admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem, gemm_problem
from ..core.predcache import PredictionCache
from ..core.select import TileChoice, select_tile
from ..core.tailbank import PercentileBank
from ..sim.link import Direction
from ..sim.machine import MachineConfig
from .request import Request, RequestQueue, ServeError
from .resilience import HealthMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only (server imports us)
    from .server import ServerConfig

PLACEMENT_POLICIES = ("model", "round_robin")
ADMISSION_MODES = ("none", "shed", "downgrade")

#: Worker name of the host CPU path.
HOST_WORKER = "host"


@dataclass(eq=False)
class WorkerState:
    """Everything about one serving worker: a simulated GPU ``gpuN``, or
    the host CPU fallback (``index`` None).

    The dispatcher reads the queue and backlog; the server owns the
    in-flight slot and the report counters.  Records compare by
    identity: a placement names its worker by the record itself.
    """

    name: str = HOST_WORKER
    index: Optional[int] = None
    queue: RequestQueue = field(default_factory=RequestQueue)
    #: The batch in flight; None is the one idle marker.
    inflight: Optional[object] = None
    #: Predicted absolute end time of the in-flight batch (0 = idle).
    running_pred_end: float = 0.0
    #: A GPU's devices, oldest first; the last one runs its batches.
    devices: list = field(default_factory=list)
    device_key: Optional[tuple] = None  #: machine key of devices[-1]
    # -- report counters, charged as each batch settles ------------------
    busy_seconds: float = 0.0
    batches: int = 0
    requests: int = 0
    #: Per-batch device events (trace mode), from launch to settle.
    #: Each inner stream verifies on its own; one flat splice would
    #: alias tile tags across batches.
    traces: List[list] = field(default_factory=list)

    def occupy(self, batch: object, pred_end: float) -> None:
        """Put ``batch`` in flight, predicted to end at ``pred_end``."""
        self.inflight = batch
        self.running_pred_end = pred_end

    def free(self) -> None:
        """Take the in-flight batch out: the worker is idle."""
        self.inflight = None
        self.running_pred_end = 0.0

    # Summed over all of the worker's devices, settled batches' leftovers too.
    @property
    def h2d_bytes(self) -> int:
        return sum(d.bytes_moved(Direction.H2D) for d in self.devices)

    @property
    def d2h_bytes(self) -> int:
        return sum(d.bytes_moved(Direction.D2H) for d in self.devices)

    @property
    def kernels(self) -> int:
        return sum(d.compute.kernels_run for d in self.devices)

    def backlog(self, now: float) -> float:
        running = (max(self.running_pred_end - now, 0.0)
                   if self.inflight is not None else 0.0)
        return running + self.queue.total_predicted()


@dataclass(frozen=True)
class Placement:
    """A placement decision for one request."""

    worker: WorkerState           #: a GPU's record or the host's
    predicted_seconds: float      #: predicted service time (mean)
    predicted_completion: float   #: now + backlog + service (mean)
    #: The admission estimate: the service time scaled by the tail
    #: multiplier at the admission percentile (x1 under mean admission,
    #: where both equal the mean values), and its completion.
    admission_seconds: float
    admission_completion: float


def _placement(worker: WorkerState, now: float, backlog: float,
               service: float, mult: float) -> Placement:
    """Place on ``worker`` with ``service`` predicted behind ``backlog``;
    the admission estimate scales the service time by ``mult``."""
    return Placement(
        worker=worker, predicted_seconds=service,
        predicted_completion=now + backlog + service,
        admission_seconds=service * mult,
        admission_completion=now + backlog + service * mult)


class Dispatcher:
    """Scores placements and applies admission control.

    The dispatcher owns no clock and runs nothing — it only answers
    "where should this go and will it make its deadline", and tracks
    the backlog state those answers depend on.  The server
    drives it and reports dispatch/completion events back.
    """

    def __init__(
        self,
        machine: MachineConfig,
        models: MachineModels,
        config: "ServerConfig",
        prediction_cache: Optional[PredictionCache] = None,
        monitor: Optional[HealthMonitor] = None,
        tail_bank: Optional[PercentileBank] = None,
    ) -> None:
        """``config`` is already validated (``ServerConfig`` checks its
        fields on construction); the dispatcher reads its GPU count,
        prediction model, placement policy, admission mode, host offload
        and admission percentile."""
        self.machine = machine
        self.models = models
        self.config = config
        self.gpus = [WorkerState(f"gpu{i}", i) for i in range(config.n_gpus)]
        self.host = WorkerState()
        #: Every worker, in report and evacuation order: GPUs by index,
        #: then the host.
        self.workers = (*self.gpus, self.host)
        #: Optional health monitor: failed domains are excluded from
        #: placement, degraded/half-open domains are score-penalized.
        self.monitor = monitor
        self._rr_next = 0
        #: Memoized (model, problem signature) -> TileChoice scoring;
        #: pass a shared PredictionCache to reuse predictions across
        #: dispatchers scoring the same machine models.
        self.prediction_cache = (prediction_cache if prediction_cache
                                 is not None else PredictionCache())
        #: Percentile-aware admission (the tail bank).  With a
        #: percentile set, the admission estimate is the tail-inflated
        #: service time; the mean prediction is still recorded on every
        #: Placement so backlog accounting and reports stay comparable
        #: with mean-mode runs.  Bank precedence: the explicit one (a
        #: cluster-shared bank) > the machine's deployed fit
        #: (models.tail) > a fresh bank that starts at mean behaviour
        #: and refines online.
        p = config.admission_percentile
        admission_percentile = None if p is None else float(p)
        self.admission_percentile = admission_percentile
        if admission_percentile is not None:
            if tail_bank is None:
                tail_bank = (models.tail if models.tail is not None
                             else PercentileBank())
            tail_bank.ensure_percentile(admission_percentile)
            self.tail_bank: Optional[PercentileBank] = tail_bank
        else:
            self.tail_bank = None
        #: Requests rejected *only* because of the tail inflation (their
        #: mean predicted completion still made the deadline).
        self.tail_rejections = 0

    # -- predictions ---------------------------------------------------

    def predict_gpu(self, problem: CoCoProblem) -> TileChoice:
        """Model-predicted best tile and service time on one GPU.

        O(1) after the first scoring of a problem signature: a placement
        asks once per pass, the launch once per batch."""
        return select_tile(problem, self.models, model=self.config.model,
                           cache=self.prediction_cache)

    def predict_host(self, problem: CoCoProblem) -> Optional[float]:
        """Flat-rate host CPU service prediction (gemm only)."""
        if problem.routine.name != "gemm":
            return None
        return self.machine.host_seconds(problem.flops(), problem.dtype)

    def tail_multiplier(self, problem: CoCoProblem) -> float:
        """The factor from mean service time to admission estimate: the
        bank's inflation at the admission percentile, 1.0 under mean
        admission (or before the bank has a fit)."""
        if self.tail_bank is None:
            return 1.0
        return self.tail_bank.multiplier(problem, self.admission_percentile)

    # -- placement -----------------------------------------------------

    def _round_robin(self, take_turn: bool) -> Tuple[WorkerState, ...]:
        """The next available GPU in turn (none when every domain is
        failed); ``take_turn`` moves the turn past it."""
        n = len(self.gpus)
        for step in range(n):
            gpu = self.gpus[(self._rr_next + step) % n]
            if self.monitor is None or self.monitor.available(gpu.index):
                if take_turn:
                    self._rr_next += step + 1
                return (gpu,)
        if take_turn:
            self._rr_next += n
        return ()

    def place(self, request: Request, now: float) -> Optional[Placement]:
        """Choose a worker for ``request`` under the configured policy.

        Round-robin scores the next available GPU in turn; the model
        policy scores every available GPU and keeps the earliest
        admission completion (ties to the lowest GPU index).  Fault
        domains whose circuit breaker is open (``FAILED``) are
        excluded; degraded/half-open domains stay in rotation with their
        service predictions inflated by the observed health penalty.
        Returns ``None`` only when every domain is failed and the host
        cannot serve the routine — the caller must then shed.
        """
        return self._place(request, now, take_turn=True)

    def preview(self, request: Request, now: float) -> Optional[Placement]:
        """The placement :meth:`place` would make now, without taking a
        round-robin turn: a cluster node's estimate of routed work."""
        return self._place(request, now, take_turn=False)

    def _place(self, request: Request, now: float,
               take_turn: bool) -> Optional[Placement]:
        # One per-request multiplier scales every service prediction in
        # the scores; under mean admission it is 1.0, and service * 1.0
        # is bit-equal to service, so mean scores need no branch.
        mult = self.tail_multiplier(request.problem)
        monitor = self.monitor
        gpus = (self._round_robin(take_turn)
                if self.config.placement == "round_robin" else self.gpus)
        # One selection scores every GPU; a GPU's service is that time
        # times its health penalty.  GPUs are scanned by index, so a
        # strict ``<`` sends ties to the lowest one.
        predicted = None
        best = best_at = None
        for gpu in gpus:
            if monitor is not None and not monitor.available(gpu.index):
                continue
            if predicted is None:
                predicted = self.predict_gpu(request.problem).predicted_time
            service = predicted
            if monitor is not None:
                penalty = monitor.penalty(gpu.index)
                if penalty != 1.0:
                    service = service * penalty
            backlog = gpu.backlog(now)
            at = now + backlog + service * mult
            if best_at is None or at < best_at:
                best_at = at
                best = (gpu, backlog, service)
        placement = None if best is None else _placement(
            best[0], now, best[1], best[2], mult)
        # The host path competes when offload is enabled, and serves as
        # the placement of last resort when every GPU domain is failed.
        if self.config.host_offload or placement is None:
            service = self.predict_host(request.problem)
            if service is not None:
                host = _placement(self.host, now, self.host.backlog(now),
                                  service, mult)
                if (placement is None or host.admission_completion
                        < placement.admission_completion):
                    return host
        return placement

    # -- admission -----------------------------------------------------

    def admit(self, request: Request, placement: Placement) -> str:
        """Admission decision: "accept", "shed", or "downgrade".

        A request whose admission estimate of its completion already
        exceeds its deadline cannot meet its SLO; serving it anyway
        only delays requests that still can.  With percentile-aware
        admission the estimate is tail-inflated: a request whose p99
        completion blows the deadline is rejected even when the mean
        prediction squeaks under.  Mean admission is the same rule at
        multiplier 1.
        """
        admission = self.config.admission
        if admission == "none" or request.deadline is None:
            return "accept"
        if placement.admission_completion <= request.deadline:
            return "accept"
        if placement.predicted_completion <= request.deadline:
            # The mean completion makes the deadline, so this rejection
            # is the tail inflation's alone (never under mean admission,
            # where the two completions are equal).
            self.tail_rejections += 1
        if admission == "shed":
            return "shed"
        request.downgraded = True
        # Keep the original SLO around: a downgraded request no longer
        # *schedules* by its deadline (EDF sees None), but the report
        # still judges whether the SLO it arrived with was met.
        request.original_deadline = request.deadline
        request.deadline = None
        request.priority = min(request.priority, 0)
        return "downgrade"

    def queue_depth(self) -> int:
        return sum(len(w.queue) for w in self.workers)


# ---------------------------------------------------------------------------
# batching compatibility
# ---------------------------------------------------------------------------

def batchable(head: Request, candidate: Request, max_flops: float) -> bool:
    """Can ``candidate`` be coalesced into a batch led by ``head``?

    Compatible means same routine/dtype/locations, both sub-``max_flops``
    and, for gemm, the same (M, K) and weight group so the batch is one
    wider gemm against the shared A.  Axpy batches concatenate.
    """
    hp, cp = head.problem, candidate.problem
    if hp.routine.name != cp.routine.name or hp.dtype != cp.dtype:
        return False
    if [op.loc for op in hp.operands] != [op.loc for op in cp.operands]:
        return False
    if hp.flops() > max_flops or cp.flops() > max_flops:
        return False
    if hp.routine.name == "gemm":
        if head.group is None or head.group != candidate.group:
            return False
        return (hp.dims[0], hp.dims[2]) == (cp.dims[0], cp.dims[2])
    if hp.routine.name == "axpy":
        return True
    return False


def coalesce(members: List[Request]) -> CoCoProblem:
    """The combined problem of a compatible batch.

    gemm batches concatenate along N (one wider multiply against the
    shared A); axpy batches concatenate the vectors.
    """
    head = members[0].problem
    if len(members) == 1:
        return head
    if head.routine.name == "gemm":
        m, _, k = head.dims
        n_total = sum(r.problem.dims[1] for r in members)
        locs = [op.loc for op in head.operands]
        return gemm_problem(m, n_total, k, head.dtype, *locs)
    if head.routine.name == "axpy":
        n_total = sum(r.problem.dims[0] for r in members)
        from ..core.params import axpy_problem
        locs = [op.loc for op in head.operands]
        return axpy_problem(n_total, head.dtype, *locs)
    raise ServeError(f"cannot coalesce routine {head.routine.name!r}")
