"""Model-guided placement, batching compatibility, and admission.

The dispatcher is the decision core of the serving layer: for each
request it evaluates the deployed CoCoPeLia models to predict service
time on every simulated GPU, scores each placement by *predicted
completion time*

    score(g) = now + backlog(g) + T_pred(problem | locality(g))

where ``backlog(g)`` is the remaining predicted time of the request
currently running on ``g`` plus the admission-time predictions of its
queued work, and ``locality(g)`` re-predicts with the A operand
device-resident when ``g`` still caches the request's weight group.
Placement routes to the argmin (ties to the lowest GPU index).  A
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

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem, Loc, gemm_problem
from ..core.predcache import PredictionCache
from ..core.select import TileChoice, select_tile
from ..core.tailbank import PercentileBank
from ..sim.machine import MachineConfig
from .request import Request, RequestQueue, ServeError
from .resilience import HealthMonitor

PLACEMENT_POLICIES = ("model", "round_robin")
ADMISSION_MODES = ("none", "shed", "downgrade")

#: Worker name of the host CPU path.
HOST_WORKER = "host"


def gpu_worker(index: int) -> str:
    return f"gpu{index}"


#: Weight-cache-aware placement: re-predict with the A operand
#: device-resident when a GPU still caches the request's weight group.
LOCALITY = True
#: Share of each GPU's memory the LRU weight cache may hold.
WEIGHT_CACHE_FRACTION = 0.5


@dataclass
class WorkerState:
    """Dispatcher-visible state of one worker: a simulated GPU, or the
    host CPU fallback (``index`` None; its cache is unmodelled, so its
    residency map stays empty)."""

    index: Optional[int] = None
    queue: RequestQueue = field(default_factory=RequestQueue)
    #: Predicted absolute end time of the in-flight batch (0 = idle).
    running_pred_end: float = 0.0
    busy: bool = False
    #: LRU weight cache: residency key -> bytes (see _residency_key).
    resident: "OrderedDict[Tuple, int]" = field(default_factory=OrderedDict)
    #: Running total of the resident map's byte values.  Maintained
    #: incrementally by ``note_resident`` so eviction is O(evictions)
    #: instead of re-summing the whole cache per loop iteration.
    resident_bytes: int = 0

    def backlog(self, now: float) -> float:
        running = max(self.running_pred_end - now, 0.0) if self.busy else 0.0
        return running + self.queue.total_predicted()

    def drop_residency(self) -> None:
        """Forget every cached weight group (drain/fault path)."""
        self.resident.clear()
        self.resident_bytes = 0


@dataclass(frozen=True)
class Placement:
    """A placement decision for one request."""

    worker: str                   #: "gpuN" or "host"
    predicted_seconds: float      #: predicted service time (mean)
    predicted_completion: float   #: now + backlog + service (mean)
    #: The admission estimate: the service time scaled by the tail
    #: multiplier at the admission percentile (x1 under mean admission,
    #: where both equal the mean values), and its completion.
    admission_seconds: float
    admission_completion: float
    locality_hit: bool = False    #: weight group was device-resident


def _residency_key(problem: CoCoProblem, group: str) -> Tuple:
    """Cache key of a group's shared A operand (its "weights")."""
    a = problem.operands[0]
    return (group, a.s1, a.s2, str(problem.dtype))


def _placement(worker: str, now: float, backlog: float, service: float,
               hit: bool, mult: float) -> Placement:
    """Place on ``worker`` with ``service`` predicted behind ``backlog``;
    the admission estimate scales the service time by ``mult``."""
    return Placement(
        worker=worker, predicted_seconds=service,
        predicted_completion=now + backlog + service,
        admission_seconds=service * mult,
        admission_completion=now + backlog + service * mult,
        locality_hit=hit)


def _with_device_a(problem: CoCoProblem) -> CoCoProblem:
    """The same gemm with A already device-resident (locality hit)."""
    m, n, k = problem.dims
    locs = [op.loc for op in problem.operands]
    return gemm_problem(m, n, k, problem.dtype, Loc.DEVICE, locs[1], locs[2])


class Dispatcher:
    """Scores placements and applies admission control.

    The dispatcher owns no clock and runs nothing — it only answers
    "where should this go and will it make its deadline", and tracks
    the backlog/residency state those answers depend on.  The server
    drives it and reports dispatch/completion events back.
    """

    def __init__(
        self,
        machine: MachineConfig,
        models: MachineModels,
        n_gpus: int,
        model: str = "auto",
        policy: str = "model",
        admission: str = "shed",
        host_offload: bool = True,
        prediction_cache: Optional[PredictionCache] = None,
        monitor: Optional[HealthMonitor] = None,
        admission_percentile: Optional[float] = None,
        tail_bank: Optional[PercentileBank] = None,
    ) -> None:
        if n_gpus <= 0:
            raise ServeError(f"non-positive GPU count: {n_gpus}")
        if admission_percentile is not None:
            f = float(admission_percentile)
            if math.isnan(f) or not 0.0 < f <= 100.0:
                raise ServeError(
                    f"admission percentile outside (0, 100]: "
                    f"{admission_percentile}")
            admission_percentile = f
        if policy not in PLACEMENT_POLICIES:
            raise ServeError(
                f"unknown placement policy {policy!r}; "
                f"valid: {PLACEMENT_POLICIES}")
        if admission not in ADMISSION_MODES:
            raise ServeError(
                f"unknown admission mode {admission!r}; "
                f"valid: {ADMISSION_MODES}")
        self.machine = machine
        self.models = models
        self.model = model
        self.policy = policy
        self.admission = admission
        self.host_offload = host_offload
        self.gpus = [WorkerState(i) for i in range(n_gpus)]
        self.host = WorkerState()
        #: Optional health monitor: failed domains are excluded from
        #: placement, degraded/half-open domains are score-penalized.
        self.monitor = monitor
        self._cache_capacity = WEIGHT_CACHE_FRACTION * machine.gpu_mem_bytes
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

        O(1) after the first scoring of a problem signature: placement
        evaluates every GPU candidate per arrival, and all of them hit
        the prediction cache past the first."""
        return select_tile(problem, self.models, model=self.model,
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

    # -- residency / locality ------------------------------------------

    def _is_resident(self, gpu: WorkerState, request: Request) -> bool:
        if not LOCALITY or request.group is None:
            return False
        if request.problem.routine.name != "gemm":
            return False
        if request.problem.operands[0].loc is not Loc.HOST:
            return False
        return _residency_key(request.problem, request.group) in gpu.resident

    def note_resident(self, gpu_index: int, request: Request) -> None:
        """Record that a group's A tiles now live on ``gpu_index``."""
        if request.group is None or request.problem.routine.name != "gemm":
            return
        gpu = self.gpus[gpu_index]
        key = _residency_key(request.problem, request.group)
        a = request.problem.operands[0]
        size = a.elements() * request.problem.elem_size
        prev = gpu.resident.get(key)
        if prev is not None:
            gpu.resident_bytes -= prev
        gpu.resident[key] = size
        gpu.resident.move_to_end(key)
        gpu.resident_bytes += size
        # Evict LRU-first off the running byte total: O(evictions), not
        # O(len(resident)) re-sums per loop iteration.  The byte values
        # are ints, so the running total equals the exact sum and the
        # eviction order is identical to the re-summing loop's.
        while (gpu.resident_bytes > self._cache_capacity
               and len(gpu.resident) > 1):
            _evicted_key, evicted = gpu.resident.popitem(last=False)
            gpu.resident_bytes -= evicted

    # -- placement -----------------------------------------------------

    def score_gpu(self, gpu: WorkerState, request: Request,
                  problem: Optional[CoCoProblem] = None
                  ) -> Tuple[bool, CoCoProblem, TileChoice, float]:
        """The model's view of running ``problem`` (default: the
        request's) on ``gpu``, as ``(hit, problem, choice, service)``.

        ``hit`` says the request's weight group is resident on ``gpu``,
        and ``problem`` is then re-posed with A device-resident.
        ``choice`` is that problem's predicted best tile and time, and
        ``service`` the time scaled by the domain's health penalty: the
        placement score.  Execution runs ``choice`` unpenalized.
        """
        hit = self._is_resident(gpu, request)
        if problem is None:
            problem = request.problem
        if hit:
            problem = _with_device_a(problem)
        choice = self.predict_gpu(problem)
        service = choice.predicted_time
        if self.monitor is not None:
            penalty = self.monitor.penalty(gpu.index)
            if penalty != 1.0:
                service = service * penalty
        return hit, problem, choice, service

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
        gpus = (self._round_robin(take_turn) if self.policy == "round_robin"
                else self.gpus)
        # Keyed on (admission completion, worker), building only the
        # winning Placement: this runs once per GPU per arrival.
        best = best_key = None
        for gpu in gpus:
            if monitor is not None and not monitor.available(gpu.index):
                continue
            hit, _, _, service = self.score_gpu(gpu, request)
            backlog = gpu.backlog(now)
            key = (now + backlog + service * mult, gpu_worker(gpu.index))
            if best_key is None or key < best_key:
                best_key = key
                best = (backlog, service, hit)
        placement = (None if best is None
                     else _placement(best_key[1], now, *best, mult))
        # The host path competes when offload is enabled, and serves as
        # the placement of last resort when every GPU domain is failed.
        if self.host_offload or placement is None:
            service = self.predict_host(request.problem)
            if service is not None:
                host = _placement(HOST_WORKER, now, self.host.backlog(now),
                                  service, False, mult)
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
        if self.admission == "none" or request.deadline is None:
            return "accept"
        if placement.admission_completion <= request.deadline:
            return "accept"
        if placement.predicted_completion <= request.deadline:
            # The mean completion makes the deadline, so this rejection
            # is the tail inflation's alone (never under mean admission,
            # where the two completions are equal).
            self.tail_rejections += 1
        if self.admission == "shed":
            return "shed"
        request.downgraded = True
        # Keep the original SLO around: a downgraded request no longer
        # *schedules* by its deadline (EDF sees None), but the report
        # still judges whether the SLO it arrived with was met.
        request.original_deadline = request.deadline
        request.deadline = None
        request.priority = min(request.priority, 0)
        return "downgrade"

    # -- state lookups used by the server ------------------------------

    def state_for(self, worker: str) -> WorkerState:
        if worker == HOST_WORKER:
            return self.host
        if worker.startswith("gpu"):
            index = int(worker[3:])
            if 0 <= index < len(self.gpus):
                return self.gpus[index]
        raise ServeError(f"unknown worker {worker!r}")

    def queue_depth(self) -> int:
        return (sum(len(g.queue) for g in self.gpus)
                + len(self.host.queue))


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
