"""The BLAS serving engine: arrivals, dispatch, execution, recovery.

:class:`BlasServer` runs an open-loop workload against an N-GPU
simulated machine on **one shared simulator clock**.  Arrivals are
pre-scheduled events; each admitted request is queued on the worker the
:class:`~repro.serve.dispatcher.Dispatcher` chose; an idle worker pops
its queue head (EDF-within-priority), coalesces compatible small
requests into one batch, and executes its tile pipeline on a fresh
:class:`~repro.sim.device.GpuDevice` sharing the server clock.  The
first batch of a (problem signature, tile, machine degradation) key
runs the real tile scheduler and records its device program
(:mod:`repro.runtime.program`); every later batch of that key replays
the program onto its own fresh device, through the same device calls.
Completion is detected with ``Operation.on_done`` on the last op of
each pipeline stream — no polling, no synchronize.

A fresh device per batch is the repo's isolation idiom (see
``OffloadLibrary._next_device`` in :mod:`repro.runtime.offload`) and
doubles as the fault boundary: when injected faults exhaust their retry
budget the pipeline wedges and never completes, so every batch carries
a watchdog event at ``TIMEOUT_FACTOR`` times its predicted service
time (plus ``TIMEOUT_FLOOR``).  If the watchdog fires first,
the batch's device is abandoned, its gemm members are re-dispatched to
the host CPU worker (the serving analogue of the PR-1 host fallback),
and the GPU moves on.

Each GPU worker is additionally one *fault domain* with a
:class:`~repro.serve.resilience.HealthMonitor` state machine behind it.
Lifecycle faults from the machine's
:class:`~repro.sim.faults.FaultPlan` (device failures, degradation and
link-brownout windows) are scheduled on the serve clock; a failed
domain's circuit breaker opens, its queued and in-flight work is
drained and re-placed on survivors with arrival/deadline preserved, and
after a cool-off the breaker goes half-open and admits one probe batch.
Degradation is modelled physically — batches launched inside a window
run on a genuinely slowed machine copy — so the monitor detects it the
honest way, through inflated observed latencies.

All simulated work, including the host CPU worker, is perturbed by the
machine's seeded noise model, so two serves of the same workload on the
same config are event-for-event identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..backend.cublas import CublasContext
from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem
from ..runtime.offload import host_operands
from ..runtime.program import DeviceProgram, ProgramRecorder
from ..runtime.scheduler import AxpyTileScheduler, GemmTileScheduler
from ..sim.device import GpuDevice
from ..sim.engine import Simulator
from ..sim.faults import LifecycleFault, ResilienceCounters
from ..sim.link import Direction
from ..sim.machine import MachineConfig
from ..sim.noise import NoiseModel
from .dispatcher import (
    ADMISSION_MODES,
    HOST_WORKER,
    PLACEMENT_POLICIES,
    Dispatcher,
    WorkerState,
    batchable,
    coalesce,
    gpu_worker,
)
from .request import Request, RequestState, ServeError
from .resilience import HealthMonitor, HealthState, ResilienceStats


#: Max requests coalesced per batch ...
BATCH_MAX = 4
#: ... all of them under this many flops.
BATCH_SMALL_FLOPS = 4.0e9
#: Watchdog: a batch is declared wedged when it runs longer than
#: ``predicted * TIMEOUT_FACTOR + TIMEOUT_FLOOR`` simulated seconds.
TIMEOUT_FACTOR = 50.0
TIMEOUT_FLOOR = 0.05
#: Simulated seconds an open breaker waits before going half-open.
BREAKER_COOLOFF = 0.05
#: Hedging mirrors a solo request whose remaining deadline slack at
#: dispatch is under ``HEDGE_SLACK * predicted``.
HEDGE_SLACK = 1.0


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one serving run (all deterministic given ``seed``)."""

    n_gpus: int = 4
    placement: str = "model"          #: see PLACEMENT_POLICIES
    admission: str = "shed"           #: see ADMISSION_MODES
    model: str = "auto"               #: prediction model for placement
    batching: bool = True
    host_offload: bool = True         #: route sub-crossover gemms to CPU
    seed: int = 0
    trace: bool = False               #: record per-batch device traces
    #: Deadline hedging: mirror a near-deadline solo request onto a
    #: second idle healthy worker; first completion wins.  Default off.
    hedging: bool = False
    #: Percentile-aware admission: judge shed/downgrade against the
    #: tail-inflated predicted completion at this percentile (e.g. 99.0).
    #: None (default) is mean-based admission: the same rule with the
    #: multiplier at 1.
    admission_percentile: Optional[float] = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENT_POLICIES:
            raise ServeError(f"unknown placement policy {self.placement!r}")
        if self.admission not in ADMISSION_MODES:
            raise ServeError(f"unknown admission mode {self.admission!r}")
        if self.admission_percentile is not None:
            p = self.admission_percentile
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ServeError(
                    f"admission_percentile must be a number, got {p!r}")
            if math.isnan(p) or not 0.0 < p <= 100.0:
                raise ServeError(
                    f"admission_percentile outside (0, 100]: {p}")


@dataclass
class WorkerStats:
    """Per-worker accounting for the serve report."""

    worker: str
    busy_seconds: float = 0.0
    batches: int = 0
    requests: int = 0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    kernels: int = 0
    locality_hits: int = 0


@dataclass
class ServeOutcome:
    """Everything one serving run produced."""

    requests: List[Request]
    config: ServerConfig
    gpu_stats: List[WorkerStats]
    host_stats: WorkerStats
    n_batches: int = 0
    end_time: float = 0.0
    #: Per-GPU list of per-batch device event streams (trace mode).
    #: Each batch ran on a fresh device, so each inner stream is a
    #: self-contained trace that verifies on its own; one flat splice
    #: would alias tile tags across batches.
    gpu_traces: List[List[list]] = field(default_factory=list)
    #: True when the machine carried a fault plan with any active fault
    #: (the serve report emits its resilience block only then, keeping
    #: fault-free reports byte-identical to pre-resilience runs).
    faulted: bool = False
    #: Aggregated per-device fault/retry counters across all batches.
    resilience: Optional[ResilienceCounters] = None
    #: Serve-level drain/requeue/hedge/breaker accounting.
    resilience_stats: Optional[ResilienceStats] = None
    #: Final per-domain health snapshot and the chronological
    #: transition log (both JSON-ready; chaos reports mine these).
    health: List[dict] = field(default_factory=list)
    health_transitions: List[dict] = field(default_factory=list)
    #: Tail-bank snapshot + admission counters (percentile mode only;
    #: None keeps mean-mode reports byte-identical).
    tail: Optional[dict] = None

    def done_requests(self) -> List[Request]:
        return [r for r in self.requests if r.state is RequestState.DONE]


class _Batch:
    """One in-flight unit of execution on a worker."""

    __slots__ = ("batch_id", "members", "problem", "worker", "t0",
                 "predicted", "device", "pipeline", "watchdog",
                 "pending_ops", "settled", "locality_hit", "cancelled",
                 "is_hedge", "twin")

    def __init__(self, batch_id: int, members: List[Request],
                 problem: CoCoProblem, worker: str, t0: float,
                 predicted: float) -> None:
        self.batch_id = batch_id
        self.members = members
        self.problem = problem
        self.worker = worker
        self.t0 = t0
        self.predicted = predicted
        self.device = None
        #: the live scheduler or program replay; ``release()`` frees
        #: its device tiles
        self.pipeline = None
        self.watchdog = None
        self.pending_ops = 0
        self.settled = False
        self.locality_hit = False
        #: Cancelled batches (drained domain / lost hedge race) run
        #: their remaining simulated events out but complete nobody.
        self.cancelled = False
        self.is_hedge = False
        #: The other copy of a hedged request (primary <-> hedge).
        self.twin: Optional["_Batch"] = None


class BlasServer:
    """Serve a request list on an N-GPU simulated machine."""

    def __init__(self, machine: MachineConfig, models: MachineModels,
                 config: Optional[ServerConfig] = None,
                 metrics=None, prediction_cache=None,
                 tail_bank=None, on_terminal=None) -> None:
        """``on_terminal`` is called with each request as it reaches a
        real terminal state (done/shed/failed; *not* migrated)."""
        self.machine = machine
        self.models = models
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics
        self.sim = Simulator()
        self.monitor = HealthMonitor(self.config.n_gpus)
        self.dispatcher = Dispatcher(
            machine, models, self.config.n_gpus,
            model=self.config.model, policy=self.config.placement,
            admission=self.config.admission,
            host_offload=self.config.host_offload,
            prediction_cache=prediction_cache,
            monitor=self.monitor,
            admission_percentile=self.config.admission_percentile,
            tail_bank=tail_bank,
        )
        #: Residual-quantile bank of percentile-aware admission (None
        #: under mean admission); the dispatcher resolves which bank.
        self.tail_bank = self.dispatcher.tail_bank
        #: Host CPU service noise; its own substream so the host worker
        #: never perturbs the GPU devices' draws.
        self._host_noise = NoiseModel(seed=self.config.seed + 7919,
                                      sigma=machine.noise_sigma)
        self._next_batch = 0
        self._stats = [WorkerStats(gpu_worker(i))
                       for i in range(self.config.n_gpus)]
        self._host_stats = WorkerStats(HOST_WORKER)
        self._gpu_traces: List[List[list]] = [
            [] for _ in range(self.config.n_gpus)]
        #: Set by serve() and by the first submit(); serve() then
        #: refuses to run.
        self._submitted = False
        self._on_terminal = on_terminal
        self._outstanding = 0
        #: In-flight host batch and its completion event, tracked so a
        #: cluster evacuation can cancel host work mid-service.
        self._host_inflight: Optional[Tuple[_Batch, object]] = None
        # -- fault-domain state --------------------------------------
        #: In-flight batch per GPU index (drains cancel through this).
        self._inflight: Dict[int, _Batch] = {}
        #: Ground-truth degradation per GPU index, set by lifecycle
        #: windows.  Deliberately invisible to monitor and dispatcher:
        #: they only ever react to *observed* latency inflation.
        self._slowdown = [1.0] * self.config.n_gpus
        self._link_factor = [1.0] * self.config.n_gpus
        #: Memoized degraded machine copies, keyed on the ground truth.
        self._degraded: Dict[Tuple[float, float], MachineConfig] = {}
        #: Recorded device programs, keyed on (problem signature, tile,
        #: ground-truth degradation): the first batch of a key runs the
        #: tile scheduler, every later one replays its program.
        self.programs: Dict[tuple, DeviceProgram] = {}
        self._stats_res = ResilienceStats()
        self._device_counters = ResilienceCounters()
        plan = machine.fault_plan
        self._faulted = plan is not None and plan.any_faults
        self._schedule_lifecycle()

    # -- public entry ---------------------------------------------------

    def serve(self, requests: List[Request]) -> ServeOutcome:
        """Submit the whole workload, run it to completion, and return
        the outcome.  A server serves once, and only if nothing was
        submitted to it before."""
        if self._submitted:
            raise ServeError("a BlasServer instance serves exactly once")
        self._submitted = True
        requests = sorted(requests, key=lambda r: (r.arrival, r.req_id))
        # Ordering contract (pinned, not accidental): lifecycle events
        # were scheduled by __init__, before any arrival, so a fault
        # onset at exactly an arrival time gets the lower seq and fires
        # first — the arrival then dispatches against the post-fault
        # health state.  Equal-time arrivals fire in (arrival, req_id)
        # order via the sort above.  Regression:
        # tests/sim/test_tie_ordering.py.
        for request in requests:
            self.submit(request)
        self.sim.run()
        end = max((r.completion_t for r in requests
                   if r.completion_t is not None), default=0.0)
        # Tail-bank state + admission counters (percentile mode only;
        # None keeps mean-mode documents byte-identical).
        tail = None
        if self.tail_bank is not None:
            tail = self.tail_bank.snapshot()
            tail["percentile"] = self.config.admission_percentile
            tail["tail_rejections"] = self.dispatcher.tail_rejections
        return ServeOutcome(
            requests=requests,
            config=self.config,
            gpu_stats=self._stats,
            host_stats=self._host_stats,
            n_batches=self._next_batch,
            end_time=end,
            gpu_traces=self._gpu_traces,
            faulted=self._faulted,
            resilience=self._device_counters,
            resilience_stats=self._stats_res,
            health=self.monitor.snapshot(),
            health_transitions=list(self.monitor.transitions),
            tail=tail,
        )

    # -- request-at-a-time drive (cluster nodes) ------------------------
    #
    # A cluster node cannot hand the server a complete request list up
    # front: the router feeds it arrivals one epoch at a time while a
    # coordinator drives its clock with Simulator.run_to().  submit()
    # is the same path serve() takes, minus the outer sim.run(); the
    # node accounts terminals through ``on_terminal`` instead of
    # keeping request objects.

    def _terminal(self, request: Request) -> None:
        """One request reached done/shed/failed."""
        self._outstanding -= 1
        if self._on_terminal is not None:
            self._on_terminal(request)

    def submit(self, request: Request) -> None:
        """Schedule one request's arrival on the server clock.

        A migrated request keeps its original ``arrival`` (its EDF
        slack and latency accounting stay honest) but cannot arrive in
        the server's past, so it lands at ``max(arrival, now)``.
        """
        self._submitted = True
        self._outstanding += 1
        self.sim.schedule_at(max(request.arrival, self.sim.now),
                             lambda r=request: self._on_arrival(r))

    @property
    def outstanding(self) -> int:
        """Submitted requests not yet in a terminal state."""
        return self._outstanding

    def _migrate(self, request: Request) -> Request:
        """Hand one request back to the caller, MIGRATED, with its
        arrival and deadline untouched."""
        request.state = RequestState.MIGRATED
        request.worker = None
        request.dispatch_t = None
        request.first_t = None
        request.batch_id = None
        self._outstanding -= 1
        return request

    def _migrate_running(self, batch: _Batch) -> List[Request]:
        # Hedge twins share one members list; the RUNNING check keeps
        # the second copy from migrating a member twice.
        return [self._migrate(m) for m in batch.members
                if m.state is RequestState.RUNNING]

    def drain_queued(self) -> List[Request]:
        """Graceful scale-down: hand back all *queued* work, migrated.

        In-flight batches run to completion on this node; every queued
        request is popped (EDF order per worker, GPUs then host) and
        marked MIGRATED with arrival/deadline untouched, for the caller
        to re-place elsewhere.
        """
        moved: List[Request] = []
        for state in (*self.dispatcher.gpus, self.dispatcher.host):
            while state.queue:
                moved.append(self._migrate(state.queue.pop()))
        return moved

    def evacuate(self) -> List[Request]:
        """Hard stop (node kill): drain queues AND cancel in-flight.

        Cancelled batches are accounted like a domain drain — device
        time charged, counters folded — and their still-RUNNING members
        come back MIGRATED alongside the queued work.  The node's clock
        survives but nothing new will fire for these requests.
        """
        moved = self.drain_queued()
        for index in sorted(self._inflight):
            batch = self._inflight[index]
            if batch.settled:
                continue
            batch.cancelled = True
            self._settle_gpu_batch(index, batch)
            state = self.dispatcher.gpus[index]
            state.busy = False
            state.running_pred_end = 0.0
            moved.extend(self._migrate_running(batch))
        self._inflight.clear()
        if self._host_inflight is not None:
            batch, ev = self._host_inflight
            ev.cancel()
            self._host_inflight = None
            self._host_stats.busy_seconds += self.sim.now - batch.t0
            self._host_stats.batches += 1
            host = self.dispatcher.host
            host.busy = False
            host.running_pred_end = 0.0
            moved.extend(self._migrate_running(batch))
        return moved

    # -- fault-domain lifecycle ----------------------------------------

    def _schedule_lifecycle(self) -> None:
        """Put the fault plan's device-lifecycle events on the clock.

        Events naming devices beyond this server's fleet are ignored
        (a plan written for a larger deployment stays usable).
        """
        plan = self.machine.fault_plan
        if plan is None or not plan.lifecycle:
            return
        for event in plan.lifecycle:
            if event.device >= self.config.n_gpus:
                continue
            self.sim.schedule_at(
                event.onset, lambda e=event: self._on_lifecycle_onset(e))
            if math.isfinite(event.duration):
                self.sim.schedule_at(
                    event.end, lambda e=event: self._on_lifecycle_end(e))

    def _on_lifecycle_onset(self, event: LifecycleFault) -> None:
        index = event.device
        if event.kind == "device_failure":
            self._count("serve.device_failures")
            self._fail_domain(index)
        elif event.kind == "device_degradation":
            self._slowdown[index] = event.slowdown
        elif event.kind == "link_brownout":
            self._link_factor[index] = event.bandwidth_factor

    def _on_lifecycle_end(self, event: LifecycleFault) -> None:
        index = event.device
        if event.kind == "device_failure":
            # The device came back: breaker goes half-open, one probe.
            self._half_open(index)
        elif event.kind == "device_degradation":
            self._slowdown[index] = 1.0
        elif event.kind == "link_brownout":
            self._link_factor[index] = 1.0

    def _fail_domain(self, index: int) -> None:
        """A detected device failure: open the breaker and drain."""
        if self.monitor.force_fail(index, self.sim.now):
            self._drain_domain(self.dispatcher.gpus[index])

    def _half_open(self, index: int) -> None:
        """Cool-off elapsed or device returned: admit one probe batch."""
        if self.monitor.begin_recovery(index, self.sim.now):
            self._maybe_dispatch(gpu_worker(index))

    def _batch_machine(self, index: int
                       ) -> Tuple[Tuple[float, float], MachineConfig]:
        """The machine a batch launched on ``index`` right now runs on,
        with its ``(slowdown, link factor)`` key.

        While a degradation/brownout window is open the batch runs on a
        genuinely slowed copy — the monitor then *observes* the window
        through inflated latencies rather than being told about it.
        """
        slowdown = self._slowdown[index]
        link = self._link_factor[index]
        key = (slowdown, link)
        if slowdown == 1.0 and link == 1.0:
            return key, self.machine
        machine = self._degraded.get(key)
        if machine is None:
            machine = self.machine.with_degradation(
                compute_slowdown=slowdown, bandwidth_factor=link)
            self._degraded[key] = machine
        return key, machine

    # -- metrics helpers ------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def _gauge_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(
                self.dispatcher.queue_depth())

    # -- arrival & admission --------------------------------------------

    def _on_arrival(self, request: Request) -> None:
        now = self.sim.now
        self._count("serve.requests")
        placement = self.dispatcher.place(request, now)
        if placement is None:
            # Every fault domain is failed and the host cannot serve
            # this routine: shedding is the only terminal state left.
            request.enqueue_t = now
            request.state = RequestState.SHED
            self._stats_res.unavailable_shed += 1
            self._count("serve.shed")
            self._count("serve.unavailable_shed")
            self._terminal(request)
            return
        decision = self.dispatcher.admit(request, placement)
        request.enqueue_t = now
        if decision == "shed":
            request.state = RequestState.SHED
            self._count("serve.shed")
            if placement.predicted_completion <= request.deadline:
                # Shed on the tail inflation alone: the mean completion
                # makes the deadline (never under mean admission).
                self._count("serve.tail_sheds")
            self._terminal(request)
            return
        if decision == "downgrade":
            self._count("serve.downgraded")
        self._count("serve.admitted")
        request.state = RequestState.QUEUED
        request.worker = placement.worker
        request.predicted_seconds = placement.predicted_seconds
        request.predicted_completion = placement.predicted_completion
        request.admission_seconds = placement.admission_seconds
        self.dispatcher.state_for(placement.worker).queue.push(request)
        self._gauge_depth()
        self._maybe_dispatch(placement.worker)

    # -- dispatch -------------------------------------------------------

    def _maybe_dispatch(self, worker: str) -> None:
        state = self.dispatcher.state_for(worker)
        if state.busy or not state.queue:
            return
        if worker != HOST_WORKER and not self.monitor.available(state.index):
            return
        now = self.sim.now
        head = state.queue.pop()
        members = [head]
        if (self.config.batching and worker != HOST_WORKER
                and head.problem.flops() <= BATCH_SMALL_FLOPS):
            for other in list(state.queue):
                if len(members) >= BATCH_MAX:
                    break
                if batchable(head, other, BATCH_SMALL_FLOPS):
                    state.queue.remove(other)
                    members.append(other)
        problem = coalesce(members) if len(members) > 1 else head.problem
        batch = _Batch(self._next_batch, members, problem, worker, now, 0.0)
        self._next_batch += 1
        for member in members:
            member.state = RequestState.RUNNING
            member.dispatch_t = now
            member.worker = worker
            member.batch_id = batch.batch_id
            self._observe("serve.wait_seconds", member.wait or 0.0)
        if len(members) > 1:
            self._count("serve.batches")
            self._count("serve.batched_requests", len(members))
        self._gauge_depth()
        if worker == HOST_WORKER:
            self._run_on_host(batch)
        else:
            self._run_on_gpu(state, batch)

    # -- GPU execution --------------------------------------------------

    def _run_on_gpu(self, state: WorkerState, batch: _Batch) -> None:
        self._launch_on_device(state, batch)
        if batch.settled or not self.config.hedging:
            return
        head = batch.members[0]
        if (len(batch.members) == 1 and head.deadline is not None
                and batch.twin is None and not batch.is_hedge):
            slack = head.deadline - state.running_pred_end
            if slack < HEDGE_SLACK * batch.predicted:
                self._hedge(state, batch)

    def _launch_on_device(self, state: WorkerState, batch: _Batch) -> None:
        cfg = self.config
        head = batch.members[0]
        hit, problem, choice, _ = self.dispatcher.score_gpu(
            state, head, batch.problem)
        if hit:
            batch.locality_hit = True
            self._stats[state.index].locality_hits += len(batch.members)
        batch.predicted = choice.predicted_time
        batch.problem = problem

        machine_key, machine = self._batch_machine(state.index)
        seed = cfg.seed + 37 * head.req_id + state.index
        # Each batch draws its own fault sequence, offset from the
        # plan's seed by the batch seed (the library offsets by call).
        plan = machine.fault_plan
        faults = (plan.with_seed(plan.seed + seed)
                  if plan is not None and plan.any_event_faults else None)
        batch.device = GpuDevice(
            machine, sim=self.sim, seed=seed, trace=cfg.trace,
            faults=faults, metrics=self.metrics,
        )
        state.busy = True
        state.running_pred_end = self.sim.now + batch.predicted
        self._inflight[state.index] = batch
        if (self.monitor.devices[state.index].state
                is HealthState.RECOVERING):
            self._stats_res.probes += 1
            self._count("serve.probes")
        streams = self._issue_pipeline(batch, choice.t_best, machine_key)

        last_ops = [s.last_op for s in streams if s.last_op is not None]
        batch.pending_ops = len(last_ops)
        if not last_ops:
            self._finish_gpu_batch(state, batch)
            return
        for op in last_ops:
            op.on_done(lambda s=state, b=batch: self._on_stream_done(s, b))
        deadline = batch.predicted * TIMEOUT_FACTOR + TIMEOUT_FLOOR
        # Ordering contract (pinned): the watchdog is scheduled at
        # launch, so if a stream completion lands at exactly the
        # deadline the watchdog holds the lower seq and fires first —
        # the batch times out.  ``batch.settled`` makes the subsequent
        # completion a no-op either way, so the tie is deterministic
        # under any FIFO scheduler.  Regression:
        # tests/sim/test_tie_ordering.py.
        batch.watchdog = self.sim.schedule(
            deadline, lambda s=state, b=batch: self._on_timeout(s, b))

    def _issue_pipeline(self, batch: _Batch, t: int,
                        machine_key: Tuple[float, float]) -> tuple:
        """Issue the batch's tile pipeline (tile size ``t``) on its
        device and return the pipeline's streams.

        The first batch of a (problem, tile, machine) key builds the
        tile scheduler and records its device program; every later one
        replays that program onto its own fresh device.  A recording
        whose issue raises stores nothing.
        """
        device = batch.device
        problem = batch.problem
        key = (problem.signature(), t, machine_key)
        program = self.programs.get(key)
        if program is not None:
            batch.pipeline = replay = program.replay(device)
            return replay.streams
        recorder = ProgramRecorder(device)
        try:
            ctx = CublasContext(device)
            hosts = host_operands(problem)
            if problem.routine.name == "gemm":
                scheduler = GemmTileScheduler(ctx, problem, t, hosts)
            elif problem.routine.name == "axpy":
                scheduler = AxpyTileScheduler(ctx, problem, t, hosts)
            else:
                raise ServeError(
                    "serving does not support routine "
                    f"{problem.routine.name!r}")
            batch.pipeline = scheduler
            scheduler._issue()
        finally:
            recorder.detach()
        program = recorder.program(t)
        if program is not None:
            self.programs[key] = program
        return scheduler.streams

    def _hedge(self, state: WorkerState, batch: _Batch) -> None:
        """Mirror a near-deadline solo request onto an idle worker.

        First completion wins: the winner completes the request and
        marks its twin cancelled; the loser's simulated pipeline runs
        out without completing anybody.  Only an idle, queue-empty,
        non-failed domain qualifies — hedges never steal capacity from
        queued work.
        """
        mirror = None
        for gpu in self.dispatcher.gpus:
            if gpu.index == state.index or gpu.busy or gpu.queue:
                continue
            if not self.monitor.available(gpu.index):
                continue
            mirror = gpu
            break
        if mirror is None:
            return
        head = batch.members[0]
        head.hedged = True
        self._stats_res.hedges += 1
        self._count("serve.hedges")
        hedge = _Batch(self._next_batch, batch.members, head.problem,
                       gpu_worker(mirror.index), self.sim.now, 0.0)
        self._next_batch += 1
        hedge.is_hedge = True
        hedge.twin = batch
        batch.twin = hedge
        self._launch_on_device(mirror, hedge)

    def _on_stream_done(self, state: WorkerState, batch: _Batch) -> None:
        batch.pending_ops -= 1
        if batch.pending_ops == 0 and not batch.settled:
            self._finish_gpu_batch(state, batch)

    def _finish_gpu_batch(self, state: WorkerState, batch: _Batch) -> None:
        # Read before settling, which unlinks a pair whose twin has
        # already settled.
        twin = batch.twin
        self._settle_gpu_batch(state.index, batch)
        end = self.sim.now
        service = end - batch.t0
        device = batch.device
        stats = self._stats[state.index]
        if device is not None:
            stats.h2d_bytes += device.bytes_moved(Direction.H2D)
            stats.d2h_bytes += device.bytes_moved(Direction.D2H)
            stats.kernels += device.compute.kernels_run
        events = (list(device.trace.events)
                  if device is not None and device.trace is not None else None)
        if events is not None:
            self._gpu_traces[state.index].append(events)
        if batch.cancelled:
            # This copy lost its hedge race: the members already
            # completed on the twin.  Account the device time, free the
            # worker, complete nobody.
            if batch.pipeline is not None:
                batch.pipeline.release()
            state.busy = False
            state.running_pred_end = 0.0
            self._maybe_dispatch(gpu_worker(state.index))
            return
        stats.requests += len(batch.members)
        if twin is not None:
            if not twin.settled:
                twin.cancelled = True
            if batch.is_hedge:
                self._stats_res.hedge_wins += 1
                self._count("serve.hedge_wins")
            else:
                self._stats_res.hedge_cancels += 1
                self._count("serve.hedge_cancels")
        probe = (self.monitor.devices[state.index].state
                 is HealthState.RECOVERING)
        self.monitor.on_success(state.index, service, batch.predicted, end)
        if probe:
            self._stats_res.recoveries += 1
            self._count("serve.recoveries")
        for member in batch.members:
            if batch.is_hedge:
                # The hedge copy won: attribute the execution to it.
                member.worker = batch.worker
                member.batch_id = batch.batch_id
                member.dispatch_t = batch.t0
            self._complete_request(member, end, service, events)
        if batch.pipeline is not None:
            batch.pipeline.release()
        self.dispatcher.note_resident(state.index, batch.members[0])
        state.busy = False
        state.running_pred_end = 0.0
        self._maybe_dispatch(gpu_worker(state.index))

    def _on_timeout(self, state: WorkerState, batch: _Batch) -> None:
        """The batch wedged (fault retries exhausted): abandon & recover."""
        if batch.settled:
            return
        self._settle_gpu_batch(state.index, batch)
        end = self.sim.now
        self._count("serve.timeouts")
        failures = (len(batch.device._fault_failures)
                    if batch.device is not None else 0)
        self._count("serve.fault_failures", max(failures, 1))
        # Members that finished (or still run) on a hedge twin are left
        # alone: only this wedged copy is abandoned.
        twin = batch.twin
        if not batch.cancelled and (twin is None or twin.settled):
            for member in batch.members:
                self._fallback_to_host(member)
        opened = self.monitor.on_fault(state.index, end)
        state.busy = False
        state.running_pred_end = 0.0
        if opened:
            self._stats_res.breaker_opens += 1
            self._count("serve.breaker_opens")
            self._drain_domain(state)
            self.sim.schedule(
                BREAKER_COOLOFF,
                lambda i=state.index: self._half_open(i))
        self._gauge_depth()
        self._maybe_dispatch(HOST_WORKER)
        self._maybe_dispatch(gpu_worker(state.index))

    def _fallback_to_host(self, member: Request) -> None:
        """Re-queue one member of a wedged batch onto the host worker.

        The request keeps its original ``arrival`` and ``deadline``:
        its EDF ``queue_key`` — and with it its honest slack against
        everything already queued on the host — must not reset just
        because a device ate its first attempt.  Only the service
        prediction, and the admission estimate with it, is refreshed for
        the new worker.
        """
        service = (self.dispatcher.predict_host(member.problem)
                   if self.config.host_offload else None)
        if service is not None:
            member.fallback = True
            member.state = RequestState.QUEUED
            member.worker = HOST_WORKER
            member.predicted_seconds = service
            member.admission_seconds = (
                service * self.dispatcher.tail_multiplier(member.problem))
            self._count("serve.host_fallbacks")
            self.dispatcher.host.queue.push(member)
        else:
            member.state = RequestState.FAILED
            self._count("serve.failed")
            self._terminal(member)

    # -- drain & requeue ------------------------------------------------

    def _drain_domain(self, state: WorkerState) -> None:
        """Gracefully drain a failed domain.

        The in-flight batch (if any) is cancelled — its simulated
        pipeline runs out as a zombie that completes nobody — and both
        its running members and the whole backlog are re-placed on
        surviving workers with arrival/deadline preserved.  The weight
        cache is invalidated: residency on a failed device is gone.
        """
        self._stats_res.drains += 1
        self._count("serve.drains")
        moved: List[Request] = []
        batch = self._inflight.pop(state.index, None)
        if batch is not None and not batch.settled:
            batch.cancelled = True
            self._settle_gpu_batch(state.index, batch)
            # A hedge copy still running elsewhere becomes the sole
            # runner; only without one are the members requeued.
            twin = batch.twin
            if twin is None or twin.settled:
                moved.extend(m for m in batch.members
                             if m.state is RequestState.RUNNING)
        while state.queue:
            moved.append(state.queue.pop())
        state.drop_residency()
        state.busy = False
        state.running_pred_end = 0.0
        if moved:
            self._stats_res.drained_requests += len(moved)
            self._count("serve.drained_requests", len(moved))
        targets: List[str] = []
        for member in moved:
            worker = self._requeue(member)
            if worker is not None and worker not in targets:
                targets.append(worker)
        self._gauge_depth()
        for worker in targets:
            self._maybe_dispatch(worker)

    def _settle_gpu_batch(self, index: int, batch: _Batch) -> None:
        """Take a GPU batch out of flight, however it ended: charge its
        device time so far and fold in its fault counters.

        The watchdog reference is dropped, and a hedge pair is unlinked
        once both copies have settled, so a settled batch is freed by
        reference counting (nothing it owns points back at it)."""
        batch.settled = True
        if batch.watchdog is not None:
            batch.watchdog.cancel()
            batch.watchdog = None
        twin = batch.twin
        if twin is not None and twin.settled:
            batch.twin = twin.twin = None
        if self._inflight.get(index) is batch:
            del self._inflight[index]
        stats = self._stats[index]
        stats.busy_seconds += self.sim.now - batch.t0
        stats.batches += 1
        if batch.device is not None:
            self._device_counters.add(batch.device.resilience)

    def _requeue(self, request: Request) -> Optional[str]:
        """Re-place one drained request on a surviving worker.

        The original ``arrival`` and ``deadline`` are preserved — the
        request keeps its true EDF slack — only the worker and its
        admission-time prediction change.  Returns the new worker, or
        None when every domain is failed and the host cannot serve the
        routine (the request is then shed: still a terminal state, so
        request conservation holds).
        """
        now = self.sim.now
        request.requeues += 1
        placement = self.dispatcher.place(request, now)
        if placement is None:
            request.state = RequestState.SHED
            request.worker = None
            self._stats_res.unavailable_shed += 1
            self._count("serve.shed")
            self._count("serve.unavailable_shed")
            self._terminal(request)
            return None
        request.state = RequestState.QUEUED
        request.worker = placement.worker
        request.dispatch_t = None
        request.first_t = None
        request.batch_id = None
        if placement.worker == HOST_WORKER:
            request.fallback = True
        request.predicted_seconds = placement.predicted_seconds
        request.predicted_completion = placement.predicted_completion
        request.admission_seconds = placement.admission_seconds
        self.dispatcher.state_for(placement.worker).queue.push(request)
        self._stats_res.requeues += 1
        self._count("serve.requeues")
        return placement.worker

    # -- host execution -------------------------------------------------

    def _run_on_host(self, batch: _Batch) -> None:
        host = self.dispatcher.host
        service = self.dispatcher.predict_host(batch.problem)
        if service is None:
            raise ServeError(
                f"routine {batch.problem.routine.name!r} has no host path")
        batch.predicted = service
        service *= self._host_noise.duration_factor()
        host.busy = True
        host.running_pred_end = self.sim.now + service
        for member in batch.members:
            member.first_t = self.sim.now
        ev = self.sim.schedule(
            service, lambda b=batch, s=service: self._finish_host(b, s))
        self._host_inflight = (batch, ev)

    def _finish_host(self, batch: _Batch, service: float) -> None:
        host = self.dispatcher.host
        self._host_inflight = None
        end = self.sim.now
        self._host_stats.busy_seconds += service
        self._host_stats.batches += 1
        self._host_stats.requests += len(batch.members)
        for member in batch.members:
            self._complete_request(member, end, service, None)
        host.busy = False
        host.running_pred_end = 0.0
        self._maybe_dispatch(HOST_WORKER)

    # -- completion -----------------------------------------------------

    def _complete_request(self, request: Request, end: float,
                          service: float, events) -> None:
        request.state = RequestState.DONE
        request.completions += 1
        request.completion_t = end
        request.service_seconds = service
        if events is not None:
            request.trace_events = events
            request.first_t = min(ev.start for ev in events)
        elif request.first_t is None:
            request.first_t = request.dispatch_t
        self._count("serve.completed")
        latency = request.latency or 0.0
        self._observe("serve.latency_seconds", latency)
        if request.predicted_completion is not None and latency > 0:
            predicted_latency = request.predicted_completion - request.arrival
            self._observe("serve.latency_prediction_error",
                          abs(predicted_latency - latency) / latency)
            if self.tail_bank is not None and predicted_latency > 0:
                # Online refinement: fold the observed end-to-end
                # latency back into the residual bank.  The bank's
                # count-based refit schedule keeps this deterministic —
                # completion order is a pure function of the seed.
                self.tail_bank.observe(request.problem, predicted_latency,
                                       latency)
        if request.slo_met is False:
            self._count("serve.slo_misses")
        self._terminal(request)
