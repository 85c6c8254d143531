"""The BLAS serving engine: arrivals, dispatch, execution, recovery.

:class:`BlasServer` runs an open-loop workload against an N-GPU
simulated machine on **one shared simulator clock**.  Arrivals are
pre-scheduled events; each admitted request is queued on the worker the
:class:`~repro.serve.dispatcher.Dispatcher` chose; an idle worker pops
its queue head (EDF-within-priority), coalesces compatible small
requests into one batch, and executes its tile pipeline on the GPU's
:class:`~repro.sim.device.GpuDevice`, which shares the server clock
and lasts until a degradation window opens or closes or the domain is
drained.  The first batch of a (problem signature, tile, machine
degradation) key runs the real tile scheduler and records its device
program (:mod:`repro.runtime.program`); every later batch of that key
replays it through the same device calls.  Completion is detected with
``Operation.on_done`` on the last op of each pipeline stream — no
polling, no synchronize.

When injected faults exhaust their retry budget the pipeline wedges, so
every batch carries a watchdog event at ``TIMEOUT_FACTOR`` times its
predicted service time (plus ``TIMEOUT_FLOOR``).  If it fires first,
the batch is settled, its gemm members are re-dispatched to the host
CPU worker, and the GPU moves on; the batch's work still in flight runs
out on the device, contending with the next batch.

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
from typing import Dict, List, Optional

from ..backend.cublas import CublasContext
from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem
from ..runtime.offload import host_operands
from ..runtime.program import DeviceProgram, ProgramRecorder
from ..runtime.scheduler import AxpyTileScheduler, GemmTileScheduler
from ..sim.device import GpuDevice
from ..sim.engine import Simulator
from ..sim.faults import LifecycleFault, ResilienceCounters
from ..sim.machine import MachineConfig
from ..sim.noise import NoiseModel
from .dispatcher import (
    ADMISSION_MODES,
    PLACEMENT_POLICIES,
    Dispatcher,
    Placement,
    WorkerState,
    batchable,
    coalesce,
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
    #: Percentile-aware admission: judge shed/downgrade against the
    #: tail-inflated predicted completion at this percentile (e.g. 99.0).
    #: None (default) is mean-based admission: the same rule with the
    #: multiplier at 1.
    admission_percentile: Optional[float] = None

    def __post_init__(self) -> None:
        n = self.n_gpus
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ServeError(f"GPU count must be a positive int, got {n!r}")
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
class ServeOutcome:
    """Everything one serving run produced."""

    requests: List[Request]
    config: ServerConfig
    #: The worker records, with their report counters and (trace mode)
    #: per-batch device traces.
    gpus: List[WorkerState]
    host: WorkerState
    n_batches: int = 0
    end_time: float = 0.0
    #: True when the machine carried a fault plan with any active fault
    #: (the serve report emits its resilience block only then, keeping
    #: fault-free reports byte-identical to pre-resilience runs).
    faulted: bool = False
    #: Fault/retry counters summed over every GPU device of the run.
    resilience: Optional[ResilienceCounters] = None
    #: Serve-level drain/requeue/breaker accounting.
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
                 "predicted", "parked", "pipeline", "timer",
                 "pending_ops", "settled")

    def __init__(self, batch_id: int, members: List[Request],
                 problem: CoCoProblem, worker: WorkerState,
                 t0: float) -> None:
        self.batch_id = batch_id
        self.members = members
        self.problem = problem
        self.worker = worker
        self.t0 = t0
        self.predicted = 0.0
        self.parked = 0  #: failures its device had parked at launch
        #: the live scheduler or program replay; ``release()`` frees
        #: its device tiles
        self.pipeline = None
        #: The event that ends the batch unless something else does
        #: first: a GPU batch's watchdog, a host batch's completion.
        self.timer = None
        self.pending_ops = 0
        self.settled = False


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
        self.dispatcher = Dispatcher(machine, models, self.config,
                                     prediction_cache, self.monitor,
                                     tail_bank)
        #: Residual-quantile bank of percentile-aware admission (None
        #: under mean admission); the dispatcher resolves which bank.
        self.tail_bank = self.dispatcher.tail_bank
        #: Host CPU service noise; its own substream so the host worker
        #: never perturbs the GPU devices' draws.
        self._host_noise = NoiseModel(seed=self.config.seed + 7919,
                                      sigma=machine.noise_sigma)
        self._next_batch = 0
        #: Set by serve() and by the first submit(); serve() then
        #: refuses to run.
        self._submitted = False
        self._on_terminal = on_terminal
        self._outstanding = 0
        # -- fault-domain state --------------------------------------
        #: Ground-truth degradation per GPU index, set by lifecycle
        #: windows.  Deliberately invisible to monitor and dispatcher:
        #: they only ever react to *observed* latency inflation.
        self._slowdown = [1.0] * self.config.n_gpus
        self._link_factor = [1.0] * self.config.n_gpus
        #: Recorded device programs, keyed on (problem signature, tile,
        #: ground-truth degradation): the first batch of a key runs the
        #: tile scheduler, every later one replays its program.
        self.programs: Dict[tuple, DeviceProgram] = {}
        self._stats_res = ResilienceStats()
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
        counters = ResilienceCounters()
        for gpu in self.dispatcher.gpus:
            for device in gpu.devices:
                counters.add(device.resilience)
        return ServeOutcome(
            requests=requests,
            config=self.config,
            gpus=self.dispatcher.gpus,
            host=self.dispatcher.host,
            n_batches=self._next_batch,
            end_time=end,
            faulted=self._faulted,
            resilience=counters,
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
        request.dispatch_t = request.first_t = request.batch_id = None
        self._outstanding -= 1
        return request

    def drain_queued(self) -> List[Request]:
        """Graceful scale-down: hand back all *queued* work, migrated.

        In-flight batches run to completion on this node; every queued
        request is popped (EDF order per worker, GPUs then host) and
        marked MIGRATED with arrival/deadline untouched, for the caller
        to re-place elsewhere.
        """
        moved: List[Request] = []
        for worker in self.dispatcher.workers:
            while worker.queue:
                moved.append(self._migrate(worker.queue.pop()))
        return moved

    def evacuate(self) -> List[Request]:
        """Hard stop (node kill): drain queues AND cancel in-flight.

        Cancelled batches are settled like a domain drain — worker time
        charged, device counters folded — and their members come back
        MIGRATED alongside the queued work, GPUs by index, then the
        host.  The node's clock survives but nothing new will fire for
        these requests.
        """
        moved = self.drain_queued()
        for worker in self.dispatcher.workers:
            batch = worker.inflight
            if batch is None:
                continue
            self._settle(batch)
            moved.extend(self._migrate(m) for m in batch.members)
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
            self._maybe_dispatch(self.dispatcher.gpus[index])

    def _device(self, worker: WorkerState) -> GpuDevice:
        """GPU ``worker``'s device, replaced when its domain was drained
        or its ``(slowdown, link factor)`` key changed: a degradation
        window runs a genuinely slowed machine copy, which the monitor
        *observes* through inflated latencies.  Device g of GPU i is
        seeded ``seed + i + n_gpus * g``, and so is its fault sequence.
        """
        index = worker.index
        key = (self._slowdown[index], self._link_factor[index])
        if key != worker.device_key:
            cfg = self.config
            machine = self.machine.with_degradation(*key)
            seed = cfg.seed + index + cfg.n_gpus * len(worker.devices)
            plan = machine.fault_plan
            faults = None if plan is None else plan.with_seed(plan.seed + seed)
            worker.devices.append(GpuDevice(
                machine, sim=self.sim, seed=seed, trace=cfg.trace,
                faults=faults, metrics=self.metrics))
            worker.device_key = key
        return worker.devices[-1]

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
        self._count("serve.requests")
        request.enqueue_t = self.sim.now
        placement = self._place(request)
        if placement is None:
            return
        decision = self.dispatcher.admit(request, placement)
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
        self._enqueue(request, placement.worker,
                      placement.predicted_seconds,
                      placement.admission_seconds,
                      placement.predicted_completion)
        self._gauge_depth()
        self._maybe_dispatch(placement.worker)

    def _place(self, request: Request) -> Optional[Placement]:
        """Place ``request`` now, or shed it when nothing can serve it.

        ``None`` means every fault domain is failed and the host cannot
        serve the routine: shedding is the only terminal state left.
        """
        placement = self.dispatcher.place(request, self.sim.now)
        if placement is None:
            request.state = RequestState.SHED
            request.worker = None
            self._stats_res.unavailable_shed += 1
            self._count("serve.shed")
            self._count("serve.unavailable_shed")
            self._terminal(request)
        return placement

    def _enqueue(self, request: Request, worker: WorkerState,
                 service: float, admission: float,
                 completion: Optional[float]) -> None:
        """Queue ``request`` on ``worker`` with its service prediction,
        admission estimate and predicted completion.

        Arrival, requeue and host fallback all come through here.  The
        original ``arrival`` and ``deadline`` are kept, so the request
        keeps its honest EDF slack; only the worker and its predictions
        change.  A request queued again forgets its earlier dispatch.
        """
        request.state = RequestState.QUEUED
        request.worker = worker.name
        request.dispatch_t = request.first_t = request.batch_id = None
        request.predicted_seconds = service
        request.predicted_completion = completion
        request.admission_seconds = admission
        worker.queue.push(request)

    # -- dispatch -------------------------------------------------------

    def _maybe_dispatch(self, worker: WorkerState) -> None:
        if worker.inflight is not None or not worker.queue:
            return
        on_gpu = worker.index is not None
        if on_gpu and not self.monitor.available(worker.index):
            return
        now = self.sim.now
        head = worker.queue.pop()
        members = [head]
        if (self.config.batching and on_gpu
                and head.problem.flops() <= BATCH_SMALL_FLOPS):
            for other in list(worker.queue):
                if len(members) >= BATCH_MAX:
                    break
                if batchable(head, other, BATCH_SMALL_FLOPS):
                    worker.queue.remove(other)
                    members.append(other)
        problem = coalesce(members) if len(members) > 1 else head.problem
        batch = _Batch(self._next_batch, members, problem, worker, now)
        self._next_batch += 1
        for member in members:
            member.state = RequestState.RUNNING
            member.dispatch_t = now
            member.worker = worker.name
            member.batch_id = batch.batch_id
            self._observe("serve.wait_seconds", member.wait or 0.0)
        if len(members) > 1:
            self._count("serve.batches")
            self._count("serve.batched_requests", len(members))
        self._gauge_depth()
        if on_gpu:
            self._launch_on_device(batch)
        else:
            self._run_on_host(batch)

    # -- GPU execution --------------------------------------------------

    def _launch_on_device(self, batch: _Batch) -> None:
        worker = batch.worker
        choice = self.dispatcher.predict_gpu(batch.problem)
        batch.predicted = choice.predicted_time
        device = self._device(worker)
        batch.parked = len(device._fault_failures)
        if device.trace is not None:
            device.trace.clear()
        worker.occupy(batch, self.sim.now + batch.predicted)
        if self.monitor.devices[worker.index].state is HealthState.RECOVERING:
            self._stats_res.probes += 1
            self._count("serve.probes")
        streams = self._issue_pipeline(batch, device, choice.t_best)

        last_ops = [s.last_op for s in streams if s.last_op is not None]
        batch.pending_ops = len(last_ops)
        if not last_ops:
            self._finish_gpu_batch(batch)
            return
        for op in last_ops:
            op.on_done(lambda b=batch: self._on_stream_done(b))
        deadline = batch.predicted * TIMEOUT_FACTOR + TIMEOUT_FLOOR
        # Ordering contract (pinned): the watchdog is scheduled at
        # launch, so if a stream completion lands at exactly the
        # deadline the watchdog holds the lower seq and fires first —
        # the batch times out.  ``batch.settled`` makes the subsequent
        # completion a no-op either way, so the tie is deterministic
        # under any FIFO scheduler.  Regression:
        # tests/sim/test_tie_ordering.py.
        batch.timer = self.sim.schedule(
            deadline, lambda b=batch: self._on_timeout(b))

    def _issue_pipeline(self, batch: _Batch, device: GpuDevice,
                        t: int) -> tuple:
        """Issue the batch's tile pipeline (tile size ``t``) on
        ``device`` and return the pipeline's streams.

        The first batch of a (problem, tile, machine) key builds the
        tile scheduler and records its device program; every later one
        replays it.  A recording whose issue raises stores nothing.
        """
        problem = batch.problem
        key = (problem.signature(), t, batch.worker.device_key)
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

    def _on_stream_done(self, batch: _Batch) -> None:
        batch.pending_ops -= 1
        if batch.pending_ops == 0 and not batch.settled:
            self._finish_gpu_batch(batch)

    def _finish_gpu_batch(self, batch: _Batch) -> None:
        worker = batch.worker
        trace = worker.devices[-1].trace
        events = list(trace.events) if trace is not None else None
        if events is not None:
            worker.traces.append(events)
        self._settle(batch)
        end = self.sim.now
        service = end - batch.t0
        worker.requests += len(batch.members)
        probe = (self.monitor.devices[worker.index].state
                 is HealthState.RECOVERING)
        self.monitor.on_success(worker.index, service, batch.predicted, end)
        if probe:
            self._stats_res.recoveries += 1
            self._count("serve.recoveries")
        for member in batch.members:
            self._complete_request(member, end, service, events)
        self._maybe_dispatch(worker)

    def _on_timeout(self, batch: _Batch) -> None:
        """The batch wedged (fault retries exhausted): abandon & recover."""
        if batch.settled:
            return
        worker = batch.worker
        failures = len(worker.devices[-1]._fault_failures) - batch.parked
        self._settle(batch)
        end = self.sim.now
        self._count("serve.timeouts")
        self._count("serve.fault_failures", max(failures, 1))
        for member in batch.members:
            self._fallback_to_host(member)
        opened = self.monitor.on_fault(worker.index, end)
        if opened:
            self._stats_res.breaker_opens += 1
            self._count("serve.breaker_opens")
            self._drain_domain(worker)
            self.sim.schedule(
                BREAKER_COOLOFF,
                lambda i=worker.index: self._half_open(i))
        self._gauge_depth()
        self._maybe_dispatch(self.dispatcher.host)
        self._maybe_dispatch(worker)

    def _fallback_to_host(self, member: Request) -> None:
        """Re-queue one member of a wedged batch onto the host worker.

        The request keeps its original ``arrival`` and ``deadline``:
        its EDF ``queue_key`` — and with it its honest slack against
        everything already queued on the host — must not reset just
        because a device ate its first attempt.  Only the service
        prediction, and the admission estimate with it, is refreshed for
        the new worker; the predicted completion stays the one it was
        admitted with.
        """
        service = (self.dispatcher.predict_host(member.problem)
                   if self.config.host_offload else None)
        if service is not None:
            member.fallback = True
            self._count("serve.host_fallbacks")
            self._enqueue(
                member, self.dispatcher.host, service,
                service * self.dispatcher.tail_multiplier(member.problem),
                member.predicted_completion)
        else:
            member.state = RequestState.FAILED
            self._count("serve.failed")
            self._terminal(member)

    # -- drain & requeue ------------------------------------------------

    def _drain_domain(self, worker: WorkerState) -> None:
        """Gracefully drain a failed domain.

        The in-flight batch (if any) is cancelled — its simulated
        pipeline runs out as a zombie that completes nobody — and both
        its running members and the whole backlog are re-placed on
        surviving workers with arrival/deadline preserved.  The zombie
        keeps the domain's device; the next batch here gets a new one.
        """
        worker.device_key = None
        self._stats_res.drains += 1
        self._count("serve.drains")
        moved: List[Request] = []
        batch = worker.inflight
        if batch is not None:
            self._settle(batch)
            moved.extend(batch.members)
        while worker.queue:
            moved.append(worker.queue.pop())
        if moved:
            self._stats_res.drained_requests += len(moved)
            self._count("serve.drained_requests", len(moved))
        targets: List[WorkerState] = []
        for member in moved:
            target = self._requeue(member)
            if target is not None and target not in targets:
                targets.append(target)
        self._gauge_depth()
        for target in targets:
            self._maybe_dispatch(target)

    def _settle(self, batch: _Batch, busy: Optional[float] = None) -> None:
        """Take a batch out of flight, however it ended — completed,
        timed out, drained or evacuated — and free its worker.

        The worker is charged ``busy`` seconds (default: the time since
        launch) and one batch.  Then the batch lets go of all it owns:
        its timer is cancelled, its pipeline's device tiles are released,
        and the pipeline and the device's streams are dropped (a wedged
        or zombie pipeline still holds this batch and the server in its
        completion callbacks).  So a settled batch is freed by reference
        counting.
        """
        batch.settled = True
        worker = batch.worker
        worker.free()
        worker.busy_seconds += (self.sim.now - batch.t0
                                if busy is None else busy)
        worker.batches += 1
        if batch.timer is not None:
            batch.timer.cancel()
            batch.timer = None
        if batch.pipeline is not None:
            batch.pipeline.release()
            batch.pipeline = None
            worker.devices[-1].drop_streams()

    def _requeue(self, request: Request) -> Optional[WorkerState]:
        """Re-place one drained request on a surviving worker.

        Returns the new worker, or None when every domain is failed and
        the host cannot serve the routine (the request is then shed:
        still a terminal state, so request conservation holds).
        """
        request.requeues += 1
        placement = self._place(request)
        if placement is None:
            return None
        worker = placement.worker
        if worker is self.dispatcher.host:
            request.fallback = True
        self._enqueue(request, worker, placement.predicted_seconds,
                      placement.admission_seconds,
                      placement.predicted_completion)
        self._stats_res.requeues += 1
        self._count("serve.requeues")
        return worker

    # -- host execution -------------------------------------------------

    def _run_on_host(self, batch: _Batch) -> None:
        service = self.dispatcher.predict_host(batch.problem)
        if service is None:
            raise ServeError(
                f"routine {batch.problem.routine.name!r} has no host path")
        batch.predicted = service
        service *= self._host_noise.duration_factor()
        batch.worker.occupy(batch, self.sim.now + service)
        for member in batch.members:
            member.first_t = self.sim.now
        batch.timer = self.sim.schedule(
            service, lambda b=batch, s=service: self._finish_host(b, s))

    def _finish_host(self, batch: _Batch, service: float) -> None:
        host = batch.worker
        end = self.sim.now
        self._settle(batch, busy=service)
        host.requests += len(batch.members)
        for member in batch.members:
            self._complete_request(member, end, service, None)
        self._maybe_dispatch(host)

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
