"""Deterministic lock-step drive of a multi-node serving fleet.

Every node owns its own :class:`~repro.sim.engine.Simulator` clock.
The coordinator keeps those clocks honest with **epoch barriers**:
before any cross-node observation (routing a request, an autoscaler
tick, a kill event) it calls ``run_to(t)`` on every live node *in
node-index order*, so all clocks sit at exactly ``t`` and every
backlog the router compares was computed at the same virtual instant.
Barrier times come only from the trace (arrival times), the fixed
autoscaler tick (``TICK``) and the kill times — never from wall clock
— so one seed yields one byte-identical run.

Per epoch, in order:

1. autoscaler ticks and kill events strictly before the next arrival
   fire first (barrier to their time, act, continue);
2. barrier to the arrival time;
3. route the arrival over the active fleet and submit it to the chosen
   node's clock.

Migration (scale-down drain or node kill) happens *between* barriers:
the drained node's queued work comes back MIGRATED, each request is
re-routed as a fresh copy with the original arrival/deadline (and
``requeues`` bumped), and the fleet-wide conservation check later
folds the node-local views by ``req_id`` — a migrated request must be
served exactly once *somewhere*.

Memory discipline: node servers keep no request list (terminals
surface through ``on_terminal``) and the coordinator keeps floats/ints
per terminal request, so a million-request trace
holds only its in-flight window of Request objects.  The only
per-request records kept to the end are the (rare) migration views and
inline-check anomalies the conservation verdict needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.predcache import PredictionCache
from ..core.tailbank import PercentileBank
from ..obs.verify import find_conservation_violations
from ..serve.request import Request, RequestState, ServeError
from ..serve.server import ServerConfig
from .autoscaler import WARMUP, Autoscaler, AutoscalerConfig
from .node import ClusterNode
from .router import ClusterRouter

#: Simulated seconds between autoscaler evaluations (epoch barriers).
TICK = 0.05


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet-level knobs (node-level knobs live in ServerConfig)."""

    nodes: int = 4                   #: initial fleet size
    gpus_per_node: int = 2
    router: str = "predicted"        #: see ROUTER_POLICIES
    autoscale: bool = True
    autoscaler: AutoscalerConfig = AutoscalerConfig()

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ServeError(f"nodes must be >= 1: {self.nodes}")
        if self.gpus_per_node < 1:
            raise ServeError(
                f"gpus_per_node must be >= 1: {self.gpus_per_node}")
        if self.autoscale and not (
                self.autoscaler.min_nodes <= self.nodes
                <= self.autoscaler.max_nodes):
            raise ServeError(
                f"initial fleet size {self.nodes} outside autoscaler "
                f"bounds [{self.autoscaler.min_nodes}, "
                f"{self.autoscaler.max_nodes}]")


class _View:
    """Lightweight node-local view of one request (conservation input)."""

    __slots__ = ("req_id", "state", "completions")

    def __init__(self, req_id: int, state: RequestState,
                 completions: int) -> None:
        self.req_id = req_id
        self.state = state
        self.completions = completions


@dataclass
class ClusterOutcome:
    """Everything one cluster run produced (report.py aggregates it)."""

    config: ClusterConfig
    server_config: ServerConfig
    nodes: List[ClusterNode]
    scale_events: List[dict]
    router_policy: str
    spills: int
    migrations: int
    n_requests: int
    end_time: float
    conserved: int
    accounted: int
    violations: List[Tuple[str, str]]
    #: Fleet-shared tail-bank snapshot (percentile-admission runs only;
    #: None keeps mean-mode cluster documents byte-identical).
    tail_snapshot: Optional[dict] = None

    @property
    def conservation_ok(self) -> bool:
        return (not self.violations) and self.accounted == self.n_requests


class ClusterCoordinator:
    """Own the fleet, the router, the scaler, and the barrier order."""

    #: Runaway guard for the final drain loop (ticks, not events).
    _MAX_DRAIN_TICKS = 2_000_000

    def __init__(self, machine, models, config: Optional[ClusterConfig] = None,
                 server_config: Optional[ServerConfig] = None) -> None:
        self.machine = machine
        self.models = models
        self.config = config if config is not None else ClusterConfig()
        base = server_config if server_config is not None else ServerConfig()
        #: Node-level template; n_gpus is the cluster's per-node width.
        self.server_config = replace(
            base, n_gpus=self.config.gpus_per_node)
        #: One prediction cache across the fleet: nodes are homogeneous,
        #: so tile-selection work done on one node serves all.
        self.prediction_cache = PredictionCache()
        #: Fleet-shared residual bank (percentile-admission mode only):
        #: every node observes into and admits from the same quantiles.
        if self.server_config.admission_percentile is not None:
            self.tail_bank: Optional[PercentileBank] = (
                models.tail if getattr(models, "tail", None) is not None
                else PercentileBank())
        else:
            self.tail_bank = None
        self.router = ClusterRouter(self.config.router)
        self.autoscaler = Autoscaler(self.config.autoscaler,
                                     self.config.gpus_per_node)
        self.nodes: List[ClusterNode] = []
        #: Members not yet stopped, in index order: every scan below
        #: walks these, so a long run's retired nodes cost nothing.
        self._live: List[ClusterNode] = []
        self._next_index = 0
        for _ in range(self.config.nodes):
            # The initial fleet is warm at t=0 (no cold-start on the
            # trace's first request).
            self._provision(0.0, warmup=0.0)
        self.migrations = 0
        self.n_requests = 0
        self.end_time = 0.0
        # -- conservation bookkeeping ---------------------------------
        self._conserved = 0
        #: req_id sums of arrivals and of fast-path terminals: a request
        #: reported twice and another never reported balance the counts
        #: but not these.
        self._arrived_ids = 0
        self._conserved_ids = 0
        self._migration_views: Dict[int, List[_View]] = {}
        self._anomalies: List[_View] = []
        self._ran = False

    # -- fleet membership ----------------------------------------------

    def _provision(self, now: float, warmup: float = WARMUP) -> ClusterNode:
        node = ClusterNode(
            self._next_index, self.machine, self.models, self.server_config,
            provisioned_t=now, warmup=warmup,
            prediction_cache=self.prediction_cache,
            tail_bank=self.tail_bank)
        node.on_terminal_view = self._note_terminal
        self._next_index += 1
        self.nodes.append(node)
        self._live.append(node)
        return node

    def _active(self) -> List[ClusterNode]:
        return [n for n in self._live if n.state == "active"]

    def _prune(self) -> None:
        """Drop members that stopped from the live list."""
        self._live = [n for n in self._live if n.state != "stopped"]

    # -- epoch barrier ---------------------------------------------------

    def _barrier(self, time: float) -> None:
        """Drive every live clock to ``time``, in node-index order."""
        stopped = False
        for node in self._live:
            if node.server.sim.now < time:
                node.run_to(time)
            if node.state == "warming" and node.available_t <= time:
                node.state = "active"
            if node.state == "draining" and node.outstanding == 0:
                node.stop(time)
                stopped = True
        if stopped:
            self._prune()

    # -- terminal & conservation accounting ------------------------------

    def _note_terminal(self, node: ClusterNode, request: Request) -> None:
        t = node.server.sim.now
        if t > self.end_time:
            self.end_time = t
        rid = request.req_id
        views = self._migration_views.get(rid)
        if views is not None:
            views.append(_View(rid, request.state, request.completions))
        else:
            # Inline fast path of the same invariant the extended
            # checker (obs.verify.find_conservation_violations) applies
            # to migrated/anomalous requests: one terminal view,
            # completions == 1 iff DONE.
            name = request.state.name
            ok = ((name == "DONE" and request.completions == 1)
                  or (name in ("SHED", "FAILED")
                      and request.completions == 0))
            if ok:
                self._conserved += 1
                self._conserved_ids += rid
            else:
                self._anomalies.append(
                    _View(rid, request.state, request.completions))
        if request.state is RequestState.DONE:
            # The autoscaler's service EWMA takes the admission
            # estimate: under percentile admission, capacity decisions
            # provision for the p-th percentile demand, not the mean.
            self.autoscaler.observe_service(request.admission_seconds)

    # -- migration --------------------------------------------------------

    def _migrate(self, moved: Sequence[Request], now: float) -> None:
        """Re-route drained/evacuated requests over the surviving fleet."""
        active = self._active()
        for old in moved:
            self._migration_views.setdefault(old.req_id, []).append(
                _View(old.req_id, old.state, old.completions))
            fresh = Request(req_id=old.req_id, problem=old.problem,
                            arrival=old.arrival, priority=old.priority,
                            deadline=old.deadline, group=old.group)
            fresh.requeues = old.requeues + 1
            # A downgraded request keeps its SLO identity across the
            # migration: the arrival deadline it is judged against must
            # not vanish with the node that downgraded it.
            fresh.downgraded = old.downgraded
            fresh.original_deadline = old.original_deadline
            self.migrations += 1
            target = self.router.route(fresh, active, now)
            target.submit(fresh)

    # -- scaling actions --------------------------------------------------

    def _scale_up(self, now: float) -> ClusterNode:
        node = self._provision(now)
        event = self.autoscaler.events[-1]
        event["node"] = node.name
        return node

    def _scale_down(self, now: float) -> Optional[ClusterNode]:
        active = self._active()
        if len(active) <= self.config.autoscaler.min_nodes:
            return None
        # Youngest-first: the highest-index active node drains, so the
        # long-lived shard owners keep co-locating their groups for
        # batching.
        node = max(active, key=lambda n: n.index)
        moved = node.drain()
        event = self.autoscaler.events[-1]
        event["node"] = node.name
        event["migrated"] = len(moved)
        self._migrate(moved, now)
        if node.outstanding == 0:
            node.stop(now)
            self._prune()
        return node

    def _kill(self, node_name: str, now: float) -> None:
        node = next((n for n in self._live if n.name == node_name), None)
        if node is None:
            return
        was = node.state
        moved = node.evacuate()
        self._prune()
        self.autoscaler.events.append({
            "t": now, "action": "kill", "node": node.name,
            "reason": {"prior_state": was, "migrated": len(moved)},
        })
        self._migrate(moved, now)

    def _tick(self, now: float) -> None:
        if not self.config.autoscale:
            return
        active = self._active()
        if not active:
            return
        fleet_backlog = sum(n.predicted_backlog(now) for n in active)
        action = self.autoscaler.decide(now, len(active), fleet_backlog)
        if action == "up":
            self._scale_up(now)
        elif action == "down":
            if self._scale_down(now) is None:
                # Guarded out (min_nodes raced a drain): drop the event.
                self.autoscaler.events.pop()

    # -- the run ----------------------------------------------------------

    def run(self, requests: Iterable[Request],
            kill_events: Optional[Sequence[Tuple[float, str]]] = None
            ) -> ClusterOutcome:
        """Drive the whole trace to quiescence and return the outcome.

        ``requests`` must arrive in (arrival, req_id) order (both
        generators guarantee it).  ``kill_events`` is an optional list
        of ``(time, node_name)`` hard failures.
        """
        if self._ran:
            raise ServeError("a ClusterCoordinator runs exactly once")
        self._ran = True
        kills = sorted(kill_events or [])
        kill_ix = 0
        next_tick = TICK

        def boundaries_until(t: float):
            """Fire ticks/kills at times <= t, earliest first."""
            nonlocal next_tick, kill_ix
            while True:
                t_kill = kills[kill_ix][0] if kill_ix < len(kills) else None
                if t_kill is not None and t_kill <= min(next_tick, t):
                    self._barrier(t_kill)
                    self._kill(kills[kill_ix][1], t_kill)
                    kill_ix += 1
                    continue
                if next_tick <= t:
                    self._barrier(next_tick)
                    self._tick(next_tick)
                    next_tick += TICK
                    continue
                break

        for request in requests:
            t = request.arrival
            self.n_requests += 1
            self._arrived_ids += request.req_id
            boundaries_until(t)
            self._barrier(t)
            active = self._active()
            if not active:
                raise ServeError(
                    f"no active node at t={t:.6f} (all killed or draining)")
            self.autoscaler.observe_arrival(t)
            node = self.router.route(request, active, t)
            node.submit(request)

        # Drain to quiescence: keep ticking (scale-down included) until
        # every submitted request reached a terminal state.
        ticks = 0
        while any(n.outstanding for n in self._live):
            boundaries_until(next_tick)
            ticks += 1
            if ticks > self._MAX_DRAIN_TICKS:
                raise ServeError(
                    "cluster drain did not quiesce (simulation wedged)")

        violations = find_conservation_violations(self._all_views())
        unmatched = (self._arrived_ids - self._conserved_ids
                     - sum(self._migration_views.keys())
                     - sum(v.req_id for v in self._anomalies))
        if unmatched:
            violations.append((
                "request-conservation",
                f"terminal reports differ from arrivals by req_id sum "
                f"{unmatched} (a request reported twice or never)"))
        accounted = (self._conserved + len(self._migration_views)
                     + len(self._anomalies))
        return ClusterOutcome(
            config=self.config,
            server_config=self.server_config,
            nodes=self.nodes,
            scale_events=list(self.autoscaler.events),
            router_policy=self.router.policy,
            spills=self.router.spills,
            migrations=self.migrations,
            n_requests=self.n_requests,
            end_time=self.end_time,
            conserved=self._conserved,
            accounted=accounted,
            violations=violations,
            tail_snapshot=self._tail_snapshot(),
        )

    def _tail_snapshot(self) -> Optional[dict]:
        """The shared bank's state plus fleet-summed admission counters
        (None outside percentile-admission mode)."""
        if self.tail_bank is None:
            return None
        snap = self.tail_bank.snapshot()
        snap["percentile"] = self.server_config.admission_percentile
        snap["tail_rejections"] = sum(
            n.server.dispatcher.tail_rejections for n in self.nodes)
        return snap

    def _all_views(self) -> List[_View]:
        views: List[_View] = []
        for vlist in self._migration_views.values():
            views.extend(vlist)
        views.extend(self._anomalies)
        return views
