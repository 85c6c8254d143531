"""One fleet member: a :class:`BlasServer` wrapped for cluster duty.

A node owns its *own* simulator clock, dispatcher and health monitor —
exactly today's single-node server.  The coordinator feeds it arrivals
one epoch at a time through ``BlasServer.submit`` (the path
``BlasServer.serve`` takes for a whole workload) and drives its clock
with ``Simulator.run_to``.  The node keeps lightweight accounting
(latency floats, counters) instead of request objects, so a
million-request trace never piles up in memory; terminal requests
surface through the server's ``on_terminal`` hook and are dropped
immediately after.

Node lifecycle::

    warming -> active -> draining -> stopped

A provisioned node spends ``warmup`` simulated seconds WARMING (cold
weight caches, not yet routable), serves while ACTIVE, stops taking
new work while DRAINING (in-flight finishes here, queued work migrates
away), and is deregistered once STOPPED.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from ..serve.request import Request, RequestState
from ..serve.server import BlasServer, ServerConfig

NODE_STATES = ("warming", "active", "draining", "stopped")

#: Per-node seed offset prime: node i's server draws from
#: ``seed + _NODE_SEED_PRIME * i`` so no two nodes share noise streams.
_NODE_SEED_PRIME = 1_000_003


class ClusterNode:
    """A named fleet member owning one :class:`BlasServer`."""

    def __init__(self, index: int, machine, models, config: ServerConfig,
                 provisioned_t: float, warmup: float,
                 prediction_cache=None, tail_bank=None) -> None:
        self.index = index
        self.name = f"node{index}"
        self.config = replace(
            config, seed=config.seed + _NODE_SEED_PRIME * index)
        # The tail bank (percentile-admission mode) is fleet-shared:
        # nodes are homogeneous, so residual ratios observed on one
        # node refine admission on all.  The epoch barrier drives nodes
        # in index order, so the shared observation sequence — and with
        # it the bank's count-scheduled refits — is deterministic.
        self.server = BlasServer(machine, models, self.config,
                                 prediction_cache=prediction_cache,
                                 tail_bank=tail_bank,
                                 on_terminal=self._on_terminal)
        self.state = "warming" if warmup > 0 else "active"
        self.provisioned_t = provisioned_t
        #: Simulated instant the node starts taking traffic.
        self.available_t = provisioned_t + warmup
        self.stopped_t: Optional[float] = None
        # -- node-local accounting (floats and ints only) -------------
        self.latencies: List[float] = []
        self.waits: List[float] = []
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.migrated_out = 0
        self.routed = 0
        self.slo_with_deadline = 0
        self.slo_met = 0
        self.slo_missed = 0
        #: Terminal views the coordinator folds into the fleet-wide
        #: conservation check; set by the coordinator before traffic.
        self.on_terminal_view = None
        # -- closed-loop predicted-work ledger -------------------------
        # Each routed request's admission-time T_pred stays in the sum
        # until the request truly leaves the node (terminal or
        # migrated).  See predicted_backlog() for why this is *not* the
        # server's time-clipped backlog.
        self._pred_in_system = 0.0
        self._pred_by_id: Dict[int, float] = {}

    # -- router-facing signals ----------------------------------------

    @property
    def outstanding(self) -> int:
        """Routed-but-not-terminal requests on this node."""
        return self.server.outstanding

    def predicted_backlog(self, now: float) -> float:
        """Predicted seconds of work in this node's system (closed loop).

        The sum of the model's admission-time service predictions over
        every request routed here and not yet terminal — the queues'
        ``total_predicted`` plus in-flight ``T_pred``.  Deliberately
        *not* the dispatcher's ``max(running_pred_end - now, 0)`` form:
        that clips a batch running past its prediction to zero, so a
        node running *behind* reads as idle and the router herds new
        work onto it (open-loop positive feedback).  Counting each
        prediction until true completion keeps the signal closed-loop
        — self-correcting like least-connections, but weighted by
        predicted work instead of a bare request count.
        """
        return max(self._pred_in_system, 0.0)

    def _charge(self, request: Request) -> None:
        placement = self.server.dispatcher.place(request,
                                                 self.server.sim.now)
        if placement is None:
            est = 0.0
        elif placement.tail_seconds is not None:
            # Percentile-admission mode: the backlog ledger carries the
            # tail-inflated estimate, so the router's spill decisions
            # see the pessimistic (p-th percentile) queue, not the mean.
            est = placement.tail_seconds
        else:
            est = placement.predicted_seconds
        self._pred_in_system += est
        self._pred_by_id[request.req_id] = est

    def _settle(self, request: Request) -> None:
        self._pred_in_system -= self._pred_by_id.pop(request.req_id, 0.0)

    # -- coordinator drive ---------------------------------------------

    def run_to(self, time: float) -> int:
        """Advance this node's clock to the epoch barrier."""
        return self.server.sim.run_to(time)

    def submit(self, request: Request) -> None:
        self.routed += 1
        self._charge(request)
        self.server.submit(request)

    def drain(self) -> List[Request]:
        """Begin graceful scale-down: stop routing, hand queued work
        back (MIGRATED, arrival/deadline preserved)."""
        self.state = "draining"
        return self._hand_back(self.server.drain_queued())

    def evacuate(self) -> List[Request]:
        """Hard kill: queued AND in-flight work comes back MIGRATED."""
        moved = self._hand_back(self.server.evacuate())
        self.stop(self.server.sim.now)
        return moved

    def _hand_back(self, moved: List[Request]) -> List[Request]:
        for request in moved:
            self._settle(request)
        self.migrated_out += len(moved)
        return moved

    def stop(self, now: float) -> None:
        self.state = "stopped"
        self.stopped_t = now

    # -- terminal accounting -------------------------------------------

    def _on_terminal(self, request: Request) -> None:
        self._settle(request)
        if request.slo_deadline is not None:
            self.slo_with_deadline += 1
        if request.state is RequestState.DONE:
            self.completed += 1
            if request.latency is not None:
                self.latencies.append(request.latency)
            if request.wait is not None:
                self.waits.append(request.wait)
            if request.slo_met is True:
                self.slo_met += 1
            elif request.slo_met is False:
                self.slo_missed += 1
        elif request.state is RequestState.SHED:
            self.shed += 1
        else:
            self.failed += 1
        if self.on_terminal_view is not None:
            self.on_terminal_view(self, request)

    def as_dict(self) -> dict:
        """JSON-ready per-node block for the cluster report."""
        from ..obs.stats import latency_summary

        busy = sum(s.busy_seconds for s in self.server._stats)
        return {
            "node": self.name,
            "state": self.state,
            "provisioned_t": self.provisioned_t,
            "available_t": self.available_t,
            "stopped_t": self.stopped_t,
            "routed": self.routed,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "migrated_out": self.migrated_out,
            "slo": {"met": self.slo_met, "missed": self.slo_missed},
            "latency": (latency_summary(self.latencies)
                        if self.latencies else None),
            "busy_seconds": busy,
            "batches": self.server._next_batch,
        }
