"""Cluster-level request routing: sharding + predicted-backlog scoring.

Grouped requests (shared weights) shard by **consistent hashing**: a
ring of ``REPLICAS`` points per node, keyed by sha1 — deliberately
*not* Python's builtin ``hash()``, which is salted per process and
would wreck cross-run determinism — maps each weight group to a
primary node, so a group's requests meet in one node's queues, where
the server can batch them, across fleet membership changes (only ~1/N
of groups move when a node joins or leaves).

Sharding alone herds a hot group onto one overloaded node, so the
router allows **bounded spill**: when the primary's predicted backlog
exceeds ``SPILL_BACKLOG`` seconds, the request may go to whichever of
the primary's next ``SPILL_WIDTH`` distinct ring successors carries
the least predicted backlog.  The score is the *model's* signal —
:meth:`ClusterNode.predicted_backlog`, the closed-loop sum of
admission-time T_pred over every in-system request (each queue's
``total_predicted`` plus in-flight T_pred, counted until true
completion) — not instantaneous queue length: service times in one
trace span orders of magnitude, so one queued giant outweighs ten
queued batchable gemms, and only the prediction sees that.

Ungrouped requests (large gemms, axpy) never batch with a group and go
straight to the fleet-wide minimum predicted backlog.

A ``least_connections`` policy — argmin over outstanding request
count, the classic reactive balancer — is kept as the baseline the
acceptance test beats.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from ..serve.request import Request, ServeError
from .node import ClusterNode

ROUTER_POLICIES = ("predicted", "least_connections")

#: Consistent-hash points per node.
REPLICAS = 64
#: Ring successors an overloaded shard may spill to ...
SPILL_WIDTH = 2
#: ... once its primary holds this many predicted seconds of work.
SPILL_BACKLOG = 0.25


def _ring_hash(key: str) -> int:
    """Stable 64-bit ring position (sha1; never builtin hash())."""
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class ClusterRouter:
    """Shard-then-score router over the active fleet."""

    def __init__(self, policy: str = "predicted") -> None:
        if policy not in ROUTER_POLICIES:
            raise ServeError(
                f"unknown router policy {policy!r}; valid: {ROUTER_POLICIES}")
        self.policy = policy
        self.spills = 0
        self._ring: List[Tuple[int, str]] = []
        self._ring_nodes: Tuple[str, ...] = ()
        self._position: Dict[str, int] = {}
        #: Group -> its spill candidates; valid for one membership.
        self._orders: Dict[str, Tuple[str, ...]] = {}

    # -- ring maintenance ----------------------------------------------

    def _rebuild(self, nodes: Sequence[ClusterNode]) -> None:
        names = tuple(n.name for n in nodes)
        if names == self._ring_nodes:
            return
        ring = []
        for name in names:
            for i in range(REPLICAS):
                ring.append((_ring_hash(f"{name}:{i}"), name))
        ring.sort()
        self._ring = ring
        self._ring_nodes = names
        self._position = {name: i for i, name in enumerate(names)}
        self._orders = {}

    def _ring_order(self, group: str) -> Tuple[str, ...]:
        """The group's primary and its next ``SPILL_WIDTH`` distinct
        ring successors, in ring order (memoized per membership)."""
        order = self._orders.get(group)
        if order is not None:
            return order
        ring = self._ring
        want = min(1 + SPILL_WIDTH, len(self._ring_nodes))
        start = bisect_right(ring, (_ring_hash(group), ""))
        seen: List[str] = []
        for k in range(len(ring)):
            name = ring[(start + k) % len(ring)][1]
            if name not in seen:
                seen.append(name)
                if len(seen) == want:
                    break
        order = self._orders[group] = tuple(seen)
        return order

    # -- routing --------------------------------------------------------

    def route(self, request: Request, nodes: Sequence[ClusterNode],
              now: float) -> ClusterNode:
        """Pick the serving node among the active fleet.

        ``nodes`` must be the active members in stable (index) order;
        every tie breaks toward the earlier node, so one seed gives one
        assignment sequence.
        """
        if not nodes:
            raise ServeError("routing with an empty active fleet")
        if len(nodes) == 1:
            return nodes[0]
        if self.policy == "least_connections":
            return min(nodes, key=lambda n: (n.outstanding, n.index))
        if request.group is None:
            return min(nodes,
                       key=lambda n: (n.predicted_backlog(now), n.index))
        self._rebuild(nodes)
        position = self._position
        candidates = [nodes[position[name]]
                      for name in self._ring_order(request.group)]
        primary = candidates[0]
        if primary.predicted_backlog(now) <= SPILL_BACKLOG:
            return primary
        # Ties break toward ring order, so an idle fleet still lands a
        # group on its primary (where its batch mates queue) rather
        # than node 0.
        chosen = min(enumerate(candidates),
                     key=lambda kv: (kv[1].predicted_backlog(now), kv[0]))[1]
        if chosen is not primary:
            self.spills += 1
        return chosen
