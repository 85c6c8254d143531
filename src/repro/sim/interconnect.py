"""Simulated inter-GPU interconnect: peer-link topologies + collectives.

The single-GPU pipeline overlaps PCIe with kernels; at multi-GPU scale
the bottleneck moves to the *inter-GPU* network, so this module gives
the simulator a peer fabric the distributed routines (SUMMA gemm,
streaming gemv — see ``repro.runtime.summa`` / ``streaming``) can
schedule against:

* :class:`TopologySpec` — ground-truth description of the fabric: the
  wiring ``kind`` (``ring`` or ``all_to_all``), GPU count, and per-hop
  latency/bandwidth/bidirectional-slowdown.  This is the analog of
  :class:`~repro.sim.machine.MachineConfig` for the peer network; the
  prediction models in ``repro.core.distributed`` read the same spec
  (it is the *deployed* interconnect description, like a fitted link
  model, not a hidden ground truth).
* :class:`Interconnect` — one :class:`~repro.sim.link.DuplexLink` per
  connected GPU pair, reusing the PCIe link's FIFO + bidirectional
  contention machinery; direction names are overridden to
  ``peer{i}>{j}`` so merged traces show collective spans as their own
  transfer engines.
* Collectives — ``send`` (store-and-forward routing) and ``multicast``
  (full-payload chain on a ring, parallel direct sends all-to-all).

Payload conservation (pinned by property tests): a ring chain moves the
full payload once per hop, so a multicast to ``d`` destinations puts
exactly ``d * payload`` bytes on the fabric in either wiring; the
handle's ``hop_bytes`` counter exposes that invariant.

Peer links carry no noise model and no fault injector: the fabric is
deterministic by construction, so distributed makespans vary only
through the per-device kernel/PCIe noise substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..units import from_gb_per_s
from .engine import Simulator
from .link import Direction, DuplexLink, LinkDirectionConfig
from .trace import TraceRecorder

#: Supported wiring kinds.
TOPOLOGY_KINDS = ("ring", "all_to_all")

#: Collective/transfer kinds recorded on handles.
KIND_SEND = "send"
KIND_MULTICAST = "multicast"


@dataclass(frozen=True)
class TopologySpec:
    """Ground-truth peer-fabric description (homogeneous links).

    ``bandwidth`` may be ``math.inf`` (with ``latency`` 0 the fabric is
    free: any wiring collapses to the same schedule).
    """

    kind: str
    n_gpus: int
    latency: float
    bandwidth: float
    bid_slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise SimulationError(
                f"unknown topology kind {self.kind!r}; "
                f"expected one of {TOPOLOGY_KINDS}"
            )
        if self.n_gpus < 1:
            raise SimulationError(
                f"topology needs at least one GPU, got {self.n_gpus}")
        if not (self.latency >= 0.0 and math.isfinite(self.latency)):
            raise SimulationError(
                f"per-hop latency must be finite and >= 0, got {self.latency}")
        if not self.bandwidth > 0.0:
            raise SimulationError(
                f"per-hop bandwidth must be > 0, got {self.bandwidth}")
        if not self.bid_slowdown >= 1.0:
            raise SimulationError(
                f"bid_slowdown must be >= 1, got {self.bid_slowdown}")

    # ------------------------------------------------------------------

    def hop_time(self, nbytes: int) -> float:
        """Uncontended time of one hop carrying ``nbytes``."""
        return self.latency + nbytes / self.bandwidth

    def hops(self, src: int, dst: int) -> int:
        """Store-and-forward hops from ``src`` to ``dst``."""
        if src == dst:
            return 0
        if self.kind == "all_to_all":
            return 1
        return (dst - src) % self.n_gpus

    def broadcast_hops(self, n_dests: int) -> int:
        """Serial hop depth until the *last* destination holds the payload."""
        if n_dests <= 0:
            return 0
        return n_dests if self.kind == "ring" else 1


def _bandwidth(gb_per_s: float) -> float:
    """Bytes/s of a per-hop bandwidth given in GB/s, checked in GB/s."""
    if not gb_per_s > 0.0:
        raise SimulationError(
            f"per-hop bandwidth must be > 0 GB/s, got {gb_per_s:g}")
    return from_gb_per_s(gb_per_s)


def ring_topology(n_gpus: int, gb_per_s: float = 8.0,
                  latency: float = 5e-6,
                  bid_slowdown: float = 1.0) -> TopologySpec:
    """Unidirectional-routed ring (payloads forwarded clockwise)."""
    bw = _bandwidth(gb_per_s)
    return TopologySpec("ring", n_gpus, latency, bw, bid_slowdown)


def all_to_all_topology(n_gpus: int, gb_per_s: float = 12.0,
                        latency: float = 5e-6,
                        bid_slowdown: float = 1.0) -> TopologySpec:
    """Fully connected fabric: every pair has a direct duplex link."""
    bw = _bandwidth(gb_per_s)
    return TopologySpec("all_to_all", n_gpus, latency, bw, bid_slowdown)


@dataclass
class CollectiveHandle:
    """Progress/accounting of one collective (or point-to-point send).

    ``arrived`` maps each destination to its simulated arrival time;
    ``hop_bytes``/``hops`` count the total fabric traffic this
    operation caused (payload conservation: a chain moves the payload
    once per hop).
    """

    kind: str
    root: int
    dests: Tuple[int, ...]
    nbytes: int
    start_time: float
    done: bool = False
    end_time: Optional[float] = None
    arrived: Dict[int, float] = field(default_factory=dict)
    hop_bytes: int = 0
    hops: int = 0


class Interconnect:
    """Peer links between the GPUs of one shared-clock simulator.

    All callbacks (``on_arrive(gpu)``, ``on_complete()``) fire inside the simulator's event loop at the
    corresponding virtual times, so runtimes can launch kernels the
    instant an operand lands (the comm/comp overlap the distributed
    pipelines are built on).
    """

    def __init__(self, sim: Simulator, spec: TopologySpec,
                 trace: bool = False, metrics=None) -> None:
        self.sim = sim
        self.spec = spec
        self.trace: Optional[TraceRecorder] = TraceRecorder() if trace else None
        self._metrics = metrics
        cfg = LinkDirectionConfig(spec.latency, spec.bandwidth,
                                  spec.bid_slowdown)
        self._links: Dict[Tuple[int, int], DuplexLink] = {}
        for i, j in self._pairs():
            self._links[(i, j)] = DuplexLink(
                sim, cfg, cfg, noise=None, trace=self.trace,
                metrics=metrics, names=(f"peer{i}>{j}", f"peer{j}>{i}"),
            )
        #: Fabric-wide traffic counters (all collectives, all links).
        self.total_hops = 0
        self.total_hop_bytes = 0

    def _pairs(self) -> List[Tuple[int, int]]:
        n = self.spec.n_gpus
        if n < 2:
            return []
        if self.spec.kind == "all_to_all":
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        pairs = {tuple(sorted((g, (g + 1) % n))) for g in range(n)}
        return sorted(pairs)  # ring: n links (1 link when n == 2)

    # ------------------------------------------------------------------

    def _check_gpu(self, g: int, what: str) -> None:
        if not 0 <= g < self.spec.n_gpus:
            raise SimulationError(
                f"{what} {g} out of range for {self.spec.n_gpus} GPUs")

    def _submit_hop(self, src: int, dst: int, nbytes: int,
                    on_complete: Callable[[], None], tag: str) -> None:
        """One direct-link hop ``src -> dst`` (must be adjacent)."""
        i, j = min(src, dst), max(src, dst)
        link = self._links.get((i, j))
        if link is None:
            raise SimulationError(
                f"no direct link between GPU {src} and GPU {dst} "
                f"on a {self.spec.kind} topology")
        direction = Direction.H2D if src < dst else Direction.D2H
        link.submit(direction, nbytes, on_complete=on_complete, tag=tag)

    def _next_hop(self, src: int, dst: int) -> int:
        """Routing: direct on all_to_all, clockwise on a ring."""
        if self.spec.kind == "all_to_all":
            return dst
        return (src + 1) % self.spec.n_gpus

    def _count_hop(self, handle: CollectiveHandle, nbytes: int) -> None:
        handle.hops += 1
        handle.hop_bytes += nbytes
        self.total_hops += 1
        self.total_hop_bytes += nbytes

    def _arrive(self, handle: CollectiveHandle, node: int,
                on_arrive: Optional[Callable[[int], None]],
                on_complete: Optional[Callable[[], None]]) -> None:
        handle.arrived[node] = self.sim.now
        if on_arrive is not None:
            on_arrive(node)
        if len(handle.arrived) == len(handle.dests):
            handle.done = True
            handle.end_time = self.sim.now
            if on_complete is not None:
                on_complete()

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, nbytes: int,
             on_complete: Optional[Callable[[], None]] = None,
             tag: str = "") -> CollectiveHandle:
        """Store-and-forward transfer ``src -> dst``."""
        self._check_gpu(src, "send source")
        self._check_gpu(dst, "send destination")
        if src == dst:
            raise SimulationError(f"send source == destination ({src})")
        if nbytes <= 0:
            raise SimulationError(f"send needs nbytes > 0, got {nbytes}")
        handle = CollectiveHandle(
            kind=KIND_SEND, root=src, dests=(dst,), nbytes=nbytes,
            start_time=self.sim.now,
        )

        def hop_from(cur: int) -> None:
            nxt = self._next_hop(cur, dst)

            def landed() -> None:
                self._count_hop(handle, nbytes)
                if nxt == dst:
                    self._arrive(handle, dst, None, on_complete)
                else:
                    hop_from(nxt)

            self._submit_hop(cur, nxt, nbytes, landed, tag)

        hop_from(src)
        return handle

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------

    def multicast(self, root: int, dests: Sequence[int], nbytes: int,
                  on_arrive: Optional[Callable[[int], None]] = None,
                  on_complete: Optional[Callable[[], None]] = None,
                  tag: str = "") -> CollectiveHandle:
        """Full payload from ``root`` to a destination subset.

        All-to-all wiring sends directly to every destination (distinct
        links, truly parallel); a ring forwards clockwise through
        intermediate GPUs up to the farthest destination — non-member
        GPUs on the path store-and-forward without an arrival callback.
        An empty ``dests`` completes immediately (degenerate 1-GPU
        collective), so callers need no special casing.
        """
        self._check_gpu(root, "multicast root")
        dest_set = self._check_dests(root, dests)
        handle = CollectiveHandle(
            kind=KIND_MULTICAST, root=root, dests=tuple(sorted(dest_set)),
            nbytes=nbytes, start_time=self.sim.now,
        )
        if not dest_set:
            handle.done = True
            handle.end_time = self.sim.now
            if on_complete is not None:
                on_complete()
            return handle
        if nbytes <= 0:
            raise SimulationError(
                f"multicast needs nbytes > 0, got {nbytes}")

        if self.spec.kind == "all_to_all":
            for dst in handle.dests:
                def landed(dst: int = dst) -> None:
                    self._count_hop(handle, nbytes)
                    self._arrive(handle, dst, on_arrive, on_complete)

                self._submit_hop(root, dst, nbytes, landed, tag)
            return handle

        n = self.spec.n_gpus
        max_dist = max((d - root) % n for d in dest_set)

        def forward(step: int) -> None:
            cur = (root + step) % n
            nxt = (root + step + 1) % n

            def landed() -> None:
                self._count_hop(handle, nbytes)
                if step + 1 < max_dist:
                    forward(step + 1)
                if nxt in dest_set:
                    self._arrive(handle, nxt, on_arrive, on_complete)

            self._submit_hop(cur, nxt, nbytes, landed, tag)

        forward(0)
        return handle

    # ------------------------------------------------------------------

    def _check_dests(self, root: int, dests: Sequence[int]) -> frozenset:
        seen = set()
        for d in dests:
            self._check_gpu(d, "collective destination")
            if d == root:
                raise SimulationError(
                    f"collective root {root} cannot be a destination")
            if d in seen:
                raise SimulationError(f"duplicate destination {d}")
            seen.add(d)
        return frozenset(seen)
