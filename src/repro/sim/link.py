"""Duplex host-device link with bidirectional contention.

Models the PCIe behaviour the CoCoPeLia paper's BTS model is about:

* separate h2d and d2h copy engines, each processing one transfer at a
  time in FIFO order;
* a per-transfer fixed latency (setup) phase followed by a byte-flow
  phase at the direction's bandwidth;
* an *asymmetric bidirectional slowdown*: while both directions are in
  their byte-flow phase simultaneously, each direction's rate drops by
  its own slowdown factor (d2h is typically hurt more, per the paper).

The byte-flow phase is a fluid model: when the opposite direction starts
or stops flowing, the in-flight transfer is re-planned — bytes done so
far are integrated at the old rate and the completion event is
rescheduled at the new rate.  This is what produces the partial-overlap
behaviour of the paper's Eq. 3 as *ground truth*.

Hot-path notes: a transfer costs two events (latency end, flow end)
plus one re-plan per opposite-direction flow start or end while it
flows, so the inner machinery avoids per-event calls and lookups.
Direction state is held in plain slotted objects (no enum-keyed dict on
the transfer path) with the contended byte rate precomputed, metric
handles are resolved at construction, the clock is read as
``sim._now``, the opposite state is picked inline and re-planned only
while it flows, and events are pushed straight onto the simulator's
heap (``repro.sim.engine``).  The latency event is never cancelled: it
has fired by the time a flow can be re-planned.

Ownership: the link owns its two direction states and nothing points
back up.  A state does not know its opposite (the link picks it), and
each event's heap entry holds a fresh bound method of the link and the
state as its argument, not a callback stored on the state.  Only the
state's ``completion`` entry is kept, until the flow is re-planned
(which cancels it) or completes (which clears it), so a link whose
transfers have drained is freed by reference counting alone.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Deque, Dict, Optional, Tuple

from ..errors import InvalidTransferError, SimulationError
from .engine import Simulator
from .faults import FaultInjector
from .noise import NoiseModel


class Direction(enum.Enum):
    """Transfer direction over the duplex link."""

    H2D = "h2d"
    D2H = "d2h"


@dataclass(frozen=True)
class LinkDirectionConfig:
    """Ground-truth parameters for one link direction.

    latency
        Per-transfer setup time in seconds (the paper's ``t_l``).
    bandwidth
        Unidirectional byte rate in bytes/second (``1/t_b``).
    bid_slowdown
        Factor (>= 1) by which this direction slows while the opposite
        direction is also flowing (the paper's ``sl``).
    """

    latency: float
    bandwidth: float
    bid_slowdown: float = 1.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise InvalidTransferError(f"negative latency: {self.latency}")
        if self.bandwidth <= 0:
            raise InvalidTransferError(f"non-positive bandwidth: {self.bandwidth}")
        if self.bid_slowdown < 1.0:
            raise InvalidTransferError(
                f"bidirectional slowdown must be >= 1, got {self.bid_slowdown}"
            )


# Flow phases as plain ints: module constants are cheaper to read and
# compare than enum members on the per-event path.
_IDLE = 0
_LATENCY = 1
_FLOW = 2


class _Job:
    """One queued or in-flight transfer."""

    __slots__ = (
        "nbytes",
        "on_complete",
        "on_fault",
        "tag",
        "remaining",
        "rate_scale",
        "fail",
        "submit_time",
        "start_time",
    )

    def __init__(
        self,
        nbytes: int,
        on_complete: Optional[Callable[[], None]],
        tag: str,
        rate_scale: float,
        submit_time: float,
    ) -> None:
        self.nbytes = nbytes
        self.on_complete = on_complete
        #: fires instead of ``on_complete`` when the transfer fails
        self.on_fault: Optional[Callable[[], None]] = None
        self.tag = tag
        self.remaining = float(nbytes)
        #: multiplicative noise on this job's effective bandwidth
        self.rate_scale = rate_scale
        #: injected transient failure: occupies the link, then fails
        self.fail = False
        self.submit_time = submit_time
        self.start_time: float = 0.0


@dataclass
class DirectionStats:
    """Aggregate counters for one direction, for tests and reports."""

    transfers: int = 0
    bytes_moved: int = 0
    busy_time: float = 0.0
    flow_time: float = 0.0
    bid_overlap_time: float = 0.0
    #: injected transient failures (each occupied the link fully)
    faults: int = 0


class _DirectionState:
    __slots__ = (
        "name",
        "latency",
        "bandwidth",
        "contended_bandwidth",
        "queue",
        "active",
        "phase",
        "completion",
        "last_update",
        "rate",
        "stats",
        "m_transfers",
        "m_bytes",
        "m_faults",
        "m_queue_wait",
    )

    def __init__(self, cfg: LinkDirectionConfig, name: str) -> None:
        self.name = name
        # Scalar copies of the config, read on every event.
        self.latency = cfg.latency
        self.bandwidth = cfg.bandwidth
        #: byte rate while the opposite direction flows too
        self.contended_bandwidth = cfg.bandwidth / cfg.bid_slowdown
        self.queue: Deque[_Job] = deque()
        self.active: Optional[_Job] = None
        self.phase = _IDLE
        #: heap entry of the planned flow completion
        self.completion: Optional[list] = None
        self.last_update = 0.0
        self.rate = 0.0
        self.stats = DirectionStats()
        # Prefetched metric handles (None = off).
        self.m_transfers = None
        self.m_bytes = None
        self.m_faults = None
        self.m_queue_wait = None


class DuplexLink:
    """The host<->device interconnect: two contending copy engines."""

    def __init__(
        self,
        sim: Simulator,
        h2d: LinkDirectionConfig,
        d2h: LinkDirectionConfig,
        noise: Optional[NoiseModel] = None,
        trace=None,
        faults: Optional[FaultInjector] = None,
        metrics=None,
        names: Optional[Tuple[str, str]] = None,
    ) -> None:
        self._sim = sim
        # The simulator's queue, pushed to directly (see repro.sim.engine).
        self._heap = sim._heap
        self._seqs = sim._seqs
        #: Engine names used for trace spans and metric prefixes; the
        #: inter-GPU interconnect overrides them (e.g. ``peer0>1``) so
        #: peer links are distinguishable from the PCIe ``h2d``/``d2h``
        #: engines in merged timelines.  Timing is name-independent.
        h2d_name, d2h_name = (names if names is not None
                              else (Direction.H2D.value, Direction.D2H.value))
        self._h2d = _DirectionState(h2d, h2d_name)
        self._d2h = _DirectionState(d2h, d2h_name)
        self._dirs: Dict[Direction, _DirectionState] = {
            Direction.H2D: self._h2d,
            Direction.D2H: self._d2h,
        }
        self._noise = noise
        self._trace = trace
        self._faults = faults
        #: duck-typed MetricsRegistry (repro.obs.metrics); None = off
        self._metrics = metrics
        if metrics is not None:
            for st in (self._h2d, self._d2h):
                prefix = f"sim.{st.name}"
                st.m_transfers = metrics.counter(f"{prefix}.transfers")
                st.m_bytes = metrics.counter(f"{prefix}.bytes")
                st.m_faults = metrics.counter(f"{prefix}.faults")
                st.m_queue_wait = metrics.histogram(f"{prefix}.queue_wait")

    def stats(self, direction: Direction) -> DirectionStats:
        return self._dirs[direction].stats

    def queue_depth(self, direction: Direction) -> int:
        st = self._dirs[direction]
        return len(st.queue) + (1 if st.active is not None else 0)

    def submit(
        self,
        direction: Direction,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        tag: str = "",
        on_fault: Optional[Callable[[], None]] = None,
    ) -> None:
        """Enqueue a transfer of ``nbytes`` in ``direction``.

        ``on_complete`` fires at the virtual time the last byte lands.
        When a fault injector is attached the transfer may instead fail
        (CRC-style: it occupies the link for its full duration, then
        ``on_fault`` fires and ``on_complete`` does not), and may flow
        at collapsed bandwidth.
        """
        if nbytes < 0:
            raise InvalidTransferError(f"negative transfer size: {nbytes}")
        scale = 1.0
        if self._noise is not None:
            scale = self._noise.rate_factor()
        job = _Job(nbytes, on_complete, tag, scale, self._sim._now)
        if self._faults is not None:
            outcome = self._faults.transfer_outcome(direction.value)
            job.fail = outcome.fail
            job.rate_scale *= outcome.rate_factor
            job.on_fault = on_fault
        st = self._h2d if direction is Direction.H2D else self._d2h
        queue = st.queue
        queue.append(job)
        if st.active is None:
            self._start(st, queue.popleft())

    # ------------------------------------------------------------------
    # internal machinery
    # ------------------------------------------------------------------

    def _start(self, st: _DirectionState, job: _Job) -> None:
        """Begin ``job``'s latency phase on the idle direction ``st``.

        The latency event is not kept: nothing cancels it.
        """
        st.active = job
        st.phase = _LATENCY
        now = self._sim._now
        job.start_time = now
        latency = st.latency
        if self._noise is not None:
            latency *= self._noise.latency_factor()
        heappush(self._heap,
                 [now + latency, next(self._seqs), self._begin_flow, st])

    def _begin_flow(self, st: _DirectionState) -> None:
        job = st.active
        if job is None:
            raise SimulationError("flow began with no active transfer")
        st.phase = _FLOW
        now = self._sim._now
        st.last_update = now
        if job.remaining <= 0.0:
            # Zero-byte transfer: latency only.
            self._complete(st)
            return
        other = self._d2h if st is self._h2d else self._h2d
        contended = other.phase == _FLOW
        self._plan(st, contended, now)
        if contended:
            # The opposite direction just gained a contender: slow it.
            self._replan(other, True, now)

    def _plan(self, st: _DirectionState, contended: bool,
              now: float) -> None:
        """Schedule the flowing ``st``'s completion from its remaining
        bytes, at the rate the opposite direction's phase allows."""
        job = st.active
        rate = (st.contended_bandwidth if contended
                else st.bandwidth) * job.rate_scale
        st.rate = rate
        entry = [now + job.remaining / rate, next(self._seqs),
                 self._complete, st]
        heappush(self._heap, entry)
        st.completion = entry

    def _accrue(self, st: _DirectionState, now: float) -> float:
        """Account the flow span of ``st`` that ends ``now`` and return
        its length.

        Whether the span was contended is read from the rate in force
        during it (``st.rate``).
        """
        elapsed = now - st.last_update
        if elapsed > 0:
            stats = st.stats
            stats.flow_time += elapsed
            if st.rate < st.bandwidth * st.active.rate_scale * (1.0 - 1e-12):
                stats.bid_overlap_time += elapsed
        return elapsed

    def _replan(self, st: _DirectionState, contended: bool,
                now: float) -> None:
        """Integrate the flowing ``st``'s progress, cancel its planned
        completion and plan it again after the opposite direction
        started (``contended``) or stopped flowing."""
        elapsed = self._accrue(st, now)
        if elapsed > 0:
            job = st.active
            job.remaining = max(0.0, job.remaining - elapsed * st.rate)
        st.last_update = now
        st.completion[2] = None  # cancel the completion planned before
        self._plan(st, contended, now)

    def _complete(self, st: _DirectionState) -> None:
        job = st.active
        if job is None:
            raise SimulationError("completion fired with no active transfer")
        now = self._sim._now
        if st.phase == _FLOW:
            self._accrue(st, now)
        job.remaining = 0.0
        st.phase = _IDLE
        st.active = None
        st.completion = None
        stats = st.stats
        stats.transfers += 1
        stats.bytes_moved += job.nbytes
        stats.busy_time += now - job.start_time
        if job.fail:
            stats.faults += 1
        if st.m_transfers is not None:
            st.m_transfers.inc()
            st.m_bytes.inc(job.nbytes)
            if job.fail:
                st.m_faults.inc()
            st.m_queue_wait.observe(job.start_time - job.submit_time)
        if self._trace is not None:
            self._trace.record(
                engine=st.name,
                tag=job.tag + ("!fault" if job.fail else ""),
                start=job.start_time,
                end=now,
                nbytes=job.nbytes,
            )
        # The opposite direction lost its contender: speed it up.
        other = self._d2h if st is self._h2d else self._h2d
        if other.phase == _FLOW:
            self._replan(other, False, now)
        if job.fail:
            if job.on_fault is not None:
                job.on_fault()
        elif job.on_complete is not None:
            job.on_complete()
        if st.active is None and st.queue:
            self._start(st, st.queue.popleft())
