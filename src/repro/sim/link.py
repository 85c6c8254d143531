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

Hot-path notes: this module fires a handful of callbacks per simulated
transfer, so the inner machinery avoids per-call lookups — direction
state is held in plain slotted objects (no enum-keyed dict on the
transfer path) and metric handles are resolved at construction.

Ownership: the link owns its two direction states and nothing points
back up.  A state does not know its opposite (the link picks it), and
each latency/flow/completion event gets a fresh ``partial`` bound to
the link instead of one stored on the state.  Only the state's
``completion`` handle keeps an event past its firing, and it is
cancelled or cleared as the transfer moves on, so a link whose
transfers have drained is freed by reference counting alone.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

from ..errors import InvalidTransferError, SimulationError
from .engine import ScheduledEvent, Simulator
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
        self.submit_time: float = 0.0
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
        "slowdown",
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
        self.slowdown = cfg.bid_slowdown
        self.queue: Deque[_Job] = deque()
        self.active: Optional[_Job] = None
        self.phase = _IDLE
        self.completion: Optional[ScheduledEvent] = None
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
        job = _Job(nbytes, on_complete, tag, scale)
        if self._faults is not None:
            outcome = self._faults.transfer_outcome(direction.value)
            job.fail = outcome.fail
            job.rate_scale *= outcome.rate_factor
            job.on_fault = on_fault
        job.submit_time = self._sim.now
        st = self._h2d if direction is Direction.H2D else self._d2h
        st.queue.append(job)
        if st.active is None:
            self._try_start(st)

    # ------------------------------------------------------------------
    # internal machinery
    # ------------------------------------------------------------------

    def _try_start(self, st: _DirectionState) -> None:
        if st.active is not None or not st.queue:
            return
        job = st.queue.popleft()
        st.active = job
        st.phase = _LATENCY
        job.start_time = self._sim.now
        latency = st.latency
        if self._noise is not None:
            latency *= self._noise.latency_factor()
        st.completion = self._sim.schedule(
            latency, partial(self._begin_flow, st))

    def _other(self, st: _DirectionState) -> _DirectionState:
        return self._d2h if st is self._h2d else self._h2d

    def _begin_flow(self, st: _DirectionState) -> None:
        if st.active is None:
            raise SimulationError("flow began with no active transfer")
        st.phase = _FLOW
        st.last_update = self._sim.now
        if st.active.remaining <= 0.0:
            # Zero-byte transfer: latency only.
            self._complete(st)
            return
        self._reschedule(st)
        # The opposite direction just gained a contender: slow it down.
        self._replan(self._other(st))

    def _reschedule(self, st: _DirectionState) -> None:
        """(Re)compute the completion event from current remaining bytes."""
        if st.completion is not None:
            st.completion.cancel()
        # Byte rate given both directions' phases.
        rate = st.bandwidth
        if self._other(st).phase == _FLOW:
            rate /= st.slowdown
        rate *= st.active.rate_scale
        st.rate = rate
        st.completion = self._sim.schedule(
            st.active.remaining / rate, partial(self._complete, st)
        )

    def _accrue(self, st: _DirectionState, elapsed: float) -> None:
        """Account flow time (and contended flow time) for a span during
        which the contention state was constant.

        Whether the span was contended is derived from the rate in force
        during the span (``st.rate``), which encodes the old contention
        state even when this is called mid-transition.
        """
        if elapsed <= 0:
            return
        stats = st.stats
        stats.flow_time += elapsed
        uncontended = st.bandwidth * st.active.rate_scale
        if st.rate < uncontended * (1.0 - 1e-12):
            stats.bid_overlap_time += elapsed

    def _replan(self, st: _DirectionState) -> None:
        """Integrate progress and re-plan after a contention change."""
        if st.phase != _FLOW or st.active is None:
            return
        now = self._sim.now
        elapsed = now - st.last_update
        if elapsed > 0:
            done = elapsed * st.rate
            st.active.remaining = max(0.0, st.active.remaining - done)
            self._accrue(st, elapsed)
        st.last_update = now
        self._reschedule(st)

    def _complete(self, st: _DirectionState) -> None:
        job = st.active
        if job is None:
            raise SimulationError("completion fired with no active transfer")
        now = self._sim.now
        if st.phase == _FLOW:
            self._accrue(st, now - st.last_update)
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
        self._replan(self._other(st))
        if job.fail:
            if job.on_fault is not None:
                job.on_fault()
        elif job.on_complete is not None:
            job.on_complete()
        self._try_start(st)
