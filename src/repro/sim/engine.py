"""Discrete-event simulation core.

A :class:`Simulator` owns a virtual clock and an event queue: one
binary heap of ``(time, seq, event)`` entries.  Components schedule
callbacks at absolute or relative virtual times; running the simulator
pops events in time order (FIFO among equal timestamps, by ``seq``) and
invokes them.  Events can be cancelled, which is how the duplex link
re-plans in-flight transfers when contention changes: a cancelled entry
stays in the heap and is skipped when it reaches the top.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Tuple

from ..errors import SimulationError


class ScheduledEvent:
    """Handle for a scheduled callback; supports O(1) cancellation."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        The callback is dropped now rather than when the entry leaves
        the heap, so whatever it captured is freed at cancellation.
        """
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.9f} seq={self.seq} {state}>"


class Simulator:
    """Virtual-time event loop.

    The clock only moves forward, and only while :meth:`run` (or one of
    its bounded variants) is executing.  Determinism: two events at the
    same timestamp fire in scheduling order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        #: (time, seq, handle) entries; seq values are unique, so tuple
        #: comparison never reaches the (uncomparable-by-design) handle
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Scheduled, not-yet-cancelled events."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, callback)
        heappush(self._heap, (time, seq, ev))
        return ev

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, callback)
        heappush(self._heap, (time, seq, ev))
        return ev

    # ------------------------------------------------------------------
    # run loops
    # ------------------------------------------------------------------

    def _enter(self) -> None:
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True

    def run(self, max_events: int = 50_000_000) -> int:
        """Run until no events remain.  Returns the number fired.

        ``max_events`` is a runaway guard: a cycle of self-rescheduling
        events raises instead of hanging forever.
        """
        self._enter()
        fired = 0
        heap = self._heap
        try:
            while heap:
                time, _, ev = heappop(heap)
                if ev.cancelled:
                    continue
                self._now = time
                ev.callback()
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"event budget exhausted after {max_events} events; "
                        "likely a scheduling cycle"
                    )
        finally:
            self._running = False
        return fired

    def run_done(self, handle, max_events: int = 50_000_000) -> int:
        """Run until ``handle.done`` is true or no events remain.

        ``handle`` is anything with a ``done`` attribute (e.g. a
        :class:`~repro.sim.stream.Operation`).  The flag is checked
        between every two events, including events at the same
        timestamp, so the run stops at the exact event that completes
        the handle.
        """
        self._enter()
        fired = 0
        heap = self._heap
        try:
            while heap and not handle.done:
                time, _, ev = heappop(heap)
                if ev.cancelled:
                    continue
                self._now = time
                ev.callback()
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"event budget exhausted after {max_events} events"
                    )
        finally:
            self._running = False
        return fired

    def run_to(self, time: float, max_events: int = 50_000_000) -> int:
        """Fire every event with timestamp <= ``time``, then set the
        clock to exactly ``time``.  Returns the number fired.

        The lock-step epoch barrier the cluster coordinator leans on:
        each node's simulator is driven to one shared instant before
        the router observes its backlog, so cross-node comparisons are
        always between clocks at the same virtual time.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run to t={time} before now={self._now}"
            )
        self._enter()
        fired = 0
        heap = self._heap
        try:
            while heap and heap[0][0] <= time:
                t, _, ev = heappop(heap)
                if ev.cancelled:
                    continue
                self._now = t
                ev.callback()
                fired += 1
                if fired > max_events:
                    raise SimulationError(
                        f"event budget exhausted after {max_events} events; "
                        "likely a scheduling cycle"
                    )
        finally:
            self._running = False
        self._now = time
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.9f} pending={self.pending_events}>"
        )
