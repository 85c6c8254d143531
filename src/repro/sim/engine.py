"""Discrete-event simulation core.

A :class:`Simulator` owns a virtual clock and an event queue: one
binary heap of ``[time, seq, fn, arg]`` lists.  Running the simulator
pops entries in time order (FIFO among equal timestamps, by ``seq``)
and calls ``fn(arg)``.  Components schedule zero-argument callbacks
through :meth:`Simulator.schedule`/:meth:`~Simulator.schedule_at`,
which return a cancellable :class:`ScheduledEvent`.  The duplex link
and the compute engine, which schedule nearly every event of a run,
push ``[time, next(sim._seqs), fn, arg]`` onto ``sim._heap``
themselves (never before the current time) and keep the bare entry,
so one of their events costs one list and no handle, tuple, ``partial``
or Python call.

Cancelling an entry empties its ``fn`` slot (``entry[2] = None``; the
public handle's ``cancel()`` empties ``arg`` too), which drops whatever
the callback captured at once.
The entry stays in the heap and is skipped when it reaches the top.
This is how the duplex link re-plans an in-flight transfer when
contention changes.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, List

from ..errors import SimulationError


def _fire(callback: Callable[[], None]) -> None:
    callback()


class ScheduledEvent(list):
    """A public event's heap entry, ``[time, seq, fire, callback]``,
    with O(1) cancellation."""

    __slots__ = ()

    def cancel(self) -> None:
        """Empty the entry; it will be skipped when popped.

        The callback is dropped now rather than when the entry leaves
        the heap, so whatever it captured is freed at cancellation.
        """
        self[2] = self[3] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        return f"<ScheduledEvent t={self[0]:.9f} seq={self[1]} {state}>"


class Simulator:
    """Virtual-time event loop.

    The clock only moves forward, and only while :meth:`run` (or one of
    its bounded variants) is executing.  Determinism: two events at the
    same timestamp fire in scheduling order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: tie-break sequence numbers, shared by every pusher
        self._seqs = count()
        #: [time, seq, fn, arg] entries; seq values are unique, so list
        #: comparison never reaches the (uncomparable-by-design) slots
        #: after it
        self._heap: List[list] = []
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        ev = ScheduledEvent((time, next(self._seqs), _fire, callback))
        heappush(self._heap, ev)
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
                time, _, fn, arg = heappop(heap)
                if fn is None:
                    continue
                self._now = time
                fn(arg)
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
                time, _, fn, arg = heappop(heap)
                if fn is None:
                    continue
                self._now = time
                fn(arg)
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
                t, _, fn, arg = heappop(heap)
                if fn is None:
                    continue
                self._now = t
                fn(arg)
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
        return f"<Simulator now={self._now:.9f} queued={len(self._heap)}>"
