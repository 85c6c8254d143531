"""Unit tests for the discrete-event simulation core."""

import types

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from tests.sim.events import pending_events


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, lambda: fired.append(sim.now))
    n = sim.run()
    assert n == 1
    assert fired == [1.5]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_timestamps_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == list("abcde")


def test_callback_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(2.0, lambda: seen.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [1.0, 3.0]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append("x"))
    ev.cancel()
    assert sim.run() == 0
    assert fired == []


def test_cancel_one_of_many():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    ev = sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(3.0, lambda: fired.append("c"))
    ev.cancel()
    sim.run()
    assert fired == ["a", "c"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_run_done_stops_at_the_completing_event():
    sim = Simulator()
    counter = []
    handle = types.SimpleNamespace(done=False)

    def tick(i):
        counter.append(i)
        handle.done = len(counter) >= 3

    for i in range(10):
        sim.schedule(float(i + 1), lambda i=i: tick(i))
    assert sim.run_done(handle) == 3
    assert len(counter) == 3
    assert pending_events(sim) == 7
    sim.run()
    assert len(counter) == 10


def test_runaway_guard():
    sim = Simulator()

    def reschedule():
        sim.schedule(1.0, reschedule)

    sim.schedule(1.0, reschedule)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=100)


def test_pending_events_counts_only_live():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    ev = sim.schedule(2.0, lambda: None)
    ev.cancel()
    assert pending_events(sim) == 1


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run()


def test_run_returns_fired_count():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    assert sim.run() == 5
