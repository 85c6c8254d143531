"""Property and unit tests for the simulator's event queue.

The simulator keeps one binary heap of ``(time, seq, event)`` entries;
the byte-identity of every committed trace rests on it firing events in
exactly ``(time, seq)`` order under arbitrary schedule/run interleavings,
duplicate timestamps, cancellations and bounded runs.  The property
tests drive :class:`Simulator` against a sorted-list reference model;
the unit tests pin the boundaries random data rarely hits (far-future
events, pushes behind a jumped clock, exact ``run_to`` edges).

Hypothesis ships in the test environment; skip cleanly where it
doesn't rather than growing a dependency.
"""

import types

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from tests.sim.events import pending_events


def _key(entry):
    return (entry[0], entry[1])


def schedule_all(sim, times, fired):
    """Schedule one recorder per time; returns ``(time, idx)`` entries.

    ``idx`` is the scheduling order, so the reference firing order is
    simply the entries sorted by ``(time, idx)``.
    """
    entries = []
    for idx, t in enumerate(times):
        sim.schedule_at(t, lambda e=(t, idx): fired.append(e))
        entries.append((t, idx))
    return entries


# Timestamps a simulator actually produces: non-negative floats over
# wildly different magnitudes (nanosecond transfer chains to watchdog
# deadlines), with duplicates made likely by rounding to few digits.
times_strategy = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e-6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
            lambda t: round(t, 2)),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    ),
    min_size=0, max_size=200)

# Interleaved operations: schedule at now + delay, or run_to now + delay.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["push", "step"]),
              st.sampled_from([0.0, 0.0, 1e-6, 0.01, 0.5, 1.0, 250.0])),
    min_size=0, max_size=300)


class TestAgainstReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(times=times_strategy)
    def test_run_fires_in_sorted_reference_order(self, times):
        sim = Simulator()
        fired = []
        entries = schedule_all(sim, times, fired)
        assert sim.run() == len(entries)
        assert fired == sorted(entries, key=_key)
        assert pending_events(sim) == 0

    @settings(max_examples=200, deadline=None)
    @given(ops=ops_strategy)
    def test_interleaved_schedule_and_run_to_match_reference(self, ops):
        sim = Simulator()
        fired = []
        model = []
        for idx, (op, delay) in enumerate(ops):
            if op == "push":
                entry = (sim.now + delay, idx)
                sim.schedule(delay, lambda e=entry: fired.append(e))
                model.append(entry)
            else:
                target = sim.now + delay
                expect = sorted((e for e in model if e[0] <= target),
                                key=_key)
                before = len(fired)
                assert sim.run_to(target) == len(expect)
                assert fired[before:] == expect
                assert sim.now == target
                model = [e for e in model if e[0] > target]
            assert pending_events(sim) == len(model)
        sim.run()
        assert sorted(fired, key=_key) == fired

    @settings(max_examples=150, deadline=None)
    @given(times=times_strategy, data=st.data())
    def test_cancelled_events_are_skipped_and_the_rest_keep_order(
            self, times, data):
        sim = Simulator()
        fired = []
        handles = [sim.schedule_at(t, lambda e=(t, idx): fired.append(e))
                   for idx, t in enumerate(times)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(times),
                                  max_size=len(times)))
        for handle, cancel in zip(handles, mask):
            if cancel:
                handle.cancel()
        live = [(t, idx) for idx, (t, cancel) in enumerate(zip(times, mask))
                if not cancel]
        assert pending_events(sim) == len(live)
        assert sim.run() == len(live)
        assert fired == sorted(live, key=_key)

    @settings(max_examples=100, deadline=None)
    @given(times=times_strategy, data=st.data())
    def test_run_done_stops_after_the_kth_event(self, times, data):
        k = data.draw(st.integers(min_value=0, max_value=len(times)))
        sim = Simulator()
        fired = []
        handle = types.SimpleNamespace(done=k == 0)
        for idx, t in enumerate(times):
            def record(e=(t, idx)):
                fired.append(e)
                handle.done = len(fired) >= k
            sim.schedule_at(t, record)
        reference = sorted(((t, i) for i, t in enumerate(times)), key=_key)
        assert sim.run_done(handle) == k
        assert fired == reference[:k]
        sim.run()
        assert fired == reference


class TestFifoWithinTimestamp:
    def test_duplicate_timestamps_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        entries = schedule_all(sim, [1.0] * 50, fired)
        sim.run()
        assert fired == entries

    def test_duplicates_interleaved_with_other_times(self):
        sim = Simulator()
        fired = []
        times = [2.0, 1.0, 2.0, 2.0, 3.0, 2.0, 2.0]
        entries = schedule_all(sim, times, fired)
        sim.run()
        assert [e[0] for e in fired] == sorted(times)
        dups = [e for e in entries if e[0] == 2.0]
        assert [e for e in fired if e[0] == 2.0] == dups

    def test_equal_time_events_scheduled_during_the_timestamp_queue_last(
            self):
        # Events pushed at the current instant while that instant is
        # being drained join the back of the line, however many there are.
        sim = Simulator()
        order = []

        def spawn(i):
            order.append(i)
            if i < 100:
                sim.schedule(0.0, lambda: spawn(i + 100))

        for i in range(100):
            sim.schedule(7.0, lambda i=i: spawn(i))
        sim.run()
        assert order == list(range(200))
        assert sim.now == 7.0


class TestQueueShapes:
    def test_large_increasing_burst_fires_in_order(self):
        sim = Simulator()
        fired = []
        entries = schedule_all(sim, [0.001 * i for i in range(600)], fired)
        assert pending_events(sim) == 600
        sim.run()
        assert fired == entries
        assert pending_events(sim) == 0

    def test_reverse_scheduled_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        entries = schedule_all(sim, [float(i) for i in range(300, 0, -1)],
                               fired)
        sim.run()
        assert fired == sorted(entries, key=_key)

    def test_far_future_event_fires_and_moves_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1e9, lambda: fired.append(sim.now))
        assert sim.run() == 1
        assert fired == [1e9] and sim.now == 1e9

    def test_push_behind_a_far_future_event_fires_first(self):
        # After the clock jumps forward, an event scheduled between now
        # and a still-queued far-future one must come out first.
        sim = Simulator()
        fired = []
        sim.schedule_at(1e9, lambda: fired.append("late"))
        sim.run_to(5.0)
        sim.schedule_at(10.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_cancelled_head_does_not_block_later_events(self):
        sim = Simulator()
        fired = []
        heads = [sim.schedule(1.0, lambda: fired.append("dead"))
                 for _ in range(50)]
        sim.schedule(2.0, lambda: fired.append("live"))
        for ev in heads:
            ev.cancel()
        assert sim.run() == 1
        assert fired == ["live"]


class TestRunToBoundaries:
    def test_fires_events_exactly_at_the_barrier_and_keeps_later_ones(
            self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        assert sim.run_to(2.0) == 3
        assert fired == [1.0, 2.0, 2.0]
        assert sim.now == 2.0 and pending_events(sim) == 1

    def test_idle_run_to_sets_the_clock_exactly(self):
        sim = Simulator()
        assert sim.run_to(4.25) == 0
        assert sim.now == 4.25

    def test_run_to_before_now_rejected(self):
        sim = Simulator()
        sim.run_to(3.0)
        with pytest.raises(SimulationError):
            sim.run_to(2.0)

    def test_run_to_runaway_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            sim.run_to(1.0, max_events=100)

    def test_run_done_on_finished_handle_fires_nothing(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run_done(types.SimpleNamespace(done=True)) == 0
        assert sim.now == 0.0 and pending_events(sim) == 1


class TestOneEngine:
    @pytest.mark.parametrize("kwargs", [{"scheduler": "calendar"},
                                        {"mode": "fluid"}])
    def test_simulator_takes_no_configuration(self, kwargs):
        # One queue, one exact mode: there is nothing left to choose.
        with pytest.raises(TypeError):
            Simulator(**kwargs)
