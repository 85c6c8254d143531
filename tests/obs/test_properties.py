"""Property-based tests (hypothesis) on observability invariants.

* a histogram's buckets and aggregates match a reference bucketing;
* counters are monotone under any sequence of valid increments;
* the profiler's overlap fraction always lands in [0, 1];
* per engine, busy + idle spans partition the trace extent exactly.
"""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Counter, Histogram, profile_trace
from repro.sim.trace import TraceEvent

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
observations = st.lists(finite, min_size=0, max_size=30)

ENGINES = ("h2d", "exec", "d2h")


@st.composite
def traces(draw):
    """Non-empty event lists on up to three engines.

    Events on one engine are laid out back-to-back with gaps, so each
    engine is individually valid (no self-overlap) while cross-engine
    overlap is arbitrary — exactly the space the profiler must handle.
    """
    events = []
    for engine in draw(st.sets(st.sampled_from(ENGINES), min_size=1)):
        cursor = draw(st.floats(min_value=0.0, max_value=10.0))
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            cursor += draw(st.floats(min_value=0.0, max_value=3.0))  # gap
            dur = draw(st.floats(min_value=0.0, max_value=5.0))
            events.append(TraceEvent(engine, "op", cursor, cursor + dur))
            cursor += dur
    return events


def hist_from(values):
    h = Histogram("h", bounds=[-10.0, 0.0, 10.0])
    for v in values:
        h.observe(v)
    return h


class TestHistogramBuckets:
    @given(observations)
    @settings(max_examples=50)
    def test_observe_matches_reference_bucketing(self, xs):
        h = hist_from(xs)
        # First bucket whose upper bound is >= the value, else overflow.
        expected = [0] * (len(h.bounds) + 1)
        for x in xs:
            expected[bisect.bisect_left(h.bounds, x)] += 1
        assert h.bucket_counts == expected
        assert h.count == len(xs)
        assert h.sum == pytest.approx(sum(xs))
        if xs:
            assert (h.min, h.max) == (min(xs), max(xs))


class TestCounterMonotonicity:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False), max_size=50))
    @settings(max_examples=50)
    def test_counter_never_decreases(self, increments):
        c = Counter("c")
        prev = c.value
        for amount in increments:
            c.inc(amount)
            assert c.value >= prev
            prev = c.value


class TestProfilerProperties:
    @given(traces())
    @settings(max_examples=60)
    def test_overlap_fraction_in_unit_interval(self, events):
        rep = profile_trace(events)
        assert 0.0 <= rep.overlap_fraction <= 1.0
        assert 0.0 <= rep.overlap_efficiency <= 1.0

    @given(traces())
    @settings(max_examples=60)
    def test_busy_plus_idle_partitions_extent(self, events):
        rep = profile_trace(events)
        for prof in rep.engines.values():
            assert prof.busy_time + prof.idle_time == pytest.approx(
                rep.t_total, abs=1e-9)
            # spans are disjoint and ordered within the extent
            spans = sorted(prof.busy_spans + prof.idle_spans)
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-12

    @given(traces())
    @settings(max_examples=60)
    def test_critical_path_partitions_makespan(self, events):
        rep = profile_trace(events)
        assert sum(rep.critical_path.values()) == pytest.approx(
            rep.t_total, abs=1e-9)
