"""Requests and the EDF-within-priority queue."""

import numpy as np
import pytest

from repro.core.params import gemm_problem
from repro.serve import Request, RequestQueue, RequestState, ServeError


def req(req_id, arrival=0.0, priority=0, deadline=None, predicted=None):
    r = Request(req_id=req_id,
                problem=gemm_problem(512, 512, 512, np.float64),
                arrival=arrival, priority=priority, deadline=deadline)
    r.predicted_seconds = predicted
    return r


class TestRequest:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ServeError, match="negative arrival"):
            req(0, arrival=-1.0)

    def test_deadline_before_arrival_rejected(self):
        with pytest.raises(ServeError, match="deadline"):
            req(0, arrival=2.0, deadline=1.0)

    def test_lifecycle_properties_none_until_filled(self):
        r = req(0, arrival=1.0, deadline=5.0)
        assert r.latency is None and r.wait is None and r.slo_met is None
        r.dispatch_t = 1.5
        r.completion_t = 3.0
        assert r.wait == pytest.approx(0.5)
        assert r.latency == pytest.approx(2.0)
        assert r.slo_met is True
        r.completion_t = 6.0
        assert r.slo_met is False

    def test_slo_none_without_deadline(self):
        r = req(0)
        r.completion_t = 1.0
        assert r.slo_met is None

    def test_initial_state(self):
        assert req(0).state is RequestState.CREATED

    def test_describe_mentions_priority_and_group(self):
        r = req(3, priority=1, deadline=0.5)
        r.group = "g0"
        text = r.describe()
        assert "req#3" in text and "prio=1" in text and "group=g0" in text


class TestQueueOrdering:
    def test_priority_classes_served_high_first(self):
        q = RequestQueue()
        low = req(0, priority=0, deadline=1.0)
        high = req(1, priority=1, deadline=100.0)
        q.push(low)
        q.push(high)
        assert q.pop() is high  # priority beats any deadline

    def test_edf_within_priority(self):
        q = RequestQueue()
        late = req(0, deadline=9.0)
        soon = req(1, deadline=2.0)
        none = req(2)  # deadline-less sorts last in the class
        for r in (late, soon, none):
            q.push(r)
        assert [q.pop() for _ in range(3)] == [soon, late, none]

    def test_ties_break_by_arrival_then_id(self):
        q = RequestQueue()
        a = req(5, arrival=1.0)
        b = req(2, arrival=1.0)
        c = req(9, arrival=0.5)
        for r in (a, b, c):
            q.push(r)
        assert [q.pop() for _ in range(3)] == [c, b, a]


class TestQueueMechanics:
    def test_len_bool(self):
        q = RequestQueue()
        assert not q and len(q) == 0
        q.push(req(0))
        assert q and len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(ServeError, match="empty"):
            RequestQueue().pop()

    def test_lazy_remove(self):
        q = RequestQueue()
        a, b, c = req(0, deadline=1.0), req(1, deadline=2.0), req(2, deadline=3.0)
        for r in (a, b, c):
            q.push(r)
        q.remove(b)
        assert len(q) == 2
        assert [q.pop(), q.pop()] == [a, c]
        assert not q

    def test_double_remove_rejected(self):
        q = RequestQueue()
        r = req(0)
        q.push(r)
        q.remove(r)
        with pytest.raises(ServeError, match="removed twice"):
            q.remove(r)

    def test_remove_never_queued_rejected(self):
        q = RequestQueue()
        a = req(0)
        q.push(a)
        with pytest.raises(ServeError, match="removed twice"):
            q.remove(req(1))
        assert len(q) == 1
        assert list(q) == [a]

    def test_iteration_in_order_and_non_destructive(self):
        q = RequestQueue()
        rs = [req(i, deadline=float(10 - i)) for i in range(4)]
        for r in rs:
            q.push(r)
        q.remove(rs[1])
        seen = list(q)
        assert seen == [rs[3], rs[2], rs[0]]
        assert len(q) == 3  # iteration left the heap intact
        assert list(q) == seen

    def test_total_predicted_sums_live_requests(self):
        q = RequestQueue()
        a, b = req(0, predicted=0.25), req(1, predicted=0.5)
        q.push(a)
        q.push(b)
        q.push(req(2))  # no prediction counts as zero
        assert q.total_predicted() == pytest.approx(0.75)
        q.remove(a)
        assert q.total_predicted() == pytest.approx(0.5)
