"""Property-based tests (hypothesis) on the RequestQueue.

The queue backs the dispatcher's per-worker backlogs and is mutated
three ways — ``push`` on placement, ``remove`` on batch coalescing,
``pop`` on dispatch — in arbitrary interleavings, with drains popping
whole queues at once.  Under any such interleaving:

* pops come out EDF-within-priority (exactly ``queue_key`` order) over
  the live set, never yielding a removed request;
* ``len`` tracks the live set exactly, and ``__iter__`` agrees with
  the drain order ``pop`` would produce;
* ``total_predicted`` (memoized across reads) always equals the
  straight sum over live requests.

Hypothesis ships in the test environment; skip cleanly where it
doesn't rather than growing a dependency.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core.params import gemm_problem
from repro.serve import Request, RequestQueue, ServeError

import numpy as np


def make_request(req_id, priority, deadline, predicted):
    req = Request(req_id=req_id,
                  problem=gemm_problem(256, 256, 256, np.float64),
                  arrival=0.001 * req_id, priority=priority,
                  deadline=None if deadline is None else 1.0 + deadline)
    req.predicted_seconds = predicted
    return req


# One queue operation: push a fresh request, remove a random live one,
# or pop the head.  Values parameterize the request being pushed.
ops = st.lists(
    st.tuples(st.sampled_from(["push", "remove", "pop"]),
              st.integers(min_value=0, max_value=3),          # priority
              st.one_of(st.none(),
                        st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False)),          # deadline
              st.floats(min_value=0.0, max_value=0.1,
                        allow_nan=False)),                    # predicted
    min_size=0, max_size=60)


def apply_ops(operations):
    """Replay an op sequence; return (queue, live model dict)."""
    queue = RequestQueue()
    live = {}
    next_id = 0
    for op, priority, deadline, predicted in operations:
        if op == "push":
            req = make_request(next_id, priority, deadline, predicted)
            next_id += 1
            queue.push(req)
            live[req.req_id] = req
        elif op == "remove" and live:
            # Deterministic victim: the live request whose key sorts
            # in the middle — exercises non-head removal.
            victims = sorted(live.values(),
                             key=lambda r: r.queue_key())
            victim = victims[len(victims) // 2]
            queue.remove(victim)
            del live[victim.req_id]
        elif op == "pop" and live:
            popped = queue.pop()
            expected = min(live.values(), key=lambda r: r.queue_key())
            assert popped is expected
            del live[popped.req_id]
    return queue, live


class TestRequestQueueProperties:
    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_pop_order_is_edf_within_priority(self, operations):
        queue, live = apply_ops(operations)
        assert len(queue) == len(live)
        drained = []
        while queue:
            drained.append(queue.pop())
        keys = [r.queue_key() for r in drained]
        assert keys == sorted(keys)
        assert {r.req_id for r in drained} == set(live)

    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_iteration_matches_drain_order(self, operations):
        queue, live = apply_ops(operations)
        via_iter = [r.req_id for r in queue]
        via_pop = []
        while queue:
            via_pop.append(queue.pop().req_id)
        assert via_iter == via_pop

    @given(ops)
    @settings(max_examples=200, deadline=None)
    def test_total_predicted_matches_live_sum(self, operations):
        queue, live = apply_ops(operations)
        expected = sum(r.predicted_seconds or 0.0
                       for r in sorted(live.values(),
                                       key=lambda r: r.queue_key()))
        # Memoized read must agree with the straight sum, repeatedly.
        assert queue.total_predicted() == expected
        assert queue.total_predicted() == expected
        # ... and stay correct after one more mutation.
        extra = make_request(10_000, 0, None, 0.5)
        queue.push(extra)
        assert queue.total_predicted() == expected + 0.5

    def test_double_remove_rejected(self):
        queue = RequestQueue()
        req = make_request(0, 0, None, 0.0)
        queue.push(req)
        queue.remove(req)
        with pytest.raises(ServeError, match="removed twice"):
            queue.remove(req)
