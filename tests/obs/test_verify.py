"""Unit tests for the trace-invariant verifier (repro.obs.verify)."""

from collections import Counter

import pytest

from repro.errors import TraceInvariantError
from repro.obs import (find_request_violations, find_violations, kernel_deps,
                       split_fault, transfer_tile, verify_trace)
from repro.sim.trace import TraceEvent, TraceRecorder


def ev(engine, tag, start, end, nbytes=0, flops=0.0):
    return TraceEvent(engine, tag, start, end, nbytes, flops)


GOOD = [
    ev("h2d", "h2d:A(0,0)", 0.0, 1.0, nbytes=64),
    ev("h2d", "h2d:B(0,0)", 1.0, 2.0, nbytes=64),
    ev("h2d", "h2d:C(0,0)", 2.0, 3.0, nbytes=64),
    ev("exec", "gemm(0,0,0)", 3.0, 5.0, flops=8.0),
    ev("d2h", "d2h:C(0,0)", 5.0, 6.0, nbytes=64),
]


class TestTagParsing:
    def test_split_fault(self):
        assert split_fault("gemm(0,1,2)!fault") == ("gemm(0,1,2)", True)
        assert split_fault("gemm(0,1,2)") == ("gemm(0,1,2)", False)

    def test_transfer_tile(self):
        assert transfer_tile("h2d:A(0,1)") == "A(0,1)"
        assert transfer_tile("d2h:y[3]") == "y[3]"
        assert transfer_tile("gemm(0,0,0)") is None

    def test_kernel_deps_gemm(self):
        reads, writes = kernel_deps("gemm(1,2,3)")
        assert reads == {"A(1,3)", "B(3,2)", "C(1,2)"}
        assert writes == {"C(1,2)"}

    def test_kernel_deps_syrk(self):
        reads, writes = kernel_deps("syrk(2,1,0)")
        assert reads == {"A(2,0)", "A(1,0)", "C(2,1)"}
        assert writes == {"C(2,1)"}

    def test_kernel_deps_gemv_axpy(self):
        reads, writes = kernel_deps("gemv(0,1)")
        assert reads == {"A(0,1)", "x[1]", "y[0]"}
        assert writes == {"y[0]"}
        reads, writes = kernel_deps("axpy[2]")
        assert reads == {"x[2]", "y[2]"}
        assert writes == {"y[2]"}

    def test_kernel_deps_unknown_tags(self):
        assert kernel_deps("k0") is None
        assert kernel_deps("h2d:A(0,0)") is None
        assert kernel_deps("warmup(1,2)") is None


class TestVerifier:
    def test_good_trace_passes(self):
        assert find_violations(GOOD) == []
        verify_trace(GOOD)  # no raise

    def test_accepts_recorder_instances(self):
        tr = TraceRecorder()
        for e in GOOD:
            tr.record(e.engine, e.tag, e.start, e.end, e.nbytes, e.flops)
        verify_trace(tr)

    def test_end_before_start_rejected(self):
        bad = GOOD + [ev("h2d", "h2d:A(9,9)", 7.0, 6.5)]
        with pytest.raises(TraceInvariantError) as exc:
            verify_trace(bad)
        assert exc.value.invariant == "well-formed"
        assert "ends before it starts" in str(exc.value)

    def test_negative_bytes_rejected(self):
        bad = [ev("h2d", "h2d:A(0,0)", 0.0, 1.0, nbytes=-5)]
        with pytest.raises(TraceInvariantError) as exc:
            verify_trace(bad)
        assert exc.value.invariant == "well-formed"
        assert "negative nbytes" in str(exc.value)

    def test_completion_order_violation(self):
        bad = [
            ev("h2d", "h2d:A(0,0)", 0.0, 2.0),
            ev("d2h", "d2h:C(0,0)", 0.0, 1.0),  # recorded late
        ]
        (inv, msg), = find_violations(bad)
        assert inv == "completion-order"
        assert "recorded after" in msg

    def test_engine_exclusive_violation(self):
        bad = [
            ev("exec", "gemm(0,0,0)", 0.0, 2.0),
            ev("exec", "gemm(0,0,1)", 1.0, 3.0),  # overlaps on one engine
        ]
        (inv, msg), = find_violations(bad)
        assert inv == "engine-exclusive"
        assert "overlaps itself" in msg

    def test_kernel_before_fetch_rejected(self):
        bad = [
            ev("exec", "gemm(0,0,0)", 0.0, 1.0),
            ev("h2d", "h2d:A(0,0)", 0.5, 2.0),  # A arrives too late
        ]
        assert any(inv == "tile-order" and "first successful h2d" in msg
                   for inv, msg in find_violations(bad))

    def test_writeback_before_kernel_rejected(self):
        bad = [
            ev("d2h", "d2h:C(0,0)", 0.0, 1.0),
            ev("exec", "gemm(0,0,0)", 0.5, 2.0),
        ]
        assert any(inv == "tile-order" and "writeback" in msg
                   for inv, msg in find_violations(bad))

    def test_device_resident_operand_has_no_h2d_requirement(self):
        # No h2d for A/B/C at all (device-resident): kernel is fine.
        trace = [ev("exec", "gemm(0,0,0)", 0.0, 1.0)]
        assert find_violations(trace) == []

    def test_refetch_uses_first_successful_h2d(self):
        # Corruption refetch: the first (corrupted but link-successful)
        # transfer is what the kernel's dependency tracked.
        trace = [
            ev("h2d", "h2d:A(0,0)", 0.0, 1.0),
            ev("h2d", "h2d:A(0,0)", 1.0, 2.0),  # refetch
            ev("exec", "gemm(0,0,0)", 2.0, 3.0),
        ]
        assert find_violations(trace) == []

    def test_unmatched_fault_rejected_and_allow_flag(self):
        trace = [
            ev("h2d", "h2d:A(0,0)!fault", 0.0, 1.0),
            ev("exec", "k0", 1.0, 2.0),
        ]
        violations = find_violations(trace)
        assert any(inv == "fault-matched" and "no subsequent successful"
                   in msg for inv, msg in violations)
        assert find_violations(trace, allow_unmatched_faults=True) == []

    def test_matched_fault_passes(self):
        trace = [
            ev("h2d", "h2d:A(0,0)!fault", 0.0, 1.0),
            ev("h2d", "h2d:A(0,0)", 1.0, 2.0),
            ev("exec", "gemm(0,0,0)", 2.0, 3.0),
        ]
        assert find_violations(trace) == []

    def test_first_violation_raised_with_invariant_attribute(self):
        bad = [
            ev("", "h2d:A(0,0)", 0.0, 1.0),  # no engine
            ev("exec", "gemm(0,0,0)", 0.0, 0.5),  # completion-order too
        ]
        with pytest.raises(TraceInvariantError) as exc:
            verify_trace(bad)
        assert exc.value.invariant == "well-formed"

    def test_empty_trace_is_trivially_valid(self):
        verify_trace([])
        verify_trace(TraceRecorder())

    def test_malformed_event_in_a_real_batch_trace_fires(self, tb2,
                                                         models_tb2):
        """Each batch's trace is the slice of its GPU's long-lived
        recorder from launch to settle.  A later batch's slice verifies
        clean; one event moved to end before it starts makes
        ``well-formed`` fire, and nothing else."""
        from dataclasses import replace

        from repro.serve import BlasServer, ServerConfig, WorkloadSpec
        from repro.serve import generate_workload

        spec = WorkloadSpec(n_requests=12, rate=4000.0, scale="tiny",
                            seed=3)
        config = ServerConfig(n_gpus=1, admission="none",
                              host_offload=False, trace=True, seed=3)
        outcome = BlasServer(tb2, models_tb2, config).serve(
            generate_workload(spec))
        traces = outcome.gpus[0].traces
        assert len(outcome.gpus[0].devices) == 1 and len(traces) > 1
        events = list(traces[-1])
        assert events and find_violations(events) == []
        # The last event to complete is the last on its engine, so
        # moving its start past its end breaks no ordering invariant.
        last = events[-1]
        events[-1] = replace(last, start=last.end + last.duration + 1e-6)
        violations = find_violations(events)
        assert [inv for inv, _ in violations] == ["well-formed"]
        assert "ends before it starts" in violations[0][1]


def rec(req_id, worker="gpu0", batch_id=None, enqueue=None, dispatch=None,
        first=None, completion=None):
    """A duck-typed request lifecycle record (as the serve layer emits)."""
    from types import SimpleNamespace

    return SimpleNamespace(req_id=req_id, worker=worker, batch_id=batch_id,
                           enqueue_t=enqueue, dispatch_t=dispatch,
                           first_t=first, completion_t=completion)


class TestRequestLifecycle:
    def test_monotone_lifecycle_passes(self):
        reqs = [rec(0, enqueue=0.0, dispatch=1.0, first=1.5, completion=2.0)]
        assert find_request_violations(reqs) == []

    def test_shed_request_with_partial_stamps_passes(self):
        # Never dispatched: only the stamps it has are checked.
        assert find_request_violations([rec(0, enqueue=1.0)]) == []

    def test_dispatch_before_enqueue_flagged(self):
        reqs = [rec(3, enqueue=2.0, dispatch=1.0, completion=3.0)]
        violations = find_request_violations(reqs)
        assert violations and violations[0][0] == "request-lifecycle"
        assert "#3" in violations[0][1]

    def test_completion_before_first_event_flagged(self):
        reqs = [rec(0, enqueue=0.0, dispatch=1.0, first=5.0, completion=2.0)]
        assert [inv for inv, _ in find_request_violations(reqs)] == [
            "request-lifecycle"]


class TestRequestExclusive:
    def test_sequential_batches_pass(self):
        reqs = [
            rec(0, batch_id=0, enqueue=0.0, dispatch=0.0, completion=1.0),
            rec(1, batch_id=1, enqueue=0.5, dispatch=1.0, completion=2.0),
        ]
        assert find_request_violations(reqs) == []

    def test_overlapping_batches_on_one_worker_flagged(self):
        reqs = [
            rec(0, batch_id=0, enqueue=0.0, dispatch=0.0, completion=2.0),
            rec(1, batch_id=1, enqueue=0.0, dispatch=1.0, completion=3.0),
        ]
        violations = find_request_violations(reqs)
        assert violations and violations[0][0] == "request-exclusive"
        assert "gpu0" in violations[0][1]

    def test_overlap_on_different_workers_passes(self):
        reqs = [
            rec(0, worker="gpu0", batch_id=0,
                enqueue=0.0, dispatch=0.0, completion=2.0),
            rec(1, worker="gpu1", batch_id=1,
                enqueue=0.0, dispatch=1.0, completion=3.0),
        ]
        assert find_request_violations(reqs) == []

    def test_shared_batch_members_share_their_span(self):
        # Two requests coalesced into one batch legitimately overlap.
        reqs = [
            rec(0, batch_id=7, enqueue=0.0, dispatch=1.0, completion=2.0),
            rec(1, batch_id=7, enqueue=0.5, dispatch=1.0, completion=2.0),
        ]
        assert find_request_violations(reqs) == []

    def test_solo_requests_without_batch_get_own_span(self):
        reqs = [
            rec(0, batch_id=None, enqueue=0.0, dispatch=0.0, completion=2.0),
            rec(1, batch_id=None, enqueue=0.0, dispatch=1.0, completion=3.0),
        ]
        assert [inv for inv, _ in find_request_violations(reqs)] == [
            "request-exclusive"]

    def test_injected_overlap_in_a_real_run_fires(self, tb2, models_tb2):
        """A fault-free serve verifies clean; moving one request's
        dispatch back into the batch before it on the same GPU makes
        ``request-exclusive`` fire, and nothing else."""
        from repro.serve import BlasServer, ServerConfig, WorkloadSpec
        from repro.serve import generate_workload

        spec = WorkloadSpec(n_requests=12, rate=4000.0, scale="tiny",
                            seed=3)
        config = ServerConfig(n_gpus=1, admission="none",
                              host_offload=False, seed=3)
        outcome = BlasServer(tb2, models_tb2, config).serve(
            generate_workload(spec))
        done = outcome.done_requests()
        assert len(done) == len(outcome.requests)
        assert find_request_violations(outcome.requests) == []
        # Batches of one, so each span is named by its only request.
        sizes = Counter(r.batch_id for r in done)
        solo = sorted((r for r in done if sizes[r.batch_id] == 1),
                      key=lambda r: r.dispatch_t)
        # A request queued while the batch before it ran.
        prev, cur = next((a, b) for a, b in zip(solo, solo[1:])
                         if b.batch_id == a.batch_id + 1
                         and b.enqueue_t < a.completion_t)
        cur.dispatch_t = (max(cur.enqueue_t, prev.dispatch_t)
                          + prev.completion_t) / 2
        violations = find_request_violations(outcome.requests)
        assert [inv for inv, _ in violations] == ["request-exclusive"]
        assert (f"#{prev.req_id}" in violations[0][1]
                and f"#{cur.req_id}" in violations[0][1])

    def test_verify_requests_raises_first_violation(self):
        from repro.obs import verify_requests

        reqs = [rec(0, enqueue=2.0, dispatch=1.0, completion=3.0)]
        with pytest.raises(TraceInvariantError) as exc:
            verify_requests(reqs)
        assert exc.value.invariant == "request-lifecycle"

    def test_verify_trace_forwards_requests(self):
        good_trace = [ev("h2d", "h2d:A(0,0)", 0.0, 1.0)]
        bad_requests = [rec(0, enqueue=2.0, dispatch=1.0, completion=3.0)]
        verify_trace(good_trace)  # trace alone is fine
        with pytest.raises(TraceInvariantError):
            verify_trace(good_trace, requests=bad_requests)


class TestConservation:
    """Request-conservation checker used by the chaos harness."""

    class FakeState:
        def __init__(self, name):
            self.name = name

    def req(self, rid, state, completions):
        class R:
            pass
        r = R()
        r.req_id = rid
        r.state = self.FakeState(state)
        r.completions = completions
        return r

    def test_terminal_states_with_right_completions_pass(self):
        from repro.obs import find_conservation_violations

        reqs = [self.req(0, "DONE", 1), self.req(1, "SHED", 0),
                self.req(2, "FAILED", 0)]
        assert find_conservation_violations(reqs) == []

    def test_non_terminal_state_is_a_lost_request(self):
        from repro.obs import find_conservation_violations

        for stuck in ("QUEUED", "RUNNING", "PENDING"):
            out = find_conservation_violations([self.req(0, stuck, 0)])
            assert [inv for inv, _ in out] == ["request-conservation"]
            assert stuck in out[0][1]

    def test_done_must_complete_exactly_once(self):
        from repro.obs import find_conservation_violations

        zero = find_conservation_violations([self.req(3, "DONE", 0)])
        twice = find_conservation_violations([self.req(4, "DONE", 2)])
        assert len(zero) == len(twice) == 1
        assert "2 completions" in twice[0][1]

    def test_shed_or_failed_must_not_complete(self):
        from repro.obs import find_conservation_violations

        out = find_conservation_violations([self.req(5, "SHED", 1),
                                            self.req(6, "FAILED", 1)])
        assert len(out) == 2
        assert all(inv == "request-conservation" for inv, _ in out)

    def test_real_requests_are_accepted(self):
        # The duck typing matches the real serve Request.
        import numpy as np

        from repro.core.params import gemm_problem
        from repro.obs import find_conservation_violations
        from repro.serve.request import Request, RequestState

        r = Request(req_id=0, arrival=0.0,
                    problem=gemm_problem(64, 64, 64, np.float64))
        out = find_conservation_violations([r])
        assert out and "CREATED" in out[0][1]
        r.state = RequestState.DONE
        r.completions = 1
        assert find_conservation_violations([r]) == []
