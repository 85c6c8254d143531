"""Serving-loop tests: serve / submit / on_terminal / drain / evacuate.

``serve`` submits a whole workload and runs it; the cluster layer
drives each node's server one request at a time (``submit`` +
``run_to``) on the same path.  These tests pin the contract the
coordinator relies on: a server serves once, ``on_terminal`` fires
once per request, drains hand queued work back MIGRATED with arrivals
preserved, and evacuation cancels in-flight batches without losing
anything.
"""

import numpy as np
import pytest

from repro.core.params import gemm_problem
from repro.obs import find_conservation_violations
from repro.serve import (
    BlasServer,
    Request,
    RequestState,
    ServeError,
    ServerConfig,
    WorkloadSpec,
    generate_workload,
    serve_report,
)


def big_request(req_id, arrival=0.0):
    return Request(req_id=req_id, arrival=arrival,
                   problem=gemm_problem(2048, 2048, 2048, np.float64))


class TestServeOnce:
    def test_serve_twice_rejected(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.serve([big_request(0)])
        with pytest.raises(ServeError, match="exactly once"):
            server.serve([big_request(1)])

    def test_empty_serve_twice_rejected(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.serve([])
        with pytest.raises(ServeError, match="exactly once"):
            server.serve([])

    def test_serve_after_submit_rejected(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.submit(big_request(0))
        with pytest.raises(ServeError, match="exactly once"):
            server.serve([big_request(1)])


class TestOnTerminal:
    TERMINAL = (RequestState.DONE, RequestState.SHED, RequestState.FAILED)

    def test_fires_per_submitted_request(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=12, rate=4000.0, seed=3)
        seen = []
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=3),
                            on_terminal=seen.append)
        for request in generate_workload(spec):
            server.submit(request)
        server.sim.run()
        assert len(seen) == 12
        assert server.outstanding == 0
        assert all(r.state in self.TERMINAL for r in seen)

    def test_fires_once_per_request_on_serve(self, tb2, models_tb2):
        spec = WorkloadSpec(n_requests=24, rate=4000.0, seed=7)
        seen = []
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=7),
                            on_terminal=seen.append)
        outcome = server.serve(generate_workload(spec))
        assert sorted(r.req_id for r in seen) == sorted(
            r.req_id for r in outcome.requests)
        assert server.outstanding == 0
        assert all(r.state in self.TERMINAL for r in seen)


class TestAllShed:
    def test_makespan_and_throughput_stay_zero(self, tb2, models_tb2):
        # Near-zero slack: no placement can meet any deadline, so
        # admission sheds everything and nothing ever completes.
        spec = WorkloadSpec(n_requests=12, rate=2000.0, seed=3,
                            deadline_fraction=1.0,
                            slack_lo=1e-6, slack_hi=2e-6)
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=2, admission="shed", seed=3))
        outcome = server.serve(generate_workload(spec))
        assert all(r.state is RequestState.SHED for r in outcome.requests)
        assert outcome.end_time == 0.0
        report = serve_report(outcome)
        assert report["makespan"] == 0.0
        assert report["throughput_rps"] == 0.0


class TestRunTo:
    def test_clock_advances_exactly_to_barrier(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        server.submit(big_request(0, arrival=0.5))
        server.sim.run_to(0.25)
        assert server.sim.now == 0.25
        assert server.outstanding == 1  # not yet arrived, still owed
        server.sim.run_to(10.0)
        assert server.outstanding == 0


class TestDrainQueued:
    def drain_setup(self, tb2, models_tb2):
        # One GPU, several giants: the first occupies the device, the
        # rest are queued when we drain.
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        deadline = 60.0
        for i in range(4):
            req = big_request(i)
            req.deadline = deadline
            server.submit(req)
        server.sim.run_to(1e-4)  # in-flight: req 0; queued: 1..3
        return server

    def test_drained_work_is_migrated_with_arrival_intact(self, tb2,
                                                          models_tb2):
        server = self.drain_setup(tb2, models_tb2)
        moved = server.drain_queued()
        assert {r.req_id for r in moved} == {1, 2, 3}
        for r in moved:
            assert r.state is RequestState.MIGRATED
            assert r.arrival == 0.0
            assert r.deadline == 60.0
            assert r.worker is None and r.batch_id is None
        # The in-flight request still runs here to completion.
        assert server.outstanding == 1
        server.sim.run()
        assert server.outstanding == 0

    def test_drain_on_idle_server_is_empty(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        assert server.drain_queued() == []


class TestEvacuate:
    def test_evacuate_cancels_in_flight_too(self, tb2, models_tb2):
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        for i in range(3):
            server.submit(big_request(i))
        server.sim.run_to(1e-4)
        moved = server.evacuate()
        assert {r.req_id for r in moved} == {0, 1, 2}
        assert all(r.state is RequestState.MIGRATED for r in moved)
        assert all(r.completions == 0 for r in moved)
        assert server.outstanding == 0
        # The node clock survives and nothing further fires for these.
        server.sim.run()
        assert all(r.state is RequestState.MIGRATED for r in moved)

    def test_migrated_plus_reserve_conserves(self, tb2, models_tb2):
        # A migrated view plus a terminal view elsewhere folds into one
        # conserved request — the exact pattern the cluster relies on.
        source = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        for i in range(3):
            source.submit(big_request(i))
        source.sim.run_to(1e-4)
        moved = source.evacuate()

        target = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2))
        fresh = []
        for old in moved:
            req = Request(req_id=old.req_id, problem=old.problem,
                          arrival=old.arrival, deadline=old.deadline)
            fresh.append(req)
            target.submit(req)
        target.sim.run()

        views = list(moved) + fresh
        assert not find_conservation_violations(views)

    def test_predicted_backlog_empties_after_evacuate(self, tb2,
                                                      models_tb2):
        server = BlasServer(tb2, models_tb2,
                            ServerConfig(n_gpus=1, host_offload=False))
        for i in range(3):
            server.submit(big_request(i))
        server.sim.run_to(1e-4)
        workers = (*server.dispatcher.gpus, server.dispatcher.host)
        now = server.sim.now
        assert sum(w.backlog(now) for w in workers) > 0
        server.evacuate()
        for worker in workers:
            assert worker.backlog(now) == pytest.approx(0.0, abs=1e-12)
