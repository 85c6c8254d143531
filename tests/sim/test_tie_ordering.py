"""Same-timestamp ordering contracts, pinned as regressions.

The simulator resolves equal-time events in scheduling (seq) order.
Several serving-layer behaviours lean on that deliberately — the
ordering comments in ``repro/serve/server.py`` reference this module:

* the batch watchdog is scheduled at launch, so on an exact deadline
  tie the timeout fires before the stream completion and the batch
  times out (the ``settled`` guard silences the loser);
* lifecycle faults are scheduled before arrivals, so a device failure
  at exactly an arrival instant is visible to that arrival's placement
  decision;
* equal-time arrivals dispatch in ``(arrival, req_id)`` order.

The simulator-level contracts are checked under each of the engine's
three run loops (``run``, ``run_to`` and ``run_done``): each pops the
heap itself, so the tie resolution must hold in every one of them.
"""

import types

import numpy as np
import pytest

from repro.core import gemm_problem
from repro.serve import BlasServer, Request, ServerConfig
from repro.sim import Simulator
from repro.sim.faults import DeviceFailure, FaultPlan


@pytest.fixture()
def sim():
    return Simulator()


_NEVER_DONE = types.SimpleNamespace(done=False)

DRIVERS = {
    "run": lambda sim: sim.run(),
    "run_to": lambda sim: sim.run_to(10.0),
    "run_done": lambda sim: sim.run_done(_NEVER_DONE),
}


@pytest.fixture(params=sorted(DRIVERS))
def drive(request):
    """Drain a simulator through one of the engine's run loops."""
    return DRIVERS[request.param]


class TestFifoWithinTimestamp:
    def test_equal_time_events_fire_in_scheduling_order(self, sim, drive):
        order = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: order.append(n))
        drive(sim)
        assert order == list("abcde")

    def test_zero_delay_chain_runs_after_the_current_batch(self, sim, drive):
        # An event scheduled *during* a timestamp at that same timestamp
        # joins the back of the line, not the middle.
        order = []
        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("chained"))
        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        drive(sim)
        assert order == ["first", "second", "chained"]

    def test_cancellation_within_a_batch_is_honoured(self, sim, drive):
        # An earlier event at the same timestamp cancels a later one:
        # the victim must be skipped.
        fired = []
        ev_victim = None

        def killer():
            fired.append("killer")
            ev_victim.cancel()

        sim.schedule(1.0, killer)
        ev_victim = sim.schedule(1.0, lambda: fired.append("victim"))
        sim.schedule(1.0, lambda: fired.append("after"))
        drive(sim)
        assert fired == ["killer", "after"]

    def test_run_done_observes_between_equal_time_events(self, sim):
        # run_done must check the handle between events at one
        # timestamp, so it stops right after the event that finishes it.
        fired = []
        handle = types.SimpleNamespace(done=False)

        def first():
            fired.append("a")
            handle.done = True

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: fired.append("b"))
        assert sim.run_done(handle) == 1
        assert fired == ["a"]


class TestWatchdogDeadlineTie:
    """The server's launch-time watchdog pattern, reduced to the sim.

    ``_launch_on_device`` schedules the watchdog before any completion
    can be scheduled, so on an exact deadline tie the watchdog holds
    the lower seq; the ``settled`` flag then makes the completion a
    no-op.  If either half of that contract breaks, a timed-out batch
    and a completed batch become schedule-dependent.
    """

    def test_watchdog_scheduled_first_wins_the_tie(self, sim, drive):
        outcome = []
        settled = []

        def timeout():
            if not settled:
                settled.append(True)
                outcome.append("timeout")

        def completion():
            if not settled:
                settled.append(True)
                outcome.append("completed")

        sim.schedule(1.0, timeout)        # watchdog, at launch
        sim.schedule(1.0, completion)     # stream done, same instant
        drive(sim)
        assert outcome == ["timeout"]

    def test_earlier_completion_cancels_the_watchdog(self, sim, drive):
        outcome = []
        watchdog = sim.schedule(2.0, lambda: outcome.append("timeout"))

        def completion():
            outcome.append("completed")
            watchdog.cancel()

        sim.schedule(1.0, completion)
        drive(sim)
        assert outcome == ["completed"]


class TestLifecycleArrivalTie:
    def _request(self, req_id, arrival):
        return Request(req_id=req_id,
                       problem=gemm_problem(512, 512, 512, np.float64),
                       arrival=arrival)

    def test_failure_at_arrival_instant_is_seen_by_placement(
            self, tb2, models_tb2):
        # gpu0 dies at exactly t=0.005; the request arriving at that
        # same instant must be placed against the post-fault health
        # state — it never touches the dead device and needs no
        # requeue.  If arrivals fired first, the request would launch
        # on gpu0 and be drained back out.
        t = 0.005
        plan = FaultPlan(name="tie", lifecycle=(
            DeviceFailure(device=0, onset=t),))
        server = BlasServer(tb2.with_faults(plan), models_tb2,
                            ServerConfig(n_gpus=1, seed=0))
        outcome = server.serve([self._request(0, t)])
        (req,) = outcome.requests
        assert req.completion_t is not None
        assert req.worker != "gpu0"
        assert req.requeues == 0

    def test_equal_time_arrivals_dispatch_in_req_id_order(
            self, tb2, models_tb2):
        t = 0.002
        requests = [self._request(1, t), self._request(0, t)]
        server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=1, seed=0))
        outcome = server.serve(requests)
        by_id = {r.req_id: r for r in outcome.requests}
        assert by_id[0].enqueue_t == by_id[1].enqueue_t == t
        # req 0 is admitted first, so its service can never start after
        # its equal-time sibling's.
        assert by_id[0].first_t <= by_id[1].first_t
