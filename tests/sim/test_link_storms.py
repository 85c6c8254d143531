"""Deep-backlog transfer storms on the exact duplex link.

A storm is many large chunks queued on one or both copy engines at
once — the shape a tiled offload produces.  With every chunk queued at
t=0 each engine stays busy until its last completion, so its timeline
decomposes analytically:

    makespan = n * latency + n * chunk / bandwidth
               + contended_time * (1 - 1 / slowdown)

(the last term is the byte deficit accrued while the opposite direction
was flowing).  These tests pin that identity, byte conservation, the
contention symmetry, FIFO completion order, faulted transfers occupying
the link, the trace spans a storm leaves, and that stepping a storm
through ``run_to`` barriers changes nothing.
"""

import pytest

from repro.obs import verify_trace
from repro.sim import Direction, DuplexLink, LinkDirectionConfig, Simulator
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.trace import TraceRecorder
from tests.sim.events import pending_events

_H2D = LinkDirectionConfig(latency=1e-5, bandwidth=8e9, bid_slowdown=1.3)
_D2H = LinkDirectionConfig(latency=1e-5, bandwidth=6e9, bid_slowdown=1.8)
_CHUNK = 8 << 20
_CFG = {Direction.H2D: _H2D, Direction.D2H: _D2H}


def _chain(direction, n, nbytes=_CHUNK):
    """Uncontended busy time of ``n`` back-to-back transfers."""
    cfg = _CFG[direction]
    return n * (cfg.latency + nbytes / cfg.bandwidth)


def _storm(n_h2d, n_d2h, drive=None, **link_kwargs):
    """Queue chunk storms in both directions and run to completion.

    Returns ``(sim, link, done)`` where ``done`` maps each direction to
    its completion times in firing order.
    """
    sim = Simulator()
    link = DuplexLink(sim, _H2D, _D2H, **link_kwargs)
    done = {Direction.H2D: [], Direction.D2H: []}
    for direction, n in ((Direction.H2D, n_h2d), (Direction.D2H, n_d2h)):
        for i in range(n):
            link.submit(direction, _CHUNK, tag=f"{direction.value}#{i}",
                        on_complete=lambda d=direction: done[d].append(
                            sim.now))
    (drive or Simulator.run)(sim)
    return sim, link, done


def _assert_busy_decomposition(link, done, direction, n):
    cfg = _CFG[direction]
    stats = link.stats(direction)
    loss = stats.bid_overlap_time * (1.0 - 1.0 / cfg.bid_slowdown)
    assert done[direction][-1] == pytest.approx(
        _chain(direction, n) + loss, rel=1e-9)
    assert stats.flow_time == pytest.approx(
        n * _CHUNK / cfg.bandwidth + loss, rel=1e-9)


class TestUncontendedStorm:
    def test_makespan_is_the_analytic_chain(self):
        sim, link, done = _storm(200, 0)
        assert sim.now == pytest.approx(_chain(Direction.H2D, 200),
                                        rel=1e-12)
        stats = link.stats(Direction.H2D)
        assert stats.busy_time == pytest.approx(sim.now, rel=1e-12)
        assert stats.bid_overlap_time == 0.0
        assert len(done[Direction.H2D]) == 200

    def test_completions_are_evenly_spaced(self):
        _, _, done = _storm(50, 0)
        step = _chain(Direction.H2D, 1)
        times = done[Direction.H2D]
        for i, t in enumerate(times):
            assert t == pytest.approx((i + 1) * step, rel=1e-9)

    def test_zero_byte_storm_costs_the_latency_chain(self):
        sim = Simulator()
        link = DuplexLink(sim, _H2D, _D2H)
        for _ in range(10):
            link.submit(Direction.D2H, 0)
        sim.run()
        stats = link.stats(Direction.D2H)
        assert sim.now == pytest.approx(10 * _D2H.latency, rel=1e-12)
        assert (stats.transfers, stats.bytes_moved) == (10, 0)
        assert stats.flow_time == 0.0


class TestContendedStorm:
    def test_bidirectional_storm_conserves_every_byte(self):
        _, link, done = _storm(200, 200)
        for d in Direction:
            stats = link.stats(d)
            assert stats.transfers == 200 == len(done[d])
            assert stats.bytes_moved == 200 * _CHUNK

    @pytest.mark.parametrize("n_h2d,n_d2h",
                             [(200, 200), (50, 8), (8, 50), (120, 60)])
    def test_busy_time_decomposes_into_chain_plus_contention_loss(
            self, n_h2d, n_d2h):
        _, link, done = _storm(n_h2d, n_d2h)
        _assert_busy_decomposition(link, done, Direction.H2D, n_h2d)
        _assert_busy_decomposition(link, done, Direction.D2H, n_d2h)

    @pytest.mark.parametrize("n_h2d,n_d2h", [(50, 8), (8, 50), (120, 60)])
    def test_makespan_between_uncontended_and_fully_contended(
            self, n_h2d, n_d2h):
        sim, _, done = _storm(n_h2d, n_d2h)
        for direction, n in ((Direction.H2D, n_h2d), (Direction.D2H, n_d2h)):
            cfg = _CFG[direction]
            worst = n * (cfg.latency + cfg.bid_slowdown * _CHUNK
                         / cfg.bandwidth)
            assert _chain(direction, n) < done[direction][-1] <= worst
        assert sim.now == max(done[d][-1] for d in Direction)

    def test_contended_time_is_symmetric(self):
        # Both engines accrue contended time over the same intervals:
        # exactly those where both are in their byte-flow phase.
        _, link, _ = _storm(120, 60)
        h2d = link.stats(Direction.H2D).bid_overlap_time
        d2h = link.stats(Direction.D2H).bid_overlap_time
        assert h2d > 0.0
        assert h2d == pytest.approx(d2h, rel=1e-9)

    def test_opposite_direction_onset_mid_storm(self):
        sim = Simulator()
        link = DuplexLink(sim, _H2D, _D2H)
        done = {Direction.H2D: [], Direction.D2H: []}
        for _ in range(40):
            link.submit(Direction.H2D, _CHUNK, on_complete=lambda:
                        done[Direction.H2D].append(sim.now))
        t_mid = 20 * _CHUNK / _H2D.bandwidth
        sim.schedule_at(t_mid, lambda: link.submit(
            Direction.D2H, _CHUNK,
            on_complete=lambda: done[Direction.D2H].append(sim.now)))
        sim.run()
        assert link.stats(Direction.H2D).transfers == 40
        assert link.stats(Direction.H2D).bytes_moved == 40 * _CHUNK
        assert len(done[Direction.D2H]) == 1
        assert link.stats(Direction.H2D).bid_overlap_time > 0.0
        _assert_busy_decomposition(link, done, Direction.H2D, 40)


class TestStormOrderingAndFaults:
    def test_completion_callbacks_fire_in_submit_order(self):
        sim = Simulator()
        link = DuplexLink(sim, _H2D, _D2H)
        order = []
        for i in range(12):
            link.submit(Direction.H2D, _CHUNK,
                        on_complete=lambda i=i: order.append(("h2d", i)))
            link.submit(Direction.D2H, _CHUNK // 2,
                        on_complete=lambda i=i: order.append(("d2h", i)))
        sim.run()
        for name in ("h2d", "d2h"):
            assert [i for n, i in order if n == name] == list(range(12))

    def test_faulted_transfers_still_occupy_the_link(self):
        plan = FaultPlan(transfer_fail_rate=0.25, seed=3)
        sim = Simulator()
        link = DuplexLink(sim, _H2D, _D2H, faults=FaultInjector(plan))
        outcomes = []
        for i in range(20):
            link.submit(Direction.H2D, _CHUNK,
                        on_complete=lambda: outcomes.append("ok"),
                        on_fault=lambda: outcomes.append("fault"))
        sim.run()
        stats = link.stats(Direction.H2D)
        assert stats.transfers == 20 == len(outcomes)
        assert 0 < stats.faults == outcomes.count("fault") < 20
        # A failed attempt holds the engine for its full duration.
        assert sim.now == pytest.approx(_chain(Direction.H2D, 20),
                                        rel=1e-12)


class TestStormTrace:
    def _traced_storm(self, n=30):
        trace = TraceRecorder()
        sim, link, _ = _storm(n, 0, trace=trace)
        return sim, trace

    def test_one_back_to_back_span_per_transfer(self):
        sim, trace = self._traced_storm()
        events = trace.events
        assert [ev.tag for ev in events] == [f"h2d#{i}" for i in range(30)]
        assert all(ev.engine == "h2d" and ev.nbytes == _CHUNK
                   for ev in events)
        for prev, ev in zip(events, events[1:]):
            assert ev.start == prev.end
        assert events[-1].end == sim.now

    def test_verify_trace_accepts_a_bidirectional_storm(self):
        trace = TraceRecorder()
        _storm(30, 30, trace=trace)
        assert len(trace.events) == 60
        verify_trace(trace)


class TestEpochStepping:
    @pytest.mark.parametrize("epoch", [1e-4, 1e-3, 7.3e-3])
    def test_run_to_barriers_match_a_single_run(self, epoch):
        # The cluster coordinator drives node simulators in lock-step
        # epochs; slicing a contended storm at arbitrary barriers must
        # not move a single completion.
        def stepped(sim):
            t = 0.0
            while pending_events(sim):
                t += epoch
                sim.run_to(t)

        _, ref_link, ref_done = _storm(60, 40)
        _, link, done = _storm(60, 40, drive=stepped)
        assert done == ref_done
        for d in Direction:
            assert link.stats(d) == ref_link.stats(d)
