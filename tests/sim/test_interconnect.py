"""Tests for the simulated inter-GPU interconnect and its collectives.

Timing theory checks (exact per-hop latency + bandwidth arithmetic),
payload conservation on the fabric counters, the ring-vs-all-to-all
wiring differences, and hypothesis properties over random payloads and
topologies.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.interconnect import (
    Interconnect,
    TopologySpec,
    all_to_all_topology,
    ring_topology,
)

MB = 1 << 20


def make_fabric(kind="ring", n_gpus=4, gb_per_s=8.0, latency=5e-6,
                trace=False):
    sim = Simulator()
    topo = (ring_topology(n_gpus, gb_per_s=gb_per_s, latency=latency)
            if kind == "ring"
            else all_to_all_topology(n_gpus, gb_per_s=gb_per_s,
                                     latency=latency))
    return sim, Interconnect(sim, topo, trace=trace)


def broadcast(fabric, root, nbytes, **kwargs):
    """Multicast from ``root`` to every other GPU of the fabric."""
    others = [g for g in range(fabric.spec.n_gpus) if g != root]
    return fabric.multicast(root, others, nbytes, **kwargs)


class TestTopologySpec:
    def test_hop_time_arithmetic(self):
        topo = ring_topology(4, gb_per_s=8.0, latency=5e-6)
        assert topo.hop_time(8 * MB) == pytest.approx(
            5e-6 + 8 * MB / 8e9)

    def test_ring_hops_are_clockwise_distance(self):
        topo = ring_topology(4)
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 3) == 3
        assert topo.hops(3, 0) == 1

    def test_all_to_all_is_single_hop(self):
        topo = all_to_all_topology(4)
        assert topo.hops(0, 3) == 1
        assert topo.broadcast_hops(3) == 1

    def test_ring_broadcast_spans_all_dests(self):
        assert ring_topology(4).broadcast_hops(3) == 3

    def test_infinite_bandwidth_hop_is_latency_only(self):
        topo = ring_topology(2, gb_per_s=math.inf, latency=1e-6)
        assert topo.hop_time(100 * MB) == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(SimulationError):
            TopologySpec(kind="star", n_gpus=4, latency=0.0,
                         bandwidth=1e9)
        with pytest.raises(SimulationError):
            ring_topology(0)
        with pytest.raises(SimulationError):
            ring_topology(4, gb_per_s=-1.0)
        with pytest.raises(SimulationError):
            TopologySpec(kind="ring", n_gpus=4, latency=-1.0,
                         bandwidth=1e9)


class TestSend:
    def test_two_hop_store_and_forward_timing(self):
        # 1 MB over two 8 GB/s hops with 5us latency each: the second
        # hop starts only after the first fully lands.
        sim, fabric = make_fabric("ring")
        done = []
        fabric.send(0, 2, MB, on_complete=lambda: done.append(sim.now))
        sim.run()
        hop = 5e-6 + MB / 8e9
        assert done == [pytest.approx(2 * hop)]
        assert fabric.total_hops == 2
        assert fabric.total_hop_bytes == 2 * MB

    def test_all_to_all_send_is_direct(self):
        sim, fabric = make_fabric("all_to_all")
        done = []
        fabric.send(0, 2, MB, on_complete=lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(5e-6 + MB / 8e9)]
        assert fabric.total_hops == 1

    def test_rejects_self_and_bad_gpus(self):
        sim, fabric = make_fabric()
        with pytest.raises(SimulationError):
            fabric.send(1, 1, MB)
        with pytest.raises(SimulationError):
            fabric.send(0, 7, MB)
        with pytest.raises(SimulationError):
            fabric.send(0, 1, 0)


class TestBroadcast:
    def test_ring_broadcast_arrival_order_and_times(self):
        sim, fabric = make_fabric("ring")
        arrivals = {}
        broadcast(fabric, 0, MB,
                  on_arrive=lambda g: arrivals.setdefault(g, sim.now))
        sim.run()
        hop = 5e-6 + MB / 8e9
        assert arrivals[1] == pytest.approx(1 * hop)
        assert arrivals[2] == pytest.approx(2 * hop)
        assert arrivals[3] == pytest.approx(3 * hop)

    def test_all_to_all_broadcast_is_parallel(self):
        sim, fabric = make_fabric("all_to_all")
        arrivals = {}
        broadcast(fabric, 0, MB,
                  on_arrive=lambda g: arrivals.setdefault(g, sim.now))
        sim.run()
        hop = 5e-6 + MB / 8e9
        # Distinct links: every destination lands after one hop time.
        assert all(t == pytest.approx(hop) for t in arrivals.values())

    def test_multicast_subset_ring_forwards_through_nonmembers(self):
        sim, fabric = make_fabric("ring")
        arrivals = []
        fabric.multicast(0, (3,), MB, on_arrive=lambda g: arrivals.append(g))
        sim.run()
        assert arrivals == [3]
        # Payload still crossed the intermediate links 0>1, 1>2, 2>3.
        assert fabric.total_hops == 3

    def test_empty_multicast_completes_immediately(self):
        sim, fabric = make_fabric()
        done = []
        handle = fabric.multicast(2, (), MB, on_complete=lambda: done.append(1))
        assert handle.done and done == [1]

    def test_trace_records_peer_engines(self):
        sim = Simulator()
        fabric = Interconnect(sim, ring_topology(3), trace=True)
        broadcast(fabric, 0, MB)
        sim.run()
        engines = {ev.engine for ev in fabric.trace.events}
        assert engines == {"peer0>1", "peer1>2"}


# ---------------------------------------------------------------------------
# hypothesis: payload conservation over random fabrics
# ---------------------------------------------------------------------------

kinds = st.sampled_from(["ring", "all_to_all"])
payloads = st.integers(min_value=1, max_value=64 * MB)
gpu_counts = st.integers(min_value=2, max_value=6)


@settings(max_examples=40, deadline=None)
@given(kind=kinds, n_gpus=gpu_counts, nbytes=payloads)
def test_broadcast_payload_conservation(kind, n_gpus, nbytes):
    """A broadcast moves exactly d * payload bytes over the fabric.

    On a ring the payload crosses each of the d chain hops once; all-
    to-all sends d direct copies.  Either way the hop-byte counter must
    equal d * payload — nothing duplicated, nothing lost.
    """
    sim, fabric = make_fabric(kind, n_gpus=n_gpus)
    arrived = []
    broadcast(fabric, 0, nbytes, on_arrive=arrived.append)
    sim.run()
    assert sorted(arrived) == list(range(1, n_gpus))
    assert fabric.total_hop_bytes == (n_gpus - 1) * nbytes


@settings(max_examples=40, deadline=None)
@given(kind=kinds, n_gpus=gpu_counts, nbytes=payloads)
def test_send_payload_per_hop(kind, n_gpus, nbytes):
    """A point-to-point send moves payload * hops(src, dst) bytes."""
    sim, fabric = make_fabric(kind, n_gpus=n_gpus)
    dst = n_gpus - 1
    fabric.send(0, dst, nbytes)
    sim.run()
    hops = fabric.spec.hops(0, dst)
    assert fabric.total_hops == hops
    assert fabric.total_hop_bytes == hops * nbytes
