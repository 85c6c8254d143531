"""Cluster router tests: ring stability, spill bounds, determinism.

The router's whole value is that one seed gives one assignment
sequence regardless of process, platform, or fleet history — so these
tests pin the sha1 ring against golden values, check the bounded-spill
contract, and (with hypothesis) replay arbitrary group sequences
through two independently-built routers.
"""

import pytest

from repro.cluster.router import (SPILL_BACKLOG, SPILL_WIDTH, ClusterRouter,
                                  _ring_hash)
from repro.serve import ServeError


class StubNode:
    """The router's whole view of a node: name, index, two signals."""

    def __init__(self, index, backlog=0.0, outstanding=0):
        self.index = index
        self.name = f"node{index}"
        self.outstanding = outstanding
        self._backlog = backlog

    def predicted_backlog(self, now):
        return self._backlog


class StubRequest:
    def __init__(self, group=None):
        self.group = group


def fleet(*backlogs):
    return [StubNode(i, backlog=b) for i, b in enumerate(backlogs)]


class TestRingHash:
    def test_sha1_not_builtin_hash(self):
        # Golden values: must survive interpreter restarts and
        # PYTHONHASHSEED, which builtin hash() would not.
        assert _ring_hash("node0:0") == 14446277097527173507
        assert _ring_hash("g7") == 5596660334282263675
        assert _ring_hash("g7") != _ring_hash("g8")

    def test_64_bit_range(self):
        for key in ("node0:0", "node3:63", "g0", ""):
            assert 0 <= _ring_hash(key) < 1 << 64


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(ServeError, match="policy"):
            ClusterRouter(policy="random")

    def test_empty_fleet(self):
        router = ClusterRouter()
        with pytest.raises(ServeError, match="empty"):
            router.route(StubRequest(), [], 0.0)


class TestLeastConnections:
    def test_picks_min_outstanding(self):
        nodes = fleet(0, 0, 0)
        nodes[0].outstanding = 5
        nodes[1].outstanding = 2
        nodes[2].outstanding = 9
        router = ClusterRouter(policy="least_connections")
        assert router.route(StubRequest("g1"), nodes, 0.0) is nodes[1]

    def test_tie_breaks_to_lower_index(self):
        nodes = fleet(0, 0, 0)
        router = ClusterRouter(policy="least_connections")
        assert router.route(StubRequest(), nodes, 0.0) is nodes[0]


class TestUngroupedRouting:
    def test_min_predicted_backlog(self):
        nodes = fleet(0.3, 0.05, 0.2)
        router = ClusterRouter()
        assert router.route(StubRequest(None), nodes, 0.0) is nodes[1]

    def test_single_node_shortcut(self):
        nodes = fleet(99.0)
        router = ClusterRouter()
        assert router.route(StubRequest("g1"), nodes, 0.0) is nodes[0]


class TestShardedRouting:
    def test_idle_fleet_lands_on_primary_consistently(self):
        nodes = fleet(0, 0, 0, 0)
        router = ClusterRouter()
        first = {g: router.route(StubRequest(g), nodes, 0.0).name
                 for g in (f"g{i}" for i in range(32))}
        again = {g: router.route(StubRequest(g), nodes, 0.0).name
                 for g in (f"g{i}" for i in range(32))}
        assert first == again
        # The ring spreads groups over the fleet, not onto one node.
        assert len(set(first.values())) > 1
        assert router.spills == 0

    def test_membership_change_moves_few_groups(self):
        # Consistent hashing: growing 4 -> 5 nodes should move roughly
        # 1/5 of the groups, never a wholesale reshuffle.
        router = ClusterRouter()
        groups = [f"g{i}" for i in range(200)]
        four = fleet(0, 0, 0, 0)
        before = {g: router.route(StubRequest(g), four, 0.0).name
                  for g in groups}
        five = fleet(0, 0, 0, 0, 0)
        after = {g: router.route(StubRequest(g), five, 0.0).name
                 for g in groups}
        moved = sum(1 for g in groups if before[g] != after[g])
        assert 0 < moved < 100  # expect ~40 of 200

    @pytest.mark.parametrize("share", [0.8, 1.0])
    def test_no_spill_below_threshold(self, share):
        # The threshold itself still counts as below: spill needs more.
        load = share * SPILL_BACKLOG
        nodes = fleet(load, load, load, load)
        router = ClusterRouter()
        for i in range(16):
            router.route(StubRequest(f"g{i}"), nodes, 0.0)
        assert router.spills == 0

    def test_overloaded_primary_spills_to_best_successor(self):
        nodes = fleet(0, 0, 0, 0)
        router = ClusterRouter()
        primary = router.route(StubRequest("g1"), nodes, 0.0)
        primary._backlog = 10.0  # overload it
        chosen = router.route(StubRequest("g1"), nodes, 0.0)
        assert chosen is not primary
        assert router.spills == 1
        # The spill is bounded: only ring successors are candidates.
        order = router._ring_order("g1")
        assert chosen.name in order[1:1 + SPILL_WIDTH]

    def test_overloaded_primary_still_wins_ties(self):
        # Successors as loaded as the primary: ring order breaks the
        # tie toward the primary (warm cache), not node 0.
        load = 2 * SPILL_BACKLOG
        nodes = fleet(load, load, load, load)
        router = ClusterRouter()
        chosen = router.route(StubRequest("g1"), nodes, 0.0)
        assert chosen.name == router._ring_order("g1")[0]
        assert router.spills == 0


def full_walk(router, group):
    """Every distinct node in ring order from the group's primary."""
    ring = router._ring
    key = (_ring_hash(group), "")
    start = next((i for i, point in enumerate(ring) if point > key), 0)
    seen = []
    for k in range(len(ring)):
        name = ring[(start + k) % len(ring)][1]
        if name not in seen:
            seen.append(name)
    return seen


class TestRingOrderMemo:
    @pytest.mark.parametrize("n_nodes", [2, 4, 5, 8])
    def test_prefix_of_full_walk(self, n_nodes):
        router = ClusterRouter()
        router._rebuild(fleet(*([0.0] * n_nodes)))
        for g in range(200):
            group = f"g{g}"
            walk = full_walk(router, group)
            assert len(walk) == n_nodes
            expected = tuple(walk[:1 + SPILL_WIDTH])
            assert router._ring_order(group) == expected
            assert router._ring_order(group) == expected  # memoized

    def test_membership_change_invalidates_memo(self):
        router = ClusterRouter()
        groups = [f"g{i}" for i in range(200)]
        router._rebuild(fleet(0, 0, 0, 0))
        before = {g: router._ring_order(g) for g in groups}
        router._rebuild(fleet(0, 0, 0, 0, 0))
        after = {g: router._ring_order(g) for g in groups}
        assert all(after[g] == tuple(full_walk(router, g)[:1 + SPILL_WIDTH])
                   for g in groups)
        assert any(before[g] != after[g] for g in groups)
        assert any("node4" in order for order in after.values())


hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402


class TestRouterDeterminismProperties:
    @given(groups=st.lists(
        st.one_of(st.none(),
                  st.integers(0, 63).map(lambda g: f"g{g}")),
        min_size=1, max_size=64),
        n_nodes=st.integers(2, 6),
        backlogs=st.lists(st.floats(0.0, 2.0, allow_nan=False),
                          min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_replay_through_fresh_router_is_identical(self, groups,
                                                      n_nodes, backlogs):
        """Two independently-built routers given the same fleet and the
        same request sequence assign identically — routing is a pure
        function of (policy, fleet, group, backlogs)."""
        def run():
            nodes = [StubNode(i, backlog=backlogs[i])
                     for i in range(n_nodes)]
            router = ClusterRouter()
            names = [router.route(StubRequest(g), nodes, 0.0).name
                     for g in groups]
            return names, router.spills

        assert run() == run()

    @given(group=st.integers(0, 255).map(lambda g: f"g{g}"),
           n_nodes=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_idle_fleet_assignment_is_membership_function(self, group,
                                                          n_nodes):
        """On an idle fleet the chosen node depends only on the fleet
        membership and the group — never on routing history."""
        router = ClusterRouter()
        nodes = fleet(*([0.0] * n_nodes))
        first = router.route(StubRequest(group), nodes, 0.0).name
        # Interleave other traffic, then ask again.
        for i in range(8):
            router.route(StubRequest(f"other{i}"), nodes, 0.0)
        assert router.route(StubRequest(group), nodes, 0.0).name == first
