"""End-to-end cluster tests: lock-step fleet, scaling, kills, bytes.

Everything here drives a real fleet of incremental :class:`BlasServer`
nodes through the coordinator on a phased bursty trace — small enough
to stay fast, busy enough to exercise scale-up, scale-down, migration
and the conservation verdict.
"""

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterCoordinator,
    ClusterWorkloadSpec,
    cluster_document,
    dump_cluster_document,
    iter_cluster_workload,
    validate_cluster_json,
)
from repro.serve import ServeError, ServerConfig


SPEC = ClusterWorkloadSpec(n_requests=400, rate=300.0, seed=0)


def make_coordinator(tb1, models_tb1, *, seed=0, nodes=3, router="predicted",
                     autoscale=True, spill_backlog=0.25):
    config = ClusterConfig(
        nodes=nodes, gpus_per_node=2, router=router, autoscale=autoscale,
        spill_backlog=spill_backlog,
        autoscaler=AutoscalerConfig(min_nodes=2, max_nodes=6))
    return ClusterCoordinator(tb1, models_tb1, config,
                              ServerConfig(seed=seed))


def run(tb1, models_tb1, *, kills=None, **kwargs):
    coord = make_coordinator(tb1, models_tb1, **kwargs)
    return coord.run(iter_cluster_workload(SPEC), kill_events=kills)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tb1, models_tb1):
        docs = []
        for _ in range(2):
            outcome = run(tb1, models_tb1)
            docs.append(dump_cluster_document(
                cluster_document(outcome, context={"seed": 0})))
        assert docs[0] == docs[1]

    def test_kill_run_is_deterministic_too(self, tb1, models_tb1):
        docs = []
        for _ in range(2):
            outcome = run(tb1, models_tb1, kills=[(0.4, "node1")])
            docs.append(dump_cluster_document(
                cluster_document(outcome, context={})))
        assert docs[0] == docs[1]


class TestHealthyRun:
    @pytest.fixture(scope="class")
    def outcome(self, tb1, models_tb1):
        return run(tb1, models_tb1)

    def test_conserved_and_accounted(self, outcome):
        assert outcome.conservation_ok
        assert outcome.accounted == SPEC.n_requests
        assert not outcome.violations

    def test_autoscaler_moved_the_fleet(self, outcome):
        actions = [e["action"] for e in outcome.scale_events]
        assert "up" in actions, actions
        assert "down" in actions, actions
        # Every event carries its reasoning snapshot.
        for event in outcome.scale_events:
            assert set(event["reason"]) >= {"desired", "active",
                                            "backlog_per_node"}

    def test_scaled_down_node_stopped_gracefully(self, outcome):
        downs = [e for e in outcome.scale_events if e["action"] == "down"]
        assert downs
        for event in downs:
            node = next(n for n in outcome.nodes
                        if n.name == event["node"])
            assert node.state == "stopped"
            assert node.outstanding == 0

    def test_fleet_counts_are_consistent(self, outcome):
        completed = sum(n.completed for n in outcome.nodes)
        shed = sum(n.shed for n in outcome.nodes)
        failed = sum(n.failed for n in outcome.nodes)
        assert completed + shed + failed == SPEC.n_requests
        routed = sum(n.routed for n in outcome.nodes)
        assert routed == SPEC.n_requests + outcome.migrations

    def test_document_validates(self, outcome):
        doc = cluster_document(outcome, context={"seed": 0})
        validate_cluster_json(doc)
        report = doc["report"]
        assert report["fleet"]["requests"]["total"] == SPEC.n_requests
        assert report["conservation"]["ok"] is True
        assert report["fleet"]["latency"]["n"] > 0

    def test_predicted_backlog_ledger_settles_to_zero(self, outcome):
        # Closed-loop ledger: after quiescence nothing is in-system.
        for node in outcome.nodes:
            assert node.predicted_backlog(1e9) == pytest.approx(0.0,
                                                                abs=1e-9)
            assert not node._pred_by_id


class TestKillNode:
    def test_kill_migrates_and_conserves(self, tb1, models_tb1):
        outcome = run(tb1, models_tb1, kills=[(0.4, "node1")])
        assert outcome.conservation_ok
        assert outcome.migrations > 0
        killed = next(n for n in outcome.nodes if n.name == "node1")
        assert killed.state == "stopped"
        assert killed.migrated_out > 0
        kills = [e for e in outcome.scale_events if e["action"] == "kill"]
        assert len(kills) == 1
        assert kills[0]["node"] == "node1"
        assert kills[0]["reason"]["migrated"] == killed.migrated_out

    def test_kill_of_unknown_node_is_ignored(self, tb1, models_tb1):
        outcome = run(tb1, models_tb1, kills=[(0.4, "node9")])
        assert outcome.conservation_ok
        assert not any(e["action"] == "kill" for e in outcome.scale_events)

    def test_killing_the_whole_fleet_fails_loudly(self, tb1, models_tb1):
        coord = make_coordinator(tb1, models_tb1, nodes=2, autoscale=False)
        with pytest.raises(ServeError, match="no active node"):
            coord.run(iter_cluster_workload(SPEC),
                      kill_events=[(0.01, "node0"), (0.01, "node1")])


class TestRouterPolicies:
    def test_least_connections_also_conserves(self, tb1, models_tb1):
        outcome = run(tb1, models_tb1, router="least_connections")
        assert outcome.conservation_ok
        assert outcome.router_policy == "least_connections"
        assert outcome.spills == 0  # lc never consults the ring

    def test_tight_spill_threshold_spills(self, tb1, models_tb1):
        outcome = run(tb1, models_tb1, autoscale=False, nodes=4,
                      spill_backlog=0.002)
        assert outcome.conservation_ok
        assert outcome.spills > 0


class TestCoordinatorContract:
    def test_runs_exactly_once(self, tb1, models_tb1):
        coord = make_coordinator(tb1, models_tb1)
        coord.run(iter_cluster_workload(SPEC))
        with pytest.raises(ServeError, match="exactly once"):
            coord.run(iter_cluster_workload(SPEC))

    def test_initial_fleet_outside_scaler_bounds_rejected(self):
        with pytest.raises(ServeError, match="outside autoscaler"):
            ClusterConfig(nodes=1,
                          autoscaler=AutoscalerConfig(min_nodes=2,
                                                      max_nodes=4))

    def test_per_node_seeds_differ(self, tb1, models_tb1):
        coord = make_coordinator(tb1, models_tb1, nodes=3)
        seeds = {n.config.seed for n in coord.nodes}
        assert len(seeds) == 3


class TestTailAdmission:
    """Percentile-aware per-node admission with a fleet-shared bank."""

    TAIL_SPEC = ClusterWorkloadSpec(n_requests=240, rate=4000.0, seed=7,
                                    deadline_fraction=0.9, slack_lo=0.5,
                                    slack_hi=3.0, burst_size=16)

    def _run(self, tb1, models_tb1, percentile):
        config = ClusterConfig(
            nodes=2, gpus_per_node=2, autoscale=False,
            autoscaler=AutoscalerConfig(min_nodes=2, max_nodes=4))
        coord = ClusterCoordinator(
            tb1, models_tb1, config,
            ServerConfig(seed=7, admission_percentile=percentile))
        return coord.run(iter_cluster_workload(self.TAIL_SPEC))

    @pytest.fixture(scope="class")
    def mean_outcome(self, tb1, models_tb1):
        return self._run(tb1, models_tb1, None)

    @pytest.fixture(scope="class")
    def tail_outcome(self, tb1, models_tb1):
        return self._run(tb1, models_tb1, 99.0)

    def test_attainment_no_worse_than_mean(self, mean_outcome, tail_outcome):
        def attainment(outcome):
            met = sum(n.slo_met for n in outcome.nodes)
            missed = sum(n.slo_missed for n in outcome.nodes)
            return met, missed, met / (met + missed)

        m_met, m_missed, m_att = attainment(mean_outcome)
        t_met, t_missed, t_att = attainment(tail_outcome)
        assert t_att > m_att
        assert t_missed < m_missed
        assert (m_met, m_missed) == (77, 4)
        assert (t_met, t_missed) == (78, 1)

    def test_fleet_document_carries_tail_block(self, tail_outcome):
        doc = cluster_document(tail_outcome, context={})
        tail = doc["report"]["fleet"]["prediction"]["tail"]
        assert tail["percentile"] == 99.0
        assert tail["observations"] > 0
        # The shared bank saw completions from every node.
        assert tail["observations"] == sum(
            len(n.latencies) for n in tail_outcome.nodes)
        validate_cluster_json(doc)

    def test_mean_document_has_no_prediction_key(self, mean_outcome):
        doc = cluster_document(mean_outcome, context={})
        assert "prediction" not in doc["report"]["fleet"]
        assert '"tail"' not in dump_cluster_document(doc)

    def test_tail_run_is_byte_deterministic(self, tb1, models_tb1,
                                            tail_outcome):
        again = self._run(tb1, models_tb1, 99.0)
        first = dump_cluster_document(cluster_document(tail_outcome,
                                                       context={}))
        second = dump_cluster_document(cluster_document(again, context={}))
        assert first == second

    def test_conservation_holds_in_tail_mode(self, tail_outcome):
        assert tail_outcome.conservation_ok
        assert tail_outcome.accounted == self.TAIL_SPEC.n_requests


class TestOverloadedSLO:
    """Shed requests stay in the fleet's SLO denominator, as they do in
    the single-node serve report."""

    SPEC = ClusterWorkloadSpec(n_requests=200, rate=2000.0, seed=3,
                               deadline_fraction=0.9, slack_lo=0.5,
                               slack_hi=3.0)

    @pytest.fixture(scope="class")
    def slo(self, tb1, models_tb1):
        coord = make_coordinator(tb1, models_tb1, seed=3, nodes=2,
                                 autoscale=False)
        outcome = coord.run(iter_cluster_workload(self.SPEC))
        requests = cluster_document(outcome, context={})[
            "report"]["fleet"]["requests"]
        assert requests["shed"] > 0
        return requests["slo"]

    @pytest.fixture(scope="class")
    def deadlines(self):
        return sum(1 for r in iter_cluster_workload(self.SPEC)
                   if r.deadline is not None)

    def test_attainment_counts_shed_requests(self, slo, deadlines):
        assert slo["met"] + slo["missed"] < deadlines
        assert slo["attainment"] == slo["met"] / deadlines

    def test_with_deadline_counts_every_deadline_request(self, slo,
                                                         deadlines):
        assert slo["with_deadline"] == deadlines
