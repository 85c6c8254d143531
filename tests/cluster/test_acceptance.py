"""Acceptance: predicted-backlog routing beats least-connections.

The claim under test is the cluster layer's reason to exist: scoring
nodes by the models' predicted work-in-system (admission-time T_pred
summed over everything routed-but-unfinished) places better than the
classic reactive least-connections balancer when service times are
heterogeneous — one queued giant gemm outweighs ten batchable small
ones, and only the prediction sees that before dispatch.

The scenario is pinned (seed 16, quick-scale mix where small and large
gemms coexist, no admission shedding so placement alone differentiates)
and both policies run the identical trace.  Predicted routing must win
the p99 tail outright and hold SLO attainment — the measured gap at
this seed is ~4.5% on p99 and +0.7pt attainment; the simulation is
fully deterministic, so any positive margin is stable.
"""

import pytest

from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    ClusterCoordinator,
    ClusterWorkloadSpec,
    cluster_report,
    iter_cluster_workload,
)
from repro.serve import ServerConfig

SPEC = ClusterWorkloadSpec(
    n_requests=400, scale="quick", rate=24.0, seed=16,
    axpy_fraction=0.4, small_fraction=0.2, n_groups=16,
    burst_size=8, phases=(1.0, 2.0, 0.5))


def run_policy(tb1, models_tb1, policy):
    config = ClusterConfig(
        nodes=4, gpus_per_node=2, router=policy, autoscale=False,
        autoscaler=AutoscalerConfig(min_nodes=4, max_nodes=4))
    coordinator = ClusterCoordinator(tb1, models_tb1, config,
                                     ServerConfig(seed=16,
                                                  admission="none"))
    outcome = coordinator.run(iter_cluster_workload(SPEC))
    assert outcome.conservation_ok
    return cluster_report(outcome)


class TestPredictedBeatsLeastConnections:
    @pytest.fixture(scope="class")
    def reports(self, tb1, models_tb1):
        return {policy: run_policy(tb1, models_tb1, policy)
                for policy in ("predicted", "least_connections")}

    def test_same_trace_both_policies(self, reports):
        for report in reports.values():
            assert report["fleet"]["requests"]["total"] == SPEC.n_requests
            assert report["fleet"]["requests"]["shed"] == 0

    def test_p99_tail_is_strictly_better(self, reports):
        p99_pred = reports["predicted"]["fleet"]["latency"]["p99"]
        p99_lc = reports["least_connections"]["fleet"]["latency"]["p99"]
        assert p99_pred < p99_lc, (
            f"predicted p99 {p99_pred:.3f}s vs "
            f"least_connections {p99_lc:.3f}s")

    def test_slo_attainment_no_worse(self, reports):
        att_pred = (reports["predicted"]["fleet"]["requests"]
                    ["slo"]["attainment"])
        att_lc = (reports["least_connections"]["fleet"]["requests"]
                  ["slo"]["attainment"])
        assert att_pred >= att_lc, (
            f"predicted attainment {att_pred:.4f} vs "
            f"least_connections {att_lc:.4f}")
