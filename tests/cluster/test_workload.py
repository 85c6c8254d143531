"""Cluster workload generator tests: determinism, phases, memoization.

The generator must be a pure function of its spec (seed -> same
trace), stream without materializing the trace, and keep the problem
pool tiny via memoization — those are the properties that make the
million-request benchmark affordable and byte-stable.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterWorkloadSpec,
    cluster_arrivals,
    cluster_spec_as_dict,
    iter_cluster_workload,
)
from repro.errors import ReproError


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"arrival": "uniform"},
        {"rate": 0.0},
        {"n_requests": 0},
        {"phases": ()},
        {"phases": (1.0, -2.0)},
        {"burst_size": 0},
        {"slack_lo": 9.0, "slack_hi": 2.0},
        {"scale": "huge"},
    ])
    def test_rejects_bad_specs(self, kwargs):
        # ServeError subclasses ReproError; the scale check raises the
        # base class directly.
        with pytest.raises(ReproError):
            ClusterWorkloadSpec(**kwargs)

    def test_defaults_are_valid(self):
        ClusterWorkloadSpec()


class TestArrivals:
    def test_sorted_and_sized(self):
        spec = ClusterWorkloadSpec(n_requests=999, rate=500.0)
        arrivals = cluster_arrivals(spec)
        assert arrivals.shape == (999,)
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[0] > 0

    def test_same_seed_same_bytes(self):
        spec = ClusterWorkloadSpec(n_requests=500, seed=7)
        a = cluster_arrivals(spec)
        b = cluster_arrivals(spec)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        a = cluster_arrivals(ClusterWorkloadSpec(n_requests=500, seed=1))
        b = cluster_arrivals(ClusterWorkloadSpec(n_requests=500, seed=2))
        assert not np.array_equal(a, b)

    def test_phases_modulate_rate(self):
        # A (1, 4) profile: the second half arrives 4x faster, so its
        # mean interarrival gap is ~1/4 of the first half's.
        spec = ClusterWorkloadSpec(arrival="poisson", rate=100.0,
                                   n_requests=4000, phases=(1.0, 4.0),
                                   seed=3)
        arrivals = cluster_arrivals(spec)
        gaps = np.diff(arrivals)
        first, second = gaps[:1999], gaps[2000:]
        assert second.mean() < first.mean() / 2

    def test_flat_profile_matches_plain_poisson_rate(self):
        spec = ClusterWorkloadSpec(arrival="poisson", rate=200.0,
                                   n_requests=8000, phases=(1.0,), seed=5)
        arrivals = cluster_arrivals(spec)
        rate = len(arrivals) / arrivals[-1]
        assert rate == pytest.approx(200.0, rel=0.1)


class TestTrace:
    SPEC = ClusterWorkloadSpec(n_requests=600, rate=400.0, seed=11)

    def test_ids_and_order(self):
        reqs = list(iter_cluster_workload(self.SPEC))
        assert [r.req_id for r in reqs] == list(range(600))
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)

    def test_replay_is_identical(self):
        a = list(iter_cluster_workload(self.SPEC))
        b = list(iter_cluster_workload(self.SPEC))
        for ra, rb in zip(a, b):
            assert ra.arrival == rb.arrival
            # Each call builds its own memoized pool, so compare the
            # problems structurally, not by identity.
            assert ra.problem.routine is rb.problem.routine
            assert ra.problem.dims == rb.problem.dims
            assert ra.group == rb.group
            assert ra.priority == rb.priority
            assert ra.deadline == rb.deadline

    def test_problem_pool_is_memoized(self):
        reqs = list(iter_cluster_workload(self.SPEC))
        pool = {id(r.problem) for r in reqs}
        # A 600-request trace shares a few dozen problems, not 600.
        assert len(pool) < 40

    def test_group_binds_shape(self):
        # One weight group = one model = one A shape: every grouped
        # request of g must carry identical gemm dims (batchable).
        reqs = list(iter_cluster_workload(self.SPEC))
        dims_by_group = {}
        for r in reqs:
            if r.group is None:
                continue
            dims_by_group.setdefault(r.group, set()).add(r.problem.dims)
        assert dims_by_group  # the mix does produce grouped requests
        for group, dims in dims_by_group.items():
            assert len(dims) == 1, f"{group} spans {dims}"

    def test_ungrouped_mix_present(self):
        reqs = list(iter_cluster_workload(self.SPEC))
        routines = {r.problem.routine.name for r in reqs}
        assert "axpy" in routines and "gemm" in routines
        assert any(r.group is None for r in reqs)

    def test_deadlines_scale_with_problem_size(self):
        reqs = [r for r in iter_cluster_workload(self.SPEC)
                if r.deadline is not None]
        assert reqs
        spec = self.SPEC
        for r in reqs:
            slack = r.deadline - r.arrival
            assert slack > 0
        frac = len(reqs) / spec.n_requests
        assert frac == pytest.approx(spec.deadline_fraction, abs=0.1)

    def test_priorities_within_range(self):
        reqs = list(iter_cluster_workload(self.SPEC))
        assert {r.priority for r in reqs} <= set(
            range(self.SPEC.n_priorities))


class TestSpecAsDict:
    def test_json_ready_and_complete(self):
        import json
        spec = ClusterWorkloadSpec(seed=4, phases=(1.0, 2.0))
        d = cluster_spec_as_dict(spec)
        json.dumps(d)  # must not raise
        assert d["seed"] == 4
        assert d["phases"] == [1.0, 2.0]
        assert d["slack"] == [spec.slack_lo, spec.slack_hi]
