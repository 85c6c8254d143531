"""Seeded workload generation: determinism and substream independence."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterWorkloadSpec
from repro.cluster.workload import iter_cluster_workload
from repro.core.params import axpy_problem, gemm_problem
from repro.serve import (ServeError, WorkloadSpec, generate_workload,
                         reference_time, spec_as_dict)
from repro.serve.workload import ProblemPool
from tests.test_golden_documents import SUITE_TRACES


def _fingerprint(requests):
    return [(r.req_id, r.arrival, r.problem.signature(), r.priority,
             r.deadline, r.group) for r in requests]


#: Fields both workload specs carry, each set to a value neither
#: generator can draw a sane trace from, and the error it must raise.
BAD_FIELDS = [
    ({"arrival": "uniform"}, "arrival process"),
    ({"rate": 0.0}, "rate"),
    ({"n_requests": 0}, "request count"),
    ({"axpy_fraction": 1.5}, "axpy_fraction"),
    ({"slack_lo": 9.0, "slack_hi": 2.0}, "slack"),
    ({"burst_size": 0}, "burst size"),
    ({"rate": float("nan")}, "rate"),
    ({"rate": float("inf")}, "rate"),
    ({"rate": -5.0}, "rate"),
    ({"axpy_fraction": float("nan")}, "axpy_fraction"),
    ({"small_fraction": -0.1}, "small_fraction"),
    ({"small_fraction": 1.5}, "small_fraction"),
    ({"deadline_fraction": -0.5}, "deadline_fraction"),
    ({"deadline_fraction": 1.01}, "deadline_fraction"),
    ({"n_groups": 0}, "group count"),
    ({"n_priorities": 0}, "priority count"),
    ({"slack_lo": float("nan")}, "slack"),
    ({"burst_spread": -0.01}, "burst spread"),
    ({"burst_spread": float("nan")}, "burst spread"),
]


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs,match", BAD_FIELDS)
    def test_bad_fields_rejected(self, kwargs, match):
        with pytest.raises(ServeError, match=match):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize("kwargs,match", BAD_FIELDS)
    def test_cluster_spec_rejects_the_same_fields(self, kwargs, match):
        with pytest.raises(ServeError, match=match):
            ClusterWorkloadSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"small_fraction": 0.0, "deadline_fraction": 1.0,
         "burst_spread": 0.0, "n_groups": 1, "n_priorities": 1},
        {"small_fraction": 1.0, "deadline_fraction": 0.0},
    ])
    def test_edge_values_accepted_by_both_specs(self, kwargs):
        assert generate_workload(WorkloadSpec(n_requests=8, **kwargs))
        assert list(iter_cluster_workload(
            ClusterWorkloadSpec(n_requests=8, **kwargs)))

    def test_bad_scale_rejected(self):
        with pytest.raises(Exception):
            WorkloadSpec(scale="huge")

    def test_spec_as_dict_round_trips_fields(self):
        spec = WorkloadSpec(rate=120.0, seed=7, arrival="bursty")
        d = spec_as_dict(spec)
        assert d["rate"] == 120.0 and d["seed"] == 7
        assert d["arrival"] == "bursty"
        assert d["slack"] == [spec.slack_lo, spec.slack_hi]


class TestDeterminism:
    def test_equal_specs_generate_identical_workloads(self):
        spec = WorkloadSpec(n_requests=48, seed=3)
        assert (_fingerprint(generate_workload(spec))
                == _fingerprint(generate_workload(spec)))

    def test_seed_changes_workload(self):
        a = generate_workload(WorkloadSpec(n_requests=32, seed=0))
        b = generate_workload(WorkloadSpec(n_requests=32, seed=1))
        assert _fingerprint(a) != _fingerprint(b)

    def test_size_mix_does_not_perturb_arrivals(self):
        """Per-factor substreams: changing the problem mix must leave
        the arrival process untouched (the noise.py idiom)."""
        base = WorkloadSpec(n_requests=40, seed=5, axpy_fraction=0.2)
        shifted = dataclasses.replace(base, axpy_fraction=0.8,
                                      small_fraction=0.9)
        t0 = [r.arrival for r in generate_workload(base)]
        t1 = [r.arrival for r in generate_workload(shifted)]
        assert t0 == t1

    def test_arrival_kind_uses_its_own_stream(self):
        base = WorkloadSpec(n_requests=40, seed=5)
        bursty = dataclasses.replace(base, arrival="bursty")
        sizes0 = [r.problem.signature() for r in generate_workload(base)]
        sizes1 = [r.problem.signature() for r in generate_workload(bursty)]
        assert sizes0 == sizes1  # arrival draw never touches sizes


class TestGeneratedShape:
    def test_poisson_arrivals_sorted_positive(self):
        reqs = generate_workload(WorkloadSpec(n_requests=64, seed=2))
        times = [r.arrival for r in reqs]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_bursty_clusters_tighter_than_poisson(self):
        n, seed, rate = 64, 2, 100.0
        poisson = generate_workload(WorkloadSpec(
            arrival="poisson", rate=rate, n_requests=n, seed=seed))
        bursty = generate_workload(WorkloadSpec(
            arrival="bursty", rate=rate, n_requests=n, seed=seed))

        def median_gap(reqs):
            times = sorted(r.arrival for r in reqs)
            gaps = sorted(b - a for a, b in zip(times, times[1:]))
            return gaps[len(gaps) // 2]

        assert median_gap(bursty) < median_gap(poisson) / 2

    def test_deadlines_after_arrival_with_expected_fraction(self):
        spec = WorkloadSpec(n_requests=200, seed=9, deadline_fraction=0.75)
        reqs = generate_workload(spec)
        with_deadline = [r for r in reqs if r.deadline is not None]
        for r in with_deadline:
            assert r.deadline >= r.arrival
            slack = (r.deadline - r.arrival) / reference_time(r.problem)
            assert spec.slack_lo <= slack <= spec.slack_hi
        assert 0.6 <= len(with_deadline) / len(reqs) <= 0.9

    def test_small_gemms_are_grouped_and_tileable(self):
        reqs = generate_workload(WorkloadSpec(
            n_requests=100, seed=4, axpy_fraction=0.0, small_fraction=1.0))
        assert reqs
        for r in reqs:
            assert r.group is not None and r.group.startswith("g")
            # Floored at the smallest deployed tile size.
            assert min(r.problem.dims) >= 256

    def test_priorities_within_range(self):
        spec = WorkloadSpec(n_requests=100, seed=6, n_priorities=3)
        assert {r.priority for r in generate_workload(spec)} <= {0, 1, 2}

    def test_reference_time_monotone_in_problem_size(self):
        import numpy as np

        from repro.core.params import gemm_problem
        small = reference_time(gemm_problem(256, 256, 256, np.float64))
        large = reference_time(gemm_problem(2048, 2048, 2048, np.float64))
        assert 0 < small < large


class TestGoldenTraces:
    """The suite's traces; their digests are cases of the golden table
    (``tests/test_golden_documents.py``)."""

    def test_trace_shares_one_problem_per_shape(self):
        reqs = SUITE_TRACES["serve_overload"](11)
        keys = {(r.problem.routine.name, r.problem.dims) for r in reqs}
        assert len(reqs) == 20000
        assert len({id(r.problem) for r in reqs}) <= len(keys) < 40


class TestProblemPool:
    def test_entry_is_a_fresh_problem_and_its_reference_time(self):
        pool = ProblemPool()
        for key, fresh in ((("gemm", (512, 256, 128)),
                            gemm_problem(512, 256, 128, np.float64)),
                           (("axpy", (4096,)),
                            axpy_problem(4096, np.float64))):
            problem, t_ref = pool[key]
            assert problem.signature() == fresh.signature()
            assert t_ref == reference_time(fresh)
            assert pool[key][0] is problem
        assert len(pool) == 2
