"""Tests for the distributed prediction models and sharding helpers.

Covers :func:`shard_columns`/:func:`shard_problem` edge cases via
hypothesis (remainders, width-1 columns, fewer columns than GPUs),
the SUMMA/streaming-gemv predictors, and panel/chunk selection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    candidate_chunks,
    candidate_panels,
    gemm_problem,
    predict_streaming_gemv,
    predict_summa,
    select_gemv_chunk,
    select_summa_panel,
    shard_columns,
    summa_panels,
)
from repro.core.params import gemv_problem
from repro.errors import ModelError, SchedulerError
from repro.deploy import DeploymentConfig, deploy
from repro.deploy.pipeline import DEFAULT_ROUTINES
from repro.runtime.multigpu import shard_problem
from repro.sim.interconnect import all_to_all_topology, ring_topology


@pytest.fixture(scope="module")
def models_dist(tb2):
    """Quick-scale models including dgemv (the chunk predictor's input)."""
    return deploy(tb2, DeploymentConfig.quick(
        routines=DEFAULT_ROUTINES + (("gemv", np.float64),)))


# ---------------------------------------------------------------------------
# sharding properties
# ---------------------------------------------------------------------------

widths = st.integers(min_value=1, max_value=5000)
gpu_counts = st.integers(min_value=1, max_value=9)


@settings(max_examples=100, deadline=None)
@given(n=widths, g=gpu_counts)
def test_shard_columns_partitions_exactly(n, g):
    """Shards tile [0, n) contiguously: no gap, no overlap, no padding."""
    shards = shard_columns(n, g)
    assert 1 <= len(shards) <= min(n, g)
    cursor = 0
    for off, width in shards:
        assert off == cursor
        assert width >= 1
        cursor += width
    assert cursor == n
    # Ceil-balanced: every shard but the last is exactly ceil(n/g)
    # wide; the last absorbs the remainder.
    import math
    base = math.ceil(n / g)
    sizes = [w for _, w in shards]
    assert all(w == base for w in sizes[:-1])
    assert 1 <= sizes[-1] <= base


@settings(max_examples=50, deadline=None)
@given(n=widths, g=gpu_counts)
def test_shard_problem_preserves_rows_depth_dtype(n, g):
    problem = gemm_problem(96, n, 128, np.float32)
    for _off, width in shard_columns(n, g):
        sub = shard_problem(problem, width)
        m, sn, k = sub.dims
        assert (m, sn, k) == (96, width, 128)
        assert sub.dtype == problem.dtype


def test_shard_columns_edges():
    assert shard_columns(1, 4) == [(0, 1)]           # width-1, n < gpus
    assert shard_columns(3, 4) == [(0, 1), (1, 1), (2, 1)]
    assert shard_columns(10, 3) == [(0, 4), (4, 4), (8, 2)]  # remainder
    with pytest.raises(SchedulerError):
        shard_columns(10, 0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=5000),
       g=gpu_counts,
       p=st.integers(min_value=1, max_value=700))
def test_summa_panels_partition_and_ownership(k, g, p):
    """Panels tile [0, k), never span owner boundaries, respect p."""
    panels = summa_panels(k, g, p)
    cursor = 0
    shards = shard_columns(k, g)
    bounds = {}
    for owner, (off, width) in enumerate(shards):
        bounds[owner] = (off, off + width)
    for off, width, owner in panels:
        assert off == cursor
        assert 1 <= width <= p
        lo, hi = bounds[owner]
        assert lo <= off and off + width <= hi
        cursor += width
    assert cursor == k


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def topo4():
    return ring_topology(4, gb_per_s=8.0)


class TestPredictSumma:
    def test_pipelined_beats_blocking(self, models_tb2, topo4):
        problem = gemm_problem(2048, 2048, 2048)
        blk = predict_summa(problem, 512, models_tb2, n_gpus=4,
                            topology=topo4, variant="blocking")
        pipe = predict_summa(problem, 512, models_tb2, n_gpus=4,
                             topology=topo4, variant="pipelined")
        assert 0 < pipe < blk

    def test_faster_fabric_predicts_faster(self, models_tb2):
        problem = gemm_problem(2048, 2048, 2048)
        slow = predict_summa(problem, 512, models_tb2, n_gpus=4,
                             topology=ring_topology(4, gb_per_s=4.0))
        fast = predict_summa(problem, 512, models_tb2, n_gpus=4,
                             topology=ring_topology(4, gb_per_s=16.0))
        assert fast < slow

    def test_all_to_all_never_slower_than_ring(self, models_tb2):
        problem = gemm_problem(2048, 2048, 2048)
        ring = predict_summa(problem, 512, models_tb2, n_gpus=4,
                             topology=ring_topology(4, gb_per_s=8.0),
                             variant="blocking")
        a2a = predict_summa(problem, 512, models_tb2, n_gpus=4,
                            topology=all_to_all_topology(4, gb_per_s=8.0),
                            variant="blocking")
        assert a2a <= ring

    def test_rejects_mismatched_topology(self, models_tb2):
        problem = gemm_problem(1024, 1024, 1024)
        with pytest.raises(ModelError):
            predict_summa(problem, 256, models_tb2, n_gpus=2,
                          topology=ring_topology(4))
        with pytest.raises(ModelError):
            predict_summa(problem, 256, models_tb2, n_gpus=4,
                          topology=None)

    def test_rejects_bad_variant_and_depth(self, models_tb2, topo4):
        problem = gemm_problem(1024, 1024, 1024)
        with pytest.raises(ModelError):
            predict_summa(problem, 256, models_tb2, n_gpus=4,
                          topology=topo4, variant="bulk")
        with pytest.raises(ModelError):
            predict_summa(problem, 256, models_tb2, n_gpus=4,
                          topology=topo4, depth=1)


class TestPredictStreamingGemv:
    def test_multi_gpu_beats_single(self, models_dist, topo4):
        problem = gemv_problem(8192, 8192)
        one = predict_streaming_gemv(problem, 1024, models_dist)
        four = predict_streaming_gemv(problem, 1024, models_dist,
                                      n_gpus=4, topology=topo4)
        assert 0 < four < one

    def test_handles_fewer_columns_than_gpus(self, models_dist, topo4):
        problem = gemv_problem(4096, 2)
        t = predict_streaming_gemv(problem, 256, models_dist, n_gpus=4,
                                   topology=topo4)
        assert t > 0


# ---------------------------------------------------------------------------
# selection + cache
# ---------------------------------------------------------------------------

class TestSelection:
    def test_panel_candidates_fit_shard_widths(self, models_tb2):
        problem = gemm_problem(2048, 2048, 2048)
        cands = candidate_panels(problem, 4, models_tb2)
        assert cands, "candidate pool must never be empty"
        assert all(p <= 512 for p in cands)  # max K/N shard width

    def test_selected_panel_is_argmin(self, models_tb2, topo4):
        problem = gemm_problem(2048, 2048, 2048)
        choice = select_summa_panel(problem, 4, topo4, models_tb2)
        assert choice.kind == "summa"
        best = min(choice.per_candidate.values())
        assert choice.predicted_time == best
        assert choice.per_candidate[choice.value] == best

    def test_selected_chunk_is_argmin(self, models_dist, topo4):
        problem = gemv_problem(8192, 8192)
        choice = select_gemv_chunk(problem, 4, topo4, models_dist)
        assert choice.kind == "streaming_gemv"
        assert choice.value in candidate_chunks(problem, 4, models_dist)
        assert choice.predicted_time == min(choice.per_candidate.values())

    def test_panel_times_are_the_summa_predictor(self, models_tb2, topo4):
        problem = gemm_problem(2048, 2048, 2048)
        choice = select_summa_panel(problem, 4, topo4, models_tb2)
        assert choice.per_candidate == {
            p: predict_summa(problem, p, models_tb2, n_gpus=4,
                             topology=topo4)
            for p in candidate_panels(problem, 4, models_tb2)}

    def test_chunk_times_are_the_gemv_predictor(self, models_dist, topo4):
        problem = gemv_problem(8192, 8192)
        choice = select_gemv_chunk(problem, 4, topo4, models_dist)
        assert choice.per_candidate == {
            c: predict_streaming_gemv(problem, c, models_dist, n_gpus=4,
                                      topology=topo4)
            for c in candidate_chunks(problem, 4, models_dist)}

    def test_slower_links_slow_every_panel(self, models_tb2, topo4):
        problem = gemm_problem(2048, 2048, 2048)
        fast = select_summa_panel(problem, 4, topo4, models_tb2)
        slow = select_summa_panel(problem, 4,
                                  ring_topology(4, gb_per_s=2.0),
                                  models_tb2)
        assert set(slow.per_candidate) == set(fast.per_candidate)
        for p, seconds in fast.per_candidate.items():
            assert slow.per_candidate[p] > seconds
