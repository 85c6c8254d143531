"""Tests for the multi-GPU extension."""

import numpy as np
import pytest

from repro.blas import assert_allclose_blas, ref_gemm
from repro.core import Loc, gemm_problem
from repro.errors import BlasError, SchedulerError
from repro.runtime.multigpu import (
    MultiGpuCoCoPeLia,
    predict_multi_gpu,
    shard_columns,
    shard_problem,
)


class TestSharding:
    def test_even_split(self):
        assert shard_columns(1000, 4) == [(0, 250), (250, 250), (500, 250),
                                          (750, 250)]

    def test_uneven_split(self):
        shards = shard_columns(1000, 3)
        assert sum(w for _, w in shards) == 1000
        assert shards[0] == (0, 334)

    def test_more_gpus_than_columns(self):
        shards = shard_columns(2, 4)
        assert len(shards) == 2

    def test_single_gpu(self):
        assert shard_columns(100, 1) == [(0, 100)]

    def test_invalid_gpu_count(self):
        with pytest.raises(SchedulerError):
            shard_columns(100, 0)

    def test_shard_problem_dims_and_locations(self):
        p = gemm_problem(512, 1024, 256, loc_a=Loc.DEVICE)
        sub = shard_problem(p, 256)
        assert sub.dims == (512, 256, 256)
        assert sub.operands[0].loc is Loc.DEVICE


class TestMultiGpuNumerics:
    @pytest.mark.parametrize("n_gpus", [1, 2, 3])
    def test_matches_reference(self, tb2, models_tb2, rng, n_gpus):
        a = rng.standard_normal((200, 300))
        b = rng.standard_normal((300, 260))
        c = rng.standard_normal((200, 260))
        expected = ref_gemm(a, b, c, 1.5, -0.5)
        mg = MultiGpuCoCoPeLia(tb2, n_gpus, models_tb2)
        mg.gemm(a=a, b=b, c=c, alpha=1.5, beta=-0.5, tile_size=96)
        assert_allclose_blas(c, expected, reduction_depth=300)

    def test_device_resident_output(self, tb2, models_tb2, rng):
        a = rng.standard_normal((128, 128))
        b = rng.standard_normal((128, 128))
        c = rng.standard_normal((128, 128))
        expected = ref_gemm(a, b, c)
        cw = c.copy()
        mg = MultiGpuCoCoPeLia(tb2, 2, models_tb2)
        mg.gemm(a=a, b=b, c=cw, tile_size=64, loc_c=Loc.DEVICE)
        assert_allclose_blas(cw, expected, reduction_depth=128)

    def test_dims_required(self, tb2, models_tb2):
        with pytest.raises(BlasError):
            MultiGpuCoCoPeLia(tb2, 2, models_tb2).gemm()


class TestMultiGpuScaling:
    @pytest.fixture(scope="class")
    def timings(self, tb2, models_tb2):
        dims = (4096, 4096, 4096)
        out = {}
        for g in (1, 2, 4):
            mg = MultiGpuCoCoPeLia(tb2, g, models_tb2)
            out[g] = mg.gemm(*dims)
        return out

    def test_speedup_monotone(self, timings):
        assert timings[2].seconds < timings[1].seconds
        assert timings[4].seconds < timings[2].seconds

    def test_speedup_sublinear_due_to_broadcast(self, timings):
        """Every GPU fetches the full A, so scaling is sub-linear."""
        speedup4 = timings[1].seconds / timings[4].seconds
        assert 1.5 < speedup4 < 4.0

    def test_broadcast_traffic(self, timings):
        """Total h2d grows with GPU count (A broadcast); per-GPU B/C
        shrink."""
        assert timings[4].h2d_bytes > timings[2].h2d_bytes > \
            timings[1].h2d_bytes
        a_bytes = 4096 * 4096 * 8
        extra = timings[2].h2d_bytes - timings[1].h2d_bytes
        assert extra == pytest.approx(a_bytes, rel=0.01)

    def test_single_gpu_matches_library(self, tb2, models_tb2):
        from repro.runtime import CoCoPeLiaLibrary

        dims = (2048, 2048, 2048)
        single = CoCoPeLiaLibrary(tb2, models_tb2, seed=53 + 100).gemm(*dims)
        mg = MultiGpuCoCoPeLia(tb2, 1, models_tb2).gemm(*dims)
        assert mg.seconds == pytest.approx(single.seconds, rel=0.05)

    def test_gflops_aggregates_shards(self, timings):
        r = timings[2]
        assert r.flops == pytest.approx(2.0 * 4096**3)
        assert r.gflops > 0


class TestMultiGpuTraces:
    DIMS = (512, 768, 640)

    def test_one_recorder_per_gpu_no_peer_engine(self, tb2, models_tb2):
        lib = MultiGpuCoCoPeLia(tb2, 4, models_tb2, trace=True)
        lib.gemm(*self.DIMS)
        assert len(lib.last_traces) == 4
        engines = {ev.engine for t in lib.last_traces for ev in t.events}
        assert not any(e.startswith("peer") for e in engines)

    def test_run_twice_identical(self, tb2, models_tb2):
        a = MultiGpuCoCoPeLia(tb2, 4, models_tb2).gemm(*self.DIMS)
        b = MultiGpuCoCoPeLia(tb2, 4, models_tb2).gemm(*self.DIMS)
        assert a.seconds == b.seconds


class TestMultiGpuPrediction:
    def test_prediction_tracks_measurement(self, tb2, models_tb2):
        dims = (4096, 4096, 4096)
        p = gemm_problem(*dims)
        for g in (1, 2, 4):
            predicted = predict_multi_gpu(p, g, models_tb2)
            measured = MultiGpuCoCoPeLia(tb2, g, models_tb2).gemm(*dims)
            err = abs(predicted - measured.seconds) / measured.seconds
            assert err < 0.25, f"{g} GPUs: {err:.1%}"

    def test_prediction_monotone_in_gpus(self, models_tb2):
        p = gemm_problem(8192, 8192, 8192)
        preds = [predict_multi_gpu(p, g, models_tb2) for g in (1, 2, 4)]
        assert preds[0] > preds[1] > preds[2]
