"""Tests for the level-2 gemv routine (Section IV-B extension recipe)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend.cublas import CublasContext
from repro.blas import assert_allclose_blas, ref_gemv
from repro.core import Loc, gemv_problem
from repro.core.registry import predict, resolve_model
from repro.core.select import candidate_tiles
from repro.deploy import DeploymentConfig, deploy
from repro.errors import BlasError, SchedulerError
from repro.runtime import CoCoPeLiaLibrary
from repro.runtime.offload import host_operands
from repro.runtime.scheduler import GemvTileScheduler
from repro.sim.device import GpuDevice
from tests.machines import custom_machine
from repro.sim.machine import testbed_ii as make_testbed_ii


GEMV_ROUTINES = (("gemm", np.float64), ("axpy", np.float64),
                 ("gemv", np.float64))


@pytest.fixture(scope="module")
def machine():
    return make_testbed_ii()


@pytest.fixture(scope="module")
def models(machine):
    return deploy(machine, DeploymentConfig.quick(routines=GEMV_ROUTINES))


@pytest.fixture(scope="module")
def lib(machine, models):
    return CoCoPeLiaLibrary(machine, models)


class TestGemvNumerics:
    @pytest.mark.parametrize("t", [64, 100, 256])
    def test_matches_reference(self, lib, rng, t):
        a = rng.standard_normal((500, 700))
        x = rng.standard_normal(700)
        y = rng.standard_normal(500)
        expected = ref_gemv(a, x, y, 2.0, -0.5)
        lib.gemv(a=a, x=x, y=y, alpha=2.0, beta=-0.5, tile_size=t)
        assert_allclose_blas(y, expected, reduction_depth=700)

    def test_device_resident_matrix(self, lib, rng):
        a = rng.standard_normal((300, 300))
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        expected = ref_gemv(a, x, y)
        res = lib.gemv(a=a, x=x, y=y, tile_size=128, loc_a=Loc.DEVICE)
        assert_allclose_blas(y, expected, reduction_depth=300)
        # Only the vectors were transferred.
        assert res.h2d_bytes < 2 * 300 * 8 * 2

    def test_device_resident_output(self, lib, rng):
        a = rng.standard_normal((200, 200))
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        expected = ref_gemv(a, x, y)
        res = lib.gemv(a=a, x=x, y=y.copy(), tile_size=100,
                       loc_y=Loc.DEVICE)
        assert res.output is not None
        assert_allclose_blas(res.output, expected, reduction_depth=200)
        assert res.d2h_transfers == 0

    def test_float32(self, lib, rng):
        a = rng.standard_normal((128, 128)).astype(np.float32)
        x = rng.standard_normal(128).astype(np.float32)
        y = rng.standard_normal(128).astype(np.float32)
        expected = ref_gemv(a, x, y)
        res = lib.gemv(a=a, x=x, y=y, tile_size=64)
        assert res.routine == "sgemv"
        assert_allclose_blas(y, expected, reduction_depth=128)

    def test_shape_validation(self, lib, rng):
        a = rng.standard_normal((10, 20))
        with pytest.raises(BlasError):
            lib.gemv(a=a, x=rng.standard_normal(10),
                     y=rng.standard_normal(10))
        with pytest.raises(BlasError):
            lib.gemv(a=a, x=rng.standard_normal(20))

    def test_dims_required(self, lib):
        with pytest.raises(BlasError):
            lib.gemv()


class TestGemvTraffic:
    def test_vector_reuse_matrix_streamed(self, machine):
        """x chunks fetched once; the matrix is the dominant one-shot
        traffic (Section III-C: 'minor working set overlap')."""
        problem = gemv_problem(1024, 2048)
        ctx = CublasContext(GpuDevice(replace(machine, noise_sigma=0.0)))
        hosts = host_operands(problem)
        sched = GemvTileScheduler(ctx, problem, 256, hosts)
        stats = sched.run()
        a_tiles = 4 * 8
        x_chunks = 8
        y_chunks = 4
        assert stats.h2d_transfers == a_tiles + x_chunks + y_chunks
        assert stats.d2h_transfers == y_chunks
        assert stats.kernels == a_tiles
        sched.release()

    def test_transfer_bound(self, lib):
        """Level-2 BLAS offload is transfer-bound: time ~ matrix bytes
        over h2d bandwidth."""
        res = lib.gemv(8192, 8192, tile_size=1024)
        ideal = 8192 * 8192 * 8 / lib.machine.h2d.bandwidth
        assert res.seconds >= ideal * 0.95
        assert res.seconds <= ideal * 1.5

    def test_wrong_routine_rejected(self, machine):
        from repro.core import gemm_problem

        problem = gemm_problem(64, 64, 64)
        ctx = CublasContext(GpuDevice(machine))
        hosts = host_operands(problem)
        with pytest.raises(SchedulerError):
            GemvTileScheduler(ctx, problem, 32, hosts)


class TestGemvModeling:
    def test_auto_resolves_to_bts(self):
        assert resolve_model("auto", gemv_problem(1024, 1024)) == "bts"

    def test_auto_selection_and_prediction(self, lib):
        res = lib.gemv(16384, 16384)
        assert res.model == "auto"
        assert res.predicted_seconds is not None
        assert abs(res.prediction_error) < 0.15

    def test_bts_prediction_tracks_measurement(self, lib, models):
        problem = gemv_problem(8192, 8192)
        for t in candidate_tiles(problem, models, clamped=False)[:4]:
            measured = lib.gemv(8192, 8192, tile_size=t).seconds
            predicted = predict("bts", problem, t, models)
            assert abs(predicted - measured) / measured < 0.20, t

    def test_k_is_two_dimensional(self):
        p = gemv_problem(1024, 2048)
        assert p.k(256) == 4 * 8

    def test_tile_choice_cached(self, machine, models):
        lib = CoCoPeLiaLibrary(machine, models)
        lib.gemv(4096, 4096)
        lib.gemv(4096, 4096)
        assert lib.prediction_cache.stats.misses == 1
