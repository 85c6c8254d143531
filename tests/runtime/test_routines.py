"""Tests for the public CoCoPeLiaLibrary API."""

import numpy as np
import pytest

from repro.blas import assert_allclose_blas, ref_axpy, ref_gemm
from repro.core import Loc
from repro.errors import BlasError
from repro.runtime import CoCoPeLiaLibrary
from tests.machines import custom_machine


@pytest.fixture(scope="module")
def lib(tb2, models_tb2):
    return CoCoPeLiaLibrary(tb2, models_tb2)


class TestGemmApi:
    def test_compute_mode_in_place_result(self, lib, rng):
        a = rng.standard_normal((300, 200))
        b = rng.standard_normal((200, 400))
        c = rng.standard_normal((300, 400))
        expected = ref_gemm(a, b, c, 2.0, 0.5)
        res = lib.gemm(a=a, b=b, c=c, alpha=2.0, beta=0.5, tile_size=128)
        assert_allclose_blas(c, expected, reduction_depth=200)
        assert res.routine == "dgemm"
        assert res.output is None

    def test_device_resident_output_returned(self, lib, rng):
        a = rng.standard_normal((128, 128))
        b = rng.standard_normal((128, 128))
        c = rng.standard_normal((128, 128))
        expected = ref_gemm(a, b, c)
        res = lib.gemm(a=a, b=b, c=c.copy(), tile_size=64, loc_c=Loc.DEVICE)
        assert res.output is not None
        assert_allclose_blas(res.output, expected, reduction_depth=128)

    def test_timing_mode_needs_dims(self, lib):
        with pytest.raises(BlasError):
            lib.gemm()

    def test_partial_arrays_rejected(self, lib, rng):
        a = rng.standard_normal((16, 16))
        with pytest.raises(BlasError):
            lib.gemm(a=a)

    def test_dims_vs_arrays_disagreement_rejected(self, lib, rng):
        a = rng.standard_normal((16, 16))
        with pytest.raises(BlasError):
            lib.gemm(m=32, n=16, k=16, a=a, b=a, c=a)

    def test_wrong_shape_rejected(self, lib, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((8, 16))
        c = rng.standard_normal((16, 16))
        with pytest.raises(BlasError):
            lib.gemm(a=a, b=b, c=c)

    def test_auto_tile_selection(self, lib):
        res = lib.gemm(2048, 2048, 2048)
        assert res.tile_size > 0
        assert res.predicted_seconds is not None
        assert res.model == "auto"
        assert res.seconds > 0

    def test_run_result_counters(self, lib):
        res = lib.gemm(1024, 1024, 1024, tile_size=256)
        tiles = (1024 // 256) ** 2
        assert res.h2d_transfers == 3 * tiles
        assert res.d2h_transfers == tiles
        assert res.kernels == (1024 // 256) ** 3
        assert res.gflops > 0

    def test_prediction_error_available(self, lib):
        res = lib.gemm(2048, 2048, 2048)
        assert res.prediction_error is not None
        assert abs(res.prediction_error) < 1.0  # within 100%

    def test_sgemm_routine_name(self, lib):
        res = lib.gemm(512, 512, 512, dtype=np.float32, tile_size=256)
        assert res.routine == "sgemm"

    def test_tile_choice_cached_across_calls(self, lib):
        first = lib.gemm(3072, 3072, 3072)
        second = lib.gemm(3072, 3072, 3072)
        assert first.tile_size == second.tile_size

    def test_no_models_requires_explicit_tile(self, tb2):
        bare = CoCoPeLiaLibrary(tb2, models=None)
        with pytest.raises(BlasError, match="tile_size"):
            bare.gemm(1024, 1024, 1024)
        res = bare.gemm(1024, 1024, 1024, tile_size=512)
        assert res.tile_size == 512


class TestAxpyApi:
    def test_compute_mode(self, lib, rng):
        x = rng.standard_normal(200_000)
        y = rng.standard_normal(200_000)
        expected = ref_axpy(x, y, -1.5)
        res = lib.axpy(x=x, y=y, alpha=-1.5, tile_size=1 << 15)
        assert_allclose_blas(y, expected)
        assert res.routine == "daxpy"

    def test_device_resident_y(self, lib, rng):
        x = rng.standard_normal(50_000)
        y = rng.standard_normal(50_000)
        res = lib.axpy(x=x, y=y.copy(), alpha=2.0, loc_y=Loc.DEVICE,
                       tile_size=1 << 14)
        assert res.output is not None
        assert_allclose_blas(res.output, ref_axpy(x, y, 2.0))
        assert res.d2h_transfers == 0

    def test_auto_selection(self, lib):
        res = lib.axpy(8 << 20)
        assert res.tile_size > 0
        assert res.predicted_seconds is not None

    def test_mismatched_vectors_rejected(self, lib, rng):
        with pytest.raises(BlasError):
            lib.axpy(x=rng.standard_normal(10), y=rng.standard_normal(20))

    def test_single_vector_rejected(self, lib, rng):
        with pytest.raises(BlasError):
            lib.axpy(x=rng.standard_normal(10))


class TestModelReuse:
    def test_different_problems_get_distinct_choices(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        lib.gemm(2048, 2048, 2048)
        lib.gemm(4096, 4096, 4096)
        assert lib.prediction_cache.stats.misses == 2

    def test_locations_are_part_of_the_key(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        lib.gemm(2048, 2048, 2048)
        lib.gemm(2048, 2048, 2048, loc_b=Loc.DEVICE)
        assert lib.prediction_cache.stats.misses == 2
