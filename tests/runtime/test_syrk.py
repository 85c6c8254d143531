"""Tests for the level-3 syrk routine (second extension of the recipe)."""

import numpy as np
import pytest

from repro.blas import ref_syrk
from repro.core import Loc, syrk_problem
from repro.core.registry import predict
from repro.core.select import candidate_tiles
from repro.deploy import DeploymentConfig, deploy
from repro.errors import BlasError
from repro.runtime import CoCoPeLiaLibrary
from repro.sim.machine import testbed_ii as make_testbed_ii

SYRK_ROUTINES = (("gemm", np.float64), ("syrk", np.float64),
                 ("syrk", np.float32))


@pytest.fixture(scope="module")
def machine():
    return make_testbed_ii()


@pytest.fixture(scope="module")
def models(machine):
    return deploy(machine, DeploymentConfig.quick(routines=SYRK_ROUTINES))


@pytest.fixture(scope="module")
def lib(machine, models):
    return CoCoPeLiaLibrary(machine, models)


def check_lower(result, reference, original, n):
    tril = np.tril_indices(n)
    denom = np.max(np.abs(reference))
    err = np.max(np.abs(result[tril] - reference[tril])) / denom
    assert err < 1e-10
    # strict upper triangle untouched (BLAS semantics)
    triu = np.triu_indices(n, k=1)
    np.testing.assert_array_equal(result[triu], original[triu])


class TestSyrkNumerics:
    @pytest.mark.parametrize("t", [64, 100, 256])
    def test_matches_reference(self, lib, rng, t):
        a = rng.standard_normal((400, 250))
        c = rng.standard_normal((400, 400))
        reference = ref_syrk(a, c, 1.5, 0.5)
        cw = c.copy()
        lib.syrk(a=a, c=cw, alpha=1.5, beta=0.5, tile_size=t)
        check_lower(cw, reference, c, 400)

    def test_negative_alpha_update(self, lib, rng):
        """The Cholesky trailing-update form: C -= A A^T."""
        a = rng.standard_normal((300, 100))
        c = rng.standard_normal((300, 300))
        reference = ref_syrk(a, c, -1.0, 1.0)
        cw = c.copy()
        lib.syrk(a=a, c=cw, alpha=-1.0, beta=1.0, tile_size=128)
        check_lower(cw, reference, c, 300)

    def test_device_resident_output(self, lib, rng):
        a = rng.standard_normal((200, 150))
        c = rng.standard_normal((200, 200))
        reference = ref_syrk(a, c)
        res = lib.syrk(a=a, c=c.copy(), tile_size=100, loc_c=Loc.DEVICE)
        assert res.output is not None
        tril = np.tril_indices(200)
        err = np.max(np.abs(res.output[tril] - reference[tril]))
        assert err / np.max(np.abs(reference)) < 1e-10
        assert res.d2h_transfers == 0

    def test_float32(self, lib, rng):
        a = rng.standard_normal((128, 96)).astype(np.float32)
        c = rng.standard_normal((128, 128)).astype(np.float32)
        reference = ref_syrk(a, c)
        cw = c.copy()
        res = lib.syrk(a=a, c=cw, tile_size=64)
        assert res.routine == "ssyrk"
        tril = np.tril_indices(128)
        err = np.max(np.abs(cw[tril] - reference[tril]))
        assert err / np.max(np.abs(reference)) < 1e-4

    def test_shape_validation(self, lib, rng):
        a = rng.standard_normal((10, 5))
        with pytest.raises(BlasError):
            lib.syrk(a=a, c=rng.standard_normal((8, 8)))
        with pytest.raises(BlasError):
            lib.syrk(a=a)

    def test_dims_required(self, lib):
        with pytest.raises(BlasError):
            lib.syrk()


class TestSyrkTraffic:
    def test_half_the_gemm_traffic(self, lib):
        """syrk moves ~half the bytes of the equivalent gemm: one input
        matrix instead of two, and only the lower C tiles."""
        n = 4096
        r_syrk = lib.syrk(n, n, tile_size=1024)
        r_gemm = lib.gemm(n, n, n, tile_size=1024)
        assert r_syrk.h2d_bytes < 0.65 * r_gemm.h2d_bytes
        assert r_syrk.d2h_bytes < 0.65 * r_gemm.d2h_bytes

    def test_subkernel_and_tile_counts(self, lib):
        res = lib.syrk(1024, 512, tile_size=256)
        nt, kt = 4, 2
        assert res.kernels == nt * (nt + 1) // 2 * kt
        # h2d: A tiles (4x2) + lower C tiles (10)
        assert res.h2d_transfers == nt * kt + nt * (nt + 1) // 2
        assert res.d2h_transfers == nt * (nt + 1) // 2

    def test_faster_than_equivalent_gemm(self, lib):
        n = 4096
        t_syrk = lib.syrk(n, n).seconds
        t_gemm = lib.gemm(n, n, n).seconds
        assert t_syrk < t_gemm


class TestSyrkModeling:
    def test_problem_counts(self):
        p = syrk_problem(1024, 512)
        assert p.k(256) == 10 * 2
        a, c = p.operands
        assert a.tiles(256) == 4 * 2
        assert c.tiles(256) == 10
        assert p.flops() == 1024.0 * 1025 * 512

    def test_dr_prediction_tracks(self, lib, models):
        p = syrk_problem(6144, 6144)
        for t in candidate_tiles(p, models, clamped=False)[1:4]:
            measured = lib.syrk(6144, 6144, tile_size=t).seconds
            predicted = predict("dr", p, t, models)
            assert abs(predicted - measured) / measured < 0.30, t

    def test_auto_selection(self, lib):
        res = lib.syrk(8192, 8192)
        assert res.tile_size > 0
        assert res.predicted_seconds is not None
        assert abs(res.prediction_error) < 0.25

    def test_tile_choice_cached(self, machine, models):
        lib = CoCoPeLiaLibrary(machine, models)
        lib.syrk(4096, 1024)
        lib.syrk(4096, 1024)
        assert lib.prediction_cache.stats.misses == 1
