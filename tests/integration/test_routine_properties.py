"""Property-based numerics for the extension routines (gemv, syrk) and
cross-routine consistency checks."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.cublas import CublasContext
from repro.blas import ref_gemv, ref_syrk, relative_error, tolerance_for
from repro.core.params import gemv_problem, syrk_problem
from repro.runtime.offload import host_operands
from repro.runtime.scheduler import GemvTileScheduler, SyrkTileScheduler
from repro.sim.device import GpuDevice
from tests.machines import custom_machine

_settings = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _device():
    return GpuDevice(custom_machine(noise_sigma=0.0))


class TestGemvProperties:
    @given(m=st.integers(1, 120), n=st.integers(1, 120),
           t=st.integers(8, 96), seed=st.integers(0, 1 << 16))
    @_settings
    def test_tiled_gemv_matches_reference(self, m, n, t, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        y = rng.standard_normal(m)
        expected = ref_gemv(a, x, y, 1.5, -0.5)
        problem = gemv_problem(m, n)
        ctx = CublasContext(_device())
        yw = y.copy()
        hosts = host_operands(problem, (a, x, yw))
        sched = GemvTileScheduler(ctx, problem, t, hosts, alpha=1.5,
                                  beta=-0.5)
        sched.run()
        assert relative_error(yw, expected) <= max(
            tolerance_for(np.float64, n), 1e-12)
        sched.release()


class TestSyrkProperties:
    @given(n=st.integers(1, 100), k=st.integers(1, 100),
           t=st.integers(8, 80), seed=st.integers(0, 1 << 16))
    @_settings
    def test_tiled_syrk_matches_reference_lower(self, n, k, t, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, k))
        c = rng.standard_normal((n, n))
        expected = ref_syrk(a, c, 2.0, 0.5)
        problem = syrk_problem(n, k)
        ctx = CublasContext(_device())
        cw = c.copy()
        hosts = host_operands(problem, (a, cw))
        sched = SyrkTileScheduler(ctx, problem, t, hosts, alpha=2.0,
                                  beta=0.5)
        sched.run()
        tril = np.tril_indices(n)
        err = np.max(np.abs(cw[tril] - expected[tril]))
        denom = max(float(np.max(np.abs(expected))), 1e-30)
        assert err / denom <= max(tolerance_for(np.float64, k), 1e-12)
        sched.release()

    @given(n=st.integers(2, 16), kt=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_subkernel_count_formula(self, n, kt):
        t = 64
        problem = syrk_problem(n * t, kt * t)
        assert problem.k(t) == n * (n + 1) // 2 * kt

    @given(n=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_triangular_tiles_fewer_than_dense(self, n):
        t = 64
        problem = syrk_problem(n * t, t)
        c_tiles = problem.operands[1].tiles(t)
        assert c_tiles == n * (n + 1) // 2
        assert c_tiles <= n * n


class TestSyrkGemmConsistency:
    def test_syrk_equals_gemm_with_transposed_copy(self, tb2, models_tb2,
                                                   rng):
        """syrk(A) lower triangle == gemm(A, A^T) lower triangle."""
        from repro.runtime import CoCoPeLiaLibrary

        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        a = rng.standard_normal((200, 120))
        c = rng.standard_normal((200, 200))
        c_syrk = c.copy()
        lib.syrk(a=a, c=c_syrk, alpha=1.0, beta=1.0, tile_size=64)
        c_gemm = c.copy()
        lib.gemm(a=a, b=np.ascontiguousarray(a.T), c=c_gemm, tile_size=64)
        tril = np.tril_indices(200)
        np.testing.assert_allclose(c_syrk[tril], c_gemm[tril], rtol=1e-10)
