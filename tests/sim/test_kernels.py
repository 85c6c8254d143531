"""Unit tests for the ground-truth kernel time models."""

import numpy as np
import pytest

from repro.errors import BlasError
from repro.sim.kernels import AxpyTimeModel, GemmTimeModel, KernelModelSet
from repro.units import from_gb_per_s, from_tflops


@pytest.fixture()
def gemm():
    return GemmTimeModel(peak_flops=from_tflops(4.0), spike_amp=0.0)


@pytest.fixture()
def axpy():
    return AxpyTimeModel(mem_bandwidth=from_gb_per_s(400.0))


class TestGemmModel:
    def test_time_positive(self, gemm):
        assert gemm.time(256, 256, 256) > 0

    def test_time_increases_with_each_dim(self, gemm):
        base = gemm.time(1024, 1024, 1024)
        assert gemm.time(2048, 1024, 1024) > base
        assert gemm.time(1024, 2048, 1024) > base
        assert gemm.time(1024, 1024, 2048) > base

    def test_efficiency_bounded(self, gemm):
        for t in (64, 128, 512, 2048, 8192):
            eff = gemm.efficiency(t, t, t)
            assert 0.0 < eff <= gemm.max_eff

    def test_efficiency_improves_with_size(self, gemm):
        effs = [gemm.efficiency(t, t, t) for t in (128, 256, 512, 1024, 4096)]
        assert effs == sorted(effs)

    def test_small_tiles_underutilize(self, gemm):
        # The paper's third non-linearity: tiny subproblems are slow.
        assert gemm.efficiency(128, 128, 128) < 0.5 * gemm.efficiency(
            4096, 4096, 4096)

    def test_shape_dependence(self, gemm):
        """Equal-flops problems of different shape differ in time (the
        paper's second non-linearity)."""
        square = gemm.time(1024, 1024, 1024)
        flat = gemm.time(8192, 8192, 16)  # same flops, thin K
        assert flat > 1.5 * square

    def test_launch_overhead_floor(self, gemm):
        assert gemm.time(1, 1, 1) >= gemm.launch_overhead

    def test_quantization_penalty(self, gemm):
        """A dim just past a block boundary wastes padded work."""
        aligned = gemm.efficiency(1024, 1024, 1024)
        misaligned = gemm.efficiency(1024 + 1, 1024, 1024)
        assert misaligned < aligned

    def test_spikes_deterministic(self):
        g = GemmTimeModel(peak_flops=from_tflops(4.0), spike_amp=0.08)
        assert g.time(1000, 1000, 1000) == g.time(1000, 1000, 1000)

    def test_spikes_change_shape_relation(self):
        smooth = GemmTimeModel(peak_flops=from_tflops(4.0), spike_amp=0.0)
        spiky = GemmTimeModel(peak_flops=from_tflops(4.0), spike_amp=0.08)
        # The wobble perturbs at least some sizes away from the smooth curve.
        diffs = [
            abs(spiky.time(t, t, t) - smooth.time(t, t, t)) / smooth.time(t, t, t)
            for t in range(512, 4096, 512)
        ]
        assert max(diffs) > 0.01

    def test_non_positive_dims_rejected(self, gemm):
        with pytest.raises(BlasError):
            gemm.time(0, 10, 10)
        with pytest.raises(BlasError):
            gemm.efficiency(10, -1, 10)

    def test_asymptotic_rate_near_peak(self, gemm):
        t = 16384
        secs = gemm.time(t, t, t)
        rate = 2.0 * t**3 / secs
        assert rate > 0.9 * gemm.max_eff * gemm.peak_flops


class TestAxpyModel:
    def test_linear_in_n_for_large_n(self, axpy):
        t1 = axpy.time(1 << 24, np.float64)
        t2 = axpy.time(1 << 25, np.float64)
        assert t2 / t1 == pytest.approx(2.0, rel=0.05)

    def test_dtype_scaling(self, axpy):
        t64 = axpy.time(1 << 24, np.float64)
        t32 = axpy.time(1 << 24, np.float32)
        assert t64 / t32 == pytest.approx(2.0, rel=0.01)

    def test_small_vectors_inefficient(self, axpy):
        assert axpy.efficiency(1 << 10) < 0.1 * axpy.efficiency(1 << 26)

    def test_non_positive_rejected(self, axpy):
        with pytest.raises(BlasError):
            axpy.time(0, np.float64)

    def test_memory_bound_rate(self, axpy):
        n = 1 << 26
        secs = axpy.time(n, np.float64)
        achieved = 3 * n * 8 / secs
        assert achieved <= axpy.mem_bandwidth
        assert achieved > 0.8 * axpy.max_eff * axpy.mem_bandwidth


class TestKernelModelSet:
    def test_dispatch_by_dtype(self):
        f64 = GemmTimeModel(peak_flops=from_tflops(2.0), spike_amp=0.0)
        f32 = GemmTimeModel(peak_flops=from_tflops(4.0), spike_amp=0.0)
        ax = AxpyTimeModel(mem_bandwidth=from_gb_per_s(100.0))
        ks = KernelModelSet(f64, f32, ax)
        assert ks.gemm(np.float64) is f64
        assert ks.gemm(np.float32) is f32
        assert ks.gemm_time(512, 512, 512, np.float32) < ks.gemm_time(
            512, 512, 512, np.float64)

    def test_axpy_time_passthrough(self):
        ax = AxpyTimeModel(mem_bandwidth=from_gb_per_s(100.0))
        ks = KernelModelSet(
            GemmTimeModel(peak_flops=1e12), GemmTimeModel(peak_flops=2e12), ax
        )
        assert ks.axpy_time(1 << 20, np.float64) == ax.time(1 << 20, np.float64)

    def test_memoized_gemm_time_matches_model(self):
        spiky = KernelModelSet(
            GemmTimeModel(peak_flops=from_tflops(7.0), spike_amp=0.1),
            GemmTimeModel(peak_flops=from_tflops(14.0), spike_amp=0.1),
            AxpyTimeModel(mem_bandwidth=from_gb_per_s(800.0)))
        slow = spiky.scaled(1.7)
        dims = [64, 128, 1000, 1024, 2048, 4000]
        shapes = [(d, d, d) for d in dims] + [
            (m, n, k) for m in (100, 1024) for n in (129, 2048)
            for k in (33, 4000)]
        for ks in (spiky, slow):
            for dtype in (np.float64, np.float32):
                for _ in range(2):  # the second pass reads the memo
                    for m, n, k in shapes:
                        assert ks.gemm_time(m, n, k, dtype) == \
                            ks.gemm(dtype).time(m, n, k)
        assert slow.gemm_time(1024, 1024, 1024, np.float64) == \
            pytest.approx(1.7 * spiky.gemm_time(1024, 1024, 1024, np.float64),
                          rel=0.01)
