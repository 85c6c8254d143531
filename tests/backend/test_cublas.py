"""Tests for the cuBLAS-like backend: transfers, kernels, views."""

import numpy as np
import pytest

from repro.backend.cublas import CublasContext, MatrixView
from repro.errors import BlasError, SimulationError
from repro.sim.device import GpuDevice
from tests.machines import custom_machine
from repro.sim.memory import HostArray


@pytest.fixture()
def ctx():
    return CublasContext(GpuDevice(custom_machine(noise_sigma=0.0)))


@pytest.fixture()
def host_mat(rng):
    return HostArray.wrap(rng.standard_normal((20, 30)), name="M")


class TestMatrixTransfers:
    def test_round_trip_preserves_data(self, ctx, host_mat):
        dst = ctx.alloc((20, 30), np.float64, with_data=True)
        s = ctx.device.create_stream()
        ctx.set_async(host_mat, (0, 0), dst, s)
        out_host = HostArray.wrap(np.zeros((20, 30)), name="out")
        ctx.get_async(dst, out_host, (0, 0), s)
        ctx.device.synchronize()
        np.testing.assert_array_equal(out_host.array, host_mat.array)

    def test_window_transfer(self, ctx, host_mat):
        dst = ctx.alloc((5, 7), np.float64, with_data=True)
        s = ctx.device.create_stream()
        ctx.set_async(host_mat, (10, 20), dst, s)
        ctx.device.synchronize()
        np.testing.assert_array_equal(
            dst.array, host_mat.array[10:15, 20:27]
        )

    def test_out_of_bounds_window_rejected(self, ctx, host_mat):
        dst = ctx.alloc((10, 10), np.float64)
        s = ctx.device.create_stream()
        with pytest.raises(SimulationError):
            ctx.set_async(host_mat, (15, 25), dst, s)

    def test_unpinned_host_rejected(self, ctx, rng):
        host = HostArray.wrap(rng.standard_normal((4, 4)), pinned=False)
        dst = ctx.alloc((4, 4), np.float64)
        s = ctx.device.create_stream()
        with pytest.raises(BlasError, match="pinned"):
            ctx.set_async(host, (0, 0), dst, s)

    def test_timing_mode_moves_no_data(self, ctx):
        host = HostArray.shadow((16, 16), np.float64)
        dst = ctx.alloc((16, 16), np.float64)
        s = ctx.device.create_stream()
        ctx.set_async(host, (0, 0), dst, s)
        end = ctx.device.synchronize()
        assert dst.array is None
        assert end > 0.0

    def test_transfer_duration_matches_bytes(self, ctx):
        host = HostArray.shadow((1000, 1000), np.float64)
        dst = ctx.alloc((1000, 1000), np.float64)
        s = ctx.device.create_stream()
        ctx.set_async(host, (0, 0), dst, s)
        end = ctx.device.synchronize()
        cfg = ctx.device.config.h2d
        assert end == pytest.approx(
            cfg.latency + 8_000_000 / cfg.bandwidth, rel=1e-9)

    def test_vector_round_trip(self, ctx, rng):
        data = rng.standard_normal(1000)
        host = HostArray.wrap(data)
        vec = ctx.alloc((100,), np.float64, with_data=True)
        s = ctx.device.create_stream()
        ctx.set_async(host, (500,), vec, s)
        out = HostArray.wrap(np.zeros(1000))
        ctx.get_async(vec, out, (500,), s)
        ctx.device.synchronize()
        np.testing.assert_array_equal(out.array[500:600], data[500:600])
        assert np.all(out.array[:500] == 0)

    def test_vector_span_out_of_bounds(self, ctx, rng):
        host = HostArray.wrap(rng.standard_normal(100))
        vec = ctx.alloc((50,), np.float64)
        s = ctx.device.create_stream()
        with pytest.raises(SimulationError):
            ctx.set_async(host, (80,), vec, s)

    def test_out_of_bounds_messages_name_the_block(self, ctx, host_mat, rng):
        s = ctx.device.create_stream()
        with pytest.raises(SimulationError, match=(
                r"transfer window \[15:25, 25:35\] outside host operand M "
                r"of shape \(20, 30\)")):
            ctx.get_async(ctx.alloc((10, 10), np.float64), host_mat,
                          (15, 25), s)
        host = HostArray.wrap(rng.standard_normal(100), name="v")
        with pytest.raises(SimulationError, match=(
                r"transfer span \[80:130\] outside host operand v "
                r"of length 100")):
            ctx.get_async(ctx.alloc((50,), np.float64), host, (80,), s)

    def test_rank_mismatch_rejected(self, ctx, host_mat, rng):
        s = ctx.device.create_stream()
        with pytest.raises(BlasError,
                           match="matrix transfer on non-matrix host "
                                 "operand v"):
            ctx.set_async(HostArray.wrap(rng.standard_normal(100), name="v"),
                          (0, 0), ctx.alloc((4, 4), np.float64), s)
        with pytest.raises(BlasError,
                           match="vector transfer on non-vector host "
                                 "operand M"):
            ctx.set_async(host_mat, (0,), ctx.alloc((4,), np.float64), s)

    def test_default_tag_joins_the_origin(self):
        device = GpuDevice(custom_machine(noise_sigma=0.0), trace=True)
        ctx = CublasContext(device)
        s = device.create_stream()
        mat = HostArray.shadow((20, 30), np.float64, name="M")
        vec = HostArray.shadow((100,), np.float64, name="v")
        ctx.set_async(mat, (10, 20), ctx.alloc((5, 7), np.float64), s)
        ctx.get_async(ctx.alloc((50,), np.float64), vec, (40,), s)
        device.synchronize()
        assert [ev.tag for ev in device.trace.events] == [
            "h2d:M[10,20]", "d2h:v[40]"]


class TestGemmKernel:
    def test_computes_correctly(self, ctx, rng):
        a = ctx.alloc((4, 5), np.float64, with_data=True)
        b = ctx.alloc((5, 6), np.float64, with_data=True)
        c = ctx.alloc((4, 6), np.float64, with_data=True)
        a.array[:] = rng.standard_normal((4, 5))
        b.array[:] = rng.standard_normal((5, 6))
        c.array[:] = rng.standard_normal((4, 6))
        expected = 2.0 * (a.array @ b.array) + 0.5 * c.array
        s = ctx.device.create_stream()
        ctx.gemm_async(a, b, c, s, alpha=2.0, beta=0.5)
        ctx.device.synchronize()
        np.testing.assert_allclose(c.array, expected)

    def test_duration_from_machine_model(self, ctx):
        a = ctx.alloc((512, 512), np.float64)
        b = ctx.alloc((512, 512), np.float64)
        c = ctx.alloc((512, 512), np.float64)
        s = ctx.device.create_stream()
        ctx.gemm_async(a, b, c, s)
        end = ctx.device.synchronize()
        expected = ctx.device.config.kernels.gemm_time(512, 512, 512,
                                                       np.float64)
        assert end == pytest.approx(expected, rel=1e-9)

    def test_dim_mismatch_rejected(self, ctx):
        a = ctx.alloc((4, 5), np.float64)
        b = ctx.alloc((6, 7), np.float64)
        c = ctx.alloc((4, 7), np.float64)
        s = ctx.device.create_stream()
        with pytest.raises(BlasError):
            ctx.gemm_async(a, b, c, s)

    def test_dtype_mismatch_rejected(self, ctx):
        a = ctx.alloc((4, 4), np.float64)
        b = ctx.alloc((4, 4), np.float32)
        c = ctx.alloc((4, 4), np.float64)
        s = ctx.device.create_stream()
        with pytest.raises(BlasError):
            ctx.gemm_async(a, b, c, s)

    def test_float32_kernel_faster_than_float64(self, ctx):
        times = {}
        for dtype in (np.float64, np.float32):
            dev = GpuDevice(custom_machine(noise_sigma=0.0))
            cx = CublasContext(dev)
            mats = [cx.alloc((1024, 1024), dtype) for _ in range(3)]
            s = dev.create_stream()
            cx.gemm_async(*mats, s)
            times[np.dtype(dtype).name] = dev.synchronize()
        assert times["float32"] < times["float64"]


class TestAxpyKernel:
    def test_computes_correctly(self, ctx, rng):
        x = ctx.alloc((100,), np.float64, with_data=True)
        y = ctx.alloc((100,), np.float64, with_data=True)
        x.array[:] = rng.standard_normal(100)
        y.array[:] = rng.standard_normal(100)
        expected = 3.0 * x.array + y.array
        s = ctx.device.create_stream()
        ctx.axpy_async(x, y, s, alpha=3.0)
        ctx.device.synchronize()
        np.testing.assert_allclose(y.array, expected)

    def test_length_mismatch_rejected(self, ctx):
        x = ctx.alloc((10,), np.float64)
        y = ctx.alloc((20,), np.float64)
        s = ctx.device.create_stream()
        with pytest.raises(BlasError):
            ctx.axpy_async(x, y, s)


class TestMatrixView:
    def test_view_window(self, ctx, rng):
        base = ctx.alloc((10, 10), np.float64, with_data=True)
        base.array[:] = rng.standard_normal((10, 10))
        view = MatrixView(base, (4, 6))
        np.testing.assert_array_equal(view.array, base.array[:4, :6])

    def test_view_writes_through(self, ctx):
        base = ctx.alloc((10, 10), np.float64, with_data=True)
        view = MatrixView(base, (3, 3))
        view.array[:] = 7.0
        assert np.all(base.array[:3, :3] == 7.0)
        assert np.all(base.array[3:, :] == 0.0)

    def test_oversized_view_rejected(self, ctx):
        base = ctx.alloc((10, 10), np.float64)
        with pytest.raises(BlasError):
            MatrixView(base, (11, 5))

    def test_gemm_on_views(self, ctx, rng):
        """Edge tiles as views of full slots compute correctly."""
        a = ctx.alloc((8, 8), np.float64, with_data=True)
        b = ctx.alloc((8, 8), np.float64, with_data=True)
        c = ctx.alloc((8, 8), np.float64, with_data=True)
        a.array[:] = rng.standard_normal((8, 8))
        b.array[:] = rng.standard_normal((8, 8))
        va = MatrixView(a, (3, 5))
        vb = MatrixView(b, (5, 4))
        vc = MatrixView(c, (3, 4))
        s = ctx.device.create_stream()
        ctx.gemm_async(va, vb, vc, s, alpha=1.0, beta=0.0)
        ctx.device.synchronize()
        np.testing.assert_allclose(
            c.array[:3, :4], a.array[:3, :5] @ b.array[:5, :4]
        )

    def test_transfer_into_view(self, ctx, host_mat):
        base = ctx.alloc((10, 10), np.float64, with_data=True)
        view = MatrixView(base, (5, 5))
        s = ctx.device.create_stream()
        ctx.set_async(host_mat, (2, 3), view, s)
        ctx.device.synchronize()
        np.testing.assert_array_equal(
            base.array[:5, :5], host_mat.array[2:7, 3:8]
        )


class TestAllocation:
    def test_matrix_bytes_accounted(self, ctx):
        before = ctx.device.mem_free
        m = ctx.alloc((100, 200), np.float64)
        assert before - ctx.device.mem_free == 100 * 200 * 8
        ctx.device.free(m)
        assert ctx.device.mem_free == before

    def test_float32_half_bytes(self, ctx):
        m64 = ctx.alloc((64, 64), np.float64)
        m32 = ctx.alloc((64, 64), np.float32)
        assert m64.nbytes == 2 * m32.nbytes

    def test_non_positive_dims_rejected(self, ctx):
        with pytest.raises(BlasError):
            ctx.alloc((0, 5), np.float64)
        with pytest.raises(BlasError):
            ctx.alloc((-1,), np.float64)

    def test_use_after_free_detected(self, ctx, host_mat):
        dst = ctx.alloc((4, 4), np.float64, with_data=True)
        s = ctx.device.create_stream()
        ctx.set_async(host_mat, (0, 0), dst, s)
        ctx.device.free(dst)
        with pytest.raises(SimulationError, match="use-after-free"):
            ctx.device.synchronize()
