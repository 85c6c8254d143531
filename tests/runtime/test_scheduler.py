"""Tests for the CoCoPeLia tile schedulers: numerics, traffic, timing."""

import numpy as np
import pytest

from repro.backend.cublas import CublasContext
from repro.blas import assert_allclose_blas, ref_axpy, ref_gemm
from repro.core.params import Loc, axpy_problem, gemm_problem
from repro.errors import SchedulerError
from repro.obs.profiler import pair_overlap, profile_trace
from repro.runtime.offload import host_operands
from repro.runtime.scheduler import AxpyTileScheduler, GemmTileScheduler
from repro.sim.device import GpuDevice
from tests.machines import custom_machine


def make_ctx(trace=False):
    return CublasContext(GpuDevice(custom_machine(noise_sigma=0.0),
                                   trace=trace))


def run_gemm_sched(a, b, c, t, locs=(Loc.HOST,) * 3, alpha=1.0, beta=1.0,
                   order="reuse", use_cache=True, trace=False):
    m, k = a.shape
    _, n = b.shape
    problem = gemm_problem(m, n, k, a.dtype, *locs)
    ctx = make_ctx(trace)
    hosts = host_operands(problem, (a, b, c))
    sched = GemmTileScheduler(ctx, problem, t, hosts, alpha=alpha,
                              beta=beta, order=order, use_cache=use_cache)
    stats = sched.run()
    return sched, stats, ctx


class TestGemmNumerics:
    @pytest.mark.parametrize("t", [64, 100, 128, 256])
    def test_matches_reference_various_tiles(self, rng, t):
        a = rng.standard_normal((200, 300))
        b = rng.standard_normal((300, 250))
        c = rng.standard_normal((200, 250))
        expected = ref_gemm(a, b, c, 1.5, 0.5)
        cw = c.copy()
        sched, _, _ = run_gemm_sched(a, b, cw, t, alpha=1.5, beta=0.5)
        assert_allclose_blas(cw, expected, reduction_depth=300)
        sched.release()

    def test_beta_zero(self, rng):
        a = rng.standard_normal((96, 96))
        b = rng.standard_normal((96, 96))
        c = rng.standard_normal((96, 96))
        cw = c.copy()
        sched, _, _ = run_gemm_sched(a, b, cw, 32, beta=0.0)
        assert_allclose_blas(cw, ref_gemm(a, b, c, 1.0, 0.0),
                             reduction_depth=96)
        sched.release()

    @pytest.mark.parametrize("order", ["reuse", "l_outer"])
    def test_traversal_orders_agree(self, rng, order):
        a = rng.standard_normal((128, 160))
        b = rng.standard_normal((160, 96))
        c = rng.standard_normal((128, 96))
        cw = c.copy()
        sched, _, _ = run_gemm_sched(a, b, cw, 64, order=order)
        assert_allclose_blas(cw, ref_gemm(a, b, c), reduction_depth=160)
        sched.release()

    def test_no_cache_still_correct(self, rng):
        a = rng.standard_normal((128, 128))
        b = rng.standard_normal((128, 128))
        c = rng.standard_normal((128, 128))
        cw = c.copy()
        sched, _, _ = run_gemm_sched(a, b, cw, 64, use_cache=False)
        assert_allclose_blas(cw, ref_gemm(a, b, c), reduction_depth=128)
        sched.release()

    def test_device_resident_output(self, rng):
        a = rng.standard_normal((96, 96))
        b = rng.standard_normal((96, 96))
        c = rng.standard_normal((96, 96))
        sched, _, _ = run_gemm_sched(
            a, b, c.copy(), 48, locs=(Loc.HOST, Loc.HOST, Loc.DEVICE))
        out = sched.read_back_device_result()
        assert_allclose_blas(out, ref_gemm(a, b, c), reduction_depth=96)
        sched.release()

    def test_float32(self, rng):
        a = rng.standard_normal((64, 64)).astype(np.float32)
        b = rng.standard_normal((64, 64)).astype(np.float32)
        c = rng.standard_normal((64, 64)).astype(np.float32)
        cw = c.copy()
        sched, _, _ = run_gemm_sched(a, b, cw, 32)
        assert_allclose_blas(cw, ref_gemm(a, b, c), reduction_depth=64)
        sched.release()

    def test_wrong_routine_rejected(self):
        problem = axpy_problem(100)
        ctx = make_ctx()
        hosts = host_operands(problem)
        with pytest.raises(SchedulerError):
            GemmTileScheduler(ctx, problem, 10, hosts)

    def test_unknown_order_rejected(self, rng):
        problem = gemm_problem(64, 64, 64)
        ctx = make_ctx()
        hosts = host_operands(problem)
        with pytest.raises(SchedulerError):
            GemmTileScheduler(ctx, problem, 32, hosts, order="zigzag")


class TestGemmTraffic:
    def test_fetch_once_transfer_counts(self):
        """Reuse: exactly one h2d per tile of each host operand, one d2h
        per output tile."""
        problem_dims = (512, 512, 512)
        t = 128
        a = b = c = None  # timing mode
        problem = gemm_problem(*problem_dims)
        ctx = make_ctx()
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, t, hosts)
        stats = sched.run()
        tiles_per_matrix = (512 // t) ** 2
        assert stats.h2d_transfers == 3 * tiles_per_matrix
        assert stats.d2h_transfers == tiles_per_matrix
        assert stats.kernels == (512 // t) ** 3
        sched.release()

    def test_cache_counters_pinned_for_known_grid(self):
        """256^3 at T=128: 2x2 grids, 8 subkernels.  Each subkernel
        probes A, B, C once (24 probes); 12 unique tiles are fetched,
        so exactly 12 probes find a resident tile."""
        problem = gemm_problem(256, 256, 256)
        ctx = make_ctx()
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 128, hosts)
        sched.run()
        assert sched.cache.fetches == 12
        assert sched.cache.hits == 12
        sched.release()

    def test_bytes_match_operand_sizes(self):
        problem = gemm_problem(512, 768, 256)
        ctx = make_ctx()
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 128, hosts)
        stats = sched.run()
        esize = 8
        expected_in = (512 * 256 + 256 * 768 + 512 * 768) * esize
        assert stats.h2d_bytes == expected_in
        assert stats.d2h_bytes == 512 * 768 * esize
        sched.release()

    def test_device_resident_operands_not_transferred(self):
        problem = gemm_problem(512, 512, 512, loc_a=Loc.DEVICE,
                               loc_c=Loc.DEVICE)
        ctx = make_ctx()
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 128, hosts)
        stats = sched.run()
        tiles = (512 // 128) ** 2
        assert stats.h2d_transfers == tiles  # only B
        assert stats.d2h_transfers == 0      # C stays on device
        sched.release()

    def test_no_cache_refetches_inputs(self):
        problem = gemm_problem(512, 512, 512)
        ctx = make_ctx()
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 128, hosts, use_cache=False)
        stats = sched.run()
        k = 4 ** 3
        # A and B fetched per subkernel; C once per tile.
        assert stats.h2d_transfers == 2 * k + 4 ** 2
        sched.release()

    def test_cache_reduces_time_vs_no_cache(self):
        problem = gemm_problem(1024, 1024, 1024)
        times = {}
        for use_cache in (True, False):
            ctx = make_ctx()
            hosts = host_operands(problem)
            sched = GemmTileScheduler(ctx, problem, 256, hosts,
                                      use_cache=use_cache)
            times[use_cache] = sched.run().seconds
            sched.release()
        assert times[True] < times[False]


class TestGemmTiming:
    def test_overlap_beats_serial_bound(self, check_trace):
        """The pipeline must beat transfers+compute run serially."""
        problem = gemm_problem(1024, 1024, 1024)
        ctx = make_ctx(trace=True)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 256, hosts)
        stats = sched.run()
        trace = ctx.device.trace
        check_trace(trace)
        engines = profile_trace(trace).engines
        serial = (engines["h2d"].busy_time + engines["exec"].busy_time
                  + engines["d2h"].busy_time)
        assert stats.seconds < serial
        sched.release()

    def test_makespan_at_least_each_engine(self, check_trace):
        problem = gemm_problem(1024, 1024, 1024)
        ctx = make_ctx(trace=True)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 256, hosts)
        stats = sched.run()
        trace = ctx.device.trace
        check_trace(trace)
        engines = profile_trace(trace).engines
        for engine in ("h2d", "exec", "d2h"):
            assert stats.seconds >= engines[engine].busy_time - 1e-12
        sched.release()

    def test_transfers_overlap_compute(self, check_trace):
        problem = gemm_problem(1024, 1024, 1024)
        ctx = make_ctx(trace=True)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, 256, hosts)
        sched.run()
        trace = ctx.device.trace
        check_trace(trace)
        report = profile_trace(trace)
        overlap = pair_overlap(report, "h2d", "exec")
        assert overlap > 0.3 * report.engines["h2d"].busy_time
        sched.release()


class TestAxpyScheduler:
    def test_matches_reference(self, rng):
        n = 100_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        expected = ref_axpy(x, y, 2.5)
        problem = axpy_problem(n)
        ctx = make_ctx()
        yw = y.copy()
        hosts = host_operands(problem, (x, yw))
        sched = AxpyTileScheduler(ctx, problem, 1 << 14, hosts, alpha=2.5)
        sched.run()
        assert_allclose_blas(yw, expected)
        sched.release()

    def test_chunk_counts(self):
        problem = axpy_problem(1 << 20)
        ctx = make_ctx()
        hosts = host_operands(problem)
        sched = AxpyTileScheduler(ctx, problem, 1 << 18, hosts)
        stats = sched.run()
        assert stats.kernels == 4
        assert stats.h2d_transfers == 8   # x and y per chunk
        assert stats.d2h_transfers == 4   # y per chunk
        sched.release()

    def test_y_device_resident(self, rng):
        n = 50_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        problem = axpy_problem(n, loc_y=Loc.DEVICE)
        ctx = make_ctx()
        hosts = host_operands(problem, (x, y.copy()))
        sched = AxpyTileScheduler(ctx, problem, 1 << 14, hosts, alpha=3.0)
        stats = sched.run()
        assert stats.d2h_transfers == 0
        out = sched.read_back_device_result()
        assert_allclose_blas(out, ref_axpy(x, y, 3.0))
        sched.release()

    def test_wrong_routine_rejected(self):
        problem = gemm_problem(64, 64, 64)
        ctx = make_ctx()
        hosts = host_operands(problem)
        with pytest.raises(SchedulerError):
            AxpyTileScheduler(ctx, problem, 32, hosts)

    def test_missing_operand_rejected(self):
        problem = axpy_problem(1000)
        ctx = make_ctx()
        with pytest.raises(SchedulerError, match="missing source"):
            AxpyTileScheduler(ctx, problem, 100,
                              {"x": host_operands(problem)["x"]})
