"""Property-based tests (hypothesis) on core invariants.

Covered invariants:

* tile grids partition matrices exactly for any (dims, T);
* the duplex link conserves bytes and never beats the bandwidth bound;
* pipelined makespans are bracketed by the per-engine max (below) and
  the serial sum (above);
* tiled gemm equals the reference for arbitrary shapes/tiles/coeffs;
* prediction models are positive and respect the reuse ordering
  DR <= dataloc <= baseline on full-offload problems.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend.cublas import CublasContext
from repro.blas import ref_gemm, relative_error, tolerance_for
from repro.core.exec_model import ExecLookup
from repro.core.instantiation import MachineModels
from repro.core.models import (
    bidirectional_overlap_time,
    predict_baseline,
    predict_bts,
    predict_dataloc,
    predict_dr,
)
from repro.core.params import gemm_problem
from repro.core.transfer_model import LinkModel, TransferFit
from repro.obs.profiler import profile_trace
from repro.runtime.offload import host_operands
from repro.runtime.scheduler import GemmTileScheduler
from repro.runtime.tiles import Grid2D
from repro.sim.device import GpuDevice
from repro.sim.engine import Simulator
from repro.sim.link import Direction, DuplexLink, LinkDirectionConfig
from tests.machines import custom_machine

_slow = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestGridProperties:
    @given(rows=st.integers(1, 500), cols=st.integers(1, 500),
           t=st.integers(1, 600))
    @settings(max_examples=100, deadline=None)
    def test_windows_partition_exactly(self, rows, cols, t):
        g = Grid2D(rows, cols, t)
        seen_area = 0
        for i, j in g:
            (r0, c0), (r, c) = g.tile(i, j)
            assert 0 < r <= t and 0 < c <= t
            assert r0 + r <= rows and c0 + c <= cols
            seen_area += r * c
        assert seen_area == rows * cols

    @given(rows=st.integers(1, 500), t=st.integers(1, 600))
    @settings(max_examples=50, deadline=None)
    def test_tile_counts_ceil(self, rows, t):
        g = Grid2D(rows, rows, t)
        assert g.row_tiles == -(-rows // t)


class TestLinkProperties:
    @given(sizes=st.lists(st.integers(1, 10_000_000), min_size=1,
                          max_size=8),
           directions=st.lists(st.booleans(), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bandwidth_bound_and_byte_conservation(self, sizes, directions):
        sim = Simulator()
        cfg = LinkDirectionConfig(1e-6, 1e9, 1.4)
        link = DuplexLink(sim, cfg, cfg)
        total = {Direction.H2D: 0, Direction.D2H: 0}
        for nbytes, is_h2d in zip(sizes, directions):
            d = Direction.H2D if is_h2d else Direction.D2H
            total[d] += nbytes
            link.submit(d, nbytes)
        sim.run()
        end = sim.now
        for d in Direction:
            stats = link.stats(d)
            assert stats.bytes_moved == total[d]
            # No direction can move bytes faster than its bandwidth.
            if stats.flow_time > 0:
                assert stats.bytes_moved <= 1e9 * stats.flow_time * (1 + 1e-9)
        # Makespan at least the larger direction's ideal time.
        ideal = max(total[d] / 1e9 for d in Direction)
        assert end >= ideal


class TestPipelineBounds:
    @given(m=st.integers(2, 8), n=st.integers(2, 8), k=st.integers(2, 8))
    @_slow
    def test_makespan_bracketed(self, m, n, k):
        """Tiled gemm makespan: max engine busy <= makespan <= sum."""
        t = 128
        problem = gemm_problem(m * t, n * t, k * t)
        device = GpuDevice(custom_machine(noise_sigma=0.0), trace=True)
        ctx = CublasContext(device)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, t, hosts)
        stats = sched.run()
        engines = profile_trace(device.trace).engines
        busy = [engines[e].busy_time for e in ("h2d", "exec", "d2h")]
        assert stats.seconds >= max(busy) - 1e-12
        assert stats.seconds <= sum(busy) + 1e-12
        sched.release()

    @given(m=st.integers(2, 6), k=st.integers(2, 6))
    @_slow
    def test_fetch_once_traffic(self, m, k):
        t = 128
        problem = gemm_problem(m * t, m * t, k * t)
        device = GpuDevice(custom_machine(noise_sigma=0.0))
        ctx = CublasContext(device)
        hosts = host_operands(problem)
        sched = GemmTileScheduler(ctx, problem, t, hosts)
        stats = sched.run()
        expected = sum(op.tiles(t) for op in problem.operands)
        assert stats.h2d_transfers == expected
        sched.release()


class TestNumericalProperties:
    @given(
        m=st.integers(1, 90), n=st.integers(1, 90), k=st.integers(1, 90),
        t=st.integers(8, 128),
        alpha=st.floats(-2.0, 2.0, allow_subnormal=False),
        beta=st.floats(-2.0, 2.0, allow_subnormal=False),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_tiled_gemm_matches_reference(self, m, n, k, t, alpha, beta,
                                          seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = rng.standard_normal((m, n))
        expected = ref_gemm(a, b, c, alpha, beta)
        problem = gemm_problem(m, n, k)
        device = GpuDevice(custom_machine(noise_sigma=0.0))
        ctx = CublasContext(device)
        cw = c.copy()
        hosts = host_operands(problem, (a, b, cw))
        sched = GemmTileScheduler(ctx, problem, t, hosts, alpha=alpha,
                                  beta=beta)
        sched.run()
        assert relative_error(cw, expected) <= max(
            tolerance_for(np.float64, k), 1e-12)
        sched.release()


@pytest.fixture(scope="module")
def synth_models():
    link = LinkModel(
        TransferFit(latency=1e-5, sec_per_byte=1e-9, sl=1.2),
        TransferFit(latency=1e-5, sec_per_byte=2e-9, sl=1.5),
    )
    mm = MachineModels("synthetic", link)
    mm.add_exec_lookup(ExecLookup("gemm", "d", {
        128: 2e-4, 256: 1e-3, 512: 6e-3,
    }))
    return mm


class TestModelProperties:
    @given(
        mt=st.integers(1, 16), nt=st.integers(1, 16), kt=st.integers(1, 16),
        t=st.sampled_from([128, 256, 512]),
    )
    @settings(max_examples=60, deadline=None)
    def test_model_ordering_full_offload(self, synth_models, mt, nt, kt, t):
        p = gemm_problem(mt * t, nt * t, kt * t)
        dr = predict_dr(p, t, synth_models)
        dl = predict_dataloc(p, t, synth_models)
        bl = predict_baseline(p, t, synth_models)
        bts = predict_bts(p, t, synth_models)
        assert 0 < dr <= dl + 1e-12
        assert dl <= bl + 1e-12
        assert dl <= bts + 1e-12

    @given(t_in=st.floats(0.0, 10.0), t_out=st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_overlap_time_bounds(self, synth_models, t_in, t_out):
        link = synth_models.link
        t_over = bidirectional_overlap_time(t_in, t_out, link)
        assert t_over >= max(t_in, t_out) - 1e-12
        assert t_over <= link.h2d.sl * t_in + link.d2h.sl * t_out + 1e-12

    @given(scale=st.integers(1, 6), t=st.sampled_from([128, 256, 512]))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_problem_volume(self, synth_models, scale, t):
        small = gemm_problem(scale * t, scale * t, scale * t)
        large = gemm_problem((scale + 1) * t, (scale + 1) * t, (scale + 1) * t)
        for predictor in (predict_baseline, predict_dataloc, predict_bts,
                          predict_dr):
            assert predictor(large, t, synth_models) > \
                predictor(small, t, synth_models)
