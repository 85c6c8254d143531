"""Tests for the comparator libraries: cuBLASXt-like, BLASX-like,
unified-memory daxpy, serial offload."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    BlasXLibrary,
    CublasXtLibrary,
    SerialOffloadLibrary,
    UnifiedMemoryLibrary,
)
from repro.blas import assert_allclose_blas, ref_axpy, ref_gemm
from repro.core import Loc
from repro.errors import BlasError
from repro.runtime import CoCoPeLiaLibrary
from repro.sim.machine import get_testbed
from tests.machines import custom_machine


@pytest.fixture(scope="module")
def machine():
    return custom_machine(noise_sigma=0.0)


@pytest.fixture()
def abc(rng):
    a = rng.standard_normal((200, 300))
    b = rng.standard_normal((300, 150))
    c = rng.standard_normal((200, 150))
    return a, b, c


class TestCublasXtNumerics:
    @pytest.mark.parametrize("nstreams", [1, 2, 4])
    def test_matches_reference(self, machine, abc, nstreams):
        a, b, c = abc
        expected = ref_gemm(a, b, c, 1.2, 0.7)
        xt = CublasXtLibrary(machine, nstreams=nstreams)
        cw = c.copy()
        xt.gemm(a=a, b=b, c=cw, alpha=1.2, beta=0.7, tile_size=64)
        assert_allclose_blas(cw, expected, reduction_depth=300)

    @pytest.mark.parametrize("locs", [
        (Loc.DEVICE, Loc.HOST, Loc.HOST),
        (Loc.HOST, Loc.DEVICE, Loc.HOST),
        (Loc.DEVICE, Loc.DEVICE, Loc.HOST),
        (Loc.HOST, Loc.HOST, Loc.DEVICE),
        (Loc.DEVICE, Loc.DEVICE, Loc.DEVICE),
    ])
    def test_locations(self, machine, abc, locs):
        a, b, c = abc
        expected = ref_gemm(a, b, c)
        xt = CublasXtLibrary(machine)
        cw = c.copy()
        res = xt.gemm(a=a, b=b, c=cw, tile_size=100,
                      loc_a=locs[0], loc_b=locs[1], loc_c=locs[2])
        out = res.output if locs[2] is Loc.DEVICE else cw
        assert_allclose_blas(out, expected, reduction_depth=300)

    def test_edge_tiles(self, machine, rng):
        a = rng.standard_normal((130, 70))
        b = rng.standard_normal((70, 95))
        c = rng.standard_normal((130, 95))
        expected = ref_gemm(a, b, c)
        xt = CublasXtLibrary(machine)
        xt.gemm(a=a, b=b, c=c, tile_size=64)
        assert_allclose_blas(c, expected, reduction_depth=70)


class TestCublasXtTraffic:
    def test_no_input_reuse(self, machine):
        """cuBLASXt re-fetches A and B per subkernel and round-trips C."""
        xt = CublasXtLibrary(machine)
        res = xt.gemm(512, 512, 512, tile_size=128)
        k = 4 ** 3
        assert res.h2d_transfers == 3 * k
        assert res.d2h_transfers == k

    def test_transfers_exceed_reuse_library(self, machine, models_quiet):
        cc = CoCoPeLiaLibrary(machine, models_quiet)
        xt = CublasXtLibrary(machine)
        r_cc = cc.gemm(1024, 1024, 1024, tile_size=256)
        r_xt = xt.gemm(1024, 1024, 1024, tile_size=256)
        assert r_xt.h2d_bytes > 2 * r_cc.h2d_bytes

    def test_tile_clamped_to_problem(self, machine):
        xt = CublasXtLibrary(machine)
        res = xt.gemm(512, 512, 512, tile_size=4096)
        assert res.tile_size == 512
        assert res.kernels == 1

    def test_dims_required(self, machine):
        with pytest.raises(BlasError):
            CublasXtLibrary(machine).gemm(m=None)

    def test_worker_pool_leaves_room_for_resident_operands(self):
        """Device-resident A and B (64 MiB) plus four 12 MiB worker
        pools overflow a 100 MiB GPU; the pool must shrink to fit."""
        tb = dataclasses.replace(get_testbed("testbed_i"),
                                 gpu_mem_bytes=100 << 20)
        xt = CublasXtLibrary(tb)
        res = xt.gemm(2048, 2048, 2048, tile_size=512,
                      loc_a=Loc.DEVICE, loc_b=Loc.DEVICE)
        assert res.kernels == 4 ** 3
        assert res.h2d_transfers == res.d2h_transfers == 4 ** 3


class TestBlasX:
    def test_matches_reference(self, machine, abc):
        a, b, c = abc
        expected = ref_gemm(a, b, c, 0.5, 2.0)
        bx = BlasXLibrary(machine, tile_size=64)
        bx.gemm(a=a, b=b, c=c, alpha=0.5, beta=2.0)
        assert_allclose_blas(c, expected, reduction_depth=300)

    def test_static_tile_default(self, machine):
        bx = BlasXLibrary(machine)
        res = bx.gemm(4096, 4096, 4096)
        assert res.tile_size == 2048

    def test_static_tile_clamped_to_small_problems(self, machine):
        bx = BlasXLibrary(machine)
        res = bx.gemm(1024, 1024, 1024)
        assert res.tile_size == 1024

    def test_reuses_tiles(self, machine):
        bx = BlasXLibrary(machine, tile_size=128)
        res = bx.gemm(512, 512, 512)
        assert res.h2d_transfers == 3 * 16
        assert res.d2h_transfers == 16

    def test_faster_than_cublasxt_on_transfer_heavy(self, machine):
        """BLASX's reuse wins on fat-by-thin shapes (paper Fig. 7)."""
        bx = BlasXLibrary(machine)
        xt = CublasXtLibrary(machine)
        m, n, k = 4096, 4096, 512
        t_bx = bx.gemm(m, n, k).seconds
        t_xt = min(xt.gemm(m, n, k, tile_size=t).seconds
                   for t in (512, 1024, 2048))
        assert t_bx < t_xt


class TestUnifiedMemory:
    def test_matches_reference(self, machine, rng):
        x = rng.standard_normal(100_000)
        y = rng.standard_normal(100_000)
        expected = ref_axpy(x, y, 1.5)
        um = UnifiedMemoryLibrary(machine)
        um.axpy(x=x, y=y, alpha=1.5)
        assert_allclose_blas(y, expected)

    def test_slower_than_cocopelia(self, machine, models_quiet):
        cc = CoCoPeLiaLibrary(machine, models_quiet)
        um = UnifiedMemoryLibrary(machine)
        n = 32 << 20
        t_cc = cc.axpy(n).seconds
        t_um = um.axpy(n).seconds
        assert t_um > t_cc

    def test_degraded_bandwidth_factor(self, machine):
        um = UnifiedMemoryLibrary(machine)
        assert um._um_machine.h2d.bandwidth == pytest.approx(
            machine.h2d.bandwidth * machine.um_bandwidth_factor)

    def test_requires_both_vectors(self, machine, rng):
        with pytest.raises(BlasError):
            UnifiedMemoryLibrary(machine).axpy(x=rng.standard_normal(10))


class TestSerial:
    def test_gemm_matches_reference(self, machine, abc):
        a, b, c = abc
        expected = ref_gemm(a, b, c, 1.1, 0.9)
        sl = SerialOffloadLibrary(machine)
        sl.gemm(a=a, b=b, c=c, alpha=1.1, beta=0.9)
        assert_allclose_blas(c, expected, reduction_depth=300)

    def test_axpy_matches_reference(self, machine, rng):
        x = rng.standard_normal(10_000)
        y = rng.standard_normal(10_000)
        expected = ref_axpy(x, y, 4.0)
        SerialOffloadLibrary(machine).axpy(x=x, y=y, alpha=4.0)
        assert_allclose_blas(y, expected)

    def test_single_kernel(self, machine):
        res = SerialOffloadLibrary(machine).gemm(512, 512, 512)
        assert res.kernels == 1

    def test_time_is_sum_of_phases(self, machine):
        """No overlap: makespan equals transfers + kernel exactly."""
        res = SerialOffloadLibrary(machine).gemm(512, 512, 512)
        in_bytes = 3 * 512 * 512 * 8
        out_bytes = 512 * 512 * 8
        t_in = 3 * machine.h2d.latency + in_bytes / machine.h2d.bandwidth
        t_out = machine.d2h.latency + out_bytes / machine.d2h.bandwidth
        t_k = machine.kernels.gemm_time(512, 512, 512, np.float64)
        assert res.seconds == pytest.approx(t_in + t_k + t_out, rel=1e-9)

    def test_overlap_libraries_beat_serial(self, machine, models_quiet):
        cc = CoCoPeLiaLibrary(machine, models_quiet)
        sl = SerialOffloadLibrary(machine)
        t_cc = cc.gemm(2048, 2048, 2048).seconds
        t_sl = sl.gemm(2048, 2048, 2048).seconds
        assert t_cc < t_sl

    def test_device_resident_skips_transfers(self, machine):
        sl = SerialOffloadLibrary(machine)
        res = sl.gemm(512, 512, 512, loc_a=Loc.DEVICE, loc_b=Loc.DEVICE,
                      loc_c=Loc.DEVICE)
        assert res.h2d_transfers == 0
        assert res.d2h_transfers == 0

    def test_gemm_reports_counted_traffic(self, machine):
        res = SerialOffloadLibrary(machine).gemm(512, 512, 512)
        assert res.h2d_bytes == 3 * 512 * 512 * 8
        assert res.h2d_transfers == 3
        assert res.d2h_bytes == 512 * 512 * 8
        assert res.d2h_transfers == 1

    def test_gemm_device_resident_c_traffic(self, machine):
        res = SerialOffloadLibrary(machine).gemm(512, 512, 512,
                                                 loc_c=Loc.DEVICE)
        assert res.h2d_transfers == 2
        assert res.h2d_bytes == 2 * 512 * 512 * 8
        assert res.d2h_transfers == 0
        assert res.d2h_bytes == 0

    def test_axpy_reports_counted_traffic(self, machine):
        n = 1 << 16
        res = SerialOffloadLibrary(machine).axpy(n)
        assert res.h2d_bytes == 2 * n * 8
        assert res.h2d_transfers == 2
        assert res.d2h_bytes == n * 8
        assert res.d2h_transfers == 1
        dev_y = SerialOffloadLibrary(machine).axpy(n, loc_y=Loc.DEVICE)
        assert dev_y.h2d_transfers == 1
        assert dev_y.h2d_bytes == n * 8
        assert dev_y.d2h_transfers == 0
        assert dev_y.d2h_bytes == 0
