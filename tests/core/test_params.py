"""Tests for the Table-I parameter struct (CoCoProblem)."""

import numpy as np
import pytest

from repro.core.params import (
    CoCoProblem,
    Loc,
    axpy_problem,
    gemm_problem,
    gemv_problem,
    prefix_for,
)
from repro.errors import ModelError


class TestGemmProblem:
    def test_dims_and_operands(self):
        p = gemm_problem(100, 200, 300)
        assert p.dims == (100, 200, 300)
        assert [op.name for op in p.operands] == ["A", "B", "C"]
        a, b, c = p.operands
        assert (a.s1, a.s2) == (100, 300)
        assert (b.s1, b.s2) == (300, 200)
        assert (c.s1, c.s2) == (100, 200)

    def test_get_set_flags_full_offload(self):
        p = gemm_problem(64, 64, 64)
        assert [op.get for op in p.operands] == [True, True, True]
        assert [op.set for op in p.operands] == [False, False, True]

    def test_get_set_flags_device_resident(self):
        p = gemm_problem(64, 64, 64, loc_a=Loc.DEVICE, loc_c=Loc.DEVICE)
        a, b, c = p.operands
        assert not a.get  # already on device
        assert b.get
        assert not c.get
        assert not c.set  # output stays on device

    def test_k_subkernel_count(self):
        p = gemm_problem(1024, 2048, 512)
        assert p.k(512) == 2 * 4 * 1

    def test_k_ceil_division(self):
        p = gemm_problem(1000, 1000, 1000)
        assert p.k(512) == 2 * 2 * 2

    def test_tiles_per_operand(self):
        p = gemm_problem(1024, 2048, 512)
        a, b, c = p.operands
        assert a.tiles(512) == 2 * 1
        assert b.tiles(512) == 1 * 4
        assert c.tiles(512) == 2 * 4

    def test_tile_bytes_square(self):
        p = gemm_problem(1024, 1024, 1024, np.float64)
        assert p.tile_bytes(256) == 256 * 256 * 8

    def test_tile_bytes_float32(self):
        p = gemm_problem(1024, 1024, 1024, np.float32)
        assert p.tile_bytes(256) == 256 * 256 * 4

    def test_flops(self):
        p = gemm_problem(10, 20, 30)
        assert p.flops() == 2.0 * 10 * 20 * 30

    def test_signature_distinguishes_locations(self):
        p1 = gemm_problem(64, 64, 64)
        p2 = gemm_problem(64, 64, 64, loc_a=Loc.DEVICE)
        assert p1.signature() != p2.signature()

    def test_signature_equal_for_same_problem(self):
        assert gemm_problem(64, 64, 64).signature() == \
            gemm_problem(64, 64, 64).signature()

    def test_describe_readable(self):
        p = gemm_problem(64, 128, 256, np.float32, loc_c=Loc.DEVICE)
        desc = p.describe()
        assert "sgemm" in desc
        assert "64x128x256" in desc
        assert "C@D" in desc

    def test_wrong_location_count_rejected(self):
        from repro.blas.spec import GEMM

        with pytest.raises(ModelError):
            CoCoProblem(GEMM, (64, 64, 64), np.float64, (Loc.HOST,))

    def test_non_positive_tile_rejected(self):
        p = gemm_problem(64, 64, 64)
        with pytest.raises(ModelError):
            p.k(0)
        with pytest.raises(ModelError):
            p.operands[0].tiles(-1)


class TestAxpyProblem:
    def test_level_and_flags(self):
        p = axpy_problem(1 << 20)
        assert p.level == 1
        x, y = p.operands
        assert x.get and not x.set
        assert y.get and y.set

    def test_vector_tile_bytes(self):
        p = axpy_problem(1 << 20, np.float64)
        assert p.tile_bytes(1024) == 1024 * 8

    def test_k_1d(self):
        p = axpy_problem(1000)
        assert p.k(256) == 4

    def test_y_on_device_no_writeback(self):
        p = axpy_problem(1000, loc_y=Loc.DEVICE)
        y = p.operands[1]
        assert not y.get and not y.set


class TestGemvProblem:
    def test_level2_shapes(self):
        p = gemv_problem(100, 200)
        assert p.level == 2
        a, x, y = p.operands
        assert (a.s1, a.s2) == (100, 200)
        assert x.is_vector and y.is_vector

    def test_matrix_dominates_tile_bytes(self):
        # A matrix operand exists, so tiles are T x T.
        p = gemv_problem(1024, 1024, np.float64)
        assert p.tile_bytes(128) == 128 * 128 * 8

    def test_k_2d(self):
        p = gemv_problem(1000, 2000)
        assert p.k(500) == 2 * 4


class TestPrefix:
    def test_prefixes(self):
        assert prefix_for(np.float64) == "d"
        assert prefix_for(np.float32) == "s"
