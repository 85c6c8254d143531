"""Tests for the rectangular-tiling extension (paper future work)."""

import numpy as np
import pytest

from repro.blas import assert_allclose_blas, ref_gemm
from repro.core import Loc, gemm_problem
from repro.core.rect import (
    RectTile,
    predict_dr_rect,
    rect_tile_counts,
    select_rect_tile,
)
from repro.core.models import predict_dr
from repro.errors import ModelError
from repro.runtime import CoCoPeLiaLibrary


class TestRectTile:
    def test_extents_in_order(self):
        assert RectTile(512, 256, 128).as_tuple() == (512, 256, 128)

    def test_non_positive_rejected(self):
        with pytest.raises(ModelError):
            RectTile(512, 0, 512)

    def test_tile_counts(self):
        p = gemm_problem(1024, 2048, 512)
        assert rect_tile_counts(p, RectTile(512, 512, 512)) == (2, 4, 1)
        assert rect_tile_counts(p, RectTile(256, 1024, 512)) == (4, 2, 1)

    def test_counts_ceil(self):
        p = gemm_problem(1000, 1000, 1000)
        assert rect_tile_counts(p, RectTile(300, 400, 600)) == (4, 3, 2)


class TestRectModel:
    def test_square_rect_close_to_square_dr(self, models_tb2):
        """The rect model on a square tile stays close to the square DR
        prediction (both use edge-aware averages and bid overlap)."""
        p = gemm_problem(4096, 4096, 4096)
        for t in (1024, 2048):
            rect = predict_dr_rect(p, RectTile(t, t, t), models_tb2)
            square = predict_dr(p, t, models_tb2, interpolate=True)
            assert rect == pytest.approx(square, rel=0.15)

    def test_positive_and_monotone_in_volume(self, models_tb2):
        small = gemm_problem(2048, 2048, 2048)
        large = gemm_problem(4096, 4096, 4096)
        tile = RectTile(1024, 1024, 1024)
        assert 0 < predict_dr_rect(small, tile, models_tb2) < \
            predict_dr_rect(large, tile, models_tb2)

    def test_non_gemm_rejected(self, models_tb2):
        from repro.core import axpy_problem

        with pytest.raises(ModelError):
            predict_dr_rect(axpy_problem(1 << 20), RectTile(256, 256, 256),
                            models_tb2)

    def test_location_awareness(self, models_tb2):
        full = gemm_problem(4096, 4096, 4096)
        partial = gemm_problem(4096, 4096, 4096, loc_a=Loc.DEVICE,
                               loc_b=Loc.DEVICE)
        tile = RectTile(1024, 1024, 1024)
        assert predict_dr_rect(partial, tile, models_tb2) < \
            predict_dr_rect(full, tile, models_tb2)


class TestRectSelection:
    def test_choice_fields(self, models_tb2):
        p = gemm_problem(4096, 4096, 4096)
        choice = select_rect_tile(p, models_tb2)
        assert choice.evaluations > 10
        assert choice.predicted_time > 0
        # the search includes the squares
        assert choice.predicted_time <= choice.square_predicted

    def test_fat_by_thin_avoids_inner_split(self, models_tb2):
        """A short inner dimension should not be split: Tk = K."""
        p = gemm_problem(6144, 6144, 768)
        choice = select_rect_tile(p, models_tb2)
        assert choice.tile.tk == 768

    def test_search_respects_subkernel_cap(self, models_tb2):
        p = gemm_problem(8192, 8192, 8192)
        choice = select_rect_tile(p, models_tb2, max_subkernels=64)
        mt, nt, kt = rect_tile_counts(p, choice.tile)
        assert mt * nt * kt <= 64

    def test_non_gemm_rejected(self, models_tb2):
        from repro.core import axpy_problem

        with pytest.raises(ModelError):
            select_rect_tile(axpy_problem(1 << 20), models_tb2)


class TestRectExecution:
    def test_numerics_with_explicit_rect_tile(self, tb2, models_tb2, rng):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        a = rng.standard_normal((250, 400))
        b = rng.standard_normal((400, 150))
        c = rng.standard_normal((250, 150))
        expected = ref_gemm(a, b, c, 2.0, -1.0)
        res = lib.gemm(a=a, b=b, c=c, alpha=2.0, beta=-1.0,
                       tile_size=(100, 60, 130))
        assert_allclose_blas(c, expected, reduction_depth=400)
        assert res.extra["tile_n"] == 60
        assert res.extra["tile_k"] == 130

    def test_rect_selection_runs(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        res = lib.gemm(4096, 4096, 1024, rect=True)
        assert res.model == "dr-rect"
        assert res.predicted_seconds is not None
        assert abs(res.prediction_error) < 0.5

    def test_rect_at_least_square_on_fat_thin(self, tb2, models_tb2):
        """Rect tiling must not lose to square tiling on the shapes it
        was designed for."""
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        dims = (4864, 4864, 1280)
        t_square = lib.gemm(*dims).seconds
        t_rect = lib.gemm(*dims, rect=True).seconds
        assert t_rect <= 1.05 * t_square

    def test_subkernel_count_matches_grid(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        res = lib.gemm(1024, 2048, 512, tile_size=(512, 512, 512))
        assert res.kernels == 2 * 4 * 1

    def test_invalid_tile_rejected(self, tb2, models_tb2):
        from repro.errors import SchedulerError

        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        with pytest.raises(SchedulerError):
            lib.gemm(512, 512, 512, tile_size=(256, -1, 256))
