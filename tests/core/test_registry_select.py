"""Tests for the model registry and tile-size selection."""

import numpy as np
import pytest

from repro.core.exec_model import ExecLookup
from repro.core.instantiation import MachineModels
from repro.core.params import axpy_problem, gemm_problem
from repro.core.registry import (
    MODEL_REGISTRY,
    available_models,
    predict,
    register_model,
    resolve_model,
)
from repro.core.select import candidate_tiles, select_tile
from repro.core.transfer_model import LinkModel, TransferFit
from repro.errors import ModelError


@pytest.fixture()
def models():
    link = LinkModel(
        TransferFit(latency=1e-5, sec_per_byte=1e-9, sl=1.2),
        TransferFit(latency=1e-5, sec_per_byte=2e-9, sl=1.5),
    )
    mm = MachineModels("synthetic", link)
    mm.add_exec_lookup(ExecLookup("gemm", "d", {
        256: 1e-3, 512: 4e-3, 1024: 3e-2, 2048: 2.3e-1,
    }))
    mm.add_exec_lookup(ExecLookup("axpy", "d", {
        1 << 18: 1e-4, 1 << 20: 4e-4, 1 << 22: 1.6e-3,
    }))
    return mm


class TestRegistry:
    def test_builtin_models_registered(self):
        for name in ("cso", "baseline", "dataloc", "bts", "dr"):
            assert name in MODEL_REGISTRY

    def test_available_sorted(self):
        assert available_models() == sorted(available_models())

    def test_auto_resolution_by_level(self):
        assert resolve_model("auto", gemm_problem(64, 64, 64)) == "dr"
        assert resolve_model("auto", axpy_problem(1024)) == "bts"

    def test_unknown_model_rejected(self):
        with pytest.raises(ModelError):
            resolve_model("wrong", gemm_problem(64, 64, 64))

    def test_predict_dispatch(self, models):
        p = gemm_problem(1024, 1024, 1024)
        from repro.core.models import predict_dr

        assert predict("dr", p, 512, models) == predict_dr(p, 512, models)
        assert predict("auto", p, 512, models) == predict_dr(p, 512, models)

    def test_register_custom_model(self, models):
        def constant(problem, t, mm, interpolate=False):
            return 42.0

        register_model("constant-test", constant)
        try:
            p = gemm_problem(512, 512, 512)
            assert predict("constant-test", p, 256, models) == 42.0
        finally:
            del MODEL_REGISTRY["constant-test"]

    def test_double_registration_rejected(self):
        with pytest.raises(ModelError):
            register_model("dr", lambda *a: 0.0)

    def test_overwrite_allowed_explicitly(self):
        original = MODEL_REGISTRY["dr"]
        register_model("dr", original, overwrite=True)
        assert MODEL_REGISTRY["dr"] is original


class TestCandidates:
    def test_paper_constraint(self, models):
        p = gemm_problem(1536, 1536, 1536)
        cands = candidate_tiles(p, models, clamped=False)
        # limit = 1536 / 1.5 = 1024
        assert cands == [256, 512, 1024]

    def test_clamped_allows_larger_tiles(self, models):
        p = gemm_problem(4096, 4096, 512)
        literal = candidate_tiles(p, models, clamped=False)
        clamped = candidate_tiles(p, models, clamped=True)
        assert max(literal) <= 512 / 1.5 or literal == [256]
        assert max(clamped) >= 1024

    def test_min_tile_filter(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cands = candidate_tiles(p, models, min_tile=512)
        assert min(cands) >= 512

    def test_degenerate_small_problem_falls_back(self, models):
        p = gemm_problem(300, 300, 300)
        cands = candidate_tiles(p, models, clamped=False)
        assert cands == [256]

    def test_no_fit_raises(self, models):
        p = gemm_problem(100, 100, 100)
        with pytest.raises(ModelError):
            candidate_tiles(p, models, clamped=False)


class TestSelectTile:
    def test_picks_argmin(self, models):
        p = gemm_problem(4096, 4096, 4096)
        choice = select_tile(p, models, model="dr")
        assert choice.t_best == min(choice.per_tile, key=choice.per_tile.get)
        assert choice.predicted_time == min(choice.per_tile.values())

    def test_choice_records_model(self, models):
        p = gemm_problem(4096, 4096, 4096)
        assert select_tile(p, models, model="auto").model == "dr"
        pa = axpy_problem(1 << 24)
        assert select_tile(pa, models, model="auto").model == "bts"

    def test_per_tile_table_complete(self, models):
        p = gemm_problem(4096, 4096, 4096)
        choice = select_tile(p, models)
        assert set(choice.per_tile) == set(candidate_tiles(p, models))

    def test_tie_breaks_to_larger_tile(self, models):
        """Register a constant predictor: all tiles tie, largest wins."""
        register_model("flat-test", lambda p, t, m, i=False: 1.0)
        try:
            p = gemm_problem(4096, 4096, 4096)
            choice = select_tile(p, models, model="flat-test")
            assert choice.t_best == max(candidate_tiles(p, models))
        finally:
            del MODEL_REGISTRY["flat-test"]

    def test_axpy_selection(self, models):
        p = axpy_problem(1 << 24)
        choice = select_tile(p, models)
        assert choice.t_best in (1 << 18, 1 << 20, 1 << 22)
