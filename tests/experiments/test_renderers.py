"""Rendering tests for every experiment module + Table III."""

import numpy as np
import pytest

from repro.experiments import (
    fig1_tiling_effect,
    fig2_pipeline,
    fig6_tile_selection,
    table3_testbeds,
    table4_improvement,
)
from repro.sim.machine import get_testbed


class TestTable3:
    def test_run_and_render(self):
        result = table3_testbeds.run()
        out = table3_testbeds.render(result)
        assert "Table III" in out
        assert "Tesla K40" in out and "Tesla V100" in out
        assert "Gen2 x8" in out and "Gen3 x16" in out
        assert "1.43" in out and "7.00" in out  # FP64 peaks

    def test_single_machine(self):
        result = table3_testbeds.run(machines=[get_testbed("testbed_i")])
        out = table3_testbeds.render(result)
        assert "Tesla V100" not in out


class TestFig1Render:
    def test_render_contains_charts_and_summary(self):
        result = fig1_tiling_effect.run(
            scale="tiny", machines=[get_testbed("testbed_i")])
        out = fig1_tiling_effect.render(result)
        assert "GFLOP/s vs T" in out
        assert "static loss %" in out


class TestFig2Render:
    def test_custom_size_and_machine(self):
        result = fig2_pipeline.run(machine=get_testbed("testbed_i"),
                                   size=512, tile=128)
        assert result.machine == "testbed_i"
        assert result.size == 512
        out = fig2_pipeline.render(result)
        assert "T=128" in out
        assert "overlap" in out


class TestFig6Render:
    def test_render_includes_gap_lines(self):
        result = fig6_tile_selection.run(scale="tiny", dtypes=(np.float64,))
        out = fig6_tile_selection.render(result)
        assert "median fraction of T_opt" in out
        assert "max speedup" in out


class TestTable4Lookup:
    def test_get_raises_on_missing(self):
        result = table4_improvement.Table4Result(scale="tiny")
        with pytest.raises(KeyError):
            result.get("nope", "dgemm", "full")
