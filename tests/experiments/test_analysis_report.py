"""Tests for fig3, the full report, and the serial/ideal analysis
models."""

from repro.core import gemm_problem
from repro.core.registry import predict
from repro.experiments import fig3_framework, full_report
from repro.runtime import CoCoPeLiaLibrary


class TestAnalysisModels:
    def test_ordering_ideal_le_dr_le_serial(self, models_tb2):
        p = gemm_problem(4096, 4096, 4096)
        for t in (1024, 2048):
            ideal = predict("ideal", p, t, models_tb2)
            dr = predict("dr", p, t, models_tb2)
            serial = predict("serial", p, t, models_tb2)
            assert ideal <= dr <= serial

    def test_measured_between_bounds(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        p = gemm_problem(4096, 4096, 4096)
        t = 1024
        measured = lib.gemm(4096, 4096, 4096, tile_size=t).seconds
        assert predict("ideal", p, t, models_tb2) <= measured * 1.02
        assert measured <= predict("serial", p, t, models_tb2) * 1.02

    def test_overlap_efficiency_metric(self, tb2, models_tb2):
        """measured/ideal should be close to 1 for a good pipeline."""
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        p = gemm_problem(6144, 6144, 6144)
        t = 2048
        measured = lib.gemm(6144, 6144, 6144, tile_size=t).seconds
        efficiency = predict("ideal", p, t, models_tb2) / measured
        assert 0.5 < efficiency <= 1.02


class TestFig3:
    def test_reflects_live_system(self):
        result = fig3_framework.run(scale="tiny")
        assert "dgemm" in result.deployed
        assert "dr" in result.predictors and "cso" in result.predictors
        out = fig3_framework.render(result)
        assert "DEPLOYMENT" in out
        assert "TILE SELECTION RUNTIME" in out
        assert "LIBRARY / TILE SCHEDULER" in out
        assert "rectangular tiling" in out


class TestFullReport:
    def test_runs_every_section(self):
        titles = []
        report = full_report.run(
            scale="tiny", progress=lambda t, w: titles.append(t))
        assert len(report.sections) == len(full_report.SECTIONS)
        assert titles == [t for t, _ in full_report.SECTIONS]
        out = full_report.render(report)
        assert "# CoCoPeLia reproduction report" in out
        for title, _module in full_report.SECTIONS:
            assert title in out
