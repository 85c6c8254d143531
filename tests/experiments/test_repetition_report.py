"""Tests for repeated measurement, fig3, full report, trace exports,
and the serial/ideal analysis models."""

import json

import numpy as np
import pytest

from repro.core import gemm_problem
from repro.core.registry import predict
from repro.errors import ReproError
from repro.experiments import fig3_framework, full_report, repetition
from repro.runtime import CoCoPeLiaLibrary
from repro.sim.trace import TraceRecorder, to_chrome_trace, utilization_report


class TestRepeatedMeasurement:
    @pytest.fixture(scope="class")
    def measurement(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        problem = gemm_problem(1024, 1024, 1024)
        return repetition.measure_repeated(lib, problem, tile_size=512,
                                           reps=20)

    def test_summary_fields(self, measurement):
        assert measurement.n == 20
        assert len(measurement.samples) == 20
        assert measurement.mean > 0
        assert measurement.std > 0  # the machine is noisy
        assert measurement.warmup > 0

    def test_mean_matches_samples(self, measurement):
        assert measurement.mean == pytest.approx(
            float(np.mean(measurement.samples)))

    def test_variance_near_noise_level(self, measurement, tb2):
        """Run-to-run CoV should be the same order as the injected
        hardware noise."""
        cov = measurement.std / measurement.mean
        assert cov < 4 * tb2.noise_sigma

    def test_ci_tightens_with_reps(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        problem = gemm_problem(1024, 1024, 1024)
        small = repetition.measure_repeated(lib, problem, tile_size=512,
                                            reps=5)
        large = repetition.measure_repeated(lib, problem, tile_size=512,
                                            reps=40)
        assert large.rel_ci < small.rel_ci

    def test_too_few_reps_rejected(self, tb2, models_tb2):
        lib = CoCoPeLiaLibrary(tb2, models_tb2)
        with pytest.raises(ReproError):
            repetition.measure_repeated(lib, gemm_problem(512, 512, 512),
                                        tile_size=256, reps=1)


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


class TestTraceExports:
    def _trace(self):
        tr = TraceRecorder()
        tr.record("h2d", "A(0,0)", 0.0, 1e-3, nbytes=100)
        tr.record("exec", "gemm", 5e-4, 3e-3, flops=1e9)
        tr.record("d2h", "C(0,0)", 3e-3, 4e-3, nbytes=50)
        return tr

    def test_chrome_trace_structure(self):
        events = to_chrome_trace(self._trace())
        json.dumps(events)  # must be serializable
        metas = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in metas} == {"h2d", "exec", "d2h"}
        assert len(spans) == 3
        gemm = next(e for e in spans if e["name"] == "gemm")
        assert gemm["ts"] == pytest.approx(500.0)   # 5e-4 s in us
        assert gemm["dur"] == pytest.approx(2500.0)

    def test_utilization_report(self):
        report = utilization_report(self._trace())
        assert report["exec"] == pytest.approx(2.5e-3 / 4e-3)
        assert 0 < report["overlap_h2d_exec"] < 1

    def test_empty_trace(self):
        assert utilization_report(TraceRecorder()) == {}
        assert to_chrome_trace(TraceRecorder()) == []


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
