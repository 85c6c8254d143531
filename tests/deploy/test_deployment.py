"""Tests for micro-benchmarks, exec benchmarking, database, pipeline.

The central claim tested here: deployment recovers the simulated
machine's ground-truth parameters from measurements alone, without ever
reading them.
"""

import numpy as np
import pytest

from repro.core.instantiation import MachineModels
from repro.deploy import (
    DeploymentConfig,
    ExecBenchConfig,
    TransferBenchConfig,
    bench_exec_table,
    deploy,
    deploy_or_load,
    fit_link_model,
    load_models,
    save_models,
)
from repro.deploy.database import db_path_for
from repro.errors import DeploymentError
from tests.machines import custom_machine
from repro.units import from_gb_per_s


@pytest.fixture(scope="module")
def machine():
    return custom_machine(
        h2d_gb=10.0, d2h_gb=8.0, sl_h2d=1.25, sl_d2h=1.4,
        latency=4e-6, noise_sigma=0.01,
    )


@pytest.fixture(scope="module")
def link_fit(machine):
    return fit_link_model(machine, TransferBenchConfig.quick(), seed=5)


class TestTransferFitting:
    def test_bandwidths_recovered(self, machine, link_fit):
        link, _ = link_fit
        assert link.h2d.bandwidth == pytest.approx(
            from_gb_per_s(10.0), rel=0.05)
        assert link.d2h.bandwidth == pytest.approx(
            from_gb_per_s(8.0), rel=0.05)

    def test_latencies_recovered(self, link_fit):
        link, _ = link_fit
        assert link.h2d.latency == pytest.approx(4e-6, rel=0.1)
        assert link.d2h.latency == pytest.approx(4e-6, rel=0.1)

    def test_slowdowns_recovered(self, link_fit):
        link, _ = link_fit
        assert link.h2d.sl == pytest.approx(1.25, rel=0.05)
        assert link.d2h.sl == pytest.approx(1.4, rel=0.05)

    def test_fit_diagnostics_present(self, link_fit):
        link, _ = link_fit
        for fit in (link.h2d, link.d2h):
            assert fit.p_value < 1e-10
            assert fit.rse >= 0.0
            assert fit.samples >= 5

    def test_raw_sweep_data_returned(self, link_fit):
        _, raw = link_fit
        for direction in ("h2d", "d2h"):
            data = raw[direction]
            assert len(data.nbytes) == len(data.uni_times)
            assert len(data.bid_times) == len(data.uni_times)
            assert all(b >= u * 0.95 for u, b in
                       zip(data.uni_times, data.bid_times))

    def test_noiseless_machine_fits_exactly(self):
        quiet = custom_machine(h2d_gb=10.0, d2h_gb=8.0, sl_h2d=1.25,
                               sl_d2h=1.4, latency=4e-6, noise_sigma=0.0)
        link, _ = fit_link_model(quiet, TransferBenchConfig.quick())
        assert link.h2d.bandwidth == pytest.approx(from_gb_per_s(10.0),
                                                   rel=1e-6)
        assert link.h2d.sl == pytest.approx(1.25, rel=1e-6)


class TestExecBench:
    def test_gemm_table_matches_ground_truth(self, machine):
        cfg = ExecBenchConfig(gemm_tiles=(256, 512, 1024), min_reps=3)
        lookup = bench_exec_table(machine, "gemm", np.float64, cfg)
        truth = machine.kernels.gemm(np.float64)
        for t in (256, 512, 1024):
            assert lookup.time(t) == pytest.approx(truth.time(t, t, t),
                                                   rel=0.05)

    def test_axpy_table(self, machine):
        cfg = ExecBenchConfig(axpy_tiles=(1 << 18, 1 << 20), min_reps=3)
        lookup = bench_exec_table(machine, "axpy", np.float64, cfg)
        truth = machine.kernels.axpy()
        assert lookup.time(1 << 20) == pytest.approx(
            truth.time(1 << 20, np.float64), rel=0.05)

    def test_sgemm_faster_than_dgemm(self, machine):
        cfg = ExecBenchConfig(gemm_tiles=(512,), min_reps=3)
        d = bench_exec_table(machine, "gemm", np.float64, cfg)
        s = bench_exec_table(machine, "gemm", np.float32, cfg)
        assert s.time(512) < d.time(512)
        assert s.dtype_prefix == "s" and d.dtype_prefix == "d"

    def test_unknown_routine_rejected(self, machine):
        with pytest.raises(DeploymentError):
            bench_exec_table(machine, "trsm", np.float64)


class TestPipelineAndDatabase:
    def test_deploy_produces_all_routines(self, machine):
        models = deploy(machine, DeploymentConfig.quick())
        assert models.has_routine("gemm", "d")
        assert models.has_routine("gemm", "s")
        assert models.has_routine("axpy", "d")
        assert models.machine_name == machine.name

    def test_missing_routine_raises(self, machine):
        models = deploy(machine, DeploymentConfig.quick(
            routines=[("gemm", np.float64)]))
        with pytest.raises(Exception, match="no execution model"):
            models.exec_lookup("axpy", "d")

    def test_empty_routines_rejected(self, machine):
        with pytest.raises(DeploymentError):
            deploy(machine, DeploymentConfig(routines=()))

    def test_save_load_round_trip(self, machine, tmp_path):
        models = deploy(machine, DeploymentConfig.quick(
            routines=[("gemm", np.float64)]))
        path = save_models(models, tmp_path / "db.json")
        again = load_models(path)
        assert again.machine_name == models.machine_name
        assert again.link.h2d.sec_per_byte == models.link.h2d.sec_per_byte
        lk1 = models.exec_lookup("gemm", "d")
        lk2 = again.exec_lookup("gemm", "d")
        assert lk1.tile_sizes == lk2.tile_sizes
        assert all(lk1.time(t) == lk2.time(t) for t in lk1.tile_sizes)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(DeploymentError):
            load_models(tmp_path / "nope.json")

    def test_deploy_or_load_caches(self, machine, tmp_path):
        kwargs = dict(
            variant="unit", db_dir=tmp_path,
            config=DeploymentConfig.quick(routines=[("gemm", np.float64)]),
        )
        first = deploy_or_load(machine, **kwargs)
        assert db_path_for(machine, "unit", tmp_path).exists()
        second = deploy_or_load(machine, **kwargs)
        assert second.link.h2d.sec_per_byte == first.link.h2d.sec_per_byte

    def test_deploy_or_load_force_redeploys(self, machine, tmp_path):
        kwargs = dict(
            variant="unit2", db_dir=tmp_path,
            config=DeploymentConfig.quick(routines=[("gemm", np.float64)]),
        )
        deploy_or_load(machine, **kwargs)
        redo = deploy_or_load(machine, force=True, **kwargs)
        assert redo.has_routine("gemm", "d")

    def test_models_dict_round_trip(self, machine):
        models = deploy(machine, DeploymentConfig.quick(
            routines=[("axpy", np.float64)]))
        again = MachineModels.from_dict(models.to_dict())
        assert again.machine_name == models.machine_name
        assert again.has_routine("axpy", "d")
