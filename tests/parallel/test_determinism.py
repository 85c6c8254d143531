"""Determinism of deployment and the experiment sweeps
(serial-vs-parallel byte-identity), plus model-cache keying by config
identity."""

import dataclasses
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.deploy import DeploymentConfig, deploy
from repro.deploy.exec_bench import bench_exec_table
from repro.experiments import fig7_performance, harness


def _db_bytes(models) -> bytes:
    return json.dumps(models.to_dict(), sort_keys=True).encode()


def _changed(value):
    """A different value of the same kind that the configs accept."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if isinstance(value, tuple):
        return value[:-1]
    if isinstance(value, np.dtype):
        return np.dtype(np.float32 if value != np.float32 else np.float64)
    raise TypeError(f"no variant for {value!r}")


class TestDeployDeterminism:
    def test_repeat_deploy_byte_identical(self, tb2, models_tb2):
        assert _db_bytes(deploy(tb2, DeploymentConfig.quick())) \
            == _db_bytes(models_tb2)

    def test_exec_points_independent_of_grid(self, tb2):
        # Each tile is measured on its own seeded device, so a point's
        # time depends on neither the other tiles nor their order.
        cfg = DeploymentConfig.quick().exec
        full = bench_exec_table(tb2, "gemm", np.float64, cfg, seed=5)
        tiles = cfg.gemm_tiles[::-2]
        part = bench_exec_table(
            tb2, "gemm", np.float64,
            dataclasses.replace(cfg, gemm_tiles=tiles), seed=5)
        assert part.tile_sizes == sorted(tiles)
        assert [part.time(t) for t in tiles] \
            == [full.time(t) for t in tiles]


class TestSweepDeterminism:
    def test_fig7_points_identical(self, tb2):
        kwargs = dict(scale="tiny", machines=[tb2],
                      dtypes=(np.float64,))
        serial = fig7_performance.run(**kwargs)
        fanned = fig7_performance.run(parallel=2, **kwargs)

        def dump(result):
            return json.dumps(
                {"|".join(k): [asdict(p) for p in v]
                 for k, v in result.points.items()}, sort_keys=True)

        assert dump(serial) == dump(fanned)


class TestModelCacheKeying:
    def test_custom_config_gets_own_entry(self, tb2):
        default = harness.models_for(tb2, "quick")
        custom_cfg = DeploymentConfig.quick(
            routines=(("gemm", np.float64),))
        custom = harness.models_for(tb2, "quick", force=True,
                                    config=custom_cfg)
        assert custom is not default
        # The force-deploy did not evict/replace the default entry.
        assert harness.models_for(tb2, "quick") is default
        assert harness.models_for(tb2, "quick",
                                  config=custom_cfg) is custom

    def test_fingerprint_covers_every_field(self):
        # A field left out of the fingerprint would let two different
        # configs share one cached database.
        base = DeploymentConfig.quick()
        seen = {harness._config_fingerprint(base)}
        variants = 0
        for f in dataclasses.fields(base):
            value = getattr(base, f.name)
            if dataclasses.is_dataclass(value):
                changed = [dataclasses.replace(
                    base, **{f.name: dataclasses.replace(
                        value, **{g.name: _changed(getattr(value, g.name))})})
                    for g in dataclasses.fields(value)]
            else:
                changed = [dataclasses.replace(
                    base, **{f.name: _changed(value)})]
            for cfg in changed:
                seen.add(harness._config_fingerprint(cfg))
                variants += 1
        assert len(seen) == variants + 1

    def test_redeploy_after_cache_drop_is_identical(self, tb2):
        a = harness.models_for(tb2, "quick")
        harness._MODEL_CACHE.clear()
        try:
            b = harness.models_for(tb2, "quick")
            assert b is not a
            assert _db_bytes(a) == _db_bytes(b)
        finally:
            # Re-prime so session-scoped fixtures in other files keep
            # hitting the warm entry.
            harness.prime_model_cache(tb2, "quick", a)

    def test_warm_payload_roundtrip(self, tb2):
        original = harness.models_for(tb2, "quick")
        payload = harness.warm_payload([tb2], "quick")
        harness._MODEL_CACHE.clear()
        try:
            harness.prime_worker(payload)
            rebuilt = harness.models_for(tb2, "quick")
            assert _db_bytes(rebuilt) == _db_bytes(original)
        finally:
            harness.prime_model_cache(tb2, "quick", original)


class TestDeploymentConfigWorkers:
    def test_workers_field_is_gone(self):
        # Deployment runs serially; there is no worker count to set.
        assert "workers" not in {
            f.name for f in dataclasses.fields(DeploymentConfig)}
        with pytest.raises(TypeError, match="workers"):
            DeploymentConfig(workers=2)
        with pytest.raises(TypeError, match="workers"):
            DeploymentConfig.quick(workers=2)
