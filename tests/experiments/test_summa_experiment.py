"""Tests for the summa experiment document and its validator."""

import copy
import json

import pytest

from repro.errors import ReproError
from repro.experiments import summa


@pytest.fixture(scope="module")
def doc():
    return summa.run(scale="tiny", seed=0)


class TestDocument:
    def test_schema_and_validator_accept(self, doc):
        assert doc["schema"] == "repro.summa/v1"
        summa.validate_summa_json(doc)

    def test_acceptance_floors_at_tiny(self, doc):
        assert doc["gemm"]["speedup_geomean"] >= 1.3
        assert doc["selection"]["worst_picked_within_pct"] <= 5.0
        for p in doc["gemv"]["problems"]:
            assert p["overlap_fraction"] >= 0.5

    def test_overlap_error_is_reported(self, doc):
        for p in doc["gemm"]["problems"]:
            overlap = p["overlap"]
            assert overlap["hidden_seconds_achieved"] > 0
            # predicted hidden time within 25% of achieved at tiny scale
            assert abs(overlap["overlap_error_pct"]) < 25.0
            assert 0.0 <= overlap["achieved_fraction"] <= 1.0

    def test_sweep_contains_picked_panel(self, doc):
        for p in doc["gemm"]["problems"]:
            assert str(p["panel"]["pipelined"]) in p["panel_sweep"]
            assert str(p["panel"]["sweep_best"]) in p["panel_sweep"]
        for p in doc["gemv"]["problems"]:
            assert str(p["chunk"]["picked"]) in p["chunk_sweep"]

    def test_json_round_trip_deterministic(self, doc):
        again = summa.run(scale="tiny", seed=0)
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_serial_and_parallel_sweeps_agree(self, doc):
        par = summa.run(scale="tiny", seed=0, parallel=2)
        assert (json.dumps(doc, sort_keys=True)
                == json.dumps(par, sort_keys=True))

    def test_render_mentions_key_numbers(self, doc):
        text = summa.render(doc)
        assert "SUMMA dgemm" in text
        assert "Streaming dgemv" in text
        assert "geomean speedup" in text


class TestGpuCount:
    @pytest.mark.parametrize("n_gpus", [1, 0])
    def test_run_rejects_fewer_than_two_gpus(self, n_gpus):
        with pytest.raises(ReproError,
                           match=f"at least 2 GPUs, got {n_gpus}"):
            summa.run(scale="tiny", n_gpus=n_gpus)


class TestValidator:
    def test_rejects_wrong_schema(self, doc):
        bad = copy.deepcopy(doc)
        bad["schema"] = "repro.summa/v0"
        with pytest.raises(ReproError, match="schema"):
            summa.validate_summa_json(bad)

    def test_rejects_missing_overlap(self, doc):
        bad = copy.deepcopy(doc)
        del bad["gemm"]["problems"][0]["overlap"]
        with pytest.raises(ReproError, match="overlap"):
            summa.validate_summa_json(bad)

    def test_rejects_out_of_range_fraction(self, doc):
        bad = copy.deepcopy(doc)
        bad["gemv"]["problems"][0]["overlap_fraction"] = 1.5
        with pytest.raises(ReproError, match="overlap_fraction"):
            summa.validate_summa_json(bad)

    def test_rejects_non_positive_speedup(self, doc):
        bad = copy.deepcopy(doc)
        bad["gemm"]["problems"][0]["speedup"] = 0.0
        with pytest.raises(ReproError, match="speedup"):
            summa.validate_summa_json(bad)

    def test_rejects_bad_topology_kind(self, doc):
        bad = copy.deepcopy(doc)
        bad["context"]["topology"]["kind"] = "torus"
        with pytest.raises(ReproError, match="kind"):
            summa.validate_summa_json(bad)

    def test_rejects_non_object(self):
        with pytest.raises(ReproError):
            summa.validate_summa_json([1, 2, 3])
