"""Golden tile choices for the Table IV quick evaluation sets.

For every problem of ``gemm_evaluation_set("quick")`` (float64 and
float32) and ``daxpy_evaluation_set("quick")``, on both testbeds'
quick-scale model databases, :func:`~repro.core.select.select_tile`
must return the recorded ``t_best`` and a bit-identical
``predicted_time`` (stored as ``float.hex()``).  Gemm problems are
selected with the BTS and DR models, axpy problems with BTS.

A second test swaps each choice for its runner-up tile and checks the
golden notices: a tile-selection bug that picks a near-optimal but
wrong tile must fail here even where the claims bands still pass.

Regenerate (only after an intentional change to the models, the
candidate grid or the deployed model databases)::

    PYTHONPATH=src python tests/core/test_selection_golden.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro.core.select import select_tile
from repro.experiments.workloads import (daxpy_evaluation_set,
                                         gemm_evaluation_set)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "golden_tile_choices.json")

TESTBEDS = ("testbed_i", "testbed_ii")


def _cases():
    """``(problem, model)`` pairs in a fixed order."""
    cases = []
    for dtype in (np.float64, np.float32):
        for p in gemm_evaluation_set("quick", dtype):
            cases += [(p, "bts"), (p, "dr")]
    cases += [(p, "bts") for p in daxpy_evaluation_set("quick")]
    return cases


def _row(problem, model, t_best, predicted_time):
    return {"problem": problem.describe(), "model": model, "t_best": t_best,
            "predicted_time": predicted_time.hex()}


def record(models) -> list:
    """The selected tile and its predicted time for every case."""
    rows = []
    for p, model in _cases():
        choice = select_tile(p, models, model=model)
        rows.append(_row(p, model, choice.t_best, choice.predicted_time))
    return rows


def record_runner_up(models) -> list:
    """Like :func:`record`, but each problem takes its second-best tile
    (the same tie-break as ``select_tile``; single-candidate problems
    keep their only tile)."""
    rows = []
    for p, model in _cases():
        per_tile = select_tile(p, models, model=model).per_tile
        ranked = sorted(sorted(per_tile, reverse=True),
                        key=lambda t: per_tile[t])
        t = ranked[1] if len(ranked) > 1 else ranked[0]
        rows.append(_row(p, model, t, per_tile[t]))
    return rows


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def testbed_models(models_tb1, models_tb2):
    return {"testbed_i": models_tb1, "testbed_ii": models_tb2}


@pytest.mark.parametrize("testbed", TESTBEDS)
def test_choices_match_golden(testbed_models, testbed):
    assert record(testbed_models[testbed]) == load_golden()[testbed]


@pytest.mark.parametrize("testbed", TESTBEDS)
def test_runner_up_fails_golden(testbed_models, testbed):
    golden = load_golden()[testbed]
    mutant = record_runner_up(testbed_models[testbed])
    assert len(mutant) == len(golden)
    assert any(m["t_best"] != g["t_best"] for m, g in zip(mutant, golden))


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    from repro.deploy import DeploymentConfig, deploy
    from repro.sim import machine

    doc = {name: record(deploy(getattr(machine, name)(),
                               DeploymentConfig.quick()))
           for name in TESTBEDS}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, doc.values()))} choices to {GOLDEN_PATH}",
          file=sys.stderr)
