"""Deployments pinned to a recorded golden, at quick and paper scale.

For both testbeds the ``deploy`` block of the table of pinned digests
(``tests/data/golden_documents.json``) holds the repetition count of
every ``measure_until_stable`` call (in call order), the sha256 of the
deployed ``MachineModels.to_dict()`` JSON without its slope p-values,
and those p-values.  Everything but the p-values must match exactly.
The p-values depend on the last few ulps of the Student-t survival
function, which no two implementations share (they differ from the
exact value by up to ~30 ulps in the deep tail), so they are held to
``P_VALUE_REL`` of the recorded value.

The table's one re-record command re-records the block too (only when
a deliberate model change moves the database).  A fresh p-value within
``P_VALUE_REL`` of the recorded one keeps the recorded value, so the
re-record moves only what the test would reject::

    PYTHONPATH=src python -m tests.test_golden_documents
"""

import hashlib
import json
from pathlib import Path

import pytest

TABLE = (Path(__file__).resolve().parents[1] / "data"
         / "golden_documents.json")
SCALES = ("quick", "paper")
TESTBEDS = ("testbed_i", "testbed_ii")
P_VALUE_KEYS = ("p_value", "p_value_bid")
P_VALUE_REL = 1e-14


def deploy_record(scale, name, monkeypatch):
    """The golden entry for a forced ``models_for`` deploy."""
    from repro.deploy import exec_bench, microbench, regression
    from repro.experiments.harness import models_for
    from repro.sim.machine import get_testbed

    counts = []

    def counting(*args, **kwargs):
        mean, samples = regression.measure_until_stable(*args, **kwargs)
        counts.append(len(samples))
        return mean, samples

    for module in (microbench, exec_bench):
        monkeypatch.setattr(module, "measure_until_stable", counting)
    doc = models_for(get_testbed(name), scale, force=True).to_dict()
    p_values = {f"{direction}/{key}": link.pop(key)
                for direction, link in doc["link"].items()
                for key in P_VALUE_KEYS}
    text = json.dumps(doc, sort_keys=True)
    return {"counts": counts, "p_values": p_values,
            "models_sha256": hashlib.sha256(text.encode()).hexdigest()}


def deploy_block(monkeypatch):
    """The table's ``deploy`` block, recorded afresh."""
    return {scale: {name: deploy_record(scale, name, monkeypatch)
                    for name in TESTBEDS} for scale in SCALES}


def keep_recorded_p_values(block, recorded):
    """``block`` with every p-value that matches its ``recorded``
    counterpart within ``P_VALUE_REL`` set back to the recorded value."""
    for scale, by_name in block.items():
        for name, record in by_name.items():
            kept = recorded.get(scale, {}).get(name, {}).get("p_values", {})
            p_values = record["p_values"]
            for key, p in p_values.items():
                if key in kept and p == pytest.approx(
                        kept[key], rel=P_VALUE_REL, abs=0):
                    p_values[key] = kept[key]
    return block


@pytest.fixture(scope="module")
def golden():
    return json.loads(TABLE.read_text())["deploy"]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", TESTBEDS)
def test_deploy_matches_golden(scale, name, golden, monkeypatch):
    got = deploy_record(scale, name, monkeypatch)
    want = golden[scale][name]
    assert got["counts"] == want["counts"]
    assert got["models_sha256"] == want["models_sha256"]
    assert got["p_values"].keys() == want["p_values"].keys()
    for key, p in want["p_values"].items():
        assert got["p_values"][key] == pytest.approx(
            p, rel=P_VALUE_REL, abs=0), key


def test_re_record_keeps_p_values_within_tolerance():
    recorded = {"quick": {"testbed_i": {"p_values": {"h2d/p_value": 0.25,
                                                     "d2h/p_value": 0.5}}}}
    fresh = {"quick": {"testbed_i": {"p_values": {
        "h2d/p_value": 0.25 * (1 + P_VALUE_REL / 2),
        "d2h/p_value": 0.5 * (1 + 4 * P_VALUE_REL)}}}}
    kept = keep_recorded_p_values(fresh, recorded)["quick"]["testbed_i"]
    assert kept["p_values"] == {"h2d/p_value": 0.25,
                                "d2h/p_value": 0.5 * (1 + 4 * P_VALUE_REL)}
