"""Tests of the benchmark suite itself.

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import tracer as tracing
import workloads
from repro.cluster import ClusterWorkloadSpec
from repro.cluster import workload as cluster_workload
from repro.experiments import table4_improvement
from repro.serve import WorkloadSpec
from repro.serve import workload as serve_workload
from repro.sim.machine import get_testbed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layer -> workloads it must fire on.  On every other workload it must
#: stay at zero calls (the README's layer table).
FIRES_ON = {
    "sim.engine": set(workloads.WORKLOADS),
    "sim.link": set(workloads.WORKLOADS),
    "sim.device": set(workloads.WORKLOADS),
    "sim.noise": set(workloads.WORKLOADS),
    "runtime.scheduler": set(workloads.WORKLOADS),
    "runtime.library": {"sweep_quick"},
    "baselines": {"sweep_quick"},
    "core.select": set(workloads.WORKLOADS),
    "serve.server": {"serve_steady", "serve_overload"},
    "serve.report": {"serve_steady", "serve_overload", "cluster_phased"},
    "serve.dispatcher": {"serve_steady", "serve_overload", "cluster_phased"},
    "cluster": {"cluster_phased"},
    "deploy": set(workloads.WORKLOADS),
}


def small_inputs(name: str):
    """A few-second version of each workload's inputs."""
    if name == "sweep_quick":
        tasks = workloads.sweep_tasks(5, machines=("testbed_ii",))
        gemm = next(t for t in tasks if t.routine == "dgemm")
        axpy = next(t for t in tasks if t.routine == "daxpy")
        return [gemm, axpy]
    machine = get_testbed(workloads.SERVE_MACHINE)
    models = workloads.harness.models_for(machine, workloads.MODEL_SCALE)
    if name == "cluster_phased":
        spec = ClusterWorkloadSpec(
            scale="tiny", seed=5,
            **dict(workloads.CLUSTER_SPEC, n_requests=600))
        return (machine, models, spec,
                list(cluster_workload.iter_cluster_workload(spec)))
    spec = WorkloadSpec(scale="tiny", seed=5,
                        **dict(workloads.SERVE_SPECS[name], n_requests=400))
    return machine, models, spec, serve_workload.generate_workload(spec)


@pytest.fixture(scope="module")
def traced():
    """Workload -> (trace record, outcome) of a small traced execution."""
    out = {}
    for name in workloads.WORKLOADS:
        tr = tracing.Tracer(n_requests=workloads.n_requests(name))
        tr.install()
        try:
            inputs = small_inputs(name)
            outcome = workloads.execute(name, inputs)
        finally:
            tr.uninstall()
        out[name] = (tr.record(wall_s=1.0), outcome)
    return out


def test_every_layer_fires_where_expected(traced):
    assert set(FIRES_ON) == set(tracing.LAYERS)
    for name, (record, _outcome) in traced.items():
        for layer, agg in record["layers"].items():
            if name in FIRES_ON[layer]:
                assert agg["calls"] > 0, f"{layer} silent on {name}"
            else:
                assert agg["calls"] == 0, f"{layer} fired on {name}"


def test_every_wrapper_fires_on_some_workload(traced):
    fired = {}
    for record, _outcome in traced.values():
        for entry in record["entries"]:
            fired[entry["target"]] = (fired.get(entry["target"], 0)
                                      + entry["calls"])
    assert sorted(t for t, calls in fired.items() if calls == 0) == []


def test_tracing_changes_no_output(traced):
    for name, (_record, outcome) in traced.items():
        assert workloads.execute(name, small_inputs(name)).sha256 \
            == outcome.sha256, name


def test_self_times_sum_to_the_traced_region():
    tr = tracing.Tracer(n_requests=400)
    tr.install()
    try:
        t0 = time.perf_counter()
        workloads.execute("serve_steady", small_inputs("serve_steady"))
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    record = tr.record(wall)
    attributed = sum(agg["self_s"] for agg in record["layers"].values())
    assert attributed + record["unattributed_s"] == pytest.approx(wall)
    assert 0.0 <= record["unattributed_s"] < 0.1 * wall


def test_uninstall_restores_every_entry_point():
    from repro.core import select
    from repro.serve import dispatcher
    from repro.sim.engine import Simulator

    before = (Simulator.run, select.select_tile, dispatcher.select_tile)
    tr = tracing.Tracer()
    tr.install()
    assert Simulator.run is not before[0]
    assert dispatcher.select_tile is not before[2]
    tr.uninstall()
    assert (Simulator.run, select.select_tile, dispatcher.select_tile) \
        == before


def test_metric_names_match_benchmark_json(traced):
    record, outcome = traced["cluster_phased"]
    per_layer = tracing.per_layer_metrics(record, outcome.sim, 600, 1.0)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_v, u) in per_layer.items()} == units
    assert run.E2E_UNITS == {m["name"]: m["unit"]
                             for m in SPEC["end_to_end"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.REPS) == set(workloads.WORKLOADS)


def test_command_prints_every_end_to_end_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "serve_steady",
         "--seed", "4", "--seconds", "1", "--trace", "0",
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    printed = {line.split()[1] for line in lines[:-1]}
    assert printed == set(run.E2E_UNITS)
    doc = json.loads((tmp_path / "results.json").read_text())
    assert len(doc["workloads"]["serve_steady"]["reps"]) == run.MIN_REPS


def test_command_fails_without_the_program(tmp_path):
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for path in Path(__file__).parent.glob("*.py"):
        (suite / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep_quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def test_sweep_reproduces_table4_cells():
    machine = get_testbed("testbed_ii")
    tasks = workloads.sweep_tasks(7004, machines=("testbed_ii",))
    rows = []
    for task in tasks:
        r_cc, rival = workloads.run_sweep_task(task)
        rows.append({"machine": task.machine.name, "routine": task.routine,
                     "offload": task.offload, "cocopelia_s": r_cc.seconds,
                     "rival_s": rival})
    ours = {(c["machine"], c["routine"], c["offload"]):
            (c["improvement_pct"], c["n"])
            for c in workloads.sweep_cells(rows)}
    table4 = table4_improvement.run(scale="quick", machines=[machine])
    theirs = {(c.machine, c.routine, c.offload):
              (c.improvement_pct, c.n_problems) for c in table4.cells}
    assert ours == theirs


def test_sweep_counts_a_raising_problem_as_failed(monkeypatch):
    from repro.errors import DeviceMemoryError

    tasks = small_inputs("sweep_quick")
    real = workloads.run_sweep_task

    def flaky(task):
        if task is tasks[0]:
            raise DeviceMemoryError(1 << 35, 1 << 30, 16 << 30)
        return real(task)

    monkeypatch.setattr(workloads, "run_sweep_task", flaky)
    outcome = workloads.execute_sweep(tasks)
    assert (outcome.ops, outcome.failed, outcome.completed) == (2, 1, 1)
    assert outcome.sim["completed_frac"] == 0.5


@pytest.mark.parametrize("n, expected", [
    (10, 0.0), (11, 100.0 * (1 - 10 / 11)), (248, 100.0 * (1 - 10 / 248)),
    (999, 100.0 * (1 - 10 / 999)), (1000, 99.0), (20000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = workloads.tail_percentile(n)
    assert p == pytest.approx(expected)
    if p:
        assert n * (1 - p / 100) == pytest.approx(10) or p == 99.0
        assert n * (1 - p / 100) >= 10 - 1e-9


def test_latency_stats_reports_the_supported_tail():
    samples = list(np.arange(1, 249) * 1e-3)
    stats = workloads.latency_stats(samples)
    assert stats["samples"] == 248
    assert stats["tail_percentile"] == pytest.approx(100 * (1 - 10 / 248))
    assert sum(1 for s in samples if 1e3 * s > stats["latency_tail_ms"]) == 10


def test_data_mode_gates_pass():
    assert workloads.gate_data_mode(11) == []


# -- compare.py verdicts -----------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_claim_needs_nine_of_ten_pairs():
    change = [p + 5.0 for p in PARENT]
    assert compare.verdict(PARENT, change, 0.1, "higher", claimed=True) \
        == "improved"
    change[3] = PARENT[3] - 1.0       # one lost pair: 9/10 still wins
    assert compare.verdict(PARENT, change, 0.1, "higher", claimed=True) \
        == "improved"
    change[4] = PARENT[4]             # a tie counts for neither: 8/10
    assert compare.verdict(PARENT, change, 0.1, "higher", claimed=True) \
        == "not met"


def test_claim_needs_more_than_the_parent_spread():
    change = [p + 0.05 for p in PARENT]   # wins every pair, inside the IQR
    assert compare.verdict(PARENT, change, 0.1, "higher", claimed=True) \
        == "not met"


def test_regression_is_judged_against_the_bound():
    worse = [p * 0.85 for p in PARENT]
    slightly = [p * 0.95 for p in PARENT[::-1]]
    assert compare.verdict(PARENT, worse, 0.10, "higher") == "regressed"
    assert compare.verdict(PARENT, slightly, 0.10, "higher") == "ok"
    assert compare.verdict(PARENT, [p * 1.15 for p in PARENT], 0.10,
                           "lower") == "regressed"


def test_wide_parent_spread_is_unresolved_unless_every_run_beats_it():
    noisy = [80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 70.0]
    assert compare.verdict(noisy, [p * 0.8 for p in noisy], 0.10,
                           "higher") == "unresolved"
    assert compare.verdict(noisy, [200.0] * 10, 0.10, "higher") == "better"


def _runs(values, failed=0):
    return [{"trace": False, "workloads": {"w": {
        "attempted": 100, "failed": failed,
        "end_to_end": {m["name"]: {"median": v} for m in SPEC["end_to_end"]},
    }}} for v in values]


def test_a_rise_in_failed_operations_is_a_regression():
    rows = compare.compare(_runs(PARENT), _runs(PARENT, failed=1), SPEC)
    verdicts = {metric: v for _w, metric, _p, _c, v in rows}
    assert verdicts["failed_frac"] == "regressed"
    assert all(v == "ok" for m, v in verdicts.items() if m != "failed_frac")
