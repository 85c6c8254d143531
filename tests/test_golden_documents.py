"""Same-seed documents, pinned in one table of recorded digests.

``tests/data/golden_documents.json`` is the only place a same-seed
document digest is written.  Its ``cases`` are all checked here, each
as the sha256 of the document's bytes:

* the in-process serving cases (``IN_PROCESS`` below) pin the modes of
  the serving decision path that the benchmark suite's default
  configuration leaves out: round-robin placement, no and downgrade
  admission, percentile admission, event faults that wedge batches
  (watchdog timeouts, host fallbacks, breaker drains, requeues and
  half-open probes), two chaos scenarios, and the cluster with
  percentile admission and with a node kill, and noise-free twins of
  six of them;
* the trace cases (``trace-*``) pin the request traces the suite's
  serving workloads generate, at its seed and at seed 3;
* the CLI cases (named ``cli-*``) record their ``repro`` arguments and
  the document they write, and run in-process through
  ``repro.cli.main`` with one shared ``--db-dir``.  CI's smoke jobs run
  the same arguments and read the same digests from the table.

The table's ``suite`` block holds the benchmark suite's seed-11
digests.  A sweep rep is too slow for tier-1, so only CI's suite smoke
job checks them.  Its ``deploy`` block holds the quick and paper model
databases of both testbeds, checked by
``tests/deploy/test_deploy_golden.py``.

Re-record the whole table, suite and deploy blocks included (only
after an intentional change to a pinned document)::

    PYTHONPATH=src python -m tests.test_golden_documents
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import (AutoscalerConfig, ClusterConfig,
                           ClusterCoordinator, ClusterWorkloadSpec,
                           cluster_document, dump_cluster_document,
                           iter_cluster_workload)
from repro.obs import MetricsRegistry
from repro.serve import (BlasServer, ServerConfig, WorkloadSpec,
                         dump_serve_document, generate_workload,
                         serve_document)
from repro.serve.chaos import dump_chaos_document, run_chaos
from repro.sim.faults import resolve_plan

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "golden_documents.json"
CI = ROOT / ".github" / "workflows" / "ci.yml"
#: The seed of the suite digests (``benchmarks/suite/run.py``'s default).
SUITE_SEED = 11

#: Overloaded bursty trace with tight deadlines: admission decides often.
TIGHT = WorkloadSpec(arrival="bursty", rate=4000.0, n_requests=96,
                     scale="tiny", seed=7, deadline_fraction=0.9,
                     slack_lo=0.5, slack_hi=3.0, burst_size=16)


#: Half of all transfers fail: batches exhaust their retries and wedge.
EVENT_FAULTS = "transfer_fail_rate=0.5,seed=3"


def _serve(machines, config, spec=TIGHT, faults=None) -> bytes:
    machine, models = machines["testbed_ii"]
    if faults is not None:
        machine = machine.with_faults(resolve_plan(faults))
    metrics = MetricsRegistry()
    outcome = BlasServer(machine, models, config,
                         metrics=metrics).serve(generate_workload(spec))
    return dump_serve_document(
        serve_document(outcome, metrics=metrics)).encode("utf-8")


def _cluster(machines, server_config, spec, nodes=2, autoscale=True,
             kills=None) -> bytes:
    machine, models = machines["testbed_i"]
    config = ClusterConfig(
        nodes=nodes, gpus_per_node=2, autoscale=autoscale,
        autoscaler=AutoscalerConfig(min_nodes=2, max_nodes=4))
    coord = ClusterCoordinator(machine, models, config, server_config)
    outcome = coord.run(iter_cluster_workload(spec), kill_events=kills)
    return dump_cluster_document(cluster_document(outcome)).encode("utf-8")


def _chaos(machines, scenario, spec, config) -> bytes:
    machine, models = machines["testbed_ii"]
    return dump_chaos_document(run_chaos(
        machine, models, scenario, spec=spec, config=config,
        seed=7)).encode("utf-8")


#: The suite's serve_steady, serve_overload and cluster_phased request
#: traces (``benchmarks/suite/workloads.py``), by seed.
SUITE_TRACES = {
    "serve_steady": lambda seed: generate_workload(WorkloadSpec(
        arrival="poisson", rate=2000.0, n_requests=8000,
        small_fraction=0.5, scale="tiny", seed=seed)),
    "serve_overload": lambda seed: generate_workload(WorkloadSpec(
        arrival="bursty", rate=8000.0, n_requests=20000,
        small_fraction=0.5, scale="tiny", seed=seed)),
    "cluster_phased": lambda seed: iter_cluster_workload(ClusterWorkloadSpec(
        arrival="bursty", rate=500.0, n_requests=20000,
        phases=(1.0, 2.5, 0.4), scale="tiny", seed=seed)),
}


def _trace(name: str, seed: int):
    """The case of one suite trace: its bytes, one ``repr`` per
    request."""
    return lambda machines: b"".join(
        repr((r.req_id, r.arrival, r.problem.routine.name, r.problem.dims,
              r.priority, r.deadline, r.group)).encode()
        for r in SUITE_TRACES[name](seed))


#: The in-process cases: name -> document bytes, given the machines.
IN_PROCESS = {
    "serve-round-robin": lambda m: _serve(
        m, ServerConfig(n_gpus=2, placement="round_robin", seed=7)),
    "serve-admission-none": lambda m: _serve(
        m, ServerConfig(n_gpus=2, admission="none", seed=7)),
    "serve-admission-downgrade": lambda m: _serve(
        m, ServerConfig(n_gpus=2, admission="downgrade", seed=7)),
    "serve-p99": lambda m: _serve(
        m, ServerConfig(n_gpus=2, admission_percentile=99.0, seed=7)),
    "serve-event-faults": lambda m: _serve(
        m, ServerConfig(n_gpus=2, seed=7), faults=EVENT_FAULTS),
    "chaos-kill-one-gpu": lambda m: _chaos(
        m, "kill-one-gpu",
        WorkloadSpec(n_requests=48, rate=2000.0, scale="tiny", seed=7,
                     slack_lo=0.5, slack_hi=1.5),
        ServerConfig(n_gpus=4, seed=7)),
    "chaos-flapping-device": lambda m: _chaos(
        m, "flapping-device",
        WorkloadSpec(arrival="bursty", rate=4000.0, n_requests=96,
                     scale="tiny", seed=7, slack_lo=0.5, slack_hi=3.0,
                     burst_size=16),
        ServerConfig(n_gpus=4, seed=7)),
    "cluster-p99": lambda m: _cluster(
        m, ServerConfig(seed=7, admission_percentile=99.0),
        ClusterWorkloadSpec(n_requests=160, rate=4000.0, seed=7,
                            deadline_fraction=0.9, slack_lo=0.5,
                            slack_hi=3.0, burst_size=16)),
    "cluster-kill": lambda m: _cluster(
        m, ServerConfig(seed=5),
        ClusterWorkloadSpec(n_requests=200, rate=1000.0, seed=5),
        nodes=3, autoscale=False, kills=[(0.15, "node1")]),
    **{f"trace-{name}-{seed}": _trace(name, seed)
       for name in SUITE_TRACES for seed in (SUITE_SEED, 3)},
}


def _noise_free(machines):
    """The same machines with their noise model off."""
    return {name: (dataclasses.replace(machine, noise_sigma=0.0), models)
            for name, (machine, models) in machines.items()}


#: Noise-free twins of the fault-free serving, chaos and cluster cases:
#: their bytes do not depend on how the devices seed their noise.
IN_PROCESS.update({
    f"{name}-noise-free": (lambda m, case=IN_PROCESS[name]:
                           case(_noise_free(m)))
    for name in ("serve-round-robin", "serve-p99", "chaos-kill-one-gpu",
                 "chaos-flapping-device", "cluster-kill", "cluster-p99")})

PINS = json.loads(TABLE.read_text())
#: The CLI cases, as recorded in the table.
CLI = {name: case for name, case in PINS["cases"].items() if "argv" in case}


def digest(name: str, machines, db_dir: str, out_dir: Path) -> str:
    """The sha256 of the document that case ``name`` emits."""
    if name in IN_PROCESS:
        return hashlib.sha256(IN_PROCESS[name](machines)).hexdigest()
    case = CLI[name]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*case["argv"], "--db-dir", db_dir,
                     "--out-dir", str(out_dir)])
    assert code == 0, f"{name}: repro exited {code}"
    return hashlib.sha256(
        (out_dir / case["document"]).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def machines(tb1, models_tb1, tb2, models_tb2):
    return {"testbed_i": (tb1, models_tb1), "testbed_ii": (tb2, models_tb2)}


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("db"))


@pytest.mark.parametrize("name", sorted(PINS["cases"]))
def test_document_matches_pin(name, machines, db_dir, tmp_path):
    assert (digest(name, machines, db_dir, tmp_path)
            == PINS["cases"][name]["sha256"])


def test_table_covers_every_case():
    assert sorted(PINS["cases"]) == sorted([*IN_PROCESS, *CLI])
    assert all(name.startswith("cli-") for name in CLI)
    assert not any(name.startswith("cli-") for name in IN_PROCESS)


#: A 64-hex-digit run, as a sha256 digest is written.
HEX64 = re.compile(r"[0-9a-f]{64}")
#: The seam between two adjacent string literals.
SEAM = re.compile(r"""["']\s*["']""")


def test_no_digest_outside_the_table():
    data = [path for path in sorted((ROOT / "tests" / "data").glob("*.json"))
            if path != TABLE]
    files = [CI, *sorted((ROOT / "tests").rglob("*.py")), *data]
    found = [str(path.relative_to(ROOT)) for path in files
             if HEX64.search(SEAM.sub("", path.read_text()))]
    assert not found, f"digests written outside {TABLE.name}: {found}"


def test_ci_names_only_table_cases():
    named = set(re.findall(r"\bcli-[a-z0-9-]*[a-z0-9]", CI.read_text()))
    assert named, "ci.yml runs no case of the table"
    assert named <= set(CLI), sorted(named - set(CLI))


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import tempfile

    from repro.deploy import DeploymentConfig, deploy
    from repro.sim.machine import testbed_i, testbed_ii
    from tests.deploy.test_deploy_golden import (deploy_block,
                                                 keep_recorded_p_values)

    sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))
    import workloads

    machines = {}
    for make in (testbed_i, testbed_ii):
        machine = make()
        machines[make.__name__] = (machine,
                                   deploy(machine, DeploymentConfig.quick()))
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted({*IN_PROCESS, *CLI}):
            out_dir = Path(tmp, name)
            cases[name] = {**CLI.get(name, {}), "sha256": digest(
                name, machines, str(Path(tmp, "db")), out_dir)}
    # The suite's digests, computed as its reps compute them.
    suite = {name: workloads.execute(
                 name, workloads.prepare(name, SUITE_SEED)[0]).sha256
             for name in workloads.WORKLOADS}
    with pytest.MonkeyPatch.context() as mp:
        deployed = keep_recorded_p_values(deploy_block(mp), PINS["deploy"])
    doc = {"cases": cases, "deploy": deployed, "suite": suite}
    text = json.dumps(doc, indent=1, sort_keys=True)
    # One line per list of repetition counts.
    text = re.sub(r"\[\s+([\d,\s]+?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    TABLE.write_text(text + "\n")
    print(f"wrote {len(cases)} cases, {len(doc['suite'])} suite digests "
          f"and the deploy block to {TABLE}", file=sys.stderr)
