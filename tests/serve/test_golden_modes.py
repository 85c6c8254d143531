"""Same-seed documents of the serving modes, pinned to recorded digests.

The benchmark suite's seed-11 digests pin the default configuration
(model placement, shed admission, mean estimates).  These cases pin the
other modes of the serving decision path: round-robin placement, no
and downgrade admission, percentile admission, tight deadlines under a
GPU kill, and the cluster with percentile admission and with a node kill.
Two more pin the recovery paths: event faults that wedge batches
(watchdog timeouts, host fallbacks, breaker drains, requeues and
half-open probes), and a flapping device (drain, requeue, half-open).
Each case emits its document at a small size and compares the sha256
of its canonical bytes with ``tests/data/golden_serve_modes.json``.

Re-record (only after an intentional change to a serving decision)::

    PYTHONPATH=src python tests/serve/test_golden_modes.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

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

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_serve_modes.json"

#: Overloaded bursty trace with tight deadlines: admission decides often.
TIGHT = WorkloadSpec(arrival="bursty", rate=4000.0, n_requests=96,
                     scale="tiny", seed=7, deadline_fraction=0.9,
                     slack_lo=0.5, slack_hi=3.0, burst_size=16)


#: Half of all transfers fail: batches exhaust their retries and wedge.
EVENT_FAULTS = "transfer_fail_rate=0.5,seed=3"


def _serve(machines, config, spec=TIGHT, faults=None) -> str:
    machine, models = machines["testbed_ii"]
    if faults is not None:
        machine = machine.with_faults(resolve_plan(faults))
    metrics = MetricsRegistry()
    outcome = BlasServer(machine, models, config,
                         metrics=metrics).serve(generate_workload(spec))
    return dump_serve_document(serve_document(outcome, metrics=metrics))


def _cluster(machines, server_config, spec, nodes=2, autoscale=True,
             kills=None) -> str:
    machine, models = machines["testbed_i"]
    config = ClusterConfig(
        nodes=nodes, gpus_per_node=2, autoscale=autoscale,
        autoscaler=AutoscalerConfig(min_nodes=2, max_nodes=4))
    coord = ClusterCoordinator(machine, models, config, server_config)
    outcome = coord.run(iter_cluster_workload(spec), kill_events=kills)
    return dump_cluster_document(cluster_document(outcome))


def _chaos(machines, scenario, spec, config) -> str:
    machine, models = machines["testbed_ii"]
    return dump_chaos_document(run_chaos(
        machine, models, scenario, spec=spec, config=config, seed=7))


CASES = {
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
}


def digest(name: str, machines) -> str:
    return hashlib.sha256(CASES[name](machines).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def machines(tb1, models_tb1, tb2, models_tb2):
    return {"testbed_i": (tb1, models_tb1), "testbed_ii": (tb2, models_tb2)}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_document_matches_golden(name, machines):
    assert digest(name, machines) == load_golden()[name]


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    from repro.deploy import DeploymentConfig, deploy
    from repro.sim.machine import testbed_i, testbed_ii

    machines = {}
    for make in (testbed_i, testbed_ii):
        machine = make()
        machines[make.__name__] = (machine,
                                   deploy(machine, DeploymentConfig.quick()))
    doc = {name: digest(name, machines) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} digests to {GOLDEN}", file=sys.stderr)
