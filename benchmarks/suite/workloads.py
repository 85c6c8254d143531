"""The suite's four workloads: inputs from a seed, one execution, checks.

Each workload is a closed loop: one client drives a whole trace or
problem list, and the next rep starts after the previous process has
exited.  The serving and cluster traces are pre-drawn from the seed and
open-loop in simulated time, so the generator is never late and every
latency counts from the request's due arrival.

:func:`prepare` builds a workload's inputs (the set-up the suite times
as ``setup_s``); :func:`execute` runs them and returns an
:class:`Outcome`.  Neither prints nor touches files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines import BlasXLibrary, CublasXtLibrary, UnifiedMemoryLibrary
from repro.blas.reference import ref_axpy, ref_gemm, ref_gemv
from repro.blas.validation import assert_allclose_blas
from repro.cluster import (AutoscalerConfig, ClusterConfig,
                           ClusterCoordinator, ClusterWorkloadSpec,
                           cluster_document, dump_cluster_document,
                           validate_cluster_json)
from repro.cluster import workload as cluster_workload
from repro.errors import ReproError
from repro.experiments import harness
from repro.experiments import workloads as eval_sets
from repro.experiments.fig7_performance import XT_SWEEP
from repro.experiments.metrics import (geomean, geomean_improvement_pct,
                                       speedup)
from repro.obs.stats import percentiles
from repro.parallel import task_seed
from repro.runtime import CoCoPeLiaLibrary
from repro.serve import (BlasServer, RequestState, ServerConfig,
                         WorkloadSpec, dump_serve_document, serve_document,
                         validate_serve_json)
from repro.serve import workload as serve_workload
from repro.sim.machine import get_testbed

#: The workloads; why each is in the suite is in BENCHMARK.json.
WORKLOADS = ("sweep_quick", "serve_steady", "serve_overload",
             "cluster_phased")

#: The models every workload deploys (the quick model database).
MODEL_SCALE = "quick"
SERVE_MACHINE = "testbed_ii"
SERVE_GPUS = 4
#: Half the gemms are small (the cluster trace's default mix).  With the
#: serving default of 0.4 the median request sits on the boundary
#: between two size classes, and the seed-to-seed spread of the median
#: latency reaches 9% (p99: 17%) instead of 0.2% (p99: 1.5%).
SERVE_SPECS = {
    "serve_steady": dict(arrival="poisson", rate=2000.0, n_requests=8000,
                         small_fraction=0.5),
    "serve_overload": dict(arrival="bursty", rate=8000.0, n_requests=20000,
                           small_fraction=0.5),
}
#: At 10000 requests, one seed in ten has a single burst that pushes
#: more than 1% of requests into the tail, and p99 jumps by 40%; at
#: 20000 no seed of twenty does.
CLUSTER_SPEC = dict(arrival="bursty", rate=500.0, n_requests=20000,
                    phases=(1.0, 2.5, 0.4))
CLUSTER_CONFIG = dict(nodes=4, gpus_per_node=2)
CLUSTER_NODES = (4, 8)  #: autoscaler (min, max) fleet size
SWEEP_MACHINES = ("testbed_i", "testbed_ii")

#: Report the highest percentile, up to this one, that keeps at least
#: ``MIN_BEYOND`` samples above it.
TAIL_PERCENTILE = 99.0
MIN_BEYOND = 10


def tail_percentile(n: int, target: float = TAIL_PERCENTILE,
                    min_beyond: int = MIN_BEYOND) -> float:
    """Highest percentile <= ``target`` with >= ``min_beyond`` of ``n``
    samples beyond it (0 when the sample is too small for any)."""
    if n <= min_beyond:
        return 0.0
    return min(target, 100.0 * (1.0 - min_beyond / n))


def latency_stats(samples: List[float]) -> Dict[str, float]:
    """Median and supported tail of a latency sample, in milliseconds."""
    p = tail_percentile(len(samples))
    p50, tail = percentiles(samples, (50.0, p))
    return {"latency_p50_ms": 1e3 * p50, "latency_tail_ms": 1e3 * tail,
            "tail_percentile": p, "samples": len(samples)}


@dataclass
class Outcome:
    """What one execution produced, reduced to numbers and a digest."""

    ops: int                      #: operations attempted
    failed: int                   #: operations that failed
    completed: int                #: operations that produced a result
    sha256: str                   #: digest of the emitted document
    sim: Dict[str, float]         #: simulated, seed-deterministic stats
    errors: List[str] = field(default_factory=list)  #: failed gates


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# sweep_quick: the Table IV evaluation set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepTask:
    machine: object
    models: object
    routine: str          #: "dgemm" | "sgemm" | "daxpy"
    offload: str          #: "full" | "partial"
    problem: object
    seed: int             #: task_seed(seed, machine, routine, index)


def sweep_tasks(seed: int, machines=SWEEP_MACHINES) -> List[SweepTask]:
    """Table IV's problem list, in ``table4_improvement.run`` order."""
    tasks = []
    for name in machines:
        machine = get_testbed(name)
        models = harness.models_for(machine, MODEL_SCALE)
        groups = [(f"{'d' if np.dtype(dt).itemsize == 8 else 's'}gemm",
                   eval_sets.gemm_evaluation_set(MODEL_SCALE, dt))
                  for dt in (np.float64, np.float32)]
        groups.append(("daxpy", eval_sets.daxpy_evaluation_set(MODEL_SCALE)))
        for routine, problems in groups:
            for i, problem in enumerate(problems):
                offload = ("full" if eval_sets.is_full_offload(problem)
                           else "partial")
                tasks.append(SweepTask(machine, models, routine, offload,
                                       problem,
                                       task_seed(seed, machine.name,
                                                 routine, i)))
    return tasks


def run_sweep_task(task: SweepTask):
    """(CoCoPeLia result, best rival seconds) for one problem."""
    machine, problem = task.machine, task.problem
    cc = CoCoPeLiaLibrary(machine, task.models,
                          seed=task_seed(task.seed, "cc"))
    if problem.routine.name == "axpy":
        um = UnifiedMemoryLibrary(machine, seed=task_seed(task.seed, "um"))
        return (harness.run_axpy(cc, problem),
                harness.run_axpy(um, problem).seconds)
    xt = CublasXtLibrary(machine, seed=task_seed(task.seed, "xt"))
    bx = BlasXLibrary(machine, seed=task_seed(task.seed, "bx"))
    r_cc = harness.run_gemm(cc, problem)
    best = harness.run_gemm(bx, problem).seconds
    for t in XT_SWEEP[MODEL_SCALE]:
        if t <= problem.min_dim():
            best = min(best, harness.run_gemm(xt, problem,
                                              tile_size=t).seconds)
    return r_cc, best


def sweep_cells(rows: List[dict]) -> List[dict]:
    """Table IV cells (geomean improvement %) from per-problem rows."""
    groups: Dict[Tuple[str, str, str], List[float]] = {}
    for row in rows:
        key = (row["machine"], row["routine"], row["offload"])
        groups.setdefault(key, []).append(
            speedup(row["rival_s"], row["cocopelia_s"]))
    return [{"machine": m, "routine": r, "offload": o, "n": len(v),
             "improvement_pct": geomean_improvement_pct(v)}
            for (m, r, o), v in groups.items()]


def execute_sweep(tasks: List[SweepTask]) -> Outcome:
    rows, errors = [], []
    failed = 0
    for task in tasks:
        try:
            r_cc, rival = run_sweep_task(task)
        except ReproError as exc:
            # One failed operation, not an aborted sweep.
            failed += 1
            rows.append({"machine": task.machine.name,
                         "problem": task.problem.describe(),
                         "error": type(exc).__name__})
            continue
        if not (math.isfinite(r_cc.seconds) and r_cc.seconds > 0
                and math.isfinite(rival) and rival > 0):
            errors.append(f"non-positive time for {task.problem.describe()}")
            continue
        rows.append({"machine": task.machine.name, "routine": task.routine,
                     "offload": task.offload,
                     "problem": task.problem.describe(),
                     "cocopelia_s": r_cc.seconds, "rival_s": rival,
                     "tile": r_cc.tile_size})
    done = [r for r in rows if "cocopelia_s" in r]
    doc = json.dumps({"rows": rows, "cells": sweep_cells(done)},
                     sort_keys=True)
    sim = {"completed_frac": len(done) / len(tasks)}
    if done:
        sim.update(latency_stats([r["cocopelia_s"] for r in done]))
        sim["speedup_geomean"] = geomean(
            [speedup(r["rival_s"], r["cocopelia_s"]) for r in done])
    return Outcome(ops=len(tasks), failed=failed, completed=len(done),
                   sha256=_digest(doc), sim=sim, errors=errors)


# ---------------------------------------------------------------------------
# serve_steady / serve_overload: one BlasServer
# ---------------------------------------------------------------------------

def serve_inputs(name: str, seed: int):
    machine = get_testbed(SERVE_MACHINE)
    models = harness.models_for(machine, MODEL_SCALE)
    spec = WorkloadSpec(scale="tiny", seed=seed, **SERVE_SPECS[name])
    requests = serve_workload.generate_workload(spec)
    return machine, models, spec, requests


def execute_serve(machine, models, spec, requests) -> Outcome:
    # SLO attainment over the generated inputs: every request that
    # arrived with a deadline counts, so a shed or failed one is a miss.
    with_deadline = sum(1 for r in requests if r.deadline is not None)
    server = BlasServer(machine, models,
                        ServerConfig(n_gpus=SERVE_GPUS, seed=spec.seed))
    outcome = server.serve(requests)
    text = dump_serve_document(serve_document(
        outcome, context={"workload": serve_workload.spec_as_dict(spec)}))
    doc = json.loads(text)
    errors = []
    try:
        validate_serve_json(doc)
    except ReproError as exc:
        errors.append(str(exc))
    report = doc["report"]
    counts = report["requests"]
    if (counts["completed"] + counts["shed"] + counts["failed"]
            != len(requests)):
        errors.append("completed + shed + failed != total")
    done = [r for r in outcome.requests if r.state is RequestState.DONE]
    met = sum(1 for r in outcome.requests if r.slo_met)
    gpus = [w for w in report["workers"] if w["worker"].startswith("gpu")]
    sim = {
        "completed_frac": len(done) / len(requests),
        "slo_attainment": met / with_deadline if with_deadline else 1.0,
        "wait_share": (sum(r.wait for r in done)
                       / sum(r.latency for r in done)),
        "gpu_busy_frac": sum(w["utilization"] for w in gpus) / len(gpus),
        "requests_per_batch": counts["completed"] / max(counts["batches"], 1),
    }
    sim.update(latency_stats([r.latency for r in done]))
    return Outcome(ops=len(requests), failed=counts["failed"],
                   completed=len(done), sha256=_digest(text), sim=sim,
                   errors=errors)


# ---------------------------------------------------------------------------
# cluster_phased: an autoscaled fleet
# ---------------------------------------------------------------------------

def cluster_inputs(seed: int):
    machine = get_testbed(SERVE_MACHINE)
    models = harness.models_for(machine, MODEL_SCALE)
    spec = ClusterWorkloadSpec(scale="tiny", seed=seed, **CLUSTER_SPEC)
    requests = list(cluster_workload.iter_cluster_workload(spec))
    return machine, models, spec, requests


def execute_cluster(machine, models, spec, requests) -> Outcome:
    with_deadline = sum(1 for r in requests if r.deadline is not None)
    lo, hi = CLUSTER_NODES
    coordinator = ClusterCoordinator(
        machine, models,
        ClusterConfig(autoscaler=AutoscalerConfig(min_nodes=lo, max_nodes=hi),
                      **CLUSTER_CONFIG),
        ServerConfig(seed=spec.seed))
    outcome = coordinator.run(requests)
    text = dump_cluster_document(cluster_document(
        outcome, context={"workload": cluster_workload.cluster_spec_as_dict(
            spec)}))
    doc = json.loads(text)
    errors = []
    try:
        validate_cluster_json(doc)
    except ReproError as exc:
        errors.append(str(exc))
    report = doc["report"]
    counts = report["fleet"]["requests"]
    if (counts["completed"] + counts["shed"] + counts["failed"]
            != len(requests)):
        errors.append("completed + shed + failed != total")
    if not report["conservation"]["ok"]:
        errors.append("cluster conservation violated")
    scaling = report["scaling"]
    if scaling["scale_ups"] < 1 or scaling["scale_downs"] < 1:
        errors.append(f"autoscaler idle: {scaling['scale_ups']} up, "
                      f"{scaling['scale_downs']} down")
    nodes = outcome.nodes
    node_seconds = sum((n.stopped_t if n.stopped_t is not None
                        else outcome.end_time) - n.provisioned_t
                       for n in nodes)
    latencies = [x for n in nodes for x in n.latencies]
    waits = [x for n in nodes for x in n.waits]
    busy = sum(n["busy_seconds"] for n in report["nodes"])
    batches = sum(n["batches"] for n in report["nodes"])
    sim = {
        "completed_frac": counts["completed"] / len(requests),
        "slo_attainment": (sum(n.slo_met for n in nodes) / with_deadline
                           if with_deadline else 1.0),
        "wait_share": sum(waits) / sum(latencies),
        "gpu_busy_frac": busy / (CLUSTER_CONFIG["gpus_per_node"]
                                 * node_seconds),
        "requests_per_batch": counts["completed"] / max(batches, 1),
        "mean_nodes": node_seconds / outcome.end_time,
        "spills": report["routing"]["spills"],
        "scale_ups": scaling["scale_ups"],
        "scale_downs": scaling["scale_downs"],
    }
    sim.update(latency_stats(latencies))
    # A conservation violation is a failed operation too.
    failed = counts["failed"] + len(report["conservation"]["violations"])
    return Outcome(ops=len(requests), failed=failed,
                   completed=counts["completed"], sha256=_digest(text),
                   sim=sim, errors=errors)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def n_requests(name: str) -> int:
    """Requests in a serving workload's trace (0 for the sweep)."""
    if name in SERVE_SPECS:
        return SERVE_SPECS[name]["n_requests"]
    if name == "cluster_phased":
        return CLUSTER_SPEC["n_requests"]
    return 0


def prepare(name: str, seed: int) -> Tuple[object, int]:
    """Build the inputs of workload ``name``: (inputs, operation count)."""
    if name == "sweep_quick":
        tasks = sweep_tasks(seed)
        return tasks, len(tasks)
    if name in SERVE_SPECS:
        inputs = serve_inputs(name, seed)
        return inputs, len(inputs[3])
    if name == "cluster_phased":
        inputs = cluster_inputs(seed)
        return inputs, len(inputs[3])
    raise ValueError(f"unknown workload {name!r}")


def execute(name: str, inputs) -> Outcome:
    """Run workload ``name`` on the inputs :func:`prepare` built."""
    if name == "sweep_quick":
        return execute_sweep(inputs)
    if name in SERVE_SPECS:
        return execute_serve(*inputs)
    return execute_cluster(*inputs)


def gate_data_mode(seed: int) -> List[str]:
    """Data-mode gemm, gemv and axpy per testbed, checked against the
    reference BLAS.  Returns failure messages (empty when all pass).

    gemv runs at an explicit tile: the quick model database deploys no
    gemv execution model, so it has nothing to select with.
    """
    rng = np.random.default_rng(task_seed(seed, "gates"))
    failures = []
    for name in SWEEP_MACHINES:
        machine = get_testbed(name)
        lib = CoCoPeLiaLibrary(machine, harness.models_for(machine,
                                                           MODEL_SCALE),
                               seed=task_seed(seed, name))
        a = rng.standard_normal((1024, 768))
        b = rng.standard_normal((768, 640))
        c = rng.standard_normal((1024, 640))
        m, x, y = (rng.standard_normal((1500, 1300)),
                   rng.standard_normal(1300), rng.standard_normal(1500))
        u, v = rng.standard_normal(1 << 20), rng.standard_normal(1 << 20)
        checks = [
            ("gemm", ref_gemm(a, b, c, 1.0, 1.0), 768,
             lambda: lib.gemm(a=a, b=b, c=c), c),
            ("gemv", ref_gemv(m, x, y, 1.0, 1.0), 1300,
             lambda: lib.gemv(a=m, x=x, y=y, tile_size=512), y),
            ("axpy", ref_axpy(u, v, 1.5), 1,
             lambda: lib.axpy(x=u, y=v, alpha=1.5), v),
        ]
        for routine, expected, depth, call, out in checks:
            try:
                call()
                assert_allclose_blas(out, expected, reduction_depth=depth,
                                     context=f"{name} {routine}")
            except (AssertionError, ReproError) as exc:
                failures.append(f"{name} {routine}: {exc}")
    return failures
