"""The distributed-overlap experiment behind ``repro summa``.

Runs the SUMMA gemm suite (blocking-broadcast baseline vs. pipelined
multicast) and the streaming-gemv suite on a simulated multi-GPU
fabric, sweeps the panel/chunk candidates to locate the true optimum,
and reports model-picked vs. sweep-optimal quality plus
predicted-vs-achieved makespan and overlap — the paper's Fig. 5/6
methodology transposed to the inter-GPU network.

The result is a versioned ``repro.summa/v1`` document (validated by
:func:`validate_summa_json`):

* per gemm problem — the model-picked panel for each variant, achieved
  and predicted makespans, the pipelined panel sweep with
  ``picked_within_pct`` (distance of the model's pick from the sweep
  optimum), profiler overlap at the picked panel, and the overlap
  error: predicted vs. achieved *hidden communication time*
  (``blocking - pipelined``);
* per gemv problem — the model-picked chunk, the chunk sweep, and the
  profiler overlap fraction (the streaming design's acceptance gate);
* suite aggregates — geomean pipelined-over-blocking speedup and the
  worst ``picked_within_pct``.

Every sweep point is an independent :func:`~repro.parallel.pmap` task
with a grid-derived seed (``task_seed``), so the document is
byte-identical for any worker count — the same discipline as fig7.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.distributed import (
    candidate_chunks,
    candidate_panels,
    predict_summa,
    select_gemv_chunk,
    select_summa_panel,
)
from ..core.params import gemm_problem, gemv_problem
from ..deploy import DeploymentConfig
from ..deploy.pipeline import DEFAULT_ROUTINES
from ..errors import ReproError
from ..obs import merge_traces, profile_trace
from ..obs.schema import (
    FRACTION,
    POSITIVE,
    Each,
    at_least,
    const,
    non_empty,
    of_length,
    one_of,
    positive,
    validate,
)
from ..parallel import pmap, task_seed
from ..runtime.streaming import StreamingGemv
from ..runtime.summa import SummaGemm
from ..sim.interconnect import (
    TopologySpec,
    all_to_all_topology,
    ring_topology,
)
from ..sim.machine import MachineConfig, get_testbed
from .harness import models_for
from .metrics import geomean, percent_error
from .report import format_table

SUMMA_SCHEMA_VERSION = "repro.summa/v1"

#: Root of the per-point seed derivation (distinct from the fig7/table4
#: roots so the distributed sweeps never share noise streams).
_SEED_ROOT = 7010

_GEMM_SUITE = {
    "tiny": [(1024, 1024, 1024)],
    "quick": [(2048, 2048, 2048), (3072, 3072, 3072), (4096, 2048, 3072)],
    "paper": [(4096, 4096, 4096), (6144, 6144, 6144), (8192, 8192, 8192)],
}

_GEMV_SUITE = {
    "tiny": [(2048, 2048)],
    "quick": [(8192, 8192), (16384, 8192)],
    "paper": [(32768, 16384), (32768, 32768)],
}


def check_gpus(n_gpus: int) -> None:
    """Reject GPU counts the suite cannot run: with one GPU there is no
    communication to hide, so the measured hidden time is noise."""
    if n_gpus < 2:
        raise ReproError(f"summa needs at least 2 GPUs, got {n_gpus}")


def summa_deployment_config(scale: str) -> DeploymentConfig:
    """Deployment including the dgemv model the chunk predictor needs."""
    routines = DEFAULT_ROUTINES + (("gemv", np.float64),)
    if scale == "paper":
        return DeploymentConfig(routines=routines)
    return DeploymentConfig.quick(routines=routines)


def make_topology(kind: str, n_gpus: int, gb_per_s: float,
                  latency: float) -> TopologySpec:
    if kind == "ring":
        return ring_topology(n_gpus, gb_per_s=gb_per_s, latency=latency)
    if kind == "all_to_all":
        return all_to_all_topology(n_gpus, gb_per_s=gb_per_s,
                                   latency=latency)
    raise ReproError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# pmap point tasks (self-contained: rebuild everything from primitives)
# ---------------------------------------------------------------------------

def _summa_point(machine: MachineConfig, kind: str, n_gpus: int,
                 gb_per_s: float, latency: float,
                 dims: Tuple[int, int, int], panel: int, variant: str,
                 depth: int, seed: int) -> float:
    """Achieved makespan of one (problem, panel, variant) grid point."""
    topology = make_topology(kind, n_gpus, gb_per_s, latency)
    lib = SummaGemm(machine, topology, seed=seed)
    return lib.gemm(*dims, panel=panel, variant=variant, depth=depth).seconds


def _gemv_point(machine: MachineConfig, kind: str, n_gpus: int,
                gb_per_s: float, latency: float, dims: Tuple[int, int],
                chunk: int, seed: int) -> float:
    """Achieved makespan of one (problem, chunk) grid point."""
    topology = make_topology(kind, n_gpus, gb_per_s, latency)
    lib = StreamingGemv(machine, topology, seed=seed)
    return lib.gemv(*dims, chunk=chunk).seconds


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------

def run(
    scale: str = "quick",
    machine: str = "testbed_ii",
    n_gpus: int = 4,
    topology: str = "ring",
    gb_per_s: float = 8.0,
    latency: float = 5e-6,
    depth: int = 2,
    seed: int = 0,
    parallel=None,
    models=None,
) -> dict:
    """Run the distributed suite; returns a ``repro.summa/v1`` document."""
    check_gpus(n_gpus)
    config = get_testbed(machine)
    if models is None:
        models = models_for(config, scale,
                            config=summa_deployment_config(scale))
    topo = make_topology(topology, n_gpus, gb_per_s, latency)

    # ---- build the sweep grid (one pmap task per point) --------------
    gemm_dims = _GEMM_SUITE[scale]
    gemv_dims = _GEMV_SUITE[scale]
    picked: Dict[Tuple, Dict[str, int]] = {}
    tasks, keys = [], []
    for dims in gemm_dims:
        problem = gemm_problem(*dims, np.float64)
        cands = candidate_panels(problem, n_gpus, models)
        choice_p = select_summa_panel(problem, n_gpus, topo, models,
                                      variant="pipelined", depth=depth)
        choice_b = select_summa_panel(problem, n_gpus, topo, models,
                                      variant="blocking", depth=depth)
        picked[dims] = {"pipelined": choice_p.value,
                        "blocking": choice_b.value,
                        "predicted_pipelined": choice_p.predicted_time,
                        "predicted_blocking": choice_b.predicted_time}
        for panel in cands:
            point_seed = task_seed(_SEED_ROOT, seed, config.name,
                                   "summa", *dims, "pipelined", panel)
            tasks.append((config, topology, n_gpus, gb_per_s, latency,
                          dims, panel, "pipelined", depth, point_seed))
            keys.append(("summa", dims, "pipelined", panel))
        point_seed = task_seed(_SEED_ROOT, seed, config.name, "summa",
                               *dims, "blocking", choice_b.value)
        tasks.append((config, topology, n_gpus, gb_per_s, latency, dims,
                      choice_b.value, "blocking", depth, point_seed))
        keys.append(("summa", dims, "blocking", choice_b.value))
    n_summa_tasks = len(tasks)
    for dims in gemv_dims:
        problem = gemv_problem(*dims, np.float64)
        cands = candidate_chunks(problem, n_gpus, models)
        choice = select_gemv_chunk(problem, n_gpus, topo, models)
        picked[dims] = {"chunk": choice.value,
                        "predicted": choice.predicted_time}
        for chunk in cands:
            point_seed = task_seed(_SEED_ROOT, seed, config.name, "gemv",
                                   *dims, chunk)
            tasks.append((config, topology, n_gpus, gb_per_s, latency,
                          dims, chunk, point_seed))
            keys.append(("gemv", dims, chunk))

    summa_times = pmap(_summa_point, tasks[:n_summa_tasks],
                       workers=parallel)
    gemv_times = pmap(_gemv_point, tasks[n_summa_tasks:],
                      workers=parallel)
    achieved = dict(zip(keys, list(summa_times) + list(gemv_times)))

    # ---- per-problem reports -----------------------------------------
    gemm_reports, speedups, within = [], [], []
    for dims in gemm_dims:
        m, n, k = dims
        problem = gemm_problem(*dims, np.float64)
        pick = picked[dims]
        p_pipe, p_blk = pick["pipelined"], pick["blocking"]
        sweep = {panel: achieved[("summa", dims, "pipelined", panel)]
                 for panel in candidate_panels(problem, n_gpus, models)}
        best_panel = min(sweep, key=lambda p: (sweep[p], -p))
        ach_pipe = sweep[p_pipe]
        ach_blk = achieved[("summa", dims, "blocking", p_blk)]
        pred_blk_at_pick = predict_summa(
            problem, p_blk, models, n_gpus=n_gpus, topology=topo,
            variant="blocking", depth=depth)
        picked_within = 100.0 * (ach_pipe - sweep[best_panel]) \
            / sweep[best_panel]
        within.append(picked_within)
        speedups.append(ach_blk / ach_pipe)

        # Traced re-run at the picked panel: same seed as the sweep
        # point, so the makespan is identical and the profiler sees the
        # exact timeline the sweep measured.
        point_seed = task_seed(_SEED_ROOT, seed, config.name, "summa",
                               *dims, "pipelined", p_pipe)
        lib = SummaGemm(config, topo, seed=point_seed, trace=True)
        traced = lib.gemm(m, n, k, panel=p_pipe, variant="pipelined",
                          depth=depth)
        labels = [f"gpu{g}" for g in range(n_gpus)] + ["net"]
        report = profile_trace(merge_traces(lib.last_traces, labels=labels),
                               predicted_seconds=pick["predicted_pipelined"],
                               model="summa")
        hidden_ach = ach_blk - ach_pipe
        hidden_pred = pred_blk_at_pick - pick["predicted_pipelined"]
        gemm_reports.append({
            "dims": [m, n, k],
            "panel": {"pipelined": p_pipe, "blocking": p_blk,
                      "sweep_best": best_panel},
            "achieved_seconds": {"pipelined": ach_pipe,
                                 "blocking": ach_blk,
                                 "sweep_best": sweep[best_panel]},
            "predicted_seconds": {
                "pipelined": pick["predicted_pipelined"],
                "blocking": pick["predicted_blocking"]},
            "prediction_error_pct": {
                "pipelined": percent_error(pick["predicted_pipelined"],
                                           ach_pipe),
                "blocking": percent_error(pick["predicted_blocking"],
                                          ach_blk)},
            "panel_sweep": {str(p): sweep[p] for p in sorted(sweep)},
            "picked_within_pct": picked_within,
            "speedup": ach_blk / ach_pipe,
            "overlap": {
                "achieved_fraction": report.overlap_fraction,
                "achieved_efficiency": report.overlap_efficiency,
                "hidden_seconds_achieved": hidden_ach,
                "hidden_seconds_predicted": hidden_pred,
                "overlap_error_pct": percent_error(hidden_pred, hidden_ach),
            },
            "kernels": traced.kernels,
            "fabric_bytes": traced.fabric_bytes,
        })

    gemv_reports = []
    for dims in gemv_dims:
        m, n = dims
        problem = gemv_problem(*dims, np.float64)
        pick = picked[dims]
        chunk = pick["chunk"]
        sweep = {c: achieved[("gemv", dims, c)]
                 for c in candidate_chunks(problem, n_gpus, models)}
        best_chunk = min(sweep, key=lambda c: (sweep[c], -c))
        ach = sweep[chunk]
        picked_within = 100.0 * (ach - sweep[best_chunk]) / sweep[best_chunk]
        within.append(picked_within)
        point_seed = task_seed(_SEED_ROOT, seed, config.name, "gemv",
                               *dims, chunk)
        lib = StreamingGemv(config, topo, seed=point_seed, trace=True)
        traced = lib.gemv(m, n, chunk=chunk)
        labels = [f"gpu{g}" for g in range(n_gpus)] + ["net"]
        report = profile_trace(merge_traces(lib.last_traces, labels=labels),
                               predicted_seconds=pick["predicted"],
                               model="streaming_gemv")
        gemv_reports.append({
            "dims": [m, n],
            "chunk": {"picked": chunk, "sweep_best": best_chunk},
            "achieved_seconds": ach,
            "predicted_seconds": pick["predicted"],
            "prediction_error_pct": percent_error(pick["predicted"], ach),
            "chunk_sweep": {str(c): sweep[c] for c in sorted(sweep)},
            "picked_within_pct": picked_within,
            "overlap_fraction": report.overlap_fraction,
            "overlap_efficiency": report.overlap_efficiency,
            "h2d_bytes": traced.h2d_bytes,
            "fabric_bytes": traced.fabric_bytes,
        })

    return {
        "schema": SUMMA_SCHEMA_VERSION,
        "context": {
            "machine": machine,
            "scale": scale,
            "n_gpus": n_gpus,
            "topology": {"kind": topology, "gb_per_s": gb_per_s,
                         "latency": latency},
            "depth": depth,
            "seed": seed,
        },
        "gemm": {
            "problems": gemm_reports,
            "speedup_geomean": geomean(speedups),
        },
        "gemv": {"problems": gemv_reports},
        "selection": {"worst_picked_within_pct": max(within)},
    }


def render(doc: dict) -> str:
    """Paper-style text tables for one summa document."""
    rows = []
    for p in doc["gemm"]["problems"]:
        m, n, k = p["dims"]
        rows.append([
            f"{m}x{n}x{k}",
            p["panel"]["pipelined"],
            round(p["achieved_seconds"]["blocking"] * 1e3, 3),
            round(p["achieved_seconds"]["pipelined"] * 1e3, 3),
            round(p["speedup"], 2),
            round(p["prediction_error_pct"]["pipelined"], 1),
            round(p["picked_within_pct"], 2),
            round(p["overlap"]["achieved_fraction"], 3),
        ])
    gemm_block = format_table(
        ["problem", "panel", "blocking ms", "pipelined ms", "speedup",
         "pred e%", "pick d%", "overlap"],
        rows,
        title=f"SUMMA dgemm on {doc['context']['n_gpus']} x "
              f"{doc['context']['machine']} "
              f"({doc['context']['topology']['kind']}, geomean speedup "
              f"{doc['gemm']['speedup_geomean']:.2f}x)",
    )
    rows = []
    for p in doc["gemv"]["problems"]:
        m, n = p["dims"]
        rows.append([
            f"{m}x{n}",
            p["chunk"]["picked"],
            round(p["achieved_seconds"] * 1e3, 3),
            round(p["prediction_error_pct"], 1),
            round(p["picked_within_pct"], 2),
            round(p["overlap_fraction"], 3),
        ])
    gemv_block = format_table(
        ["problem", "chunk", "achieved ms", "pred e%", "pick d%",
         "overlap"],
        rows,
        title="Streaming dgemv (chunked, per-lane h2d + ring reduce)",
    )
    return gemm_block + "\n\n" + gemv_block


# ---------------------------------------------------------------------------
# schema validation (the CI smoke gate)
# ---------------------------------------------------------------------------

_GEMM_PROBLEM = {
    "dims": of_length(3, list, "expected [m, n, k]"),
    "panel": {"pipelined": positive(int), "blocking": positive(int),
              "sweep_best": positive(int)},
    "achieved_seconds": {"pipelined": POSITIVE, "blocking": POSITIVE,
                         "sweep_best": POSITIVE},
    "predicted_seconds": {"pipelined": float, "blocking": float},
    "prediction_error_pct": {"pipelined": float, "blocking": float},
    "panel_sweep": non_empty(Each(float)),
    "picked_within_pct": float,
    "speedup": POSITIVE,
    "overlap": {"achieved_fraction": FRACTION,
                "achieved_efficiency": float,
                "hidden_seconds_achieved": float,
                "hidden_seconds_predicted": float,
                "overlap_error_pct": float},
}

_GEMV_PROBLEM = {
    "dims": of_length(2, list, "expected [m, n]"),
    "chunk": {"picked": positive(int), "sweep_best": positive(int)},
    "achieved_seconds": POSITIVE,
    "predicted_seconds": float,
    "prediction_error_pct": float,
    "chunk_sweep": non_empty(dict),
    "picked_within_pct": float,
    "overlap_fraction": FRACTION,
    "overlap_efficiency": float,
}

SUMMA_SCHEMA = {
    "schema": const(SUMMA_SCHEMA_VERSION),
    "context": {
        "machine": str,
        "scale": str,
        "n_gpus": at_least(1),
        "topology": {"kind": one_of("kind", ("ring", "all_to_all")),
                     "gb_per_s": float, "latency": float},
    },
    "gemm": {"problems": non_empty([_GEMM_PROBLEM]),
             "speedup_geomean": POSITIVE},
    "gemv": {"problems": non_empty([_GEMV_PROBLEM])},
    "selection": {"worst_picked_within_pct": float},
}


def validate_summa_json(doc: object) -> None:
    """Check a summa document against ``repro.summa/v1``; raise on drift."""
    validate(doc, SUMMA_SCHEMA, "summa")
