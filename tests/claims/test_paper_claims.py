"""The paper's claims as one table of machine-checked bands.

Each row of :data:`CLAIMS` names one claim of the CoCoPeLia paper (or
of an extension or ablation this repository adds), the paper's value,
and the band that the ``quick``-scale reproduction must fall in.  A
row's verdict is *reproduced*, or *deviation* with a one-line reason
why the measurement departs from the paper.  A row reads its numbers
off one experiment (one per cell, for instance per testbed and
precision) and every number must lie in the band.  EXPERIMENTS.md
quotes the measured values under the same row ids.

Every experiment runs once per session through the fixtures below.
Run ``pytest tests/claims -q -s`` to print each row's measured values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pytest

from repro.core.models import predict_dr
from repro.core.params import gemm_problem
from repro.core.select import candidate_tiles
from repro.deploy import DeploymentConfig, deploy
from repro.deploy.microbench import TransferBenchConfig, fit_link_model
from repro.errors import ModelError
from repro.experiments import (fig1_tiling_effect, fig2_pipeline,
                               fig4_bts_validation, fig5_dr_validation,
                               fig6_tile_selection, fig7_performance,
                               table2_transfer_models, table4_improvement,
                               workloads)
from repro.experiments.harness import models_for, run_gemm
from repro.experiments.metrics import percent_error
from repro.runtime import CoCoPeLiaLibrary, MultiGpuCoCoPeLia, predict_multi_gpu
from repro.sim.machine import get_testbed
from tests.machines import custom_machine

SCALE = "quick"
INF = math.inf
TESTBEDS = ("testbed_i", "testbed_ii")
GEMMS = ("dgemm", "sgemm")
#: The dgemm every scheduler ablation runs, and its tile.
ABLATION_DIMS = (3072, 3072, 3072)
ABLATION_TILE = 768


@dataclass(frozen=True)
class Claim:
    id: str
    #: the session fixture whose result the row reads
    experiment: str
    claim: str
    paper: str
    lo: float
    hi: float
    measure: Callable[[object], Sequence[float]]
    #: why the measurement departs from the paper; empty = reproduced
    deviation: str = ""

    @property
    def verdict(self) -> str:
        return "deviation" if self.deviation else "reproduced"


# ---------------------------------------------------------------------------
# experiments (one run per session)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def table2():
    result = table2_transfer_models.run(scale=SCALE)
    return {(r.machine, r.direction): r for r in result.rows}


@pytest.fixture(scope="session")
def fig1():
    return fig1_tiling_effect.run(scale=SCALE)


@pytest.fixture(scope="session")
def fig2():
    return fig2_pipeline.run(scale=SCALE)


@pytest.fixture(scope="session")
def fig4():
    return fig4_bts_validation.run(scale=SCALE).samples


@pytest.fixture(scope="session")
def fig5():
    return fig5_dr_validation.run(scale=SCALE).samples


@pytest.fixture(scope="session")
def fig6():
    return fig6_tile_selection.run(scale=SCALE)


@pytest.fixture(scope="session")
def fig7():
    return fig7_performance.run(scale=SCALE).points


@pytest.fixture(scope="session")
def table4():
    return table4_improvement.run(scale=SCALE).cells


@pytest.fixture(scope="session")
def testbed_ii():
    machine = get_testbed("testbed_ii")
    return machine, models_for(machine, SCALE)


@pytest.fixture(scope="session")
def dr_refinements(testbed_ii):
    """Median |e%| of Eq. 5 with each DR refinement switched on."""
    machine, models = testbed_ii
    lib = CoCoPeLiaLibrary(machine, models)
    variants = {
        "paper-literal": dict(edge_aware=False, bid_aware=False),
        "edge-aware": dict(edge_aware=True, bid_aware=False),
        "edge+bid-aware": dict(edge_aware=True, bid_aware=True),
    }
    errors = {name: [] for name in variants}
    for problem in workloads.gemm_validation_set(SCALE)[:20]:
        for t in candidate_tiles(problem, models, clamped=False)[::2]:
            measured = run_gemm(lib, problem, tile_size=t).seconds
            for name, flags in variants.items():
                try:
                    predicted = predict_dr(problem, t, models, **flags)
                except ModelError:
                    continue
                errors[name].append(abs(percent_error(predicted, measured)))
    return {name: float(np.median(v)) for name, v in errors.items()}


@pytest.fixture(scope="session")
def scheduler_variants(testbed_ii):
    """One dgemm under each scheduler variant the ablations compare."""
    machine, models = testbed_ii
    lib = CoCoPeLiaLibrary(machine, models)
    variants = {
        "reuse": {},
        "re-fetch": dict(use_cache=False),
        "l_outer": dict(order="l_outer"),
    }
    return {name: lib.gemm(*ABLATION_DIMS, tile_size=ABLATION_TILE, **kw)
            for name, kw in variants.items()}


@pytest.fixture(scope="session")
def prefetch(testbed_ii):
    """Seconds per h2d lookahead depth (None = unbounded)."""
    machine, models = testbed_ii
    lib = CoCoPeLiaLibrary(machine, models)
    return {d: lib.gemm(*ABLATION_DIMS, tile_size=512,
                        prefetch_depth=d).seconds
            for d in (1, 2, 4, 8, 16, None)}


@pytest.fixture(scope="session")
def rect(testbed_ii):
    """(square seconds, rect seconds) per non-square-friendly problem."""
    machine, models = testbed_ii
    lib = CoCoPeLiaLibrary(machine, models)
    dims_list = [(4864, 4864, 1280), (6400, 6400, 768),
                 (2048, 2048, 8192), (4096, 4096, 4096)]
    return [(lib.gemm(*dims).seconds, lib.gemm(*dims, rect=True).seconds)
            for dims in dims_list]


@pytest.fixture(scope="session")
def ci_repetition():
    """Mean |bandwidth error| of the CI stopping rule and of a fixed
    two-repetition benchmark, on a machine with 5% duration noise."""
    noisy = custom_machine(h2d_gb=10.0, noise_sigma=0.05, name="noisy")
    ci_rule = TransferBenchConfig.quick()
    fixed = TransferBenchConfig(edges=ci_rule.edges, latency_probes=4,
                                min_reps=2, max_reps=2)
    errors = {}
    for name, cfg in (("ci-driven", ci_rule), ("fixed-2rep", fixed)):
        errors[name] = float(np.mean([
            abs(fit_link_model(noisy, cfg, seed=seed)[0].h2d.bandwidth
                / 10e9 - 1.0)
            for seed in range(6)]))
    return errors


@pytest.fixture(scope="session")
def multigpu(testbed_ii):
    """GPUs -> (measured result, predicted seconds) for one dgemm."""
    machine, models = testbed_ii
    dims = (8192,) * 3
    problem = gemm_problem(*dims)
    return {g: (MultiGpuCoCoPeLia(machine, g, models).gemm(*dims),
                predict_multi_gpu(problem, g, models))
            for g in (1, 2, 4)}


@pytest.fixture(scope="session")
def syrk():
    """(syrk, equivalent gemm) results per quick square size."""
    machine = get_testbed("testbed_ii")
    models = deploy(machine, DeploymentConfig.quick(
        routines=(("gemm", np.float64), ("syrk", np.float64))))
    lib = CoCoPeLiaLibrary(machine, models)
    return [(lib.syrk(n, n), lib.gemm(n, n, n))
            for n in workloads._GEMM_SQUARES[SCALE]]


# ---------------------------------------------------------------------------
# reading the experiments
# ---------------------------------------------------------------------------

def _median_abs(samples) -> float:
    return float(np.median(np.abs(samples)))


def _err(samples, machine, routine, model):
    return np.asarray(samples[(machine, routine, model)])


def _per_cell(fn, routines=GEMMS):
    """``fn(machine, routine)`` over every testbed x routine."""
    return lambda result: [fn(result, m, r)
                           for m in TESTBEDS for r in routines]


def _table4(routine_suffix, offload):
    return lambda cells: [c.improvement_pct for c in cells
                          if c.routine.endswith(routine_suffix)
                          and c.offload == offload]


def _fig6(fn):
    return lambda result: [v for routine in result.rows_by_routine
                           for v in fn(result, routine)]


def _fig7_fat_thin_wins(points):
    out = []
    for (_, _, scenario), pts in points.items():
        if scenario == "fat_thin":
            wins = sum(p.gflops["BLASX"] > p.gflops["cuBLASXt"] for p in pts)
            out.append(wins / len(pts))
    return out


def _fig1_tail(series):
    tail = [g for t, g in zip(series.tiles, series.gflops) if t > series.t_opt]
    return min(tail) / series.gflops_opt if tail else INF


def _syrk_ratio(attr):
    return lambda pairs: [attr(s) / attr(g) for s, g in pairs]


def _bytes(result):
    return result.h2d_bytes + result.d2h_bytes


CLAIMS = (
    # --- Table II: transfer sub-models ---------------------------------
    Claim("table2.bandwidth_gap", "table2",
          "Testbed II's h2d bandwidth is a multiple of Testbed I's",
          "12.18 vs 3.15 GB/s (3.87x)", 3.5, 4.2,
          lambda r: [r["testbed_ii", "h2d"].bandwidth_gb
                     / r["testbed_i", "h2d"].bandwidth_gb]),
    Claim("table2.sl_gap", "table2",
          "Testbed II's h2d bidirectional slowdown exceeds Testbed I's",
          "sl 1.27 vs ~1.07", 0.1, INF,
          lambda r: [r["testbed_ii", "h2d"].sl - r["testbed_i", "h2d"].sl]),
    Claim("table2.sl_d2h_over_h2d", "table2",
          "on Testbed II, d2h is slowed more than h2d",
          "sl 1.41 vs 1.27", 0.1, INF,
          lambda r: [r["testbed_ii", "d2h"].sl - r["testbed_ii", "h2d"].sl]),
    Claim("table2.bandwidth_fit", "table2",
          "fitted bandwidths recover the testbed's |rel. error|",
          "Table II values", 0.0, 0.015,
          lambda r: [abs(row.bandwidth_gb / row.truth_bandwidth_gb - 1)
                     for row in r.values()]),
    Claim("table2.sl_fit", "table2",
          "fitted slowdowns recover the testbed's |rel. error|",
          "Table II values", 0.0, 0.02,
          lambda r: [abs(row.sl / row.truth_sl - 1) for row in r.values()]),
    # --- Fig. 1: tiling-size effect on cuBLASXt dgemm ------------------
    Claim("fig1.interior_optimum", "fig1",
          "T_opt is larger than the smallest tile (share of series)",
          "rises as T shrinks to one/two maxima", 1.0, 1.0,
          lambda r: [float(np.mean([s.t_opt > min(s.tiles)
                                    for s in r.series]))]),
    Claim("fig1.degrades_past_optimum", "fig1",
          "worst tile above T_opt, as a fraction of T_opt GFLOP/s",
          "degrades rapidly past the maxima", 0.0, 0.80,
          lambda r: [_fig1_tail(s) for s in r.series]),
    Claim("fig1.breakpoints_vary", "fig1",
          "distinct T_opt across testbeds x sizes",
          "break-points differ", 3, INF,
          lambda r: [len({s.t_opt for s in r.series})]),
    Claim("fig1.static_loss", "fig1",
          "largest loss of static T=4096 vs T_opt (%)",
          "9.4% (TB I) / 14.7% (TB II)", 10.0, INF,
          lambda r: [max(s.static_slowdown_pct for s in r.series)]),
    # --- Fig. 2: reuse pipeline ----------------------------------------
    Claim("fig2.h2d_overlaps_exec", "fig2",
          "share of h2d busy time overlapping execution",
          "h2d overlaps execution throughout", 0.6, 1.0,
          lambda r: [r.h2d_exec_overlap / r.h2d_busy]),
    Claim("fig2.pipeline_beats_serial", "fig2",
          "pipeline time / sum of engine busy times",
          "3-way concurrency", 0.0, 0.65,
          lambda r: [r.seconds / (r.h2d_busy + r.exec_busy + r.d2h_busy)]),
    # --- Fig. 4: BTS vs CSO, no-reuse offload --------------------------
    Claim("fig4.bts_daxpy", "fig4", "BTS median |e%| on daxpy",
          "1-2%", 0.0, 1.0,
          _per_cell(lambda s, m, r: _median_abs(_err(s, m, r, "bts")),
                    ("daxpy",))),
    Claim("fig4.bts_vs_cso_daxpy", "fig4",
          "BTS / CSO median |e%| on daxpy",
          "BTS 1-2% vs CSO 3-7%", 0.0, 0.2,
          _per_cell(lambda s, m, r: _median_abs(_err(s, m, r, "bts"))
                    / _median_abs(_err(s, m, r, "cso")), ("daxpy",))),
    Claim("fig4.bts_gemm", "fig4", "BTS median |e%| on cuBLASXt d/sgemm",
          "10-15%", 0.0, 1.5,
          _per_cell(lambda s, m, r: _median_abs(_err(s, m, r, "bts"))),
          deviation="the simulated cuBLASXt moves exactly the transfers "
                    "BTS assumes; the real one adds unmodelled "
                    "scheduling overhead"),
    Claim("fig4.bts_minus_cso_gemm", "fig4",
          "BTS minus CSO median |e%| on cuBLASXt d/sgemm (points)",
          "BTS tighter than CSO", -INF, -3.0,
          _per_cell(lambda s, m, r: _median_abs(_err(s, m, r, "bts"))
                    - _median_abs(_err(s, m, r, "cso")))),
    Claim("fig4.cso_spread_tb2", "fig4",
          "CSO / BTS median |e%| on Testbed II d/sgemm",
          "CSO 20-34% vs BTS 10-15%", 8.0, INF,
          lambda s: [_median_abs(_err(s, "testbed_ii", r, "cso"))
                     / _median_abs(_err(s, "testbed_ii", r, "bts"))
                     for r in GEMMS]),
    # --- Fig. 5: DR vs CSO on the reuse library ------------------------
    Claim("fig5.dr_median", "fig5",
          "DR median e% on CoCoPeLia d/sgemm",
          "2-5%", 0.0, 9.0,
          _per_cell(lambda s, m, r: float(np.median(_err(s, m, r, "dr")))),
          deviation="quick-scale medians reach 7.3%, above the paper's "
                    "5%; DR still overpredicts by a few percent, as in "
                    "the paper"),
    Claim("fig5.dr_vs_cso", "fig5",
          "DR / CSO median |e%| on CoCoPeLia d/sgemm",
          "DR 2-5% vs CSO 7-15%", 0.0, 0.1,
          _per_cell(lambda s, m, r: _median_abs(_err(s, m, r, "dr"))
                    / _median_abs(_err(s, m, r, "cso")))),
    Claim("fig5.positive_tail", "fig5",
          "DR e% p95 / |p5|: the tail is overprediction",
          "tail of positive errors", 1.5, INF,
          _per_cell(lambda s, m, r: np.percentile(_err(s, m, r, "dr"), 95)
                    / abs(np.percentile(_err(s, m, r, "dr"), 5)))),
    # --- Fig. 6: tile selection (Testbed II) ---------------------------
    Claim("fig6.t_opt_median_gain", "fig6",
          "T_opt over static T=2048, median speedup per precision",
          "+4% dgemm / +13.5% sgemm", 1.02, INF,
          _fig6(lambda r, routine: [r.summary(routine)["t_opt"]]),
          deviation="quick problems are half the paper's edge, so T=2048 "
                    "is near-optimal on more of them"),
    Claim("fig6.t_opt_max_gain", "fig6",
          "T_opt over static T=2048, best-case speedup per precision",
          "up to ~20%", 1.5, INF,
          _fig6(lambda r, routine: [r.summary_max(routine)["t_opt"]])),
    Claim("fig6.selectors_near_opt", "fig6",
          "every selector's median fraction of T_opt GFLOP/s",
          "within a few % of T_opt", 0.95, 1.0,
          _fig6(lambda r, routine: r.gap_to_optimal(routine).values())),
    Claim("fig6.dr_near_opt", "fig6",
          "DR-selected median fraction of T_opt GFLOP/s",
          "DR closest to T_opt", 0.965, 1.0,
          _fig6(lambda r, routine: [r.gap_to_optimal(routine)["dr"]])),
    Claim("fig6.selectors_vs_static", "fig6",
          "every selector's median speedup over static T=2048",
          "model-selected T at or above static", 0.99, INF,
          _fig6(lambda r, routine: [
              r.summary(routine)[m] for m in fig6_tile_selection.SELECTORS])),
    # --- Fig. 7: library comparison ------------------------------------
    Claim("fig7.cocopelia_vs_best", "fig7",
          "worst CoCoPeLia / best-library GFLOP/s per scenario",
          "CoCoPeLia >= both rivals", 0.93, 1.0,
          lambda points: [min(p.gflops["CoCoPeLia"] / max(p.gflops.values())
                              for p in pts) for pts in points.values()]),
    Claim("fig7.blasx_wins_fat_thin", "fig7",
          "share of fat-by-thin problems where BLASX beats cuBLASXt",
          "BLASX > cuBLASXt on fat-by-thin", 1.0, 1.0,
          _fig7_fat_thin_wins),
    # --- Table IV: geomean improvement over the best rival -------------
    Claim("table4.gemm_partial", "table4",
          "d/sgemm partial-offload improvement (%)",
          "5-15%", 4.5, INF, _table4("gemm", "partial")),
    Claim("table4.gemm_full", "table4",
          "d/sgemm full-offload improvement (%)",
          "16-33%", 3.0, INF, _table4("gemm", "full"),
          deviation="our BLASX rival shares CoCoPeLia's scheduler and pays "
                    "none of BLASX's tile-management cost "
                    "(arXiv 1510.05041)"),
    Claim("table4.daxpy", "table4",
          "daxpy improvement over unified memory + prefetch (%)",
          "daxpy beats unified memory", 45.0, INF,
          lambda cells: [c.improvement_pct for c in cells
                         if c.routine == "daxpy"]),
    # --- Ablations of DESIGN.md §5 -------------------------------------
    Claim("ablation.dr_refinements", "dr_refinements",
          "edge+bid-aware minus literal Eq. 5 median |e%| (points)",
          "- (literal Eq. 5 is the paper's)", -INF, -3.0,
          lambda e: [e["edge+bid-aware"] - e["paper-literal"]]),
    Claim("ablation.tile_cache_speedup", "scheduler_variants",
          "re-fetch / fetch-once time, dgemm 3072^3",
          "- (reuse the DR model assumes)", 2.0, INF,
          lambda v: [v["re-fetch"].seconds / v["reuse"].seconds]),
    Claim("ablation.tile_cache_traffic", "scheduler_variants",
          "re-fetch / fetch-once h2d bytes",
          "-", 2.5, INF,
          lambda v: [v["re-fetch"].h2d_bytes / v["reuse"].h2d_bytes]),
    Claim("ablation.traversal_traffic", "scheduler_variants",
          "l_outer / reuse-order h2d bytes",
          "-", 1.0, 1.0,
          lambda v: [v["l_outer"].h2d_bytes / v["reuse"].h2d_bytes]),
    Claim("ablation.traversal_time", "scheduler_variants",
          "reuse-order / l_outer time",
          "-", 0.0, 1.0,
          lambda v: [v["reuse"].seconds / v["l_outer"].seconds]),
    Claim("ablation.prefetch_depth1", "prefetch",
          "depth-1 lookahead / unbounded time",
          "-", 1.25, INF, lambda t: [t[1] / t[None]]),
    Claim("ablation.prefetch_depth16", "prefetch",
          "depth-16 / depth-1 lookahead time",
          "-", 0.0, 0.8, lambda t: [t[16] / t[1]]),
    Claim("ablation.rect_best_gain", "rect",
          "best square / rect time over four shapes",
          "- (paper future work)", 1.08, INF,
          lambda pairs: [max(sq / rc for sq, rc in pairs)]),
    Claim("ablation.rect_worst_loss", "rect",
          "worst rect / square time over four shapes",
          "-", 0.0, 1.08,
          lambda pairs: [max(rc / sq for sq, rc in pairs)]),
    Claim("ablation.ci_repetition", "ci_repetition",
          "CI-rule / fixed-2-rep mean |bandwidth error|, 5% noise",
          "- (95% CI within 5% of the mean)", 0.0, 0.8,
          lambda e: [e["ci-driven"] / e["fixed-2rep"]]),
    # --- Extensions: multi-GPU and syrk --------------------------------
    Claim("multigpu.scaling", "multigpu",
          "speedup from 1 to 2 and from 2 to 4 GPUs, dgemm 8192^3",
          "- (paper future work)", 1.3, INF,
          lambda r: [r[1][0].seconds / r[2][0].seconds,
                     r[2][0].seconds / r[4][0].seconds]),
    Claim("multigpu.sublinear", "multigpu",
          "1 -> 4 GPU speedup (the A broadcast bounds it)",
          "-", 2.5, 3.5, lambda r: [r[1][0].seconds / r[4][0].seconds]),
    Claim("multigpu.broadcast_traffic", "multigpu",
          "4-GPU / 1-GPU h2d bytes",
          "-", 1.5, INF, lambda r: [r[4][0].h2d_bytes / r[1][0].h2d_bytes]),
    Claim("multigpu.prediction", "multigpu",
          "|predicted - measured| / measured per GPU count",
          "-", 0.0, 0.15,
          lambda r: [abs(pred - res.seconds) / res.seconds
                     for res, pred in r.values()]),
    Claim("syrk.bytes", "syrk",
          "syrk / equivalent gemm bytes moved",
          "- (paper future work)", 0.0, 0.65, _syrk_ratio(_bytes)),
    Claim("syrk.time", "syrk",
          "syrk / equivalent gemm time",
          "-", 0.0, 0.70, _syrk_ratio(lambda res: res.seconds)),
    Claim("syrk.dr_error", "syrk",
          "|DR prediction error| of auto-selected syrk",
          "-", 0.0, 0.08,
          lambda pairs: [abs(s.prediction_error) for s, _ in pairs]),
)


def test_row_ids_are_unique():
    ids = [row.id for row in CLAIMS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("row", CLAIMS, ids=lambda row: row.id)
def test_claim(row, request):
    values = [float(v) for v in row.measure(
        request.getfixturevalue(row.experiment))]
    print(f"\n{row.id}: {min(values):.4g}..{max(values):.4g} "
          f"in [{row.lo}, {row.hi}] ({row.verdict})")
    assert values
    outside = [v for v in values if not row.lo <= v <= row.hi]
    assert not outside, (
        f"{row.claim}: {outside} outside [{row.lo}, {row.hi}] "
        f"(paper: {row.paper}; verdict {row.verdict})")
