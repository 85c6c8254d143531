"""The 3-way-concurrency offload-time models (paper Section III-B).

All predictors share the same signature::

    predict_*(problem, t, models, interpolate=False) -> seconds

where ``problem`` is a :class:`~repro.core.params.CoCoProblem`, ``t``
the tiling size, and ``models`` a
:class:`~repro.core.instantiation.MachineModels` produced by the
deployment module.  Predictors never see the simulator's ground-truth
parameters — only the empirically fitted ones.

Implemented models:

==============  =======  ====================================================
name            paper    assumptions
==============  =======  ====================================================
``cso``         [11]     linear kernel scaling, no reuse, no bid slowdown
``baseline``    Eq. 1    all operands both fetched and written back
``dataloc``     Eq. 2    only get/set operands transferred
``bts``         Eq. 3+4  + asymmetric bidirectional slowdown
``dr``          Eq. 5    + fetch-once data reuse (level-3)
==============  =======  ====================================================

Edge-aware extension
--------------------
The paper's formulas assume every tile is a full ``T x T`` square
(exact when ``T`` divides every dimension).  With ``edge_aware=True``
(the default for the CoCoPeLia models) per-tile times are scaled by the
*average* tile work/bytes — ``D / (ceil(D/T) * T)`` per dimension — so
tile sizes that do not divide the problem, or that exceed a small
dimension (clamped tiles of fat-by-thin problems), are predicted
instead of over-charged.  ``edge_aware=False`` recovers the paper's
literal formulas; the ``ablation.dr_refinements`` row of the claims
table (``tests/claims/test_paper_claims.py``) compares both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..errors import ModelError
from .exec_model import ExecLookup
from .instantiation import MachineModels
from .params import CoCoProblem, OperandInstance, prefix_for
from .transfer_model import LinkModel


def _dim_fill(d: int, t: int) -> float:
    """Average fraction of a T-extent actually covered along one dim."""
    return d / (math.ceil(d / t) * t)


@dataclass(frozen=True)
class TileTimes:
    """Per-tile component times for a given (problem, T)."""

    #: Execution time of one (average) subkernel.
    t_gpu: float
    #: Pipeline-fill fetch: one tile of every get-flagged operand.
    t_in: float
    #: Pipeline-drain writeback: one tile of every set-flagged operand.
    t_out: float
    #: Mean h2d time of one tile over the *fetched* operands.
    t_h2d_fetched: float
    #: Mean h2d / d2h time of one tile over *all* operands (Eq. 1 uses
    #: these with the opd multiplier).
    t_h2d_all: float
    t_d2h_all: float


def _operand_tile_bytes(problem: CoCoProblem, op: OperandInstance, t: int,
                        edge_aware: bool) -> float:
    """Bytes of one tile of operand ``op`` (average tile if edge-aware)."""
    if edge_aware:
        # Average tile extent per dimension: s / ceil(s/t) — equals t
        # for divisible dims, s for clamped dims (s < t).
        e1 = t * _dim_fill(op.s1, t)
        e2 = 1.0 if op.is_vector else t * _dim_fill(op.s2, t)
    else:
        e1 = float(t)
        e2 = 1.0 if op.is_vector else float(t)
    return e1 * e2 * problem.elem_size


def tile_times(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
) -> TileTimes:
    """Single-tile transfer and execution times (the f1/f2/f3 of III-B)."""
    if t <= 0:
        raise ModelError(f"non-positive tiling size {t}")
    if not edge_aware and t > problem.min_dim():
        raise ModelError(
            f"tiling size {t} exceeds the smallest problem dimension "
            f"{problem.min_dim()} (only valid with edge_aware=True)"
        )
    link = models.link
    lookup = models.exec_lookup(problem.routine.name, prefix_for(problem.dtype))
    # --- kernel time of the average subkernel ---
    t_gpu = lookup.time(t, interpolate=interpolate)
    if edge_aware:
        # Average subkernel work relative to a full T^... kernel: each
        # dimension contributes d / (ceil(d/t) * t), which covers both
        # ragged edges (d > t, not divisible) and clamping (d < t).
        work_ratio = 1.0
        for d in problem.dims:
            work_ratio *= _dim_fill(d, t)
        t_gpu *= work_ratio
    # --- per-operand tile transfer times ---
    h2d_times: List[float] = []
    d2h_times: List[float] = []
    fetched_h2d: List[float] = []
    t_in = 0.0
    t_out = 0.0
    for op in problem.operands:
        nbytes = _operand_tile_bytes(problem, op, t, edge_aware)
        th = link.h2d.time(nbytes)
        td = link.d2h.time(nbytes)
        h2d_times.append(th)
        d2h_times.append(td)
        if op.get:
            t_in += th
            fetched_h2d.append(th)
        if op.set:
            t_out += td
    return TileTimes(
        t_gpu=t_gpu,
        t_in=t_in,
        t_out=t_out,
        t_h2d_fetched=(sum(fetched_h2d) / len(fetched_h2d)
                       if fetched_h2d else 0.0),
        t_h2d_all=sum(h2d_times) / len(h2d_times),
        t_d2h_all=sum(d2h_times) / len(d2h_times),
    )


# ---------------------------------------------------------------------------
# Eq. 1 — baseline full-offload model
# ---------------------------------------------------------------------------

def predict_baseline(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
) -> float:
    """Paper Eq. 1: pipelined steady state of ``k`` subkernels, with all
    ``opd`` operands assumed both input and output."""
    tt = tile_times(problem, t, models, interpolate, edge_aware)
    k = problem.k(t)
    opd = problem.opd
    t_in = opd * tt.t_h2d_all
    t_out = opd * tt.t_d2h_all
    steady = max(tt.t_gpu, t_in, t_out) * (k - 1)
    return steady + t_in + tt.t_gpu + t_out


# ---------------------------------------------------------------------------
# Eq. 2 — data-location-aware model
# ---------------------------------------------------------------------------

def predict_dataloc(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
) -> float:
    """Paper Eq. 2: like Eq. 1, but only operands with ``get_i = 1`` are
    fetched and only those with ``set_i = 1`` are written back."""
    tt = tile_times(problem, t, models, interpolate, edge_aware)
    k = problem.k(t)
    steady = max(tt.t_gpu, tt.t_in, tt.t_out) * (k - 1)
    return steady + tt.t_in + tt.t_gpu + tt.t_out


# ---------------------------------------------------------------------------
# Eq. 3 — bidirectional overlap time
# ---------------------------------------------------------------------------

def bidirectional_overlap_time(t_in: float, t_out: float, link: LinkModel) -> float:
    """Paper Eq. 3: total time of simultaneous h2d/d2h transfers.

    Both directions slow down while overlapped; when the shorter side
    finishes, the remainder of the longer side proceeds at full speed.
    The remaining *slowed* time divided by that direction's slowdown is
    the time it takes once uncontended.
    """
    t_in_bid = link.h2d.sl * t_in
    t_out_bid = link.d2h.sl * t_out
    if t_in_bid >= t_out_bid:
        return t_out_bid + (t_in_bid - t_out_bid) / link.h2d.sl
    return t_in_bid + (t_out_bid - t_in_bid) / link.d2h.sl


# ---------------------------------------------------------------------------
# Eq. 4 — BTS model (bidirectional transfer slowdown)
# ---------------------------------------------------------------------------

def predict_bts(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
) -> float:
    """Paper Eq. 4: Eq. 2 with the steady-state transfer term replaced
    by the bidirectional overlap time of Eq. 3."""
    tt = tile_times(problem, t, models, interpolate, edge_aware)
    k = problem.k(t)
    t_over = bidirectional_overlap_time(tt.t_in, tt.t_out, models.link)
    steady = max(tt.t_gpu, t_over) * (k - 1)
    return steady + tt.t_in + tt.t_gpu + tt.t_out


# ---------------------------------------------------------------------------
# Eq. 5 — DR model (full data reuse, level-3 BLAS)
# ---------------------------------------------------------------------------

def reuse_transfer_subkernels(problem: CoCoProblem, t: int) -> int:
    """``k_in`` of Section III-B.3: subkernels that still require a tile
    transfer under fetch-once reuse.

    Each fetched operand ``i`` contributes ``tiles_i`` transfers in
    total; the first tile of each operand is loaded while filling the
    pipeline (counted by the model's ``t_in`` term), leaving
    ``tiles_i - 1`` transfers to overlap with the ``k`` subkernels.
    """
    return sum(max(op.tiles(t) - 1, 0) for op in problem.fetched_operands())


def predict_dr(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
    bid_aware: bool = True,
) -> float:
    """Paper Eq. 5: fetch-once data reuse.

    ``k_in`` subkernels overlap one tile transfer each; the remaining
    ``k - k_in`` subkernels find all tiles resident and cost
    ``t_GPU^T``; pipeline fill/drain add ``t_in + t_out``.

    Two refinements over the literal Eq. 5, both on by default and both
    reducible to the paper's formula (``edge_aware=False,
    bid_aware=False`` with uniform tiles):

    * the steady-state transfer term is computed from the *per-operand*
      steady transfer totals (each fetched operand contributes
      ``tiles_i - 1`` transfers of its own tile size), which also
      absorbs the ``k_in > k`` transfer-bound regime naturally;
    * with ``bid_aware=True``, the fetch-once writebacks of set-flagged
      operands (``tiles_i - 1`` d2h transfers each) are overlapped with
      the steady h2d stream through Eq. 3, so transfer-bound problems
      are charged the bidirectional slowdown the hardware imposes.
      The paper's Eq. 5 ignores d2h entirely, which it notes causes
      occasional high errors.
    """
    tt = tile_times(problem, t, models, interpolate, edge_aware)
    k = problem.k(t)
    link = models.link
    t_in_steady = 0.0
    t_out_steady = 0.0
    for op in problem.operands:
        n_extra = max(op.tiles(t) - 1, 0)
        if n_extra == 0:
            continue
        nbytes = _operand_tile_bytes(problem, op, t, edge_aware)
        if op.get:
            t_in_steady += n_extra * link.h2d.time(nbytes)
        if op.set:
            t_out_steady += n_extra * link.d2h.time(nbytes)
    if bid_aware:
        transfer_term = bidirectional_overlap_time(
            t_in_steady, t_out_steady, link
        )
    else:
        transfer_term = t_in_steady
    k_in = min(reuse_transfer_subkernels(problem, t), k)
    steady = max(transfer_term, k_in * tt.t_gpu) + tt.t_gpu * (k - k_in)
    return steady + tt.t_in + tt.t_out


# ---------------------------------------------------------------------------
# Analysis bounds: serial floor and ideal-overlap lower bound
# ---------------------------------------------------------------------------

def predict_serial(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
) -> float:
    """No-overlap offload time: all fetches, then all subkernels, then
    all writebacks, with fetch-once volumes.

    Not a paper model — an analysis ceiling: any overlap implementation
    should land below it.
    """
    tt = tile_times(problem, t, models, interpolate, edge_aware)
    k = problem.k(t)
    link = models.link
    total_in = 0.0
    total_out = 0.0
    for op in problem.operands:
        nbytes = _operand_tile_bytes(problem, op, t, edge_aware)
        n_tiles = op.tiles(t)
        if op.get:
            total_in += n_tiles * link.h2d.time(nbytes)
        if op.set:
            total_out += n_tiles * link.d2h.time(nbytes)
    return total_in + k * tt.t_gpu + total_out


def predict_ideal(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = True,
) -> float:
    """Perfect-overlap lower bound: the busiest engine's total time.

    Not a paper model — an analysis floor: no schedule can beat
    ``max(total h2d, total compute, total d2h)``.  The ratio
    ``predict_ideal / measured`` is the pipeline's overlap efficiency.
    """
    tt = tile_times(problem, t, models, interpolate, edge_aware)
    k = problem.k(t)
    link = models.link
    total_in = 0.0
    total_out = 0.0
    for op in problem.operands:
        nbytes = _operand_tile_bytes(problem, op, t, edge_aware)
        n_tiles = op.tiles(t)
        if op.get:
            total_in += n_tiles * link.h2d.time(nbytes)
        if op.set:
            total_out += n_tiles * link.d2h.time(nbytes)
    return max(total_in, k * tt.t_gpu, total_out)


# ---------------------------------------------------------------------------
# CSO — the comparator model of Werkhoven et al. [11]
# ---------------------------------------------------------------------------

_WORK_EXPONENT = {1: 1, 2: 2, 3: 3}


def _linearized_gpu_time(problem: CoCoProblem, t: int,
                         lookup: ExecLookup) -> float:
    """Kernel time per chunk under the CSO linear-scaling assumption.

    Werkhoven et al. take the *full problem's* kernel time as input and
    divide it evenly across chunks.  Instantiated from the same
    micro-benchmarks as our models (as the paper's comparison does),
    this amounts to scaling the largest benchmarked tile's time — the
    one closest to peak efficiency — down by the work ratio, i.e.
    assuming execution time is linear in the working set.
    """
    sizes = lookup.tile_sizes
    if not sizes:
        raise ModelError("empty execution lookup")
    ref = sizes[-1]
    exp = _WORK_EXPONENT[problem.level]
    return lookup.time(ref) * (t / ref) ** exp


def predict_cso(
    problem: CoCoProblem,
    t: int,
    models: MachineModels,
    interpolate: bool = False,
    edge_aware: bool = False,
) -> float:
    """The CUDA-stream-overlap model with two copy engines of [11].

    Werkhoven et al.'s model takes the amounts to transfer and the
    kernel execution time as *inputs*, so it is instantiated with the
    problem's actual transfer set (get/set flags).  Its restrictions
    relative to the CoCoPeLia models (Section III-A) are structural:
    linear kernel-time scaling, no bidirectional slowdown, and no data
    reuse between subkernels.  It is always evaluated in its literal
    form (no edge-aware correction).
    """
    if t <= 0:
        raise ModelError(f"non-positive tiling size {t}")
    if t > problem.min_dim():
        # The CSO model has no notion of clamped tiles; approximate by
        # clamping T to the smallest dimension.
        t = problem.min_dim()
    tb = problem.tile_bytes(t)
    lookup = models.exec_lookup(problem.routine.name, prefix_for(problem.dtype))
    k = problem.k(t)
    t_h2d_c = problem.n_get() * models.link.h2d.time(tb)
    t_d2h_c = problem.n_set() * models.link.d2h.time(tb)
    t_gpu_c = _linearized_gpu_time(problem, t, lookup)
    dominant = max(k * t_gpu_c, k * t_h2d_c, k * t_d2h_c)
    return dominant + t_h2d_c + t_d2h_c
