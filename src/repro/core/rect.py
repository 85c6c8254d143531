"""Rectangular (per-dimension) tiling for level-3 BLAS.

The paper's conclusion lists "extend[ing] the model to more complex
tiling schemes for level-3 BLAS" as future work; this module implements
that extension for gemm.  A :class:`RectTile` splits (D1, D2, D3) with
independent extents (Tm, Tn, Tk), which matters for non-square
problems: a fat-by-thin multiply wants Tk = K (no inner split) with
large output tiles, which square tiling cannot express.

Model: the DR reasoning of Eq. 5 generalizes directly — per-operand
tile byte counts come from the per-dimension extents; the subkernel
execution time is estimated from the square lookup at the equal-volume
cube edge ``(Tm*Tn*Tk)^(1/3)`` (shape effects on the *kernel* are
second-order next to the transfer-geometry effects this extension
targets; the limitation is documented and tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ModelError
from .instantiation import MachineModels
from .models import bidirectional_overlap_time
from .params import CoCoProblem, prefix_for


@dataclass(frozen=True)
class RectTile:
    """Per-dimension tile extents for gemm: (Tm, Tn, Tk)."""

    tm: int
    tn: int
    tk: int

    def __post_init__(self) -> None:
        if min(self.tm, self.tn, self.tk) <= 0:
            raise ModelError(f"non-positive rect tile {self}")

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.tm, self.tn, self.tk)


def _dim_fill(d: int, t: int) -> float:
    return d / (math.ceil(d / t) * t)


def _avg_extent(d: int, t: int) -> float:
    """Average tile extent along one dimension (edge-aware)."""
    return d / math.ceil(d / t)


def rect_tile_counts(problem: CoCoProblem, tile: RectTile
                     ) -> Tuple[int, int, int]:
    """(Mt, Nt, Kt): tiles per dimension."""
    m, n, k = problem.dims
    return (math.ceil(m / tile.tm), math.ceil(n / tile.tn),
            math.ceil(k / tile.tk))


def predict_dr_rect(
    problem: CoCoProblem,
    tile: RectTile,
    models: MachineModels,
) -> float:
    """DR model (Eq. 5 reasoning) generalized to rectangular tiles."""
    if problem.routine.name != "gemm":
        raise ModelError("rectangular tiling is defined for gemm only")
    m, n, k = problem.dims
    mt, nt, kt = rect_tile_counts(problem, tile)
    n_subkernels = mt * nt * kt
    link = models.link
    lookup = models.exec_lookup("gemm", prefix_for(problem.dtype))
    # Average subkernel execution time.  GPU gemm throughput is
    # governed first by the *output-tile* extent (the thread-block grid
    # is Tm x Tn); estimate the achievable FLOP rate from the square
    # lookup at the equivalent output edge sqrt(Tm*Tn) — a cube with
    # that edge has the same block grid — and charge the tile's actual
    # flops at that rate.  (Under-credits very deep K pipelines, which
    # only makes the estimate conservative.)
    em = _avg_extent(m, tile.tm)
    en = _avg_extent(n, tile.tn)
    ek = _avg_extent(k, tile.tk)
    out_edge = max((em * en) ** 0.5, 1.0)
    rate = 2.0 * out_edge ** 3 / lookup.time(int(round(out_edge)),
                                             interpolate=True)
    t_gpu = 2.0 * em * en * ek / rate
    # Per-operand average tile bytes and tile counts.
    es = problem.elem_size
    op_geometry = {
        "A": (_avg_extent(m, tile.tm) * _avg_extent(k, tile.tk) * es,
              mt * kt),
        "B": (_avg_extent(k, tile.tk) * _avg_extent(n, tile.tn) * es,
              kt * nt),
        "C": (_avg_extent(m, tile.tm) * _avg_extent(n, tile.tn) * es,
              mt * nt),
    }
    t_in = 0.0
    t_out = 0.0
    t_in_steady = 0.0
    t_out_steady = 0.0
    k_in = 0
    for op in problem.operands:
        nbytes, tiles = op_geometry[op.name]
        if op.get:
            t_in += link.h2d.time(nbytes)
            t_in_steady += max(tiles - 1, 0) * link.h2d.time(nbytes)
            k_in += max(tiles - 1, 0)
        if op.set:
            t_out += link.d2h.time(nbytes)
            t_out_steady += max(tiles - 1, 0) * link.d2h.time(nbytes)
    k_in = min(k_in, n_subkernels)
    transfer_term = bidirectional_overlap_time(t_in_steady, t_out_steady,
                                               link)
    steady = max(transfer_term, k_in * t_gpu) \
        + t_gpu * (n_subkernels - k_in)
    return steady + t_in + t_out


@dataclass(frozen=True)
class RectChoice:
    """Result of a rectangular tile-size search."""

    tile: RectTile
    predicted_time: float
    evaluations: int
    square_best: RectTile
    square_predicted: float


def _dim_candidates(d: int, grid: Sequence[int], cap: int) -> List[int]:
    """Candidate extents along one dimension: benchmarked sizes that
    split the dim at least in half (pipelining), plus the full extent
    (no split) — capped for search-space control."""
    cands = [t for t in grid if t <= d / 1.5]
    cands.append(d)  # allow "do not split this dimension"
    cands = sorted(set(cands))
    if len(cands) > cap:
        idx = [round(i * (len(cands) - 1) / (cap - 1)) for i in range(cap)]
        cands = [cands[i] for i in sorted(set(idx))]
    return cands


def select_rect_tile(
    problem: CoCoProblem,
    models: MachineModels,
    per_dim_cap: int = 6,
    max_subkernels: int = 100_000,
) -> RectChoice:
    """Exhaustive model search over rectangular tile candidates.

    Each dimension draws candidates from the benchmarked square grid
    plus the unsplit extent; predictions are analytic (microseconds
    each), so the full cross product is affordable.
    """
    if problem.routine.name != "gemm":
        raise ModelError("rectangular tiling is defined for gemm only")
    m, n, k = problem.dims
    lookup = models.exec_lookup("gemm", prefix_for(problem.dtype))
    grid = lookup.tile_sizes
    cands_m = _dim_candidates(m, grid, per_dim_cap)
    cands_n = _dim_candidates(n, grid, per_dim_cap)
    cands_k = _dim_candidates(k, grid, per_dim_cap)
    best: Optional[RectTile] = None
    best_time = math.inf
    square_best: Optional[RectTile] = None
    square_time = math.inf
    evaluations = 0
    for tm in cands_m:
        for tn in cands_n:
            for tk in cands_k:
                tile = RectTile(tm, tn, tk)
                mt, nt, kt = rect_tile_counts(problem, tile)
                if mt * nt * kt > max_subkernels:
                    continue
                predicted = predict_dr_rect(problem, tile, models)
                evaluations += 1
                if predicted < best_time:
                    best, best_time = tile, predicted
                if tm == tn == tk and predicted < square_time:
                    square_best, square_time = tile, predicted
    if best is None:
        raise ModelError(
            f"no feasible rectangular tile for dims {problem.dims}"
        )
    if square_best is None:
        # No common square candidate; fall back to the overall best.
        square_best, square_time = best, best_time
    return RectChoice(
        tile=best,
        predicted_time=best_time,
        evaluations=evaluations,
        square_best=square_best,
        square_predicted=square_time,
    )
