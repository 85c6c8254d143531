"""Tiling-size selection: the CoCoPeLia_select runtime (Section IV-B).

Given a problem and a deployed :class:`MachineModels`, evaluate the
chosen prediction model over the benchmarked candidate tile sizes
(subject to the paper's validity constraint ``T <= min(D)/1.5``) and
return the predicted-best tiling size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ModelError
from .instantiation import MachineModels
from .params import CoCoProblem, prefix_for
from .predcache import PredictionCache
from .registry import resolve_model, sweep_predict

#: The paper evaluates tile sizes no larger than min(D1,D2,D3)/1.5 so a
#: problem always splits into enough tiles to pipeline.
MAX_TILE_FRACTION = 1.5


@dataclass(frozen=True)
class TileChoice:
    """Result of a tile-size selection."""

    t_best: int
    predicted_time: float
    model: str
    per_tile: Dict[int, float] = field(default_factory=dict)


def candidate_tiles(
    problem: CoCoProblem,
    models: MachineModels,
    min_tile: int = 0,
    clamped: bool = True,
) -> List[int]:
    """Benchmarked tile sizes valid for this problem, ascending.

    With ``clamped=True`` (default) tile sizes may exceed small problem
    dimensions — tiles clamp at the edges and the edge-aware models
    predict them — as long as the *largest* dimension still splits into
    at least ``MAX_TILE_FRACTION`` tiles.  ``clamped=False`` restricts
    to the paper's literal constraint ``T <= min(D)/1.5``.
    """
    lookup = models.exec_lookup(problem.routine.name, prefix_for(problem.dtype))
    bound = max(problem.dims) if clamped else problem.min_dim()
    limit = bound / MAX_TILE_FRACTION
    cands = [t for t in lookup.tile_sizes if min_tile <= t <= limit]
    if not cands:
        # Degenerate small problem: fall back to the largest tile not
        # exceeding the smallest dimension (a single-tile split).
        fitting = [t for t in lookup.tile_sizes if t <= problem.min_dim()]
        if fitting:
            cands = [max(fitting)]
    if not cands:
        raise ModelError(
            f"no benchmarked tile size fits problem dims {problem.dims}; "
            f"benchmarked sizes: {lookup.tile_sizes}"
        )
    return cands


def select_tile(
    problem: CoCoProblem,
    models: MachineModels,
    model: str = "auto",
    min_tile: int = 0,
    interpolate: bool = False,
    cache: Optional[PredictionCache] = None,
    percentile: Optional[float] = None,
) -> TileChoice:
    """Pick the tiling size with the smallest predicted offload time.

    Ties break toward the *larger* tile (fewer subkernels, lower
    scheduling overhead for equal predicted time).

    The candidate sweep is evaluated vectorized for the bts/dr models
    (bit-identical to scalar evaluation); with a ``cache``, repeated
    selections for the same (models, model, problem signature) return
    the memoized :class:`TileChoice` in O(1).

    With ``percentile`` set, the per-tile sweep is inflated by the
    machine's fitted residual-ratio quantile
    (:class:`~repro.core.tailbank.PercentileBank`): ``predicted_time``
    becomes the predicted *p-th percentile* offload time.  The
    multiplier is uniform within a problem's bucket, so ``t_best``
    never moves — only the time scale does.  Machines without a tail
    bank (or buckets without a fit yet) degrade to the mean prediction.
    """
    if cache is not None:
        return cache.choice(problem, models, model=model,
                            min_tile=min_tile, interpolate=interpolate,
                            percentile=percentile)
    if percentile is not None:
        base = select_tile(problem, models, model=model, min_tile=min_tile,
                           interpolate=interpolate)
        return scale_choice(base, problem, models, percentile)
    model_key = resolve_model(model, problem)
    cands = candidate_tiles(problem, models, min_tile=min_tile)
    times = sweep_predict(model_key, problem, cands, models, interpolate)
    per_tile: Dict[int, float] = dict(zip(cands, times))
    t_best = min(sorted(per_tile, reverse=True), key=lambda t: per_tile[t])
    return TileChoice(
        t_best=t_best,
        predicted_time=per_tile[t_best],
        model=model_key,
        per_tile=per_tile,
    )


def scale_choice(
    base: TileChoice,
    problem: CoCoProblem,
    models: MachineModels,
    percentile: float,
) -> TileChoice:
    """A mean :class:`TileChoice` inflated to the ``percentile``-th
    predicted offload time via the machine's tail bank.

    Returns ``base`` unchanged when the machine has no bank or the
    bank's multiplier is 1.0 (no fit yet, or the model over-predicts
    in this bucket), so mean-path callers pay nothing.
    """
    bank = models.tail
    mult = bank.multiplier(problem, percentile) if bank is not None else 1.0
    if mult == 1.0:
        return base
    return TileChoice(
        t_best=base.t_best,
        predicted_time=base.predicted_time * mult,
        model=base.model,
        per_tile={t: v * mult for t, v in base.per_tile.items()},
    )
