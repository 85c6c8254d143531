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
from .registry import MODEL_REGISTRY, resolve_model

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
    cands = [t for t in lookup.tile_sizes if t <= limit]
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
    cache: Optional[PredictionCache] = None,
) -> TileChoice:
    """Pick the tiling size with the smallest predicted offload time.

    Every candidate is evaluated with the registered predictor; ties
    break toward the *larger* tile (fewer subkernels, lower scheduling
    overhead for equal predicted time).  With a ``cache``, repeated
    selections for the same (models, model, problem signature) return
    the memoized :class:`TileChoice`.
    """
    if cache is not None:
        return cache.choice(problem, models, model=model)
    model_key = resolve_model(model, problem)
    predictor = MODEL_REGISTRY[model_key]
    per_tile: Dict[int, float] = {
        t: predictor(problem, t, models, False)
        for t in candidate_tiles(problem, models)
    }
    t_best = min(sorted(per_tile, reverse=True), key=lambda t: per_tile[t])
    return TileChoice(
        t_best=t_best,
        predicted_time=per_tile[t_best],
        model=model_key,
        per_tile=per_tile,
    )
