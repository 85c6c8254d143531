"""CoCoPeLia's core contribution: 3-way-concurrency prediction models.

This package implements Section III of the paper:

* :mod:`~repro.core.params` — the model-parameter struct of Table I
  (problem dims, operand sizes/locations, get/set flags, dtype).
* :mod:`~repro.core.transfer_model` — semi-empirical latency/bandwidth
  transfer sub-models with bidirectional slowdown factors.
* :mod:`~repro.core.exec_model` — the empirical lookup table for tiled
  kernel execution time ``t_GPU^T``.
* :mod:`~repro.core.models` — Eq. 1 (baseline), Eq. 2 (data location),
  Eq. 3+4 (bidirectional-slowdown, "BTS"), Eq. 5 (data reuse, "DR"),
  and the comparator CSO model of Werkhoven et al.
* :mod:`~repro.core.select` — tiling-size selection (CoCoPeLia_select).
* :mod:`~repro.core.registry` — the extension mechanism for new
  prediction models (CoCoPeLia_predict_[ModelName]).
"""

from .params import (
    Loc,
    OperandInstance,
    CoCoProblem,
    gemm_problem,
    gemv_problem,
    axpy_problem,
    syrk_problem,
)
from .transfer_model import TransferFit, LinkModel
from .exec_model import ExecLookup
from .instantiation import MachineModels
from .models import (
    predict_baseline,
    predict_dataloc,
    predict_bts,
    predict_dr,
    predict_cso,
    bidirectional_overlap_time,
)
from .registry import MODEL_REGISTRY, register_model, predict
from .distributed import (
    DistributedChoice,
    SUMMA_VARIANTS,
    candidate_chunks,
    candidate_panels,
    predict_streaming_gemv,
    predict_summa,
    select_gemv_chunk,
    select_summa_panel,
    shard_columns,
    summa_panels,
)
from .select import TileChoice, candidate_tiles, select_tile
from .rect import RectTile, RectChoice, predict_dr_rect, select_rect_tile
from .predcache import PredCacheStats, PredictionCache
from .tailbank import (
    GLOBAL_BUCKET,
    TAIL_PERCENTILES,
    PercentileBank,
    tail_bucket,
)

__all__ = [
    "Loc",
    "OperandInstance",
    "CoCoProblem",
    "gemm_problem",
    "gemv_problem",
    "axpy_problem",
    "syrk_problem",
    "TransferFit",
    "LinkModel",
    "ExecLookup",
    "MachineModels",
    "predict_baseline",
    "predict_dataloc",
    "predict_bts",
    "predict_dr",
    "predict_cso",
    "bidirectional_overlap_time",
    "MODEL_REGISTRY",
    "register_model",
    "predict",
    "DistributedChoice",
    "SUMMA_VARIANTS",
    "candidate_chunks",
    "candidate_panels",
    "predict_streaming_gemv",
    "predict_summa",
    "select_gemv_chunk",
    "select_summa_panel",
    "shard_columns",
    "summa_panels",
    "TileChoice",
    "candidate_tiles",
    "select_tile",
    "PredCacheStats",
    "PredictionCache",
    "GLOBAL_BUCKET",
    "TAIL_PERCENTILES",
    "PercentileBank",
    "tail_bucket",
    "RectTile",
    "RectChoice",
    "predict_dr_rect",
    "select_rect_tile",
]
