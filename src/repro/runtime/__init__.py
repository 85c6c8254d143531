"""The CoCoPeLia library: tile scheduler + runtime tile selection.

Implements the paper's Section IV-C: an optimized BLAS subset (gemm and
syrk in double/single precision, gemv, axpy) on top of the cuBLAS-like
backend, with

* square tiling and address matching (:mod:`~repro.runtime.tiles`),
* one fetch-once device tile store for matrix tiles and vector chunks
  (:mod:`~repro.runtime.cache`), which every scheduler fetches through,
* one stream per operation class (h2d / exec / d2h) and pipelined
  subkernel issue (:mod:`~repro.runtime.scheduler`),
* one offload path shared by every library — the operand binder
  :func:`bind_operands`, the host-operand builder :func:`host_operands`
  and the run-to-result step (:mod:`~repro.runtime.offload`),
* automatic tiling-size selection through the deployed models, with
  per-problem model reuse and a degradation ladder
  (:mod:`~repro.runtime.routines`).
"""

from .result import RunResult
from .tiles import Grid1D, Grid2D
from .cache import TileCache
from .offload import bind_operands, host_operands
from .routines import CoCoPeLiaLibrary
from .multigpu import MultiGpuCoCoPeLia, predict_multi_gpu, shard_columns, shard_problem
from .summa import SummaGemm, SummaResult
from .streaming import StreamingGemv, StreamingGemvResult

__all__ = [
    "RunResult",
    "Grid1D",
    "Grid2D",
    "TileCache",
    "bind_operands",
    "host_operands",
    "CoCoPeLiaLibrary",
    "MultiGpuCoCoPeLia",
    "predict_multi_gpu",
    "shard_columns",
    "shard_problem",
    "SummaGemm",
    "SummaResult",
    "StreamingGemv",
    "StreamingGemvResult",
]
