"""cuBLAS-like backend over the simulated GPU device.

Exposes the primitives the paper's library is built on —
``cublas{Set,Get}{Matrix,Vector}Async``-style tile transfers and
``cublas{D,S}{gemm,gemv,axpy}``-style kernels — as methods of a
:class:`CublasContext` bound to one :class:`~repro.sim.GpuDevice`.
When buffers carry real numpy arrays, operations also perform the
actual data movement and arithmetic at their simulated completion time.
"""

from .cublas import CublasContext, MatrixView

__all__ = ["CublasContext", "MatrixView"]
