"""Ground-truth kernel execution-time models for the simulated GPU.

The CoCoPeLia paper stresses three non-linearities of real BLAS kernels
that break earlier overlap models (Section III-A.1):

1. small sub-problems underutilize the GPU (occupancy);
2. performance depends on problem *shape*, not just working-set size;
3. some architectures (the V100 of Testbed II) show performance spikes
   at particular sizes.

These models implement all three so the simulated machine punishes the
same simplifying assumptions the paper punishes.  They are *ground
truth*: the prediction models in :mod:`repro.core` never see these
formulas — they only see micro-benchmark measurements of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import BlasError
from ..units import dtype_size

#: Fraction of the nominal duration an injected kernel fault occupies
#: the compute engine before aborting (on average a fault is detected
#: about halfway through the launch).
FAULT_ABORT_FRACTION = 0.5


def faulted_kernel_time(duration: float) -> float:
    """Engine-occupancy time of a kernel launch that aborts mid-run."""
    return duration * FAULT_ABORT_FRACTION


def _wobble01(*dims: int) -> float:
    """Deterministic pseudo-random value in [0, 1) from the dims.

    Classic shader-style hash; cheap, stateless, and stable across runs,
    which keeps the 'architecture spikes' reproducible.
    """
    x = math.sin(dims[0] * 12.9898 + dims[1] * 78.233 + dims[2] * 37.719)
    x *= 43758.5453
    return x - math.floor(x)


@dataclass(frozen=True)
class GemmTimeModel:
    """Execution time of a (possibly non-square) gemm kernel.

    peak_flops
        Architectural peak for this precision, in FLOP/s.
    launch_overhead
        Fixed per-kernel launch cost in seconds.
    mn_block
        Thread-block tile edge for M and N; dims are padded up to it.
    k_block
        Internal K unrolling granularity; K is padded up to it.
    grid_half
        Number of thread blocks at which occupancy reaches 50% of its
        asymptote (small grids underutilize the SMs).
    k_half
        K extent at which the accumulation pipeline reaches 50%
        efficiency.
    max_eff
        Asymptotic fraction of peak achievable by the library kernel.
    spike_amp
        Amplitude of the deterministic per-shape performance wobble
        (Testbed II's V100 has visible spikes; Testbed I barely).
    """

    peak_flops: float
    launch_overhead: float = 7e-6
    mn_block: int = 128
    k_block: int = 32
    grid_half: float = 12.0
    k_half: float = 192.0
    max_eff: float = 0.92
    spike_amp: float = 0.0

    def efficiency(self, m: int, n: int, k: int) -> float:
        """Fraction of peak achieved by an ``m x n x k`` kernel."""
        if min(m, n, k) <= 0:
            raise BlasError(f"non-positive gemm dims: {(m, n, k)}")
        blocks_m = math.ceil(m / self.mn_block)
        blocks_n = math.ceil(n / self.mn_block)
        grid = blocks_m * blocks_n
        # Tile quantization: padded work is wasted work.
        padded = (
            blocks_m * self.mn_block
            * blocks_n * self.mn_block
            * math.ceil(k / self.k_block) * self.k_block
        )
        quant = (m * n * k) / padded
        # Occupancy: few thread blocks leave SMs idle.
        occupancy = grid / (grid + self.grid_half)
        # Accumulation-pipeline depth along K.
        k_eff = k / (k + self.k_half)
        eff = self.max_eff * quant * occupancy * k_eff
        if self.spike_amp > 0.0:
            eff *= 1.0 + self.spike_amp * (2.0 * _wobble01(m, n, k) - 1.0)
        return eff

    def time(self, m: int, n: int, k: int) -> float:
        """Wall time in seconds for one gemm kernel."""
        flops = 2.0 * m * n * k
        return self.launch_overhead + flops / (self.peak_flops * self.efficiency(m, n, k))


@dataclass(frozen=True)
class AxpyTimeModel:
    """Execution time of an axpy kernel (memory-bound level-1 BLAS).

    ``y = a*x + y`` reads x and y and writes y: three element accesses.
    Effective device-memory bandwidth saturates with vector length.
    """

    mem_bandwidth: float
    launch_overhead: float = 7e-6
    n_half: float = 1 << 18
    max_eff: float = 0.88

    def efficiency(self, n: int) -> float:
        if n <= 0:
            raise BlasError(f"non-positive axpy length: {n}")
        return self.max_eff * n / (n + self.n_half)

    def time(self, n: int, dtype) -> float:
        nbytes = 3.0 * n * dtype_size(dtype)
        return self.launch_overhead + nbytes / (self.mem_bandwidth * self.efficiency(n))


@dataclass(frozen=True)
class GemvTimeModel:
    """Execution time of a gemv kernel (memory-bound level-2 BLAS).

    ``y = alpha*A@x + beta*y`` streams the m x n matrix once and touches
    the two vectors; effective bandwidth degrades for short rows
    (reduction inefficiency) and small matrices (occupancy).
    """

    mem_bandwidth: float
    launch_overhead: float = 7e-6
    rows_half: float = 2048.0
    cols_half: float = 512.0
    max_eff: float = 0.85

    def efficiency(self, m: int, n: int) -> float:
        if m <= 0 or n <= 0:
            raise BlasError(f"non-positive gemv dims: {(m, n)}")
        return (self.max_eff
                * m / (m + self.rows_half)
                * n / (n + self.cols_half))

    def time(self, m: int, n: int, dtype) -> float:
        nbytes = (m * n + n + 2 * m) * dtype_size(dtype)
        return self.launch_overhead + nbytes / (
            self.mem_bandwidth * self.efficiency(m, n))


class KernelModelSet:
    """Maps (routine, dtype) to the machine's ground-truth time model."""

    def __init__(self, gemm_f64: GemmTimeModel, gemm_f32: GemmTimeModel,
                 axpy: AxpyTimeModel,
                 gemv: "GemvTimeModel | None" = None) -> None:
        self._gemm = {8: gemm_f64, 4: gemm_f32}
        #: (m, n, k, dtype) -> gemm seconds; the models are frozen, so
        #: a shape's time never changes.
        self._gemm_times = {}
        self._axpy = axpy
        # gemv shares the device-memory bandwidth with axpy by default.
        self._gemv = gemv if gemv is not None else GemvTimeModel(
            mem_bandwidth=axpy.mem_bandwidth,
            launch_overhead=axpy.launch_overhead,
        )

    def gemm(self, dtype) -> GemmTimeModel:
        return self._gemm[dtype_size(dtype)]

    def axpy(self) -> AxpyTimeModel:
        return self._axpy

    def gemv(self) -> "GemvTimeModel":
        return self._gemv

    def gemm_time(self, m: int, n: int, k: int, dtype) -> float:
        key = (m, n, k, dtype)
        seconds = self._gemm_times.get(key)
        if seconds is None:
            seconds = self._gemm_times[key] = self.gemm(dtype).time(m, n, k)
        return seconds

    def axpy_time(self, n: int, dtype) -> float:
        return self._axpy.time(n, dtype)

    def gemv_time(self, m: int, n: int, dtype) -> float:
        return self._gemv.time(m, n, dtype)

    def scaled(self, factor: float) -> "KernelModelSet":
        """A copy with every kernel ``factor`` times slower.

        Models a clocked-down (thermally throttled / degraded) device:
        sustained rates shrink uniformly while launch overheads — host
        driver costs — stay put.  ``factor == 1`` returns ``self`` so
        the healthy path shares the original (memoized) models.
        """
        if factor == 1.0:
            return self
        if not factor > 0.0 or not math.isfinite(factor):
            raise BlasError(
                f"kernel slowdown factor must be finite and > 0, got "
                f"{factor}")
        return KernelModelSet(
            replace(self._gemm[8], peak_flops=self._gemm[8].peak_flops
                    / factor),
            replace(self._gemm[4], peak_flops=self._gemm[4].peak_flops
                    / factor),
            replace(self._axpy, mem_bandwidth=self._axpy.mem_bandwidth
                    / factor),
            gemv=replace(self._gemv, mem_bandwidth=self._gemv.mem_bandwidth
                         / factor),
        )
