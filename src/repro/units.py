"""Unit helpers and dtype metadata.

The whole library computes in SI base units: seconds, bytes and
bytes/second.  GFLOP/s and GB/s appear only at the reporting layer, via
the converters defined here.
"""

from __future__ import annotations

import numpy as np

from .errors import BlasError

#: Bytes per element for the dtypes the BLAS subset supports.
DTYPE_SIZES = {
    np.dtype(np.float64): 8,
    np.dtype(np.float32): 4,
}

GIGA = 1e9
MEGA = 1e6
KILO = 1e3

MICROSECOND = 1e-6
MILLISECOND = 1e-3


def dtype_size(dtype) -> int:
    """Return the element size in bytes for a supported dtype.

    Raises :class:`~repro.errors.BlasError` for unsupported dtypes so a
    typo fails loudly rather than producing nonsense byte counts.
    """
    key = np.dtype(dtype)
    try:
        return DTYPE_SIZES[key]
    except KeyError:
        raise BlasError(f"unsupported dtype: {dtype!r}") from None


def gflops(flops: float, seconds: float) -> float:
    """Convert a flop count and a duration to GFLOP/s."""
    if seconds <= 0.0:
        raise ValueError(f"non-positive duration: {seconds}")
    return flops / seconds / GIGA


def gb_per_s(nbytes: float, seconds: float) -> float:
    """Convert a byte count and a duration to GB/s."""
    if seconds <= 0.0:
        raise ValueError(f"non-positive duration: {seconds}")
    return nbytes / seconds / GIGA


def from_gb_per_s(rate_gb: float) -> float:
    """Convert GB/s to bytes/second."""
    return rate_gb * GIGA


def from_tflops(rate_tf: float) -> float:
    """Convert TFLOP/s to FLOP/s."""
    return rate_tf * 1e12


def gib(n: float) -> int:
    """``n`` GiB in bytes."""
    return int(n * (1 << 30))
