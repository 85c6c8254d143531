"""The uniform run-result record all libraries return.

Every library in this repo (CoCoPeLia, the cuBLASXt-like and BLASX-like
baselines, the unified-memory daxpy) reports its execution through a
:class:`RunResult`, so the experiment harness can compare them without
knowing which library produced the number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..sim.faults import ResilienceCounters
from ..units import gflops


@dataclass(frozen=True)
class RunResult:
    """Outcome of one offloaded BLAS invocation."""

    library: str
    routine: str
    seconds: float
    flops: float
    tile_size: int
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_transfers: int = 0
    d2h_transfers: int = 0
    kernels: int = 0
    predicted_seconds: Optional[float] = None
    model: Optional[str] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Output data for device-resident results (compute mode only);
    #: host-resident outputs are written into the caller's array.
    output: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    #: What the resilience machinery did for this call (None when the
    #: machine has no fault plan attached).
    resilience: Optional[ResilienceCounters] = field(
        default=None, repr=False, compare=False)

    @property
    def gflops(self) -> float:
        return gflops(self.flops, self.seconds)

    @property
    def prediction_error(self) -> Optional[float]:
        """Relative prediction error (predicted - measured) / measured,
        the paper's e%, as a fraction."""
        if self.predicted_seconds is None:
            return None
        return (self.predicted_seconds - self.seconds) / self.seconds

    def describe(self) -> str:
        msg = (
            f"{self.library} {self.routine}: {self.seconds * 1e3:.3f} ms "
            f"({self.gflops:.1f} GFLOP/s, T={self.tile_size})"
        )
        if self.predicted_seconds is not None:
            msg += f", predicted {self.predicted_seconds * 1e3:.3f} ms"
        if self.resilience is not None and self.resilience.any():
            r = self.resilience
            msg += (
                f" [faults survived: {r.retries} transfer retries, "
                f"{r.kernel_retries} kernel retries, {r.refetches} refetches, "
                f"{r.tile_downshifts} downshifts, "
                f"{r.host_fallbacks} host fallbacks]"
            )
        return msg
