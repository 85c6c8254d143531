"""Metrics used by the evaluation (Section V).

* the paper's relative prediction error
  ``e% = 100 * (t_predicted - t_measured) / t_measured``;
* distribution summaries for the violin plots (Figs. 4, 5);
* geometric-mean performance improvements (Table IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ReproError

# Tail-latency helpers live in repro.obs.stats — ONE quantile code path
# shared by the serve and cluster report builders; re-exported here for
# the historical import path (pinned by test_workloads_metrics.py).
from ..obs.stats import (  # noqa: F401  (re-export)
    LATENCY_PERCENTILES,
    latency_summary,
    percentiles,
)


def percent_error(predicted: float, measured: float) -> float:
    """The paper's e%: positive means overprediction."""
    if measured <= 0:
        raise ReproError(f"non-positive measured time: {measured}")
    return 100.0 * (predicted - measured) / measured


@dataclass(frozen=True)
class ErrorDistribution:
    """Summary of a relative-error sample (one violin in Figs. 4/5)."""

    label: str
    n: int
    median: float
    mean: float
    #: mean(|e|) over the samples — NOT |mean(e)|, which would let
    #: over- and under-predictions cancel out.
    mean_abs: float
    q1: float
    q3: float
    p5: float
    p95: float
    min: float
    max: float
    #: 99th percentile of the signed error — the far tail the serving
    #: stack's percentile-aware admission keys off.
    p99: float = 0.0

    @classmethod
    def from_samples(cls, label: str, samples: Sequence[float]
                     ) -> "ErrorDistribution":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ReproError(f"empty error sample for {label!r}")
        return cls(
            label=label,
            n=int(arr.size),
            median=float(np.median(arr)),
            mean=float(arr.mean()),
            mean_abs=float(np.abs(arr).mean()),
            q1=float(np.percentile(arr, 25)),
            q3=float(np.percentile(arr, 75)),
            p5=float(np.percentile(arr, 5)),
            p95=float(np.percentile(arr, 95)),
            min=float(arr.min()),
            max=float(arr.max()),
            p99=float(np.percentile(arr, 99)),
        )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ReproError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise ReproError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def geomean_improvement_pct(speedups: Sequence[float]) -> float:
    """Geometric-mean percentage improvement from per-problem speedup
    ratios, computed as the paper does for Table IV: the geometric mean
    of the speedups, reported as a percentage gain over the baseline."""
    return 100.0 * (geomean(speedups) - 1.0)


def speedup(time_baseline: float, time_new: float) -> float:
    """> 1 means ``new`` is faster."""
    if time_new <= 0 or time_baseline <= 0:
        raise ReproError("speedup requires positive times")
    return time_baseline / time_new
