"""Shared latency/percentile math for report builders.

One quantile code path for every versioned report: the serving layer
(``repro.serve/v1``), the cluster layer (``repro.cluster/v1``) and the
experiment metrics all call :func:`percentiles` / :func:`latency_summary`
from here, so a p99 in one document is bit-for-bit the same statistic
as a p99 in any other.  This module is their only import path.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ReproError

#: Tail percentiles the serving and cluster layers report (p50/p95/p99).
LATENCY_PERCENTILES = (50, 95, 99)


def percentiles(samples: Sequence[float],
                ps: Sequence[float] = LATENCY_PERCENTILES
                ) -> List[float]:
    """Per-percentile values of a sample, linearly interpolated.

    Uses numpy's default ``linear`` interpolation so e.g. the p50 of an
    even-sized sample is the midpoint average — matching
    :class:`~repro.experiments.metrics.ErrorDistribution` and the usual
    latency-report convention.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ReproError("percentiles of an empty sample")
    # Coerce the requested percentiles once; reject NaN/inf explicitly.
    # (The old per-p `0 <= p <= 100` check happened to reject NaN only
    # because chained comparisons with NaN are False — make the intent
    # unmissable and the error message name the offending value.)
    ps = list(ps)
    coerced = np.asarray(ps, dtype=np.float64)
    for p, f in zip(ps, coerced):
        if not np.isfinite(f) or not 0.0 <= f <= 100.0:
            raise ReproError(f"percentile outside [0, 100]: {p}")
    return [float(v) for v in np.percentile(arr, coerced)]


def latency_summary(samples: Sequence[float]) -> dict:
    """JSON-ready tail-latency summary (used by the serve and cluster
    reports).

    Keys: ``n``, ``mean``, ``min``, ``max`` and one ``pNN`` entry per
    percentile in :data:`LATENCY_PERCENTILES`.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ReproError("latency summary of an empty sample")
    summary = {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
    for p, value in zip(LATENCY_PERCENTILES,
                        percentiles(arr, LATENCY_PERCENTILES)):
        summary[f"p{p}"] = value
    return summary
