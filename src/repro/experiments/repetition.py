"""Repeated-measurement harness (paper Section V-A methodology).

The paper performs "100 executions for each benchmark, after a warmup
run, not accounted for, and we report the average time".  This module
implements that protocol over any library/problem pair, with the
simulated noise providing genuine run-to-run variance, plus the
confidence-interval summary used to decide whether a reported mean is
trustworthy.

Determinism: every repetition's noise is a pure function of its *call
index* — the libraries derive each call's device seed as
``seed + call_number``, and the harness pins that counter before each
run, so the samples depend only on the library's seed and its call
count on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..deploy.regression import confidence_interval
from ..errors import DeploymentError, ReproError
from .harness import run_problem


@dataclass(frozen=True)
class RepeatedMeasurement:
    """Summary of repeated executions of one (library, problem, T)."""

    mean: float
    std: float
    ci_half: float
    n: int
    warmup: float
    samples: List[float] = field(repr=False, default_factory=list)

    @property
    def rel_ci(self) -> float:
        """CI half-width relative to the mean."""
        if self.mean == 0:
            return 0.0
        return self.ci_half / self.mean


def _run_at(lib, problem, tile_size: Optional[int], idx: int,
            kwargs: dict) -> float:
    """Run one call pinned to call index ``idx`` (1-based).

    The libraries advance an internal call counter and seed each call's
    device from it; pinning the counter makes the draw a function of
    ``idx`` alone.
    """
    if hasattr(lib, "_calls"):
        lib._calls = idx - 1
    return run_problem(lib, problem, tile_size=tile_size, **kwargs).seconds


def measure_repeated(
    lib,
    problem,
    tile_size: Optional[int] = None,
    reps: int = 100,
    warmup_runs: int = 1,
    confidence: float = 0.95,
    rel_ci_target: Optional[float] = None,
    max_repetitions: int = 1000,
    **kwargs,
) -> RepeatedMeasurement:
    """Run a benchmark the way the paper does: warmup + N timed reps.

    Each repetition goes through the library's normal call path (fresh
    simulated device, advancing noise stream), so the variance is the
    machine's, not an artifact.  All repetition indices are derived
    before the first timed run, so the sample at position ``i`` is
    independent of execution order.

    When ``rel_ci_target`` is set, ``reps`` becomes the *minimum* and
    measurement continues until the CI half-width falls within that
    fraction of the mean.  ``max_repetitions`` is a hard cap on that
    loop: non-convergence raises :class:`DeploymentError` rather than
    running forever or silently reporting an untrustworthy mean.
    """
    if reps < 2:
        raise ReproError(f"need at least 2 repetitions, got {reps}")
    if max_repetitions < reps:
        raise ReproError(
            f"max_repetitions ({max_repetitions}) must be >= reps ({reps})")

    base = getattr(lib, "_calls", 0)
    warmup_time = 0.0
    for w in range(warmup_runs):
        warmup_time = _run_at(lib, problem, tile_size, base + 1 + w,
                              kwargs)
    # Pre-derived call indices, one per repetition: the substream each
    # repetition draws from is fixed here, not by loop order.
    first = base + warmup_runs + 1
    samples = [_run_at(lib, problem, tile_size, first + i, kwargs)
               for i in range(reps)]

    mean, half = confidence_interval(samples, confidence)
    if rel_ci_target is not None:
        while half > rel_ci_target * abs(mean) or mean == 0.0:
            if len(samples) >= max_repetitions:
                raise DeploymentError(
                    f"measurement did not converge to rel CI "
                    f"{rel_ci_target:.3f} after {max_repetitions} "
                    f"repetitions (mean {mean:.3e}, CI half-width "
                    f"{half:.3e})")
            samples.append(_run_at(lib, problem, tile_size,
                                   first + len(samples), kwargs))
            mean, half = confidence_interval(samples, confidence)
            if mean == 0.0 and half == 0.0:
                break
    # Leave the library's counter where a sequential run would have,
    # so interleaved callers keep their historical draw sequences.
    if hasattr(lib, "_calls"):
        lib._calls = first + len(samples) - 1
    return RepeatedMeasurement(
        mean=mean,
        std=float(np.std(samples, ddof=1)),
        ci_half=half,
        n=len(samples),
        warmup=warmup_time,
        samples=samples,
    )
