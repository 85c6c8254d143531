"""Statistical machinery for the deployment micro-benchmarks.

Implements the paper's two statistical procedures:

* zero-intercept least-squares fits of transfer time vs bytes (the
  latency is measured separately and excluded from the regression, "in
  the manner of [32]"), with residual standard error and coefficient
  p-values;
* repetition of every measurement "until the 95% confidence interval of
  the mean falls within 5% of the reported mean value".

Both need only the Student-t distribution at integer degrees of
freedom, computed here to a few ulps from the regularized incomplete
beta function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..errors import DeploymentError

_EPS = 2.0 ** -53
_TINY = 1e-300


@lru_cache(maxsize=None)
def _beta_half(dof: int) -> float:
    """B(dof/2, 1/2), by the recurrence B(a+1, b) = B(a, b) * a/(a+b)."""
    beta, a = (math.pi, 0.5) if dof % 2 else (2.0, 1.0)
    while a < 0.5 * dof:
        beta *= a / (a + 0.5)
        a += 1.0
    return beta


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (modified Lentz); converges fast
    for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x
                   / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return h
    raise DeploymentError(f"incomplete beta did not converge: {a}, {b}, {x}")


def t_sf(t: float, dof: int) -> float:
    """Survival function P(T > t) of Student's t with ``dof`` degrees
    of freedom: ``I_x(dof/2, 1/2) / 2`` with ``x = dof / (dof + t**2)``."""
    if dof < 1:
        raise DeploymentError(f"Student t needs dof >= 1, got {dof}")
    if math.isnan(t):
        return math.nan
    if t < 0.0:
        return 1.0 - t_sf(-t, dof)
    if t == math.inf:
        return 0.0
    a, tt = 0.5 * dof, t * t
    x, y = dof / (dof + tt), tt / (dof + tt)  # y = 1 - x, no cancellation
    front = x ** a * math.sqrt(y) / _beta_half(dof)
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x) / a
    return 0.5 - front * _beta_cf(0.5, a, y)


def _t_pdf(t: float, dof: int) -> float:
    return (1.0 + t * t / dof) ** (-0.5 * (dof + 1)) / (
        math.sqrt(dof) * _beta_half(dof))


@lru_cache(maxsize=None)
def _t_isf(p: float, dof: int) -> float:
    """The t >= 0 with ``t_sf(t, dof) == p``, for 0 < p <= 1/2: Newton
    steps on the sf, kept inside a bisection bracket."""
    lo, hi = 0.0, 1.0
    while t_sf(hi, dof) > p:
        lo, hi = hi, 2.0 * hi
    t = 0.5 * (lo + hi)
    while True:
        f = t_sf(t, dof) - p
        if f == 0.0:
            return t
        if f > 0.0:
            lo = t
        else:
            hi = t
        nxt = t + f / _t_pdf(t, dof)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt in (lo, hi):
            return t
        t = nxt


def t_ppf(q: float, dof: int) -> float:
    """Quantile of Student's t with ``dof`` degrees of freedom."""
    if not 0.0 < q < 1.0:
        raise DeploymentError(f"quantile level outside (0, 1): {q}")
    if dof < 1:
        raise DeploymentError(f"Student t needs dof >= 1, got {dof}")
    if q == 0.5:
        return 0.0
    if q < 0.5:
        return -_t_isf(q, dof)
    return _t_isf(1.0 - q, dof)


def sem(samples: Sequence[float]) -> float:
    """Standard error of the mean: ``std(ddof=1) / sqrt(n)``."""
    arr = np.asarray(samples, dtype=np.float64)
    return float(arr.std(ddof=1) / arr.size ** 0.5)


@dataclass(frozen=True)
class RegressionResult:
    """Zero-intercept least-squares fit ``y = slope * x``."""

    slope: float
    rse: float
    p_value: float
    n: int

    @property
    def bandwidth(self) -> float:
        """If y is seconds and x bytes: fitted bytes/second."""
        if self.slope <= 0:
            raise DeploymentError(f"non-positive fitted slope {self.slope}")
        return 1.0 / self.slope


def zero_intercept_lstsq(x: Sequence[float], y: Sequence[float]) -> RegressionResult:
    """Fit ``y = slope * x`` by least squares through the origin.

    Returns the slope, the residual standard error (RSE, with n-1
    degrees of freedom — one parameter), and the two-sided p-value of
    the slope coefficient.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise DeploymentError(
            f"regression inputs must be equal-length 1-D: {xa.shape} vs {ya.shape}"
        )
    n = xa.size
    if n < 2:
        raise DeploymentError(f"need at least 2 samples to regress, got {n}")
    sxx = float(np.dot(xa, xa))
    if sxx == 0.0:
        raise DeploymentError("all regression abscissae are zero")
    slope = float(np.dot(xa, ya)) / sxx
    residuals = ya - slope * xa
    dof = n - 1
    rss = float(np.dot(residuals, residuals))
    rse = math.sqrt(rss / dof)
    se_slope = rse / math.sqrt(sxx)
    if se_slope == 0.0:
        p_value = 0.0
    else:
        t_stat = abs(slope) / se_slope
        p_value = 2.0 * t_sf(t_stat, dof)
    return RegressionResult(slope=slope, rse=rse, p_value=p_value, n=n)


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """(mean, half-width) of the t-based CI of the mean."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise DeploymentError(f"need >= 2 samples for a CI, got {arr.size}")
    mean = float(arr.mean())
    se = sem(arr)
    if se == 0.0:
        return mean, 0.0
    return mean, se * t_ppf((1.0 + confidence) / 2.0, arr.size - 1)


def measure_until_stable(
    measure: Callable[[], float],
    rel_half_width: float = 0.05,
    confidence: float = 0.95,
    min_reps: int = 5,
    max_reps: int = 200,
) -> Tuple[float, List[float]]:
    """Repeat ``measure()`` until the CI of the mean is tight enough.

    The paper's stopping rule: the 95% CI half-width must fall within
    ``rel_half_width`` (5%) of the mean.  ``max_reps`` bounds pathological
    noise; hitting it raises so silent garbage never enters the model
    database.
    """
    samples: List[float] = []
    for _ in range(max_reps):
        samples.append(float(measure()))
        if len(samples) < min_reps:
            continue
        mean, half = confidence_interval(samples, confidence)
        if mean == 0.0:
            if half == 0.0:
                return 0.0, samples
            continue
        if half <= rel_half_width * abs(mean):
            return mean, samples
    raise DeploymentError(
        f"measurement did not stabilize after {max_reps} repetitions "
        f"(last mean {np.mean(samples):.3e}, CI half-width "
        f"{confidence_interval(samples, confidence)[1]:.3e})"
    )
