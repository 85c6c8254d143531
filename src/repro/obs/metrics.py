"""Lightweight in-process metrics: counters, gauges, histograms.

The registry is the observability layer's data plane: the simulator and
runtime record what happened (bytes moved, FLOPs executed, retries,
cache hits, queue waits) into one :class:`MetricsRegistry` that the
caller threads through :class:`~repro.runtime.routines.CoCoPeLiaLibrary`
or :class:`~repro.sim.device.GpuDevice`.  Design rules:

* **Default off.**  Every instrumentation point is guarded by
  ``metrics is not None``; no registry means no overhead and no
  behaviour change.
* **No clocks, no locks.**  All values come from the simulation, which
  is single-threaded and deterministic; the registry never reads wall
  time, so metrics are exactly reproducible.  Multi-GPU runs share one
  registry rather than combining per-shard ones.

Metric naming convention: dot-separated, namespaced by layer —
``sim.*`` (link/compute engines), ``runtime.*`` (scheduler/routines),
``multigpu.*`` (sharded gemm).  See DESIGN.md section 6c for the full
catalogue.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError


class MetricsError(ReproError):
    """A metric was created or updated inconsistently."""


def _check_name(name: str) -> str:
    if not name or any(ch.isspace() for ch in name):
        raise MetricsError(f"invalid metric name: {name!r}")
    return name


class Counter:
    """A monotonically non-decreasing accumulator (float-valued)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        if not math.isfinite(amount):
            raise MetricsError(
                f"counter {self.name!r} increment must be finite: {amount}"
            )
        self.value += amount

    def as_dict(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = _check_name(name)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not math.isfinite(value):
            raise MetricsError(
                f"gauge {self.name!r} value must be finite: {value}"
            )
        self.value = float(value)

    def as_dict(self) -> float:
        return self.value


#: Default bucket upper bounds for time-like observations (seconds):
#: geometric from 1 µs to 1 s, plus the implicit +inf overflow bucket.
DEFAULT_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** e for e in range(-6, 1)
)


class Histogram:
    """Fixed-bound bucketed distribution with exact sum/count/min/max.

    ``bounds`` are the bucket *upper* edges (strictly increasing); an
    observation lands in the first bucket whose bound is >= the value,
    or in the implicit overflow bucket.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.name = _check_name(name)
        bounds = tuple(float(b) for b in
                       (DEFAULT_BOUNDS if bounds is None else bounds))
        if not bounds:
            raise MetricsError(f"histogram {self.name!r} needs >= 1 bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {self.name!r} bounds must be strictly "
                f"increasing: {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise MetricsError(
                f"histogram {self.name!r} observation must be finite: {value}"
            )
        idx = len(self.bounds)  # overflow bucket
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Named metrics, created on first use (get-or-create semantics).

    A name belongs to exactly one metric kind; asking for an existing
    name with a different kind (or different histogram bounds) raises
    :class:`MetricsError` rather than silently aliasing.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, own: Dict) -> None:
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if table is not own and name in table:
                raise MetricsError(
                    f"metric {name!r} already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, bounds)
        elif bounds is not None and tuple(float(b) for b in bounds) \
                != metric.bounds:
            raise MetricsError(
                f"histogram {name!r} re-requested with different bounds"
            )
        return metric

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready snapshot: {counters, gauges, histograms}."""
        return {
            "counters": {n: c.as_dict()
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.as_dict()
                       for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(self._histograms.items())},
        }
