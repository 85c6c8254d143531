"""Observability layer: metrics registry, overlap profiler, trace verifier.

Three consumers of one substrate.  The simulator and runtime emit a
:class:`~repro.sim.trace.TraceRecorder` event stream and (optionally)
update a :class:`MetricsRegistry`; this package turns those into

* live counters/gauges/histograms (:mod:`repro.obs.metrics`),
* achieved-overlap reports and merged Chrome traces
  (:mod:`repro.obs.profiler`, the ``repro profile`` CLI), and
* machine-checked structural invariants (:mod:`repro.obs.verify`,
  the ``check_trace`` pytest fixture).

This package depends only on :mod:`repro.errors` and
:mod:`repro.sim.trace`; the runtime layers never import it — they take
an optional duck-typed ``metrics`` object instead — so observability
stays strictly optional.
"""

from .metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from .profiler import (
    PROFILE_SCHEMA_VERSION,
    EngineProfile,
    ProfileReport,
    complement_spans,
    merge_chrome_traces,
    merge_spans,
    merge_traces,
    profile_document,
    profile_trace,
    spans_total,
    validate_profile_json,
)
from .stats import LATENCY_PERCENTILES, latency_summary, percentiles
from .verify import (
    FAULT_SUFFIX,
    find_conservation_violations,
    find_request_violations,
    find_violations,
    kernel_deps,
    split_fault,
    transfer_tile,
    verify_requests,
    verify_trace,
)

__all__ = [
    "DEFAULT_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "PROFILE_SCHEMA_VERSION",
    "EngineProfile",
    "ProfileReport",
    "complement_spans",
    "merge_chrome_traces",
    "merge_spans",
    "merge_traces",
    "profile_document",
    "profile_trace",
    "spans_total",
    "validate_profile_json",
    "LATENCY_PERCENTILES",
    "latency_summary",
    "percentiles",
    "FAULT_SUFFIX",
    "find_conservation_violations",
    "find_request_violations",
    "find_violations",
    "kernel_deps",
    "split_fault",
    "transfer_tile",
    "verify_requests",
    "verify_trace",
]
