"""Overlap profiler: from event streams to achieved-overlap reports.

The paper's models *predict* ``t_total`` from an overlap hypothesis;
this module *measures* what a run actually achieved, from the same
:class:`~repro.sim.trace.TraceRecorder` stream the Fig. 2 renderer
uses.  For each engine it computes busy/idle spans; across engines it
computes the achieved overlap fraction, an overlap-efficiency score,
and a critical-path decomposition of the makespan; and given a model
prediction it reports the achieved-vs-predicted delta in the paper's
``e%`` metric.

Definitions (``T = t_end - t_start`` is the trace extent):

* ``busy_spans[e]``: the union of engine ``e``'s event intervals;
  ``idle_spans[e]`` is its complement within ``[t_start, t_end]``.
  Per engine, busy + idle spans partition the extent exactly.
* ``overlap_time``: total time during which >= 2 engines were busy
  simultaneously; ``overlap_fraction = overlap_time / T`` (in [0, 1]).
* ``overlap_efficiency``: ``(sum_busy - T) / (sum_busy - max_busy)``
  — 1 when the pipeline is as overlapped as the busiest engine allows
  (``T == max_busy``), 0 when fully serialized (``T == sum_busy``).
* ``critical_path``: the makespan partitioned into ``compute`` (exec
  engine busy), ``exposed_transfer`` (some transfer engine busy while
  exec is idle), and ``idle`` (no engine busy — backoff gaps, pipeline
  stalls).  The three parts sum to ``T``.

The profile *document* (report + metrics registry snapshot + run
context) is what ``repro profile`` emits; its schema is documented in
:data:`PROFILE_SCHEMA_VERSION` / DESIGN.md section 6c and enforced by
:func:`validate_profile_json`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..sim.trace import TraceEvent, TraceRecorder
from .schema import (
    COUNT,
    FRACTION,
    Each,
    Null,
    Opt,
    Rule,
    const,
    of_length,
    validate,
)

Span = Tuple[float, float]

PROFILE_SCHEMA_VERSION = "repro.profile/v1"


# ---------------------------------------------------------------------------
# span algebra
# ---------------------------------------------------------------------------

def merge_spans(intervals: Iterable[Span]) -> List[Span]:
    """Union of closed intervals, as sorted disjoint spans."""
    spans = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Span] = []
    for s, e in spans:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def spans_total(spans: Iterable[Span]) -> float:
    return sum(e - s for s, e in spans)


def complement_spans(spans: Sequence[Span], t0: float, t1: float
                     ) -> List[Span]:
    """Gaps of disjoint sorted ``spans`` within ``[t0, t1]``."""
    gaps: List[Span] = []
    cursor = t0
    for s, e in spans:
        if s > cursor:
            gaps.append((cursor, s))
        cursor = max(cursor, e)
    if t1 > cursor:
        gaps.append((cursor, t1))
    return gaps


def pair_overlap(report: "ProfileReport", a: str, b: str) -> float:
    """Time engines ``a`` and ``b`` were both busy (inclusion-exclusion)."""
    pa, pb = report.engines[a], report.engines[b]
    return max(pa.busy_time + pb.busy_time - spans_total(
        merge_spans(pa.busy_spans + pb.busy_spans)), 0.0)


def _sweep(per_engine: Dict[str, List[Span]], t0: float, t1: float,
           exec_engines: Sequence[str]) -> Tuple[float, float, float, float]:
    """One boundary sweep: (overlap_time, compute, exposed_transfer, idle).

    ``overlap_time`` is the total length where >= 2 engines are busy;
    the last three partition ``[t0, t1]`` by whether an exec engine is
    busy, only non-exec engines are busy, or nothing is.
    """
    bounds = {t0, t1}
    for spans in per_engine.values():
        for s, e in spans:
            bounds.add(s)
            bounds.add(e)
    ordered = sorted(bounds)
    overlap = compute = exposed = idle = 0.0
    exec_set = set(exec_engines)
    for lo, hi in zip(ordered, ordered[1:]):
        if hi <= t0 or lo >= t1:
            continue
        lo, hi = max(lo, t0), min(hi, t1)
        width = hi - lo
        mid = (lo + hi) / 2.0
        busy = [name for name, spans in per_engine.items()
                if any(s <= mid < e for s, e in spans)]
        if len(busy) >= 2:
            overlap += width
        if any(name in exec_set for name in busy):
            compute += width
        elif busy:
            exposed += width
        else:
            idle += width
    return overlap, compute, exposed, idle


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------

@dataclass
class EngineProfile:
    """Busy/idle accounting for one engine over the trace extent."""

    engine: str
    events: int
    busy_spans: List[Span]
    idle_spans: List[Span]
    busy_time: float
    idle_time: float
    utilization: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "busy_time": self.busy_time,
            "idle_time": self.idle_time,
            "utilization": self.utilization,
            "busy_spans": [list(s) for s in self.busy_spans],
            "idle_spans": [list(s) for s in self.idle_spans],
        }


@dataclass
class ProfileReport:
    """What one traced run achieved (see module docstring)."""

    t_start: float
    t_end: float
    t_total: float
    engines: Dict[str, EngineProfile]
    total_busy_time: float
    overlap_time: float
    overlap_fraction: float
    overlap_efficiency: float
    critical_path: Dict[str, float]
    traffic: Dict[str, float]
    predicted_seconds: Optional[float] = None
    model: Optional[str] = None
    prediction_error_pct: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        prediction = None
        if self.predicted_seconds is not None:
            prediction = {
                "predicted_seconds": self.predicted_seconds,
                "model": self.model,
                "error_pct": self.prediction_error_pct,
            }
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "t_total": self.t_total,
            "engines": {name: prof.as_dict()
                        for name, prof in sorted(self.engines.items())},
            "total_busy_time": self.total_busy_time,
            "overlap_time": self.overlap_time,
            "overlap_fraction": self.overlap_fraction,
            "overlap_efficiency": self.overlap_efficiency,
            "critical_path": dict(self.critical_path),
            "traffic": dict(self.traffic),
            "prediction": prediction,
        }


def profile_trace(
    trace: Union[TraceRecorder, Iterable[TraceEvent]],
    predicted_seconds: Optional[float] = None,
    model: Optional[str] = None,
) -> ProfileReport:
    """Profile one event stream (see module docstring for definitions).

    Engines whose name is or ends with ``exec`` (e.g. ``gpu1/exec`` in
    a merged multi-GPU stream) count as compute engines for the
    critical-path decomposition; everything else is a transfer engine.
    """
    events = (list(trace.events) if isinstance(trace, TraceRecorder)
              else list(trace))
    if not events:
        raise ReproError("cannot profile an empty trace")
    t0 = min(ev.start for ev in events)
    t1 = max(ev.end for ev in events)
    t_total = t1 - t0

    per_engine_events: Dict[str, List[TraceEvent]] = {}
    for ev in events:
        per_engine_events.setdefault(ev.engine, []).append(ev)

    engines: Dict[str, EngineProfile] = {}
    per_engine_spans: Dict[str, List[Span]] = {}
    for name, evs in per_engine_events.items():
        busy = merge_spans((ev.start, ev.end) for ev in evs)
        idle = complement_spans(busy, t0, t1)
        busy_time = spans_total(busy)
        per_engine_spans[name] = busy
        engines[name] = EngineProfile(
            engine=name,
            events=len(evs),
            busy_spans=busy,
            idle_spans=idle,
            busy_time=busy_time,
            idle_time=spans_total(idle),
            utilization=busy_time / t_total if t_total > 0 else 0.0,
        )

    exec_engines = [n for n in per_engine_spans
                    if n == "exec" or n.endswith("/exec")]
    overlap, compute, exposed, idle = _sweep(
        per_engine_spans, t0, t1, exec_engines)
    sum_busy = sum(p.busy_time for p in engines.values())
    max_busy = max(p.busy_time for p in engines.values())
    if t_total <= 0:
        fraction, efficiency = 0.0, 1.0
    else:
        fraction = min(max(overlap / t_total, 0.0), 1.0)
        denom = sum_busy - max_busy
        if denom <= 0:
            efficiency = 1.0  # one engine did everything: nothing to overlap
        else:
            efficiency = min(max((sum_busy - t_total) / denom, 0.0), 1.0)

    error_pct = None
    if predicted_seconds is not None and t_total > 0:
        error_pct = 100.0 * (predicted_seconds - t_total) / t_total

    return ProfileReport(
        t_start=t0,
        t_end=t1,
        t_total=t_total,
        engines=engines,
        total_busy_time=sum_busy,
        overlap_time=overlap,
        overlap_fraction=fraction,
        overlap_efficiency=efficiency,
        critical_path={
            "compute": compute,
            "exposed_transfer": exposed,
            "idle": idle,
        },
        traffic={
            "events": len(events),
            "h2d_bytes": sum(ev.nbytes for ev in events
                             if "h2d" in ev.engine),
            "d2h_bytes": sum(ev.nbytes for ev in events
                             if "d2h" in ev.engine),
            "flops": sum(ev.flops for ev in events),
        },
        predicted_seconds=predicted_seconds,
        model=model,
        prediction_error_pct=error_pct,
    )


def merge_traces(traces: Sequence[TraceRecorder],
                 labels: Optional[Sequence[str]] = None) -> List[TraceEvent]:
    """One event stream from many devices, engines prefixed per device.

    With labels ``["gpu0", "gpu1"]`` (the default), engine ``h2d`` of
    device 1 becomes ``gpu1/h2d``.  A single trace passes through with
    unprefixed engine names.
    """
    if labels is None:
        labels = [f"gpu{g}" for g in range(len(traces))]
    if len(labels) != len(traces):
        raise ReproError("merge_traces: one label per trace required")
    if len(traces) == 1:
        return list(traces[0].events)
    merged: List[TraceEvent] = []
    for label, trace in zip(labels, traces):
        for ev in trace.events:
            merged.append(TraceEvent(
                engine=f"{label}/{ev.engine}", tag=ev.tag,
                start=ev.start, end=ev.end,
                nbytes=ev.nbytes, flops=ev.flops,
            ))
    merged.sort(key=lambda ev: (ev.end, ev.start))
    return merged


def merge_chrome_traces(
    traces: Sequence[TraceRecorder],
    labels: Optional[Sequence[str]] = None,
    time_unit: float = 1e-6,
) -> List[dict]:
    """Chrome trace-event export of many devices in one timeline.

    Each device becomes a Chrome "process" (pid) with its engines as
    threads, so ``chrome://tracing`` / Perfetto shows the shared-clock
    multi-GPU pipeline stacked per device.  With one trace this is the
    single-device export plus process metadata.
    """
    if labels is None:
        labels = [f"gpu{g}" for g in range(len(traces))]
    if len(labels) != len(traces):
        raise ReproError("merge_chrome_traces: one label per trace required")
    out: List[dict] = []
    for pid, (label, trace) in enumerate(zip(labels, traces), start=1):
        out.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
        for tid, engine in enumerate(trace.engines()):
            out.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": engine},
            })
            for ev in trace.by_engine(engine):
                out.append({
                    "name": ev.tag or engine,
                    "cat": engine,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": ev.start / time_unit,
                    "dur": ev.duration / time_unit,
                    "args": {"nbytes": ev.nbytes, "flops": ev.flops},
                })
    return out


# ---------------------------------------------------------------------------
# the profile document and its schema
# ---------------------------------------------------------------------------

def profile_document(
    report: ProfileReport,
    metrics: Optional[object] = None,
    context: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON document ``repro profile`` emits (schema v1)."""
    doc: Dict[str, object] = {
        "schema": PROFILE_SCHEMA_VERSION,
        "context": dict(context or {}),
        "report": report.as_dict(),
        "metrics": (metrics.as_dict() if metrics is not None
                    else {"counters": {}, "gauges": {}, "histograms": {}}),
    }
    validate_profile_json(doc)
    return doc


def _non_negative_counter(value: float):
    if value < 0:
        return "", f"counters are non-negative, got {value}"


def _buckets_match(hist: dict):
    buckets, bounds = hist["bucket_counts"], hist["bounds"]
    if len(buckets) != len(bounds) + 1:
        return (".bucket_counts",
                f"expected {len(bounds) + 1} buckets "
                f"(len(bounds) + overflow), got {len(buckets)}")
    if sum(buckets) != hist["count"]:
        return (".count", f"bucket counts sum to {sum(buckets)}, "
                          f"count says {hist['count']}")


_SPANS = [of_length(2, [float], "expected a [start, end] number pair")]

PROFILE_SCHEMA = {
    "schema": const(PROFILE_SCHEMA_VERSION),
    "context": dict,
    "report": {
        "t_start": float, "t_end": float, "t_total": float,
        "total_busy_time": float, "overlap_time": float,
        "overlap_fraction": FRACTION, "overlap_efficiency": FRACTION,
        "engines": Each({"events": int, "busy_time": float,
                         "idle_time": float, "utilization": float,
                         "busy_spans": _SPANS, "idle_spans": _SPANS}),
        "critical_path": {"compute": float, "exposed_transfer": float,
                          "idle": float},
        "traffic": {"events": float, "h2d_bytes": float,
                    "d2h_bytes": float, "flops": float},
        "prediction": Opt(Null({"predicted_seconds": float,
                                "model": Null(str),
                                "error_pct": Null(float)})),
    },
    "metrics": {
        "counters": Each(Rule(float, _non_negative_counter)),
        "gauges": Each(float),
        "histograms": Each(Rule({
            "bounds": list, "bucket_counts": [COUNT], "count": int,
            "sum": float, "min": Null(float), "max": Null(float),
        }, _buckets_match)),
    },
}


def validate_profile_json(doc: object) -> None:
    """Check a profile document against schema v1; raise on mismatch.

    The error message carries the JSON path of the first offending
    field, so CI smoke jobs report precisely what drifted.
    """
    validate(doc, PROFILE_SCHEMA, "profile")
