"""The versioned ``repro.serve/v1`` serving report.

The document's shape is written once, as data: :data:`SERVE_SCHEMA` at
the bottom of this module, checked by :func:`validate_serve_json`
through :mod:`repro.obs.schema`.

The optional ``resilience`` block appears only when the run carried an
active fault plan or the resilience machinery actually did something
(drains, hedges, breaker trips) — fault-free documents stay
byte-identical to pre-resilience servers.

SLO accounting judges each request against the deadline it *arrived*
with (:attr:`Request.slo_deadline`): a downgrade clears the scheduling
deadline but not the SLO, so downgraded requests count toward
``with_deadline`` and get their own ``slo.downgraded`` sub-block (only
when any exist — runs without downgrades keep their exact bytes).
``prediction.tail`` (percentile-admission runs only) carries the tail
bank's fitted quantiles and rejection counters.

Documents are emitted with ``sort_keys=True`` and a fixed float
representation (Python's repr), so the same seed produces the same
bytes — the property the determinism acceptance test pins.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..obs.schema import (
    COUNT,
    FRACTION,
    METRIC_FAMILIES,
    NON_NEGATIVE,
    POSITIVE,
    Each,
    Null,
    Opt,
    Rule,
    const,
    non_empty,
    one_of,
    validate,
)
from ..obs.stats import latency_summary, percentiles
from .request import RequestState
from .resilience import HealthState
from .server import ServeOutcome, WorkerStats

SERVE_SCHEMA_VERSION = "repro.serve/v1"


def _worker_dict(stats: WorkerStats, makespan: float) -> Dict[str, object]:
    util = stats.busy_seconds / makespan if makespan > 0 else 0.0
    return {
        "worker": stats.worker,
        "busy_seconds": stats.busy_seconds,
        "utilization": util,
        "batches": stats.batches,
        "requests": stats.requests,
        "h2d_bytes": stats.h2d_bytes,
        "d2h_bytes": stats.d2h_bytes,
        "kernels": stats.kernels,
        "locality_hits": stats.locality_hits,
    }


def serve_report(outcome: ServeOutcome) -> Dict[str, object]:
    """Aggregate one serving outcome into the report body."""
    requests = outcome.requests
    done = outcome.done_requests()
    makespan = outcome.end_time

    # Judged against slo_deadline, not the live deadline: a downgrade
    # clears `deadline` for scheduling, but the SLO the request arrived
    # with still counts (the pre-fix accounting silently dropped every
    # downgraded request from these stats).
    with_deadline = [r for r in requests if r.slo_deadline is not None]
    met = sum(1 for r in with_deadline if r.slo_met)
    missed = sum(1 for r in with_deadline if r.slo_met is False)
    downgraded_dl = [r for r in with_deadline if r.downgraded]

    latencies = [r.latency for r in done if r.latency is not None]
    waits = [r.wait for r in done if r.wait is not None]

    errors = []
    for r in done:
        if r.predicted_completion is not None and r.latency:
            predicted_latency = r.predicted_completion - r.arrival
            errors.append(100.0 * abs(predicted_latency - r.latency)
                          / r.latency)
    prediction: Optional[Dict[str, object]] = None
    if errors:
        prediction = {
            "n": len(errors),
            "mean_abs_pct_error": sum(errors) / len(errors),
            "p95_abs_pct_error": percentiles(errors, (95,))[0],
        }
    if outcome.tail is not None:
        # Percentile-admission runs surface the bank even when nothing
        # completed (all-shed); n=0 then marks the error stats absent.
        if prediction is None:
            prediction = {"n": 0}
        prediction["tail"] = outcome.tail

    workers: List[Dict[str, object]] = [
        _worker_dict(s, makespan) for s in outcome.gpu_stats
    ]
    workers.append(_worker_dict(outcome.host_stats, makespan))

    batch_sizes: Dict[int, int] = {}
    for r in done:
        if r.batch_id is not None:
            batch_sizes[r.batch_id] = batch_sizes.get(r.batch_id, 0) + 1
    coalesced = sum(1 for r in done
                    if r.batch_id is not None
                    and batch_sizes[r.batch_id] > 1)

    body: Dict[str, object] = {
        "requests": {
            "total": len(requests),
            "completed": len(done),
            "shed": sum(1 for r in requests
                        if r.state is RequestState.SHED),
            "failed": sum(1 for r in requests
                          if r.state is RequestState.FAILED),
            "downgraded": sum(1 for r in requests if r.downgraded),
            "fallbacks": sum(1 for r in requests if r.fallback),
            "batched": coalesced,
            "batches": outcome.n_batches,
            "slo": {
                "with_deadline": len(with_deadline),
                "met": met,
                "missed": missed,
                "attainment": (met / len(with_deadline)
                               if with_deadline else 1.0),
            },
        },
        "throughput_rps": len(done) / makespan if makespan > 0 else 0.0,
        "makespan": makespan,
        "latency": latency_summary(latencies) if latencies else None,
        "wait": latency_summary(waits) if waits else None,
        "prediction": prediction,
        "workers": workers,
    }
    if downgraded_dl:
        # Dedicated bucket so operators can see how the *downgraded*
        # population fared against the SLOs it arrived with.  Keyed in
        # only when downgrades happened: runs without them (and every
        # pre-fix document) keep their exact bytes.
        body["requests"]["slo"]["downgraded"] = {  # type: ignore[index]
            "with_deadline": len(downgraded_dl),
            "met": sum(1 for r in downgraded_dl if r.slo_met),
            "missed": sum(1 for r in downgraded_dl if r.slo_met is False),
        }
    resilience = _resilience_block(outcome)
    if resilience is not None:
        body["resilience"] = resilience
    return body


def _resilience_block(outcome: ServeOutcome) -> Optional[Dict[str, object]]:
    """The fault-domain accounting block, or None on clean runs.

    Emitted when the machine carried an active fault plan, or when the
    resilience machinery demonstrably acted (a hedging-enabled run with
    no faults still reports its hedges).  Plain fault-free runs omit
    the key entirely so their documents stay byte-identical to servers
    that predate fault domains.
    """
    stats = outcome.resilience_stats
    acted = stats is not None and any(stats.as_dict().values())
    if not outcome.faulted and not acted:
        return None
    return {
        "counters": (outcome.resilience.as_dict()
                     if outcome.resilience is not None else {}),
        "stats": stats.as_dict() if stats is not None else {},
        "health": list(outcome.health),
        "transitions": list(outcome.health_transitions),
    }


def serve_document(
    outcome: ServeOutcome,
    metrics: Optional[object] = None,
    context: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON document ``repro serve`` emits (schema v1)."""
    doc: Dict[str, object] = {
        "schema": SERVE_SCHEMA_VERSION,
        "context": dict(context or {}),
        "report": serve_report(outcome),
        "metrics": (metrics.as_dict() if metrics is not None
                    else {"counters": {}, "gauges": {}, "histograms": {}}),
    }
    validate_serve_json(doc)
    return doc


def dump_serve_document(doc: Dict[str, object]) -> str:
    """Canonical byte-stable rendering of a serve document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# schema (checked by obs/schema.py; JSON-path error messages)
# ---------------------------------------------------------------------------

def met_missed_within_deadlines(slo: dict):
    """Schema rule for an SLO block (shared with the cluster report)."""
    if slo["met"] + slo["missed"] > slo["with_deadline"]:
        return "", "met + missed exceeds with_deadline"


def _downgraded_within_slo(slo: dict):
    downgraded = slo.get("downgraded")
    if (downgraded is not None
            and downgraded["with_deadline"] > slo["with_deadline"]):
        return ".downgraded", "downgraded with_deadline exceeds the slo total"


def _errors_when_measured(prediction: dict):
    if prediction["n"] > 0:
        for key in ("mean_abs_pct_error", "p95_abs_pct_error"):
            if key not in prediction:
                return f".{key}", "missing required field"


def _utilization(util: float):
    # busy_seconds / makespan may round a hair above 1 on a busy worker.
    if not 0.0 <= util <= 1.0 + 1e-9:
        return "", f"must be in [0, 1], got {util}"


def _percentile(value: float):
    if not 0.0 < value <= 100.0:
        return "", f"must be in (0, 100], got {value}"


#: A :func:`~repro.obs.stats.latency_summary` block, or null when no
#: request contributed (shared with the cluster report).
LATENCY_SUMMARY = Null({"n": int, "mean": float, "min": float, "max": float,
                        "p50": float, "p95": float, "p99": float})

#: The tail bank snapshot in ``prediction.tail`` (shared with the
#: cluster report's ``fleet.prediction.tail``).
TAIL_SCHEMA = {
    "percentile": Rule(float, _percentile),
    "percentiles": non_empty(list, "must list at least one percentile"),
    "observations": COUNT,
    "refits": COUNT,
    "tail_rejections": COUNT,
    "buckets": [{"routine": str, "dtype": str, "flops_decade": int,
                 "n": COUNT, "quantiles": Each(POSITIVE)}],
}

SERVE_SCHEMA = {
    "schema": const(SERVE_SCHEMA_VERSION),
    "context": dict,
    "report": {
        "requests": {
            "total": COUNT, "completed": COUNT, "shed": COUNT,
            "failed": COUNT, "downgraded": COUNT, "fallbacks": COUNT,
            "batched": COUNT, "batches": COUNT,
            "slo": Rule({
                "with_deadline": int, "met": int, "missed": int,
                "attainment": FRACTION,
                "downgraded": Opt(Rule(
                    {"with_deadline": COUNT, "met": COUNT, "missed": COUNT},
                    met_missed_within_deadlines)),
            }, met_missed_within_deadlines, _downgraded_within_slo),
        },
        "throughput_rps": NON_NEGATIVE,
        "makespan": NON_NEGATIVE,
        "latency": LATENCY_SUMMARY,
        "wait": LATENCY_SUMMARY,
        "prediction": Null(Rule({
            "n": COUNT,
            "mean_abs_pct_error": Opt(float),
            "p95_abs_pct_error": Opt(float),
            "tail": Opt(TAIL_SCHEMA),
        }, _errors_when_measured)),
        "workers": non_empty([{
            "worker": str, "busy_seconds": float,
            "utilization": Rule(float, _utilization),
            "batches": int, "requests": int, "h2d_bytes": int,
            "d2h_bytes": int, "kernels": int, "locality_hits": int,
        }], "must list at least one worker"),
        "resilience": Opt({
            "counters": Each(COUNT),
            "stats": Each(COUNT),
            "health": [{"index": int,
                        "state": one_of("health state",
                                        [s.value for s in HealthState]),
                        "ewma_inflation": float}],
            "transitions": [{"t": NON_NEGATIVE, "device": int,
                             "event": str}],
        }),
    },
    "metrics": METRIC_FAMILIES,
}


def validate_tail_block(tail: object, path: str) -> None:
    """Check a ``prediction.tail`` block on its own; raise on mismatch."""
    validate(tail, TAIL_SCHEMA, "serve", path)


def validate_serve_json(doc: object) -> None:
    """Check a serve document against schema v1; raise on mismatch.

    The error message carries the JSON path of the first offending
    field, so the CI smoke job reports precisely what drifted.
    """
    validate(doc, SERVE_SCHEMA, "serve")
