"""The versioned ``repro.cluster/v1`` fleet report.

The document's shape is written once, as data: :data:`CLUSTER_SCHEMA`
at the bottom of this module, checked by :func:`validate_cluster_json`
through :mod:`repro.obs.schema`.

Like the serve document: emitted with ``sort_keys=True`` and repr
floats, so one seed produces one byte sequence — the property the
cluster determinism smoke pins with ``cmp``.  The latency/percentile
math is :mod:`repro.obs.stats`, the same code path as ``repro.serve/v1``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..obs.schema import (
    COUNT,
    FRACTION,
    NON_NEGATIVE,
    Null,
    Opt,
    Rule,
    const,
    one_of,
    validate,
)
from ..obs.stats import latency_summary
from ..serve.report import (LATENCY_SUMMARY, TAIL_SCHEMA,
                            met_missed_within_deadlines)
from .coordinator import ClusterOutcome
from .node import NODE_STATES
from .router import ROUTER_POLICIES

CLUSTER_SCHEMA_VERSION = "repro.cluster/v1"


def cluster_report(outcome: ClusterOutcome) -> Dict[str, object]:
    """Aggregate one cluster run into the report body."""
    nodes = outcome.nodes
    completed = sum(n.completed for n in nodes)
    shed = sum(n.shed for n in nodes)
    failed = sum(n.failed for n in nodes)
    with_deadline = sum(n.slo_with_deadline for n in nodes)
    met = sum(n.slo_met for n in nodes)
    missed = sum(n.slo_missed for n in nodes)
    latencies: List[float] = []
    for n in nodes:
        latencies.extend(n.latencies)
    makespan = outcome.end_time
    events = outcome.scale_events
    fleet: Dict[str, object] = {
        "requests": {
            "total": outcome.n_requests,
            "completed": completed,
            "shed": shed,
            "failed": failed,
            "migrations": outcome.migrations,
            "slo": {
                # Every terminal request with a deadline counts, shed
                # and failed ones included, as in the serve report.
                "with_deadline": with_deadline,
                "met": met,
                "missed": missed,
                "attainment": (met / with_deadline
                               if with_deadline else 1.0),
            },
        },
        "latency": latency_summary(latencies) if latencies else None,
        "throughput_rps": (completed / makespan if makespan > 0
                           else 0.0),
        "makespan": makespan,
        "nodes_provisioned": len(nodes),
        "nodes_final": sum(1 for n in nodes if n.state != "stopped"),
    }
    if outcome.tail_snapshot is not None:
        # Keyed in only on percentile-admission runs, so mean-mode
        # cluster documents keep their exact pre-tail bytes.
        fleet["prediction"] = {"tail": outcome.tail_snapshot}
    return {
        "fleet": fleet,
        "nodes": [n.as_dict() for n in nodes],
        "scaling": {
            "events": events,
            "scale_ups": sum(1 for e in events if e["action"] == "up"),
            "scale_downs": sum(1 for e in events if e["action"] == "down"),
            "kills": sum(1 for e in events if e["action"] == "kill"),
        },
        "routing": {
            "policy": outcome.router_policy,
            "spills": outcome.spills,
        },
        "conservation": {
            "ok": outcome.conservation_ok,
            "accounted": outcome.accounted,
            "conserved": outcome.conserved,
            "violations": [message for _inv, message in outcome.violations],
        },
    }


def cluster_document(
    outcome: ClusterOutcome,
    context: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The JSON document ``repro cluster`` emits (schema v1)."""
    doc: Dict[str, object] = {
        "schema": CLUSTER_SCHEMA_VERSION,
        "context": dict(context or {}),
        "report": cluster_report(outcome),
    }
    validate_cluster_json(doc)
    return doc


def dump_cluster_document(doc: Dict[str, object]) -> str:
    """Canonical byte-stable rendering of a cluster document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# schema (checked by obs/schema.py; JSON-path error messages)
# ---------------------------------------------------------------------------

def _terminals_within_total(requests: dict):
    if (requests["completed"] + requests["shed"] + requests["failed"]
            > requests["total"]):
        return "", "completed + shed + failed exceeds total"


def _final_within_provisioned(fleet: dict):
    final, provisioned = fleet["nodes_final"], fleet["nodes_provisioned"]
    if final > provisioned:
        return (".nodes_final",
                f"exceeds nodes_provisioned ({final} > {provisioned})")


def _one_entry_per_node(report: dict):
    n, provisioned = len(report["nodes"]), report["fleet"]["nodes_provisioned"]
    if n != provisioned:
        return ".nodes", f"length {n} != nodes_provisioned {provisioned}"


def _ok_without_violations(conservation: dict):
    if conservation["ok"] and conservation["violations"]:
        return "", "ok is true but violations are present"


CLUSTER_SCHEMA = {
    "schema": const(CLUSTER_SCHEMA_VERSION),
    "context": dict,
    "report": Rule({
        "fleet": Rule({
            "requests": Rule({
                "total": COUNT, "completed": COUNT, "shed": COUNT,
                "failed": COUNT, "migrations": COUNT,
                "slo": Rule({"with_deadline": COUNT, "met": COUNT,
                             "missed": COUNT, "attainment": FRACTION},
                            met_missed_within_deadlines),
            }, _terminals_within_total),
            "latency": LATENCY_SUMMARY,
            "throughput_rps": NON_NEGATIVE,
            "makespan": NON_NEGATIVE,
            "nodes_provisioned": COUNT,
            "nodes_final": COUNT,
            "prediction": Opt({"tail": TAIL_SCHEMA}),
        }, _final_within_provisioned),
        "nodes": [{
            "node": str, "state": one_of("node state", NODE_STATES),
            "provisioned_t": float, "available_t": float,
            "stopped_t": Null(float),
            "routed": COUNT, "completed": COUNT, "shed": COUNT,
            "failed": COUNT, "migrated_out": COUNT, "batches": COUNT,
            "slo": {"met": COUNT, "missed": COUNT},
            "latency": LATENCY_SUMMARY,
            "busy_seconds": float,
        }],
        "scaling": {
            "events": [{"t": NON_NEGATIVE,
                        "action": one_of("action", ("up", "down", "kill")),
                        "reason": dict}],
            "scale_ups": COUNT, "scale_downs": COUNT, "kills": COUNT,
        },
        "routing": {"policy": one_of("policy", ROUTER_POLICIES),
                    "spills": COUNT},
        "conservation": Rule({
            "ok": bool, "accounted": COUNT, "conserved": COUNT,
            "violations": [str],
        }, _ok_without_violations),
    }, _one_entry_per_node),
}


def validate_cluster_json(doc: object) -> None:
    """Check a cluster document against schema v1; raise on mismatch."""
    validate(doc, CLUSTER_SCHEMA, "cluster")
