"""Schema validation tests for the ``repro.cluster/v1`` document.

Built around a hand-written minimal valid document so the validator is
exercised without spinning up a fleet; every mutation pins one check
and its JSON-path error message.
"""

import copy

import pytest

from repro.cluster import (
    CLUSTER_SCHEMA_VERSION,
    dump_cluster_document,
    validate_cluster_json,
)
from repro.errors import ReproError


def _summary(n=3):
    return {"n": n, "mean": 0.01, "min": 0.005, "max": 0.02,
            "p50": 0.01, "p95": 0.018, "p99": 0.02}


def _node(name="node0", state="active"):
    return {
        "node": name, "state": state,
        "provisioned_t": 0.0, "available_t": 0.0, "stopped_t": None,
        "routed": 3, "completed": 3, "shed": 0, "failed": 0,
        "migrated_out": 0, "slo": {"met": 2, "missed": 1},
        "latency": _summary(), "busy_seconds": 0.05, "batches": 2,
    }


def _doc():
    return {
        "schema": CLUSTER_SCHEMA_VERSION,
        "context": {"seed": 0},
        "report": {
            "fleet": {
                "requests": {
                    "total": 3, "completed": 3, "shed": 0, "failed": 0,
                    "migrations": 0,
                    "slo": {"with_deadline": 3, "met": 2, "missed": 1,
                            "attainment": 2 / 3},
                },
                "latency": _summary(),
                "throughput_rps": 60.0, "makespan": 0.05,
                "nodes_provisioned": 1, "nodes_final": 1,
            },
            "nodes": [_node()],
            "scaling": {"events": [], "scale_ups": 0, "scale_downs": 0,
                        "kills": 0},
            "routing": {"policy": "predicted", "spills": 0},
            "conservation": {"ok": True, "accounted": 3, "conserved": 3,
                             "violations": []},
        },
    }


class TestValidDocuments:
    def test_minimal_document_passes(self):
        validate_cluster_json(_doc())

    def test_null_latency_allowed(self):
        doc = _doc()
        doc["report"]["fleet"]["latency"] = None
        doc["report"]["nodes"][0]["latency"] = None
        validate_cluster_json(doc)

    def test_scaling_events_validate(self):
        doc = _doc()
        doc["report"]["scaling"]["events"] = [
            {"t": 0.5, "action": "up", "node": "node1", "reason": {}},
            {"t": 0.9, "action": "kill", "node": "node0",
             "reason": {"prior_state": "active"}},
        ]
        doc["report"]["scaling"]["scale_ups"] = 1
        doc["report"]["scaling"]["kills"] = 1
        validate_cluster_json(doc)

    def test_dump_is_byte_stable(self):
        assert dump_cluster_document(_doc()) == dump_cluster_document(
            copy.deepcopy(_doc()))
        assert dump_cluster_document(_doc()).endswith("\n")


class TestRejections:
    def check(self, mutate, match):
        doc = _doc()
        mutate(doc)
        with pytest.raises(ReproError, match=match):
            validate_cluster_json(doc)

    def test_non_object(self):
        with pytest.raises(ReproError, match=r"\$"):
            validate_cluster_json([1, 2])

    def test_wrong_schema_version(self):
        self.check(lambda d: d.update(schema="repro.cluster/v0"),
                   r"\$\.schema")

    def test_missing_fleet_field(self):
        self.check(lambda d: d["report"]["fleet"].pop("makespan"),
                   "makespan.*missing")

    def test_bool_is_not_a_count(self):
        self.check(
            lambda d: d["report"]["fleet"]["requests"].update(shed=True),
            "expected.*got bool")

    def test_negative_count(self):
        self.check(
            lambda d: d["report"]["fleet"]["requests"].update(failed=-1),
            "must be >= 0")

    def test_attainment_out_of_range(self):
        self.check(
            lambda d: d["report"]["fleet"]["requests"]["slo"].update(
                attainment=1.2),
            r"attainment.*\[0, 1\]")

    def test_slo_counts_exceed_deadlines(self):
        self.check(
            lambda d: d["report"]["fleet"]["requests"]["slo"].update(
                with_deadline=2),
            "met \\+ missed exceeds with_deadline")

    def test_terminal_counts_exceed_total(self):
        self.check(
            lambda d: d["report"]["fleet"]["requests"].update(completed=9),
            "exceeds total")

    def test_nodes_length_mismatch(self):
        self.check(lambda d: d["report"]["fleet"].update(
            nodes_provisioned=2),
            "length 1 != nodes_provisioned 2")

    def test_final_exceeds_provisioned(self):
        def mutate(d):
            d["report"]["fleet"]["nodes_final"] = 3
            d["report"]["fleet"]["nodes_provisioned"] = 1
        self.check(mutate, "nodes_final")

    def test_unknown_node_state(self):
        self.check(lambda d: d["report"]["nodes"][0].update(state="zombie"),
                   "unknown node state")

    def test_incomplete_latency_summary(self):
        self.check(lambda d: d["report"]["nodes"][0]["latency"].pop("p99"),
                   "p99")

    def test_unknown_scaling_action(self):
        self.check(lambda d: d["report"]["scaling"]["events"].append(
            {"t": 0.1, "action": "reboot", "reason": {}}),
            "unknown action")

    def test_negative_event_time(self):
        self.check(lambda d: d["report"]["scaling"]["events"].append(
            {"t": -0.1, "action": "up", "reason": {}}),
            "must be >= 0")

    def test_unknown_router_policy(self):
        self.check(lambda d: d["report"]["routing"].update(policy="magic"),
                   "unknown policy")

    def test_ok_with_violations_is_contradictory(self):
        self.check(
            lambda d: d["report"]["conservation"]["violations"].append(
                "request #1: lost"),
            "ok is true but violations")

    def test_violations_must_be_strings(self):
        def mutate(d):
            d["report"]["conservation"]["ok"] = False
            d["report"]["conservation"]["violations"].append(42)
        self.check(mutate, "expected a string")


def _tail_block():
    return {
        "percentile": 99.0,
        "percentiles": [50.0, 95.0, 99.0],
        "observations": 40, "refits": 1, "tail_rejections": 2,
        "buckets": [{"routine": "gemm", "dtype": "d", "flops_decade": 10,
                     "n": 40,
                     "quantiles": {"p50": 1.01, "p95": 1.1, "p99": 1.2}}],
    }


class TestFleetTailBlock:
    """The optional ``fleet.prediction.tail`` key (percentile-admission
    runs): absent documents stay valid, present ones are validated with
    cluster-flavoured JSON paths."""

    def test_absent_is_valid(self):
        doc = _doc()
        assert "prediction" not in doc["report"]["fleet"]
        validate_cluster_json(doc)

    def test_present_and_valid(self):
        doc = _doc()
        doc["report"]["fleet"]["prediction"] = {"tail": _tail_block()}
        validate_cluster_json(doc)

    def check(self, mutate, match):
        doc = _doc()
        doc["report"]["fleet"]["prediction"] = {"tail": _tail_block()}
        mutate(doc["report"]["fleet"]["prediction"]["tail"])
        with pytest.raises(ReproError, match=match):
            validate_cluster_json(doc)

    def test_error_paths_are_cluster_flavoured(self):
        self.check(lambda t: t.update(percentile=200.0),
                   r"invalid cluster document at "
                   r"\$\.report\.fleet\.prediction\.tail\.percentile")

    def test_rejects_negative_observation_count(self):
        self.check(lambda t: t.update(observations=-1), "observations")

    def test_rejects_non_positive_quantile(self):
        self.check(lambda t: t["buckets"][0]["quantiles"].update(p95=-1.0),
                   "p95")

    def test_rejects_malformed_bucket(self):
        self.check(lambda t: t["buckets"][0].pop("routine"), "routine")
