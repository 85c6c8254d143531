"""The declarative document checker (repro.obs.schema) and the five
``repro.*/v1`` schemas written with it."""

import copy
import gc
import re

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterWorkloadSpec,
    cluster_document,
    iter_cluster_workload,
    validate_cluster_json,
)
from repro.errors import ReproError
from repro.experiments import summa
from repro.obs import (MetricsRegistry, profile_document, profile_trace,
                       validate_profile_json)
from repro.obs.schema import (
    COUNT,
    FRACTION,
    Each,
    Null,
    Opt,
    Rule,
    const,
    non_empty,
    one_of,
    validate,
)
from repro.serve import (
    BlasServer,
    ServerConfig,
    WorkloadSpec,
    generate_workload,
    serve_document,
    validate_serve_json,
)
from repro.serve.chaos import run_chaos, validate_chaos_json
from repro.sim.trace import TraceEvent


def check(doc, schema):
    validate(doc, schema, "test")


def rejects(doc, schema, message):
    with pytest.raises(ReproError) as info:
        check(doc, schema)
    assert str(info.value) == f"invalid test document at {message}"


class TestWalker:
    def test_types(self):
        check({"a": 1, "b": 1.5, "c": "x", "d": True, "e": {}, "f": []},
              {"a": int, "b": float, "c": str, "d": bool, "e": dict,
               "f": list})

    def test_int_counts_as_a_number(self):
        check({"x": 3}, {"x": float})

    @pytest.mark.parametrize("kind, name", [(int, "int"),
                                            (float, "a number")])
    def test_bool_is_never_a_number(self, kind, name):
        rejects({"x": True}, {"x": kind}, f"$.x: expected {name}, got bool")

    def test_bool_is_a_bool(self):
        rejects({"x": 1}, {"x": bool}, "$.x: expected a bool, got int")

    def test_non_object_document(self):
        rejects([1], {"x": int}, "$: expected an object, got list")

    def test_missing_key(self):
        rejects({}, {"x": int}, "$.x: missing required field")

    def test_extra_keys_ignored(self):
        check({"x": 1, "y": "anything"}, {"x": int})

    def test_null_only_where_allowed(self):
        check({"x": None}, {"x": Null(int)})
        rejects({"x": None}, {"x": int}, "$.x: must not be null")

    def test_optional_key(self):
        check({}, {"x": Opt(int)})
        rejects({"x": "1"}, {"x": Opt(int)},
                "$.x: expected int, got str")

    def test_list_items_carry_their_index(self):
        check({"x": [1, 2]}, {"x": [int]})
        rejects({"x": [1, "2"]}, {"x": [int]},
                "$.x[1]: expected int, got str")

    def test_each_value_of_a_map(self):
        check({"m": {"a": 1, "b": 2}}, {"m": Each(COUNT)})
        rejects({"m": {"a": 1, "b": -2}}, {"m": Each(COUNT)},
                "$.m.b: must be >= 0, got -2")

    def test_ranges(self):
        rejects({"f": 1.5}, {"f": FRACTION}, "$.f: must be in [0, 1], got 1.5")
        rejects({"s": "v0"}, {"s": const("v1")},
                "$.s: expected 'v1', got 'v0'")
        rejects({"k": "torus"}, {"k": one_of("kind", ("ring",))},
                "$.k: unknown kind 'torus'")
        rejects({"l": []}, {"l": non_empty([int])}, "$.l: must not be empty")

    def test_cross_field_rule_names_its_field(self):
        schema = Rule({"lo": int, "hi": int},
                      lambda o: (".hi", "below lo") if o["hi"] < o["lo"]
                      else None)
        check({"lo": 1, "hi": 2}, schema)
        rejects({"lo": 3, "hi": 2}, schema, "$.hi: below lo")

    def test_rules_run_after_the_value_matches(self):
        schema = Rule({"n": int}, lambda o: ("", "n is odd")
                      if o["n"] % 2 else None)
        rejects({"n": "x"}, schema, "$.n: expected int, got str")

    def test_path_prefix(self):
        with pytest.raises(ReproError, match=re.escape(
                "invalid test document at $.tail.x: missing required")):
            validate({}, {"x": int}, "test", "$.tail")

    def test_a_validation_leaves_no_reference_cycle(self):
        # The walker recurses; as a nested closure it would refer to
        # itself through its cell and leave a cycle behind every call.
        doc = {"a": [{"b": 1, "c": None}], "d": {"x": 0.5}}
        schema = {"a": [{"b": COUNT, "c": Null(int)}],
                  "d": Each(FRACTION), "e": Opt(str)}
        gc.collect()
        gc.disable()
        try:
            check(doc, schema)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


# ---------------------------------------------------------------------------
# one type-error wording across the five document kinds
# ---------------------------------------------------------------------------

def _serve_doc(tb2, models_tb2):
    server = BlasServer(tb2, models_tb2, ServerConfig(n_gpus=2, seed=4))
    outcome = server.serve(generate_workload(
        WorkloadSpec(n_requests=8, rate=2000.0, seed=4)))
    return serve_document(outcome)


def _cluster_doc(tb2, models_tb2):
    coordinator = ClusterCoordinator(
        tb2, models_tb2, ClusterConfig(nodes=2, gpus_per_node=1,
                                       autoscale=False),
        ServerConfig(seed=0))
    outcome = coordinator.run(iter_cluster_workload(
        ClusterWorkloadSpec(n_requests=40, rate=300.0, seed=0)))
    return cluster_document(outcome)


def _chaos_doc(tb2, models_tb2):
    return run_chaos(tb2, models_tb2, "kill-one-gpu",
                     spec=WorkloadSpec(n_requests=16, rate=8000.0, seed=11),
                     config=ServerConfig(n_gpus=2, seed=11), seed=11)


def _summa_doc(tb2, models_tb2):
    return summa.run(scale="tiny", seed=0)


def _profile_doc(tb2, models_tb2):
    report = profile_trace([TraceEvent("exec", "k", 0.0, 1.0, 0, 0.0)])
    registry = MetricsRegistry()
    registry.histogram("sim.h2d.queue_wait", bounds=[1.0]).observe(0.5)
    return profile_document(report, metrics=registry)


#: kind -> (document builder, validator, path to an integer count).
KINDS = {
    "serve": (_serve_doc, validate_serve_json,
              ("report", "requests", "shed")),
    "cluster": (_cluster_doc, validate_cluster_json,
                ("report", "fleet", "requests", "shed")),
    "chaos": (_chaos_doc, validate_chaos_json, ("chaos", "completed")),
    "summa": (_summa_doc, summa.validate_summa_json,
              ("context", "n_gpus")),
    "profile": (_profile_doc, validate_profile_json,
                ("report", "engines", "exec", "events")),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bool_count_has_one_wording(kind, tb2, models_tb2):
    build, validator, keys = KINDS[kind]
    doc = copy.deepcopy(build(tb2, models_tb2))
    validator(doc)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    assert isinstance(parent[keys[-1]], int)
    parent[keys[-1]] = True
    path = "$." + ".".join(keys)
    with pytest.raises(ReproError) as info:
        validator(doc)
    assert str(info.value) == (
        f"invalid {kind} document at {path}: expected int, got bool")
