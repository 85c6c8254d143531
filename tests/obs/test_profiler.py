"""Unit tests for the overlap profiler (repro.obs.profiler)."""

import pytest

from repro.errors import ReproError
from repro.obs import (PROFILE_SCHEMA_VERSION, MetricsRegistry,
                       complement_spans, merge_chrome_traces, merge_spans,
                       merge_traces, profile_document, profile_trace,
                       spans_total, validate_profile_json)
from repro.sim.trace import TraceEvent, TraceRecorder


def ev(engine, tag, start, end, nbytes=0, flops=0.0):
    return TraceEvent(engine, tag, start, end, nbytes, flops)


class TestSpanAlgebra:
    def test_merge_spans_unions_overlaps(self):
        assert merge_spans([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_merge_spans_drops_empty(self):
        assert merge_spans([(1, 1), (2, 1)]) == []

    def test_adjacent_spans_coalesce(self):
        assert merge_spans([(0, 1), (1, 2)]) == [(0, 2)]

    def test_complement_within_extent(self):
        gaps = complement_spans([(1, 2), (4, 5)], 0, 6)
        assert gaps == [(0, 1), (2, 4), (5, 6)]
        assert spans_total(gaps) + spans_total([(1, 2), (4, 5)]) == 6


class TestProfileTrace:
    def test_empty_trace_raises(self):
        with pytest.raises(ReproError, match="empty trace"):
            profile_trace([])

    def test_serial_pipeline_has_zero_overlap(self):
        trace = [
            ev("h2d", "h2d:A(0,0)", 0.0, 1.0, nbytes=10),
            ev("exec", "gemm(0,0,0)", 1.0, 3.0, flops=4.0),
            ev("d2h", "d2h:C(0,0)", 3.0, 4.0, nbytes=10),
        ]
        rep = profile_trace(trace)
        assert rep.t_total == 4.0
        assert rep.overlap_time == 0.0
        assert rep.overlap_fraction == 0.0
        assert rep.overlap_efficiency == 0.0  # fully serialized
        cp = rep.critical_path
        assert cp["compute"] == 2.0
        assert cp["exposed_transfer"] == 2.0
        assert cp["idle"] == 0.0
        assert rep.traffic["h2d_bytes"] == 10
        assert rep.traffic["d2h_bytes"] == 10
        assert rep.traffic["flops"] == 4.0

    def test_full_overlap_and_idle_gap(self):
        trace = [
            ev("h2d", "a", 0.0, 2.0),
            ev("exec", "k", 0.0, 2.0),
            ev("d2h", "c", 3.0, 4.0),  # gap [2,3] with nothing busy
        ]
        rep = profile_trace(trace)
        assert rep.overlap_time == pytest.approx(2.0)
        assert rep.overlap_fraction == pytest.approx(0.5)
        assert rep.critical_path["idle"] == pytest.approx(1.0)
        assert rep.critical_path["compute"] == pytest.approx(2.0)
        assert rep.critical_path["exposed_transfer"] == pytest.approx(1.0)

    def test_critical_path_partitions_t_total(self):
        trace = [
            ev("h2d", "a", 0.0, 1.5),
            ev("exec", "k", 1.0, 3.0),
            ev("d2h", "c", 3.5, 5.0),
        ]
        rep = profile_trace(trace)
        assert sum(rep.critical_path.values()) == pytest.approx(rep.t_total)

    def test_busy_plus_idle_partitions_extent_per_engine(self):
        trace = [
            ev("h2d", "a", 0.0, 1.0),
            ev("h2d", "b", 2.0, 3.0),
            ev("exec", "k", 1.0, 5.0),
        ]
        rep = profile_trace(trace)
        for prof in rep.engines.values():
            assert prof.busy_time + prof.idle_time == pytest.approx(
                rep.t_total)

    def test_prediction_delta_is_the_paper_e_pct(self):
        trace = [ev("exec", "k", 0.0, 2.0)]
        rep = profile_trace(trace, predicted_seconds=1.8, model="dr")
        assert rep.prediction_error_pct == pytest.approx(-10.0)
        assert rep.model == "dr"

    def test_single_engine_efficiency_is_one(self):
        rep = profile_trace([ev("exec", "k", 0.0, 2.0)])
        assert rep.overlap_efficiency == 1.0

    def test_prefixed_exec_engines_count_as_compute(self):
        trace = [
            ev("gpu0/exec", "k", 0.0, 1.0),
            ev("gpu1/h2d", "a", 1.0, 2.0),
        ]
        rep = profile_trace(trace)
        assert rep.critical_path["compute"] == pytest.approx(1.0)
        assert rep.critical_path["exposed_transfer"] == pytest.approx(1.0)


class TestMergeTraces:
    def _recorder(self, *events):
        tr = TraceRecorder()
        for e in events:
            tr.record(e.engine, e.tag, e.start, e.end, e.nbytes, e.flops)
        return tr

    def test_single_trace_passes_through_unprefixed(self):
        tr = self._recorder(ev("exec", "k", 0.0, 1.0))
        events = merge_traces([tr])
        assert events[0].engine == "exec"

    def test_multi_trace_prefixes_engines(self):
        a = self._recorder(ev("exec", "k", 0.0, 1.0))
        b = self._recorder(ev("h2d", "t", 0.0, 2.0))
        engines = {e.engine for e in merge_traces([a, b])}
        assert engines == {"gpu0/exec", "gpu1/h2d"}

    def test_merged_stream_is_completion_ordered(self):
        a = self._recorder(ev("exec", "k", 0.0, 3.0))
        b = self._recorder(ev("h2d", "t", 0.0, 1.0))
        ends = [e.end for e in merge_traces([a, b])]
        assert ends == sorted(ends)

    def test_label_count_mismatch_rejected(self):
        tr = self._recorder(ev("exec", "k", 0.0, 1.0))
        with pytest.raises(ReproError, match="one label per trace"):
            merge_traces([tr], labels=["a", "b"])

    def test_chrome_merge_assigns_distinct_pids(self):
        a = self._recorder(ev("exec", "k", 0.0, 1.0))
        b = self._recorder(ev("h2d", "t", 0.0, 2.0))
        out = merge_chrome_traces([a, b])
        pids = {e["pid"] for e in out}
        assert pids == {1, 2}
        names = [e["args"]["name"] for e in out
                 if e.get("name") == "process_name"]
        assert names == ["gpu0", "gpu1"]


class TestProfileDocument:
    def _doc(self):
        rep = profile_trace([ev("exec", "k", 0.0, 1.0)],
                            predicted_seconds=1.0, model="dr")
        reg = MetricsRegistry()
        reg.counter("sim.kernel.count").inc()
        reg.histogram("sim.h2d.queue_wait", bounds=[1.0]).observe(0.5)
        return profile_document(rep, metrics=reg, context={"routine": "gemm"})

    def test_document_round_trips_through_json(self):
        import json

        doc = self._doc()
        validate_profile_json(json.loads(json.dumps(doc)))

    def test_schema_version_stamped(self):
        assert self._doc()["schema"] == PROFILE_SCHEMA_VERSION

    def test_missing_field_reported_with_path(self):
        doc = self._doc()
        del doc["report"]["t_total"]
        with pytest.raises(ReproError, match=r"\$\.report\.t_total"):
            validate_profile_json(doc)

    def test_wrong_type_reported_with_path(self):
        doc = self._doc()
        doc["report"]["overlap_fraction"] = "high"
        with pytest.raises(ReproError, match=r"\$\.report\.overlap_fraction"):
            validate_profile_json(doc)

    def test_out_of_range_fraction_rejected(self):
        doc = self._doc()
        doc["report"]["overlap_fraction"] = 1.5
        with pytest.raises(ReproError, match=r"in \[0, 1\]"):
            validate_profile_json(doc)

    def test_negative_counter_rejected(self):
        doc = self._doc()
        doc["metrics"]["counters"]["sim.kernel.count"] = -1
        with pytest.raises(ReproError, match="non-negative"):
            validate_profile_json(doc)

    def test_histogram_bucket_count_mismatch_rejected(self):
        doc = self._doc()
        doc["metrics"]["histograms"]["sim.h2d.queue_wait"][
            "bucket_counts"] = [1]
        with pytest.raises(ReproError, match="buckets"):
            validate_profile_json(doc)

    @pytest.mark.parametrize("buckets", [["a", "b"], [None, 1]])
    def test_malformed_bucket_counts_rejected(self, buckets):
        doc = self._doc()
        doc["metrics"]["histograms"]["sim.h2d.queue_wait"][
            "bucket_counts"] = buckets
        with pytest.raises(ReproError, match=(
                r"\$\.metrics\.histograms\.sim\.h2d\.queue_wait"
                r"\.bucket_counts\[0\]")):
            validate_profile_json(doc)

    def test_wrong_schema_version_rejected(self):
        doc = self._doc()
        doc["schema"] = "repro.profile/v0"
        with pytest.raises(ReproError, match="schema"):
            validate_profile_json(doc)
