"""Golden-trace regression: the simulator's event stream is contractual.

A fixed-seed, noise-free dgemm must reproduce the committed event
stream *exactly* — same events, same order, same float timestamps.  The
simulation is pure IEEE-754 arithmetic with no RNG on the timing path
(noise_sigma=0), and JSON round-trips floats through the shortest
round-trip representation, so exact equality is the right check: any
drift means the scheduler's issue order, the link's fluid model, or the
engine semantics changed, which silently invalidates every calibrated
model database.

The dgemm stream moves only matrix tiles.  A second pinned stream
covers the vector path: a ragged dgemv (matrix tiles plus x/y chunks)
and a ragged daxpy (chunks only), traced through the same library.

Regenerate (only after an *intentional* timing-semantics change)::

    PYTHONPATH=src python -m tests.obs.test_golden_trace

which rewrites ``tests/data/golden_trace_dgemm.json`` and
``tests/data/golden_trace_vector.json``.
"""

import json
import os

import pytest

from repro.obs import profile_trace, verify_trace
from repro.runtime.routines import CoCoPeLiaLibrary
from tests.machines import custom_machine

DATA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "data")
GOLDEN_PATH = os.path.join(DATA_DIR, "golden_trace_dgemm.json")
VECTOR_PATH = os.path.join(DATA_DIR, "golden_trace_vector.json")
#: The fields pinned per event of the vector-path stream.
VECTOR_FIELDS = ("engine", "tag", "start", "end", "nbytes")


def run_golden_workload():
    """The pinned workload: dgemm 1024^3, T=256, seed 7, zero noise."""
    machine = custom_machine(noise_sigma=0.0)
    lib = CoCoPeLiaLibrary(machine, seed=7, trace=True)
    result = lib.gemm(m=1024, n=1024, k=1024, tile_size=256)
    return result, lib.last_trace


def run_vector_workloads():
    """The pinned vector-path workloads, in call order on one library:
    dgemv 2000x1500 then daxpy 1,000,000, both ragged, seed 7, zero
    noise.  Returns ``{routine: (result, trace)}``."""
    machine = custom_machine(noise_sigma=0.0)
    lib = CoCoPeLiaLibrary(machine, seed=7, trace=True)
    runs = {}
    result = lib.gemv(m=2000, n=1500, tile_size=512)
    runs["dgemv"] = (result, lib.last_trace)
    result = lib.axpy(n=1_000_000, tile_size=1 << 18)
    runs["daxpy"] = (result, lib.last_trace)
    return runs


def vector_events(trace):
    return [{f: getattr(ev, f) for f in VECTOR_FIELDS}
            for ev in trace.events]


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


class TestGoldenTrace:
    def test_event_stream_matches_committed_golden(self):
        golden = load_golden()
        result, trace = run_golden_workload()
        assert result.seconds == golden["seconds"]
        assert len(trace.events) == len(golden["events"])
        for idx, (ev, want) in enumerate(zip(trace.events,
                                             golden["events"])):
            got = {"engine": ev.engine, "tag": ev.tag, "start": ev.start,
                   "end": ev.end, "nbytes": ev.nbytes, "flops": ev.flops}
            assert got == want, (
                f"event #{idx} drifted from the golden trace:\n"
                f"  got  {got}\n  want {want}"
            )

    def test_golden_trace_satisfies_all_invariants(self):
        golden = load_golden()
        _result, trace = run_golden_workload()
        verify_trace(trace)
        rep = profile_trace(trace)
        assert rep.t_total <= golden["seconds"]


class TestGoldenVectorTrace:
    @pytest.fixture(scope="class")
    def runs(self):
        return run_vector_workloads()

    @pytest.mark.parametrize("routine", ["dgemv", "daxpy"])
    def test_event_stream_matches_committed_golden(self, runs, routine):
        want = load_golden(VECTOR_PATH)["workloads"][routine]
        result, trace = runs[routine]
        assert result.seconds == want["seconds"]
        got = vector_events(trace)
        assert len(got) == len(want["events"])
        for idx, (g, w) in enumerate(zip(got, want["events"])):
            assert g == w, (
                f"{routine} event #{idx} drifted from the golden trace:\n"
                f"  got  {g}\n  want {w}"
            )

    @pytest.mark.parametrize("routine", ["dgemv", "daxpy"])
    def test_stream_satisfies_all_invariants(self, runs, routine,
                                             check_trace):
        result, trace = runs[routine]
        check_trace(trace)
        assert profile_trace(trace).t_total <= result.seconds


def _regenerate():  # pragma: no cover - maintenance entry point
    result, trace = run_golden_workload()
    doc = {
        "description": "Fixed-seed noise-free dgemm 1024^3, T=256, "
                       "custom_machine(noise_sigma=0.0), library seed 7",
        "routine": "dgemm", "dims": [1024, 1024, 1024], "tile": 256,
        "seconds": result.seconds,
        "events": [
            {"engine": ev.engine, "tag": ev.tag, "start": ev.start,
             "end": ev.end, "nbytes": ev.nbytes, "flops": ev.flops}
            for ev in trace.events
        ],
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"rewrote {GOLDEN_PATH} ({len(doc['events'])} events)")
    doc = {
        "description": "Fixed-seed noise-free vector path on one "
                       "CoCoPeLiaLibrary (custom_machine(noise_sigma=0.0), "
                       "seed 7): dgemv 2000x1500 T=512, then daxpy "
                       "1000000 T=262144",
        "workloads": {
            routine: {"seconds": result.seconds,
                      "events": vector_events(trace)}
            for routine, (result, trace) in run_vector_workloads().items()
        },
    }
    with open(VECTOR_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"rewrote {VECTOR_PATH} ("
          + ", ".join(f"{r}: {len(w['events'])} events"
                      for r, w in doc["workloads"].items()) + ")")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
