"""Golden-trace regression: the simulator's event stream is contractual.

A fixed-seed, noise-free dgemm must reproduce the committed event
stream *exactly* — same events, same order, same float timestamps.  The
simulation is pure IEEE-754 arithmetic with no RNG on the timing path
(noise_sigma=0), and JSON round-trips floats through the shortest
round-trip representation, so exact equality is the right check: any
drift means the scheduler's issue order, the link's fluid model, or the
engine semantics changed, which silently invalidates every calibrated
model database.

Regenerate (only after an *intentional* timing-semantics change)::

    PYTHONPATH=src python -m tests.obs.test_golden_trace

which rewrites ``tests/data/golden_trace_dgemm.json``.
"""

import json
import os

from repro.obs import profile_trace, verify_trace
from repro.runtime.routines import CoCoPeLiaLibrary
from tests.machines import custom_machine

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "golden_trace_dgemm.json")


def run_golden_workload():
    """The pinned workload: dgemm 1024^3, T=256, seed 7, zero noise."""
    machine = custom_machine(noise_sigma=0.0)
    lib = CoCoPeLiaLibrary(machine, seed=7, trace=True)
    result = lib.gemm(m=1024, n=1024, k=1024, tile_size=256)
    return result, lib.last_trace


def load_golden():
    with open(GOLDEN_PATH) as fh:
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


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
