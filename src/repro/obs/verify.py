"""Machine-checking of recorded event streams.

A :class:`~repro.sim.trace.TraceRecorder` stream from a well-behaved
run must satisfy structural invariants regardless of machine, problem,
or fault plan.  This module checks them:

``well-formed``
    Every event has ``end >= start``, non-negative ``nbytes`` and
    ``flops``, and a non-empty engine name.
``completion-order``
    The recorder appends events at their completion time on one shared
    simulated clock, so event ``end`` times are non-decreasing in
    record order.
``engine-exclusive``
    Each engine runs one job at a time: busy intervals on one engine
    never overlap.
``tile-order``
    Per-tile data dependencies, parsed from the scheduler's tags: a
    kernel reading tile ``X`` must start at or after the first
    successful ``h2d`` of ``X`` ends, and a ``d2h`` writeback of ``X``
    must start at or after every successful kernel writing ``X`` ends.
``fault-matched``
    An event tagged ``...!fault`` is a failed attempt; the retry
    machinery must eventually land a successful event with the same
    base tag on the same engine (unless the retry budget was exhausted
    — pass ``allow_unmatched_faults=True`` for runs that may degrade
    to the host fallback).

Serving runs add two per-request invariants over request lifecycle
records (:func:`find_request_violations` / :func:`verify_requests`):

``request-lifecycle``
    A completed request's timestamps are monotone:
    ``enqueue <= dispatch <= first event <= completion``.
``request-exclusive``
    A worker executes one batch at a time: the ``[dispatch,
    completion]`` spans of *distinct batches* on one worker never
    overlap (requests coalesced into the same batch share their span).

The checker is exposed as a library API (:func:`verify_trace`,
:func:`find_violations`) and as the ``check_trace`` pytest fixture in
``tests/conftest.py``; the fixture forwards ``requests=`` so serve
tests verify both the device event streams and the request lifecycles
in one call.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..errors import TraceInvariantError
from ..sim.trace import TraceEvent, TraceRecorder

FAULT_SUFFIX = "!fault"

_KERNEL_2D = re.compile(r"^(\w+)\((\d+),(\d+)\)$")
_KERNEL_3D = re.compile(r"^(\w+)\((\d+),(\d+),(\d+)\)$")
_KERNEL_1D = re.compile(r"^(\w+)\[(\d+)\]$")


def split_fault(tag: str) -> Tuple[str, bool]:
    """``("gemm(0,1,2)", True)`` for ``"gemm(0,1,2)!fault"``."""
    if tag.endswith(FAULT_SUFFIX):
        return tag[: -len(FAULT_SUFFIX)], True
    return tag, False


def transfer_tile(tag: str) -> Optional[str]:
    """The tile a transfer tag moves (``"h2d:A(0,1)"`` -> ``"A(0,1)"``)."""
    for prefix in ("h2d:", "d2h:"):
        if tag.startswith(prefix):
            return tag[len(prefix):]
    return None


def kernel_deps(tag: str) -> Optional[Tuple[Set[str], Set[str]]]:
    """(reads, writes) tile sets for a scheduler kernel tag.

    Returns ``None`` for tags the schedulers do not emit (hand-built
    traces, microbenchmarks) — those kernels carry no checkable data
    dependencies.
    """
    m = _KERNEL_3D.match(tag)
    if m:
        name, i, j, l = m.group(1), m.group(2), m.group(3), m.group(4)
        if name == "gemm":
            return ({f"A({i},{l})", f"B({l},{j})", f"C({i},{j})"},
                    {f"C({i},{j})"})
        if name == "syrk":
            return ({f"A({i},{l})", f"A({j},{l})", f"C({i},{j})"},
                    {f"C({i},{j})"})
        return None
    m = _KERNEL_2D.match(tag)
    if m:
        name, i, j = m.group(1), m.group(2), m.group(3)
        if name == "gemv":
            return ({f"A({i},{j})", f"x[{j}]", f"y[{i}]"}, {f"y[{i}]"})
        return None
    m = _KERNEL_1D.match(tag)
    if m:
        name, i = m.group(1), m.group(2)
        if name == "axpy":
            return ({f"x[{i}]", f"y[{i}]"}, {f"y[{i}]"})
        return None
    return None


def _events(trace: Union[TraceRecorder, Iterable[TraceEvent]]
            ) -> List[TraceEvent]:
    if isinstance(trace, TraceRecorder):
        return list(trace.events)
    return list(trace)


def find_violations(
    trace: Union[TraceRecorder, Iterable[TraceEvent]],
    allow_unmatched_faults: bool = False,
    eps: float = 1e-12,
) -> List[Tuple[str, str]]:
    """All invariant violations as ``(invariant, message)`` pairs."""
    events = _events(trace)
    violations: List[Tuple[str, str]] = []

    # -- well-formed ----------------------------------------------------
    for idx, ev in enumerate(events):
        if not ev.engine:
            violations.append((
                "well-formed", f"event #{idx} ({ev.tag!r}) has no engine"))
        if ev.end < ev.start:
            violations.append((
                "well-formed",
                f"event #{idx} ({ev.tag!r} on {ev.engine}) ends before it "
                f"starts: start={ev.start}, end={ev.end}"))
        if ev.nbytes < 0:
            violations.append((
                "well-formed",
                f"event #{idx} ({ev.tag!r} on {ev.engine}) has negative "
                f"nbytes: {ev.nbytes}"))
        if ev.flops < 0:
            violations.append((
                "well-formed",
                f"event #{idx} ({ev.tag!r} on {ev.engine}) has negative "
                f"flops: {ev.flops}"))

    # -- completion-order ----------------------------------------------
    for idx, (prev, cur) in enumerate(zip(events, events[1:]), start=1):
        if cur.end < prev.end - eps:
            violations.append((
                "completion-order",
                f"event #{idx} ({cur.tag!r} on {cur.engine}) completed at "
                f"{cur.end} but was recorded after "
                f"({prev.tag!r}) completing at {prev.end}"))

    # -- engine-exclusive -----------------------------------------------
    by_engine = {}
    for ev in events:
        by_engine.setdefault(ev.engine, []).append(ev)
    for engine, evs in by_engine.items():
        ordered = sorted(evs, key=lambda e: (e.start, e.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end - eps:
                violations.append((
                    "engine-exclusive",
                    f"engine {engine!r} overlaps itself: {prev.tag!r} "
                    f"[{prev.start}, {prev.end}] and {cur.tag!r} "
                    f"[{cur.start}, {cur.end}]"))

    # -- tile-order -----------------------------------------------------
    first_fetch_end = {}  # tile -> end of its first successful h2d
    for ev in events:
        base, fault = split_fault(ev.tag)
        tile = transfer_tile(base)
        if tile is not None and not fault and base.startswith("h2d:"):
            if tile not in first_fetch_end or ev.end < first_fetch_end[tile]:
                first_fetch_end[tile] = ev.end
    kernel_writes = {}  # tile -> latest end of a successful writing kernel
    for ev in events:
        base, fault = split_fault(ev.tag)
        if fault:
            continue
        deps = kernel_deps(base)
        if deps is None:
            continue
        reads, writes = deps
        for tile in reads:
            fetched = first_fetch_end.get(tile)
            if fetched is not None and ev.start < fetched - eps:
                violations.append((
                    "tile-order",
                    f"kernel {base!r} started at {ev.start} before the "
                    f"first successful h2d of {tile!r} completed at "
                    f"{fetched}"))
        for tile in writes:
            kernel_writes[tile] = max(kernel_writes.get(tile, 0.0), ev.end)
    for ev in events:
        base, _fault = split_fault(ev.tag)
        tile = transfer_tile(base)
        if tile is None or not base.startswith("d2h:"):
            continue
        last_write = kernel_writes.get(tile)
        if last_write is not None and ev.start < last_write - eps:
            violations.append((
                "tile-order",
                f"writeback {base!r} started at {ev.start} before the last "
                f"kernel writing {tile!r} completed at {last_write}"))

    # -- fault-matched --------------------------------------------------
    if not allow_unmatched_faults:
        for idx, ev in enumerate(events):
            base, fault = split_fault(ev.tag)
            if not fault:
                continue
            matched = any(
                later.engine == ev.engine and later.tag == base
                for later in events[idx + 1:]
            )
            if not matched:
                violations.append((
                    "fault-matched",
                    f"failed attempt {base!r} on {ev.engine} at "
                    f"t={ev.start} has no subsequent successful retry"))

    return violations


def find_request_violations(
    requests: Iterable[object],
    eps: float = 1e-12,
) -> List[Tuple[str, str]]:
    """Per-request invariant violations as ``(invariant, message)`` pairs.

    ``requests`` are duck-typed lifecycle records — anything with
    ``req_id``, ``worker``, ``batch_id``, ``enqueue_t``, ``dispatch_t``,
    ``first_t`` and ``completion_t`` attributes (e.g.
    :class:`repro.serve.request.Request`).  Requests that never
    completed (shed, failed, still queued) carry no complete span and
    are only checked for the monotonicity of whatever timestamps they
    do have.
    """
    violations: List[Tuple[str, str]] = []
    completed = []
    for req in requests:
        rid = getattr(req, "req_id", "?")
        stamps = [("enqueue", getattr(req, "enqueue_t", None)),
                  ("dispatch", getattr(req, "dispatch_t", None)),
                  ("first event", getattr(req, "first_t", None)),
                  ("completion", getattr(req, "completion_t", None))]
        present = [(name, t) for name, t in stamps if t is not None]
        for (n1, t1), (n2, t2) in zip(present, present[1:]):
            if t2 < t1 - eps:
                violations.append((
                    "request-lifecycle",
                    f"request #{rid}: {n2} at {t2} precedes {n1} at {t1}"))
        if stamps[3][1] is not None and stamps[1][1] is not None:
            completed.append(req)

    by_worker = {}
    for req in completed:
        worker = getattr(req, "worker", None)
        if worker is not None:
            by_worker.setdefault(worker, []).append(req)
    for worker, reqs in sorted(by_worker.items()):
        spans = {}  # batch_id -> (start, end, req_id)
        for req in reqs:
            key = (req.batch_id if getattr(req, "batch_id", None) is not None
                   else ("solo", req.req_id))
            start, end = req.dispatch_t, req.completion_t
            if key in spans:
                s0, e0, _ = spans[key]
                spans[key] = (min(s0, start), max(e0, end), spans[key][2])
            else:
                spans[key] = (start, end, req.req_id)
        ordered = sorted(spans.values())
        for (s1, e1, r1), (s2, e2, r2) in zip(ordered, ordered[1:]):
            if s2 < e1 - eps:
                violations.append((
                    "request-exclusive",
                    f"worker {worker!r} overlaps itself: request #{r1} "
                    f"[{s1}, {e1}] and request #{r2} [{s2}, {e2}] are in "
                    f"different batches"))
    return violations


def find_conservation_violations(
    requests: Iterable[object],
) -> List[Tuple[str, str]]:
    """Request-conservation violations as ``(invariant, message)`` pairs.

    Chaos runs drain failing fault domains and requeue their work onto
    survivors or the host.  Whatever the failure pattern, every request
    offered to the server must end in **exactly one** terminal state —
    done, shed, or failed — and must have completed exactly once iff
    that state is done.  Anything else means
    a drain or requeue lost the request (stuck queued/running, zero
    completions) or double-served it (two completions).

    Cluster runs add *migration*: a node drain may hand a request off
    to another node, leaving a node-local view in state ``MIGRATED``.
    Views sharing one ``req_id`` are therefore folded into a single
    fleet-wide request: exactly one view must reach a real terminal
    state (done/shed/failed), migrated views must carry zero
    completions, and total completions across all views must be 1 iff
    the terminal state is done.  Single-node callers passing one view
    per request get the historical per-request messages unchanged.

    ``requests`` are duck-typed: anything with ``state`` (whose
    ``.name`` is one of the :class:`repro.serve.request.RequestState`
    names) and an integer ``completions`` counter.  Views without a
    ``req_id`` are never folded together.
    """
    terminal_names = ("DONE", "SHED", "FAILED")
    violations: List[Tuple[str, str]] = []
    groups: dict = {}  # key -> [(state name, completions), ...]
    anon = 0
    for req in requests:
        rid = getattr(req, "req_id", None)
        if rid is None:
            key = ("anon", anon)
            anon += 1
        else:
            key = ("id", rid)
        state = getattr(req, "state", None)
        name = getattr(state, "name", str(state))
        groups.setdefault(key, []).append(
            (name, getattr(req, "completions", 0)))
    for key, views in groups.items():
        rid = key[1] if key[0] == "id" else "?"
        names = [name for name, _ in views]
        total = sum(c for _, c in views)
        terminal = [n for n in names if n in terminal_names]
        for name, completions in views:
            if name == "MIGRATED" and completions != 0:
                violations.append((
                    "request-conservation",
                    f"request #{rid}: MIGRATED view completed "
                    f"{completions} times (a handoff carries no "
                    f"completions)"))
        stray = [n for n in names
                 if n not in terminal_names and n != "MIGRATED"]
        if stray:
            violations.append((
                "request-conservation",
                f"request #{rid}: non-terminal final state {stray[0]} "
                f"(lost by a drain or requeue)"))
            continue
        if not terminal:
            # every view migrated away and nobody finished the job
            violations.append((
                "request-conservation",
                f"request #{rid}: migrated off every node but never "
                f"re-served (lost in migration)"))
            continue
        if len(terminal) > 1:
            violations.append((
                "request-conservation",
                f"request #{rid}: {len(terminal)} terminal views "
                f"({', '.join(terminal)}) — served on multiple nodes"))
            continue
        final = terminal[0]
        if final == "DONE" and total != 1:
            violations.append((
                "request-conservation",
                f"request #{rid}: DONE with {total} completions "
                f"(expected exactly 1)"))
        elif final != "DONE" and total != 0:
            violations.append((
                "request-conservation",
                f"request #{rid}: {final} yet completed "
                f"{total} times"))
    return violations


def verify_requests(requests: Iterable[object], eps: float = 1e-12) -> None:
    """Raise :class:`TraceInvariantError` on the first request violation."""
    violations = find_request_violations(requests, eps=eps)
    if violations:
        invariant, message = violations[0]
        raise TraceInvariantError(invariant, message)


def verify_trace(
    trace: Union[TraceRecorder, Iterable[TraceEvent]],
    allow_unmatched_faults: bool = False,
    eps: float = 1e-12,
    requests: Optional[Iterable[object]] = None,
) -> None:
    """Raise :class:`TraceInvariantError` on the first violation.

    ``requests`` optionally adds the per-request serving invariants
    (:func:`find_request_violations`) to the structural trace checks.
    """
    violations = find_violations(
        trace, allow_unmatched_faults=allow_unmatched_faults, eps=eps)
    if requests is not None:
        violations += find_request_violations(requests, eps=eps)
    if violations:
        invariant, message = violations[0]
        raise TraceInvariantError(invariant, message)
