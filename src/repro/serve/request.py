"""Requests and the priority/deadline-aware request queue.

A :class:`Request` wraps one BLAS problem with serving metadata: when
it arrived, how urgent it is (integer priority, larger = more urgent),
an optional absolute completion deadline, and an optional *group* key
naming shared input data (for gemm, the A operand — the "weights" of an
inference-style workload; requests in one group with the same M and K
may be batched into one wider gemm).

:class:`RequestQueue` orders pending work EDF-within-priority: the
highest priority class is served first, and inside a class the request
with the earliest deadline (deadline-less requests last), breaking
ties by arrival time and then request id, so queue order — and with it
the whole serving simulation — is fully deterministic.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..core.params import CoCoProblem
from ..errors import ReproError


class ServeError(ReproError):
    """The serving layer was driven into an invalid state."""


class RequestState(enum.Enum):
    """Lifecycle of a request inside the server."""

    CREATED = "created"      #: generated, not yet offered to the server
    QUEUED = "queued"        #: admitted and waiting for a worker
    RUNNING = "running"      #: dispatched to a worker, executing
    DONE = "done"            #: completed successfully
    SHED = "shed"            #: rejected by admission control
    FAILED = "failed"        #: execution failed (fault retry exhausted)
    #: Handed off to another node by a cluster drain.  Terminal for the
    #: node-local view; the fleet-wide conservation check requires some
    #: *other* view of the same req_id to reach a real terminal state.
    MIGRATED = "migrated"


@dataclass
class Request:
    """One BLAS invocation travelling through the serving layer."""

    req_id: int
    problem: CoCoProblem
    arrival: float
    priority: int = 0
    #: Absolute simulated-time deadline; None = best effort.
    deadline: Optional[float] = None
    #: Shared-input key (gemm A operand / model weights); None = unique.
    group: Optional[str] = None

    # -- lifecycle, filled in by the server ----------------------------
    state: RequestState = RequestState.CREATED
    enqueue_t: Optional[float] = None
    dispatch_t: Optional[float] = None
    first_t: Optional[float] = None
    completion_t: Optional[float] = None
    worker: Optional[str] = None
    #: Admission-time prediction of the service time on the chosen
    #: worker and of the absolute completion time (incl. backlog).
    predicted_seconds: Optional[float] = None
    predicted_completion: Optional[float] = None
    #: The admission estimate: ``predicted_seconds`` times the tail
    #: multiplier at the admission percentile (equal to it under mean
    #: admission).  Set with it whenever the request is placed.
    admission_seconds: Optional[float] = None
    #: The deadline this request *arrived* with, preserved when a
    #: downgrade clears ``deadline`` so SLO accounting stays honest.
    original_deadline: Optional[float] = None
    #: Achieved service time of the (possibly batched) execution.
    service_seconds: Optional[float] = None
    batch_id: Optional[int] = None
    downgraded: bool = False
    #: True when the request was re-served on the host after a failed
    #: GPU attempt (the serving analogue of the PR-1 host fallback).
    fallback: bool = False
    #: Times this request reached DONE.  The request-conservation
    #: invariant (obs.verify) requires exactly 1 for DONE requests and
    #: 0 otherwise; anything else means a drain or requeue double-served
    #: or lost the request.
    completions: int = 0
    #: Times the request was pulled out of a failing domain and
    #: re-placed (original arrival/deadline preserved).
    requeues: int = 0
    #: Device event stream of the execution (trace mode only).
    trace_events: Optional[list] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ServeError(f"negative arrival time: {self.arrival}")
        if self.deadline is not None and self.deadline < self.arrival:
            raise ServeError(
                f"request {self.req_id}: deadline {self.deadline} before "
                f"arrival {self.arrival}")

    # ------------------------------------------------------------------

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-completion time (None until completed)."""
        if self.completion_t is None:
            return None
        return self.completion_t - self.arrival

    @property
    def wait(self) -> Optional[float]:
        """Arrival-to-dispatch queueing delay (None until dispatched)."""
        if self.dispatch_t is None:
            return None
        return self.dispatch_t - self.arrival

    @property
    def slo_deadline(self) -> Optional[float]:
        """The deadline this request is *judged* against: the live one,
        or — for downgraded requests, whose scheduling deadline was
        cleared at admission — the one it arrived with."""
        if self.deadline is not None:
            return self.deadline
        return self.original_deadline

    @property
    def slo_met(self) -> Optional[bool]:
        """Did the request finish by its (original) deadline?  None =
        never had a deadline, or not finished."""
        deadline = self.slo_deadline
        if deadline is None or self.completion_t is None:
            return None
        return self.completion_t <= deadline

    def queue_key(self) -> Tuple[float, float, float, int]:
        """EDF-within-priority ordering key (smaller = served first)."""
        deadline = self.deadline if self.deadline is not None else math.inf
        return (-self.priority, deadline, self.arrival, self.req_id)

    def describe(self) -> str:
        extras = [f"prio={self.priority}"]
        if self.deadline is not None:
            extras.append(f"ddl={self.deadline * 1e3:.2f}ms")
        if self.group is not None:
            extras.append(f"group={self.group}")
        return (f"req#{self.req_id} {self.problem.describe()} "
                f"@{self.arrival * 1e3:.2f}ms ({', '.join(extras)})")


class RequestQueue:
    """EDF-within-priority queue with deterministic ordering.

    One list kept sorted on ``(queue_key, req_id, request)``: ``push``
    inserts by bisection, ``pop`` takes the head, :meth:`remove` (used
    by the dispatcher's batch coalescing) deletes the entry found by
    bisection, and iteration walks the list in queue order.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[Tuple[float, float, float, int], int,
                                  Request]] = []
        # total_predicted() memo, None after any push/pop/remove.  The
        # dispatcher reads the backlog of every worker per arrival but
        # mutates at most one queue, so the sum is reused across reads
        # and recomputed — in queue order, so identical float rounding
        # — only after a change.
        self._pred_sum: Optional[float] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(self, request: Request) -> None:
        bisect.insort(self._entries, (request.queue_key(), request.req_id,
                                      request))
        self._pred_sum = None

    def pop(self) -> Request:
        if not self._entries:
            raise ServeError("pop from an empty request queue")
        _key, _rid, request = self._entries.pop(0)
        self._pred_sum = None
        return request

    def remove(self, request: Request) -> None:
        """Remove a specific queued request (for coalescing)."""
        entries = self._entries
        rid = request.req_id
        i = bisect.bisect_left(entries, (request.queue_key(), rid))
        if i == len(entries) or entries[i][1] != rid:
            raise ServeError(
                f"request {rid} removed twice or never queued")
        del entries[i]
        self._pred_sum = None

    def __iter__(self) -> Iterator[Request]:
        """Queued requests in queue order (non-destructive)."""
        for _key, _rid, request in self._entries:
            yield request

    def total_predicted(self) -> float:
        """Sum of admission-time service predictions of queued work."""
        if self._pred_sum is None:
            self._pred_sum = sum(r.predicted_seconds or 0.0 for r in self)
        return self._pred_sum
