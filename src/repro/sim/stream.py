"""CUDA-like streams, events, and the compute engine.

Semantics mirror the subset of CUDA the paper's library uses:

* operations enqueued on one stream execute in order;
* operations on different streams may overlap, subject to engine
  availability (one h2d copy engine, one d2h copy engine, one kernel
  engine);
* ``CudaEvent`` provides cross-stream ordering, as used by the tile
  scheduler to make a kernel wait for its tiles' transfers.

Engines pick among *ready* operations in issue order (no head-of-line
blocking across streams), which matches the behaviour of modern CUDA
hardware queues closely enough for the paper's pipelines.

Hot-path notes: an op is handed to its engine by :meth:`Stream.enqueue`
when it is ready there, or else by the :meth:`Operation.complete` of
its last dependency; an engine finishes it by calling ``op.complete``
(the link takes the bound method as its completion callback, so no
``partial`` is built per transfer).
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappush
from typing import Callable, Deque, List, Optional

from ..errors import StreamError
from .engine import Simulator

_op_ids = itertools.count()

KIND_H2D = "h2d"
KIND_D2H = "d2h"
KIND_EXEC = "exec"
_VALID_KINDS = (KIND_H2D, KIND_D2H, KIND_EXEC)


class Operation:
    """A unit of asynchronous device work (transfer or kernel)."""

    __slots__ = (
        "op_id",
        "kind",
        "nbytes",
        "duration",
        "flops",
        "tag",
        "payload",
        "remaining_deps",
        "dependents",
        "done",
        "issued",
        "callbacks",
        "attempts",
        "fault",
        "on_fault",
        "_dispatch_fn",
    )

    def __init__(
        self,
        kind: str,
        nbytes: int = 0,
        duration: float = 0.0,
        flops: float = 0.0,
        tag: str = "",
        payload: Optional[Callable[[], None]] = None,
    ) -> None:
        if kind not in _VALID_KINDS:
            raise StreamError(f"invalid operation kind: {kind!r}")
        self.op_id = next(_op_ids)
        self.kind = kind
        self.nbytes = nbytes
        self.duration = duration
        self.flops = flops
        self.tag = tag
        self.payload = payload
        self.remaining_deps = 0
        # Lazily created (None = empty): most ops never get a done
        # callback, and the two lists per op are real GC pressure at
        # tens of thousands of ops per simulated run.
        self.dependents: Optional[List["Operation"]] = None
        self.done = False
        self.issued = False
        self.callbacks: Optional[List[Callable[[], None]]] = None
        #: resilience bookkeeping (see repro.sim.faults): engine
        #: submissions of this op, whether the current attempt is
        #: fault-doomed, and the callback fired instead of completion.
        self.attempts = 0
        self.fault = False
        self.on_fault: Optional[Callable[["Operation"], None]] = None

    def on_done(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the op's completion time (immediately if done)."""
        if self.done:
            fn()
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def complete(self) -> None:
        """Run the payload, mark done, release dependents and callbacks.

        Engines call this when the op's work lands.  The payload is
        dropped before it runs: its closure holds views of the caller's
        host arrays and a device tile that points back at the device,
        so a kept payload would close a cycle pinning those arrays
        until the next garbage collection.
        """
        payload = self.payload
        if payload is not None:
            self.payload = None
            payload()
        self.done = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            for cb in callbacks:
                cb()
        dependents = self.dependents
        if dependents:
            self.dependents = None
            for dep in dependents:
                remaining = dep.remaining_deps - 1
                dep.remaining_deps = remaining
                if remaining == 0 and not dep.done:
                    # Hand the dependent to its engine, exactly once.
                    # Its dispatch callback takes the op rather than
                    # capturing it, so an op that never dispatches
                    # (wedged behind a failed transfer) is in no cycle
                    # through its callback; the callback is dropped
                    # before it runs.
                    if dep.issued:
                        raise StreamError(
                            f"operation dispatched twice: {dep!r}")
                    dep.issued = True
                    dispatch = dep._dispatch_fn
                    dep._dispatch_fn = None
                    dispatch(dep)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("issued" if self.issued else "pending")
        return f"<Op #{self.op_id} {self.kind} {self.tag!r} {state}>"


class CudaEvent:
    """Cross-stream synchronization marker (cudaEventRecord/WaitEvent).

    A recorded event holds the last op its stream had enqueued (None
    for an empty stream); it is complete once that op is done.
    """

    __slots__ = ("_marker", "_recorded")

    def __init__(self, marker: Optional[Operation] = None,
                 recorded: bool = False) -> None:
        self._marker = marker
        self._recorded = recorded


class ComputeEngine:
    """The GPU's kernel execution engine: one kernel at a time, FIFO."""

    def __init__(self, sim: Simulator, noise=None, trace=None,
                 metrics=None) -> None:
        self._sim = sim
        # The simulator's queue, pushed to directly (see repro.sim.engine).
        self._heap = sim._heap
        self._seqs = sim._seqs
        self._noise = noise
        self._trace = trace
        #: duck-typed MetricsRegistry (repro.obs.metrics); None = off
        self._metrics = metrics
        # Metric handles resolved once instead of per kernel.
        if metrics is not None:
            self._m_count = metrics.counter("sim.kernel.count")
            self._m_seconds = metrics.counter("sim.kernel.seconds")
            self._m_flops = metrics.counter("sim.kernel.flops")
            self._m_faults = metrics.counter("sim.kernel.faults")
        self._queue: Deque[Operation] = deque()
        self._active: Optional[Operation] = None
        self._start_time = 0.0
        self.kernels_run = 0
        self.busy_time = 0.0

    @property
    def idle(self) -> bool:
        return self._active is None and not self._queue

    def submit(self, op: Operation) -> None:
        queue = self._queue
        queue.append(op)
        if self._active is None:
            self._start(queue.popleft())

    def _start(self, op: Operation) -> None:
        self._active = op
        now = self._sim._now
        self._start_time = now
        duration = op.duration
        if self._noise is not None:
            duration *= self._noise.duration_factor()
        heappush(self._heap,
                 [now + duration, next(self._seqs), self._finish, op])

    def _finish(self, op: Operation) -> None:
        now = self._sim._now
        self.kernels_run += 1
        self.busy_time += now - self._start_time
        if self._trace is not None:
            self._trace.record(
                engine=KIND_EXEC,
                tag=op.tag + ("!fault" if op.fault else ""),
                start=self._start_time,
                end=now,
                flops=op.flops,
            )
        if self._metrics is not None:
            self._m_count.inc()
            self._m_seconds.inc(now - self._start_time)
            self._m_flops.inc(op.flops)
            if op.fault:
                self._m_faults.inc()
        self._active = None
        if op.fault:
            # Injected kernel abort: the engine was occupied for the
            # aborted fraction but the op neither ran its payload nor
            # completed; the device's retry machinery re-submits it.
            on_fault = op.on_fault
            if on_fault is not None:
                op.on_fault = None
                on_fault(op)
        else:
            op.complete()
        if self._active is None and self._queue:
            self._start(self._queue.popleft())


class Stream:
    """An in-order queue of device operations (a CUDA stream).

    A stream keeps the device's simulator and fault-failure list, not
    the device: the device owns its streams, and nothing points back.
    A stream created while the device has a program recorder reports
    its event calls to it until the recorder detaches.
    """

    __slots__ = ("_sim", "_failures", "name", "_last", "_pending_waits",
                 "_recorder")

    def __init__(self, device, name: str = "") -> None:
        self._sim: Simulator = device.sim
        #: RetryExhaustedErrors the device's retry chains park here
        self._failures: List[Exception] = device._fault_failures
        self.name = name or f"stream{next(_op_ids)}"
        self._last: Optional[Operation] = None
        self._pending_waits: List[Operation] = []
        self._recorder = device.recorder
        if self._recorder is not None:
            self._recorder.stream(self)

    @property
    def last_op(self) -> Optional[Operation]:
        return self._last

    def wait_event(self, event: CudaEvent) -> None:
        """All work enqueued after this call waits for ``event``."""
        if not event._recorded:
            raise StreamError("waiting on an event that was never recorded")
        if self._recorder is not None:
            self._recorder.wait_event(self, event)
        marker = event._marker
        if marker is not None and not marker.done:
            self._pending_waits.append(marker)

    def enqueue(self, op: Operation,
                dispatch: Callable[[Operation], None]) -> None:
        """Attach stream-order dependencies and issue when ready.

        ``dispatch(op)`` hands the op to its engine: now if all
        dependencies are already satisfied, otherwise from the
        :meth:`Operation.complete` of the last one.
        """
        deps = 0
        last = self._last
        if last is not None and not last.done:
            if last.dependents is None:
                last.dependents = [op]
            else:
                last.dependents.append(op)
            deps = 1
        waits = self._pending_waits
        if waits:
            for marker in waits:
                if not marker.done:
                    if marker.dependents is None:
                        marker.dependents = [op]
                    else:
                        marker.dependents.append(op)
                    deps += 1
            waits.clear()
        self._last = op
        if deps:
            op.remaining_deps += deps
            op._dispatch_fn = dispatch
        elif op.issued:
            raise StreamError(f"operation dispatched twice: {op!r}")
        else:
            op.issued = True
            dispatch(op)

    def record_event(self) -> CudaEvent:
        """Record an event capturing all work enqueued so far."""
        ev = CudaEvent(self._last, True)
        if self._recorder is not None:
            self._recorder.record_event(self, ev)
        return ev

    def synchronize(self) -> None:
        """Run the simulator until all work in this stream completes."""
        last = self._last
        if last is None:
            return
        self._sim.run_done(last)
        if not last.done:
            if self._failures:
                raise self._failures[0]
            raise StreamError(
                f"stream {self.name!r} did not drain: dependency deadlock"
            )

    @property
    def idle(self) -> bool:
        return self._last is None or self._last.done
