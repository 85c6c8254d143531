"""The simulated GPU device: façade over link, compute engine, memory.

A :class:`GpuDevice` is what the cuBLAS-like backend talks to.  It owns
the simulator clock, the duplex PCIe link, the kernel engine, memory
accounting, the machine's noise model, and (optionally) a trace
recorder.

While ``device.recorder`` is set, the device and the streams created
from then on report every allocation, transfer, kernel and event call
to it (see :mod:`repro.runtime.program`); with no recorder each hook is
one ``is None`` test.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import DeviceMemoryError, SimulationError, StreamError
from ..errors import RetryExhaustedError
from .engine import Simulator
from .faults import (
    MAX_ATTEMPTS,
    FaultInjector,
    FaultPlan,
    ResilienceCounters,
    as_injector,
    backoff,
)
from .kernels import faulted_kernel_time
from .link import Direction, DuplexLink
from .machine import MachineConfig
from .memory import DeviceBuffer
from .noise import NoiseModel
from .stream import (
    KIND_D2H,
    KIND_EXEC,
    KIND_H2D,
    ComputeEngine,
    Operation,
    Stream,
)
from .trace import TraceRecorder


class GpuDevice:
    """One simulated host+GPU system built from a :class:`MachineConfig`."""

    def __init__(
        self,
        config: MachineConfig,
        sim: Optional[Simulator] = None,
        seed: int = 0,
        trace: bool = False,
        faults: "FaultPlan | FaultInjector | None" = None,
        metrics=None,
    ) -> None:
        self.config = config
        self.sim = sim if sim is not None else Simulator()
        self.noise = NoiseModel(seed=seed, sigma=config.noise_sigma)
        self.trace: Optional[TraceRecorder] = TraceRecorder() if trace else None
        #: duck-typed MetricsRegistry (repro.obs.metrics); default None
        #: keeps every instrumentation point a no-op.
        self.metrics = metrics
        #: Fault injection is default-off: with no plan (argument or
        #: config.fault_plan) every fault hook below is skipped and the
        #: event stream is identical to the fault-free simulator's.
        self.faults: Optional[FaultInjector] = as_injector(
            faults if faults is not None else config.fault_plan
        )
        self.resilience = ResilienceCounters()
        #: RetryExhaustedErrors parked by async retry chains; surfaced
        #: by synchronize() since the failing op has no caller frame.
        self._fault_failures: list = []
        if self.faults is not None and metrics is not None:
            self.faults.metrics = metrics
        self.link = DuplexLink(
            self.sim, config.h2d, config.d2h, noise=self.noise,
            trace=self.trace, faults=self.faults, metrics=metrics,
        )
        self.compute = ComputeEngine(self.sim, noise=self.noise,
                                     trace=self.trace, metrics=metrics)
        self._used_bytes = 0
        self._streams: Dict[str, Stream] = {}
        #: duck-typed ProgramRecorder (repro.runtime.program); None = off
        self.recorder = None
        # Dispatch callbacks, one per engine, shared by every op: each
        # is called with the op it hands over, so none captures an op.
        self._dispatch_h2d = partial(_submit_transfer, self.link,
                                     Direction.H2D)
        self._dispatch_d2h = partial(_submit_transfer, self.link,
                                     Direction.D2H)
        self._dispatch_exec = self.compute.submit
        self._retry_scope = (None if self.faults is None
                             else _RetryScope(self))

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    @property
    def mem_capacity(self) -> int:
        return self.config.gpu_mem_bytes

    @property
    def mem_free(self) -> int:
        return self.config.gpu_mem_bytes - self._used_bytes

    def alloc(
        self,
        nbytes: int,
        shape: Optional[Tuple[int, ...]] = None,
        dtype=None,
        with_data: bool = False,
        name: str = "",
    ) -> DeviceBuffer:
        """Allocate device memory; raises on simulated OOM.

        ``with_data=True`` materializes a numpy array (compute mode).
        Under injected memory pressure the usable capacity shrinks by
        the plan's static reservation, and individual allocations may
        transiently fail — those are re-tried in place up to the retry
        budget (pressure comes and goes) before the OOM propagates.
        """
        free = self.mem_free
        capacity = self.mem_capacity
        if self.faults is not None:
            pressure = self.faults.mem_pressure_bytes
            free -= pressure
            capacity -= pressure
            if nbytes <= free and self.faults.alloc_fails():
                attempts = 1
                while (attempts < MAX_ATTEMPTS
                       and self.faults.alloc_fails()):
                    attempts += 1
                self.resilience.retries += attempts
                if attempts >= MAX_ATTEMPTS:
                    raise DeviceMemoryError(nbytes, max(free, 0), capacity)
        if nbytes > free:
            raise DeviceMemoryError(nbytes, max(free, 0), capacity)
        array = None
        if with_data:
            if shape is None or dtype is None:
                raise SimulationError("with_data allocation requires shape and dtype")
            array = np.zeros(shape, dtype=dtype)
        buf = DeviceBuffer(nbytes, shape=shape, dtype=dtype, array=array, name=name)
        self._used_bytes += buf.nbytes
        if self.recorder is not None:
            self.recorder.alloc(nbytes, with_data)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        buf.check_alive()
        buf.freed = True
        buf.array = None
        self._used_bytes -= buf.nbytes
        if self._used_bytes < 0:
            raise SimulationError("device memory accounting went negative")

    # ------------------------------------------------------------------
    # streams and events
    # ------------------------------------------------------------------

    def create_stream(self, name: str = "") -> Stream:
        stream = Stream(self, name=name)
        self._streams[stream.name] = stream
        return stream

    def drop_streams(self) -> None:
        """Forget the streams made so far (their work runs on), so a
        device that outlives a pipeline keeps none of its ops."""
        self._streams.clear()

    def synchronize(self) -> float:
        """cudaDeviceSynchronize: drain all pending work.

        Returns the virtual time at which the device became idle.
        """
        self.sim.run()
        if self._fault_failures:
            # A retry chain exhausted its budget: its op never
            # completed, so report the fault rather than the resulting
            # (expected) stuck streams.
            raise self._fault_failures[0]
        for stream in self._streams.values():
            if not stream.idle:
                raise StreamError(
                    f"stream {stream.name!r} still busy after global sync: "
                    "dependency deadlock (an operation waits on work that "
                    "was never enqueued)"
                )
        return self.sim.now

    # ------------------------------------------------------------------
    # asynchronous operations
    # ------------------------------------------------------------------

    def memcpy_h2d_async(
        self,
        nbytes: int,
        stream: Stream,
        tag: str = "",
        payload: Optional[Callable[[], None]] = None,
        verify: Optional[Callable[[], bool]] = None,
        corrupt: Optional[Callable[[], None]] = None,
    ) -> Operation:
        """Enqueue a host-to-device copy of ``nbytes`` on ``stream``."""
        if self.recorder is not None:
            self.recorder.memcpy_h2d(nbytes, stream, tag)
        op = Operation(KIND_H2D, nbytes, 0.0, 0.0, tag, payload)
        if self.faults is None:
            stream.enqueue(op, self._dispatch_h2d)
        else:
            stream.enqueue(op, _TransferRetry(
                self._retry_scope, Direction.H2D, verify, corrupt).attempt)
        return op

    def memcpy_d2h_async(
        self,
        nbytes: int,
        stream: Stream,
        tag: str = "",
        payload: Optional[Callable[[], None]] = None,
        verify: Optional[Callable[[], bool]] = None,
        corrupt: Optional[Callable[[], None]] = None,
    ) -> Operation:
        """Enqueue a device-to-host copy of ``nbytes`` on ``stream``."""
        if self.recorder is not None:
            self.recorder.memcpy_d2h(nbytes, stream, tag)
        op = Operation(KIND_D2H, nbytes, 0.0, 0.0, tag, payload)
        if self.faults is None:
            stream.enqueue(op, self._dispatch_d2h)
        else:
            stream.enqueue(op, _TransferRetry(
                self._retry_scope, Direction.D2H, verify, corrupt).attempt)
        return op

    def launch_async(
        self,
        duration: float,
        stream: Stream,
        tag: str = "",
        flops: float = 0.0,
        payload: Optional[Callable[[], None]] = None,
    ) -> Operation:
        """Enqueue a kernel of the given ground-truth ``duration``.

        With faults active the launch may abort partway through
        (occupying the engine for the aborted fraction) and is then
        re-issued with exponential backoff, up to the retry budget.
        """
        if duration < 0:
            raise SimulationError(f"negative kernel duration: {duration}")
        if self.recorder is not None:
            self.recorder.launch(duration, stream, tag, flops)
        op = Operation(KIND_EXEC, 0, duration, flops, tag, payload)
        if self.faults is None:
            stream.enqueue(op, self._dispatch_exec)
        else:
            stream.enqueue(op, _KernelRetry(self._retry_scope,
                                            duration).attempt)
        return op

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def transfer_count(self, direction: Direction) -> int:
        return self.link.stats(direction).transfers

    def bytes_moved(self, direction: Direction) -> int:
        return self.link.stats(direction).bytes_moved

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GpuDevice {self.config.name} t={self.sim.now:.6f}s "
            f"mem={self._used_bytes}/{self.config.gpu_mem_bytes}>"
        )


def _submit_transfer(link: DuplexLink, direction: Direction,
                     op: Operation) -> None:
    """Dispatch of a fault-free transfer: hand ``op`` to the link."""
    link.submit(direction, op.nbytes, op.complete, op.tag)


class _RetryScope:
    """The parts of one device its retry chains use, without the device.

    A retry is the dispatch callback of an op that the device's streams
    still point at until it dispatches.  If the retry held the device,
    every op of a wedged schedule that never dispatched would sit in a
    cycle through the device's streams.
    """

    __slots__ = ("sim", "link", "compute", "faults", "resilience",
                 "failures")

    def __init__(self, device: GpuDevice) -> None:
        self.sim = device.sim
        self.link = device.link
        self.compute = device.compute
        self.faults = device.faults
        self.resilience = device.resilience
        #: the device's parked RetryExhaustedErrors (synchronize raises)
        self.failures = device._fault_failures


class _Retry:
    """Re-submits one fault-injected op until it lands or its budget
    is spent.

    The op is passed to every step (dispatch, link and fault
    callbacks, backoff events) rather than held, and only callbacks
    point at a retry object.  Each is dropped once it fires, so a
    settled op and its retry are freed by reference counting, and an
    op that never dispatched is in no cycle either.
    """

    __slots__ = ("scope",)

    def __init__(self, scope: _RetryScope) -> None:
        self.scope = scope

    def _retry_or_park(self, op: Operation, reason: str) -> bool:
        """Schedule the subclass's next ``attempt`` after backoff and
        return True; once the budget is spent, park a
        :class:`RetryExhaustedError` on the device (synchronize raises
        it) and return False."""
        scope = self.scope
        if op.attempts >= MAX_ATTEMPTS:
            scope.failures.append(
                RetryExhaustedError(op.tag or op.kind, op.attempts, reason))
            return False
        scope.sim.schedule(backoff(op.attempts), partial(self.attempt, op))
        return True


class _TransferRetry(_Retry):
    """A transfer that may fail on the link or land corrupted.

    ``verify`` re-checksums the destination after the payload copy
    (compute mode); ``corrupt`` applies the injected silent corruption
    to the destination.  The op stays *pending* across failed attempts
    (dependents wait, stream order is preserved) and is re-submitted
    with exponential backoff in simulated time; on budget exhaustion it
    never completes and synchronize() raises
    :class:`RetryExhaustedError`.
    """

    __slots__ = ("direction", "verify", "corrupt")

    def __init__(self, scope: _RetryScope, direction: Direction,
                 verify: Optional[Callable[[], bool]],
                 corrupt: Optional[Callable[[], None]]) -> None:
        super().__init__(scope)
        self.direction = direction
        self.verify = verify
        self.corrupt = corrupt

    def attempt(self, op: Operation) -> None:
        op.attempts += 1
        self.scope.link.submit(self.direction, op.nbytes,
                               on_complete=partial(self.landed, op),
                               on_fault=partial(self.failed, op),
                               tag=op.tag)

    def failed(self, op: Operation) -> None:
        if self._retry_or_park(op, "transient transfer failure"):
            self.scope.resilience.retries += 1

    def landed(self, op: Operation) -> None:
        # Bytes arrived: run the data copy, then model silent
        # corruption.  A re-fetch re-runs the payload, which
        # overwrites the corrupted destination with good data.
        if op.payload is not None:
            op.payload()
        corrupted = self.scope.faults.corrupts_transfer()
        if corrupted and self.corrupt is not None:
            self.corrupt()
        # Compute mode detects corruption by checksum mismatch;
        # timing mode (no arrays to checksum) detects it directly.
        verify = self.verify
        detected = (not verify()) if verify is not None else corrupted
        if detected:
            self.scope.resilience.refetches += 1
            self._retry_or_park(op, "tile corruption")
            return
        op.payload = None  # already ran; don't run it again
        op.complete()


class _KernelRetry(_Retry):
    """A kernel launch that may abort partway through."""

    __slots__ = ("duration",)

    def __init__(self, scope: _RetryScope, duration: float) -> None:
        super().__init__(scope)
        #: the ground-truth duration; ``op.duration`` is per attempt
        self.duration = duration

    def attempt(self, op: Operation) -> None:
        op.attempts += 1
        if self.scope.faults.kernel_faults():
            op.fault = True
            op.duration = faulted_kernel_time(self.duration)
            op.on_fault = self.aborted
        else:
            op.fault = False
            op.duration = self.duration
            op.on_fault = None
        self.scope.compute.submit(op)

    def aborted(self, op: Operation) -> None:
        if self._retry_or_park(op, "kernel fault"):
            self.scope.resilience.kernel_retries += 1
