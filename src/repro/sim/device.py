"""The simulated GPU device: façade over link, compute engine, memory.

A :class:`GpuDevice` is what the cuBLAS-like backend talks to.  It owns
the simulator clock, the duplex PCIe link, the kernel engine, memory
accounting, the machine's noise model, and (optionally) a trace
recorder.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import DeviceMemoryError, SimulationError, StreamError
from ..errors import RetryExhaustedError
from .engine import Simulator
from .faults import (
    FaultInjector,
    FaultPlan,
    ResilienceCounters,
    RetryPolicy,
    as_injector,
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
    CudaEvent,
    Operation,
    Stream,
    _complete_operation,
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
        retry: Optional[RetryPolicy] = None,
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
        self.retry_policy = retry if retry is not None else RetryPolicy()
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

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------

    @property
    def mem_capacity(self) -> int:
        return self.config.gpu_mem_bytes

    @property
    def mem_used(self) -> int:
        return self._used_bytes

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
                while (attempts < self.retry_policy.max_attempts
                       and self.faults.alloc_fails()):
                    attempts += 1
                self.resilience.retries += attempts
                if attempts >= self.retry_policy.max_attempts:
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

    def record_event(self, stream: Stream) -> CudaEvent:
        return stream.record_event()

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
        if self.faults is None:
            op = Operation(KIND_H2D, nbytes=nbytes, tag=tag, payload=payload)
            stream.enqueue(op, partial(
                self.link.submit, Direction.H2D, nbytes,
                on_complete=partial(_complete_operation, op), tag=tag,
            ))
            return op
        return self._transfer_async(Direction.H2D, nbytes, stream, tag,
                                    payload, verify, corrupt)

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
        if self.faults is None:
            op = Operation(KIND_D2H, nbytes=nbytes, tag=tag, payload=payload)
            stream.enqueue(op, partial(
                self.link.submit, Direction.D2H, nbytes,
                on_complete=partial(_complete_operation, op), tag=tag,
            ))
            return op
        return self._transfer_async(Direction.D2H, nbytes, stream, tag,
                                    payload, verify, corrupt)

    def _transfer_async(
        self,
        direction: Direction,
        nbytes: int,
        stream: Stream,
        tag: str,
        payload: Optional[Callable[[], None]],
        verify: Optional[Callable[[], bool]] = None,
        corrupt: Optional[Callable[[], None]] = None,
    ) -> Operation:
        """Enqueue a transfer; with faults active, a resilient one.

        ``verify`` re-checksums the destination after the payload copy
        (compute mode); ``corrupt`` applies the injected silent
        corruption to the destination.  Both are only consulted when a
        fault injector is attached.  The resilient path keeps the op
        *pending* across failed attempts — dependents wait, stream
        order is preserved — and re-submits with exponential backoff in
        simulated time; on budget exhaustion the op never completes and
        synchronize() raises :class:`RetryExhaustedError`.
        """
        kind = KIND_H2D if direction is Direction.H2D else KIND_D2H
        op = Operation(kind, nbytes=nbytes, tag=tag, payload=payload)
        faults = self.faults

        if faults is None:
            stream.enqueue(op, partial(
                self.link.submit, direction, nbytes,
                on_complete=partial(_complete_operation, op), tag=tag,
            ))
            return op

        policy = self.retry_policy

        def attempt() -> None:
            op.attempts += 1
            self.link.submit(
                direction,
                nbytes,
                on_complete=landed,
                on_fault=lambda: retry_or_park("transient transfer failure"),
                tag=tag,
            )

        def landed() -> None:
            # Bytes arrived: run the data copy, then model silent
            # corruption.  A re-fetch re-runs the payload, which
            # overwrites the corrupted destination with good data.
            if op.payload is not None:
                op.payload()
            corrupted = faults.corrupts_transfer()
            if corrupted and corrupt is not None:
                corrupt()
            # Compute mode detects corruption by checksum mismatch;
            # timing mode (no arrays to checksum) detects it directly.
            detected = (not verify()) if verify is not None else corrupted
            if detected:
                self.resilience.refetches += 1
                retry_or_park("tile corruption", is_refetch=True)
                return
            op.payload = None  # already ran; don't run it again
            _complete_operation(op)

        def retry_or_park(reason: str, is_refetch: bool = False) -> None:
            if op.attempts >= policy.max_attempts:
                self._fault_failures.append(
                    RetryExhaustedError(tag or kind, op.attempts, reason)
                )
                return
            if not is_refetch:
                self.resilience.retries += 1
            self.sim.schedule(policy.backoff(op.attempts), attempt)

        stream.enqueue(op, attempt)
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
        op = Operation(KIND_EXEC, duration=duration, flops=flops, tag=tag,
                       payload=payload)
        faults = self.faults

        if faults is None:
            stream.enqueue(op, partial(self.compute.submit, op))
            return op

        policy = self.retry_policy

        def attempt() -> None:
            op.attempts += 1
            if faults.kernel_faults():
                op.fault = True
                op.duration = faulted_kernel_time(duration)
                op.on_fault = aborted
            else:
                op.fault = False
                op.duration = duration
                op.on_fault = None
            self.compute.submit(op)

        def aborted() -> None:
            if op.attempts >= policy.max_attempts:
                self._fault_failures.append(
                    RetryExhaustedError(tag or KIND_EXEC, op.attempts,
                                        "kernel fault")
                )
                return
            self.resilience.kernel_retries += 1
            self.sim.schedule(policy.backoff(op.attempts), attempt)

        stream.enqueue(op, attempt)
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
