"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.

Fault taxonomy (resilience subsystem, see ``repro.sim.faults``): errors
caused by injected hardware faults split into *transient* ones — a
retry of the same operation may succeed (link glitches, memory
pressure) — and *permanent* ones, where the bounded retry budget has
been spent and the caller must degrade (smaller tiles, host fallback)
or give up.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class TraceInvariantError(SimulationError):
    """A recorded event stream violated a structural invariant.

    Raised by :func:`repro.obs.verify.verify_trace`.  ``invariant``
    names the violated rule (e.g. ``"engine-exclusive"``) so tests can
    assert on the exact failure and the message stays greppable.
    """

    def __init__(self, invariant: str, message: str) -> None:
        self.invariant = invariant
        super().__init__(f"trace invariant {invariant!r} violated: {message}")


class FaultError(ReproError):
    """Base class of the injected-fault taxonomy."""


class TransientFaultError(FaultError):
    """A fault a bounded retry of the same operation may survive."""


class PermanentFaultError(FaultError):
    """A fault that retrying the same operation cannot fix."""


class RetryExhaustedError(PermanentFaultError):
    """An operation kept faulting until its retry budget ran out."""

    def __init__(self, tag: str, attempts: int, last_fault: str = "") -> None:
        self.tag = tag
        self.attempts = attempts
        self.last_fault = last_fault
        msg = f"operation {tag!r} failed after {attempts} attempts"
        if last_fault:
            msg += f" (last fault: {last_fault})"
        super().__init__(msg)


class DeviceMemoryError(SimulationError, TransientFaultError):
    """A device allocation exceeded the simulated GPU memory capacity.

    Transient in the taxonomy: injected memory pressure comes and goes,
    and the tile selector can downshift to a smaller ``T``.  ``tile``
    carries the tiling size in force when the allocation failed so the
    downshift path can log actionable context.
    """

    def __init__(self, requested: int, free: int, capacity: int,
                 tile: Optional[int] = None) -> None:
        self.requested = requested
        self.free = free
        self.capacity = capacity
        self.tile = tile
        msg = (
            f"device OOM: requested {requested} bytes with {free} free "
            f"(capacity {capacity})"
        )
        if tile is not None:
            msg += f" while tiling with T={tile}"
        super().__init__(msg)

    def with_tile(self, tile: int) -> "DeviceMemoryError":
        """A copy of this error annotated with the offending tile size."""
        return DeviceMemoryError(self.requested, self.free, self.capacity,
                                 tile=tile)


class InvalidTransferError(SimulationError):
    """A transfer was issued with inconsistent endpoints or sizes."""


class StreamError(SimulationError):
    """A stream / event operation violated CUDA-like semantics."""


class BlasError(ReproError):
    """A BLAS routine was invoked with invalid parameters."""


class ModelError(ReproError):
    """A prediction model was given parameters it cannot handle."""


class DeploymentError(ReproError):
    """Micro-benchmarking or model fitting failed."""


class SchedulerError(ReproError):
    """The tile scheduler was driven into an invalid state."""


class ParallelError(ReproError):
    """The parallel fan-out layer was configured or used incorrectly."""


class WorkerError(ParallelError):
    """A task raised inside a worker process.

    The worker's original traceback is captured as text (tracebacks do
    not survive pickling) and carried in ``traceback_text`` so the
    failure is debuggable from the parent process.
    """

    def __init__(self, traceback_text: str) -> None:
        self.traceback_text = traceback_text
        super().__init__(
            "task failed in worker process; original traceback:\n"
            + traceback_text
        )
