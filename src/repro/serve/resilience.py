"""Fault-domain health tracking for the serving layer.

Each simulated GPU worker is one *fault domain*: it can die mid-serve
(:class:`~repro.sim.faults.DeviceFailure`), clock down
(:class:`~repro.sim.faults.DeviceDegradation`), or sit behind a
browned-out link (:class:`~repro.sim.faults.LinkBrownout`).  The
:class:`HealthMonitor` gives every domain a small state machine

    healthy -> degraded -> failed -> recovering -> healthy

driven by two *observed* signals — the EWMA of achieved-vs-predicted
service-time inflation, and consecutive batch faults — plus detected
device failures reported by the server.  The monitor deliberately never
sees the injected ground truth (a degraded device is only *observed*
through its inflated latencies), so the dispatcher reacts the way a
real serving fleet would: through measurements.

Failed domains carry an open *circuit breaker*: the dispatcher excludes
them from placement, the server drains their queued and in-flight work,
and after a cool-off the breaker goes half-open (``RECOVERING``) and
admits one probe batch — success closes the breaker, another fault
re-opens it.  Degraded domains stay in rotation but their placement
scores are penalized by the observed inflation, shifting load toward
healthy devices without abandoning capacity.

Everything here runs on the simulator clock and touches no wall-clock
or unseeded randomness, so health trajectories — and with them whole
chaos scenarios (:mod:`repro.serve.chaos`) — are deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.faults import ResilienceCounters
from .request import ServeError

#: EWMA smoothing of observed/predicted service-time inflation.
HEALTH_ALPHA = 0.25
#: EWMA inflation above which a domain is marked DEGRADED ...
DEGRADED_INFLATION = 2.5
#: ... and below which it returns to HEALTHY (hysteresis band).
RECOVERED_INFLATION = 1.25
#: Consecutive batch faults that open a domain's circuit breaker.
BREAKER_FAULTS = 2
#: Placement-score multiplier of a half-open (RECOVERING) domain.
RECOVERING_PENALTY = 2.0


class HealthState(enum.Enum):
    """Observed health of one GPU fault domain."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"      #: in rotation, placement-penalized
    FAILED = "failed"          #: breaker open: excluded and drained
    RECOVERING = "recovering"  #: breaker half-open: one probe batch


@dataclass
class DeviceHealth:
    """Monitor-visible health record of one fault domain."""

    index: int
    state: HealthState = HealthState.HEALTHY
    #: EWMA of observed/predicted service-time inflation (1.0 = on-model).
    ewma: float = 1.0
    consecutive_faults: int = 0
    failed_t: Optional[float] = None
    recovered_t: Optional[float] = None
    breaker_opens: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "state": self.state.value,
            "ewma_inflation": self.ewma,
            "consecutive_faults": self.consecutive_faults,
            "breaker_opens": self.breaker_opens,
        }


@dataclass
class ResilienceStats:
    """Serve-level resilience accounting (beyond the per-device
    :class:`~repro.sim.faults.ResilienceCounters` the runtime keeps)."""

    drains: int = 0             #: fault domains drained
    drained_requests: int = 0   #: requests pulled out of failing domains
    requeues: int = 0           #: drained requests re-placed on survivors
    breaker_opens: int = 0      #: circuit breakers opened
    probes: int = 0             #: half-open probe batches dispatched
    recoveries: int = 0         #: breakers closed after a good probe
    unavailable_shed: int = 0   #: requests shed because no domain was live

    def as_dict(self) -> Dict[str, int]:
        return {
            "drains": self.drains,
            "drained_requests": self.drained_requests,
            "requeues": self.requeues,
            "breaker_opens": self.breaker_opens,
            "probes": self.probes,
            "recoveries": self.recoveries,
            "unavailable_shed": self.unavailable_shed,
        }


class HealthMonitor:
    """Per-domain health state machine with a circuit breaker.

    The monitor is pure bookkeeping: it owns no clock and schedules
    nothing.  The server reports observations (``on_success`` /
    ``on_fault`` / ``force_fail`` / ``begin_recovery``) with the current
    simulated time, and the dispatcher reads back ``available()`` and
    ``penalty()`` when scoring placements.  All transitions append to
    :attr:`transitions`, the chronological health log the chaos report
    mines for recovery times.
    """

    def __init__(self, n_gpus: int) -> None:
        if n_gpus <= 0:
            raise ServeError(f"non-positive GPU count: {n_gpus}")
        self.devices = [DeviceHealth(i) for i in range(n_gpus)]
        #: Chronological health transitions: {"t", "device", "event"}.
        self.transitions: List[Dict[str, object]] = []

    # -- dispatcher-facing reads ---------------------------------------

    def available(self, index: int) -> bool:
        """Whether placement may route new work into this domain."""
        return self.devices[index].state is not HealthState.FAILED

    def penalty(self, index: int) -> float:
        """Placement-score multiplier for this domain (1.0 = neutral).

        Degraded domains pay their observed inflation (the honest
        expected slowdown); half-open domains pay a fixed probation
        penalty so probes only run when healthy capacity is scarce or
        the probe target is genuinely the best option.
        """
        device = self.devices[index]
        if device.state is HealthState.DEGRADED:
            return max(device.ewma, 1.0)
        if device.state is HealthState.RECOVERING:
            return RECOVERING_PENALTY
        return 1.0

    # -- server-reported observations ----------------------------------

    def _log(self, now: float, index: int, event: str) -> None:
        self.transitions.append({"t": now, "device": index, "event": event})

    def on_success(self, index: int, observed: float, predicted: float,
                   now: float) -> None:
        """A batch completed on this domain: fold in the inflation."""
        device = self.devices[index]
        device.consecutive_faults = 0
        if predicted > 0.0 and observed >= 0.0:
            ratio = observed / predicted
            device.ewma = (HEALTH_ALPHA * ratio
                           + (1.0 - HEALTH_ALPHA) * device.ewma)
        if device.state is HealthState.RECOVERING:
            # Half-open probe succeeded: close the breaker.  The domain
            # returns fresh (its pre-failure inflation history is moot).
            device.state = HealthState.HEALTHY
            device.ewma = 1.0
            device.recovered_t = now
            self._log(now, index, "recovered")
        elif (device.state is HealthState.HEALTHY
                and device.ewma > DEGRADED_INFLATION):
            device.state = HealthState.DEGRADED
            self._log(now, index, "degraded")
        elif (device.state is HealthState.DEGRADED
                and device.ewma < RECOVERED_INFLATION):
            device.state = HealthState.HEALTHY
            self._log(now, index, "healthy")

    def on_fault(self, index: int, now: float) -> bool:
        """A batch faulted (wedged/aborted) on this domain.

        Returns True when this fault opens (or re-opens) the breaker —
        the caller must then drain the domain.
        """
        device = self.devices[index]
        device.consecutive_faults += 1
        if device.state is HealthState.FAILED:
            return False
        if device.state is HealthState.RECOVERING:
            device.state = HealthState.FAILED
            device.failed_t = now
            device.breaker_opens += 1
            self._log(now, index, "breaker-reopened")
            return True
        if device.consecutive_faults >= BREAKER_FAULTS:
            device.state = HealthState.FAILED
            device.failed_t = now
            device.breaker_opens += 1
            self._log(now, index, "breaker-opened")
            return True
        return False

    def force_fail(self, index: int, now: float) -> bool:
        """A detected device failure (lifecycle event): open the breaker.

        Returns True when the domain transitioned (False if it was
        already failed — e.g. the breaker beat the lifecycle event).
        """
        device = self.devices[index]
        if device.state is HealthState.FAILED:
            return False
        device.state = HealthState.FAILED
        device.failed_t = now
        device.breaker_opens += 1
        self._log(now, index, "failed")
        return True

    def begin_recovery(self, index: int, now: float) -> bool:
        """Cool-off elapsed (or lifecycle recovery): go half-open."""
        device = self.devices[index]
        if device.state is not HealthState.FAILED:
            return False
        device.state = HealthState.RECOVERING
        device.consecutive_faults = 0
        self._log(now, index, "breaker-halfopen")
        return True

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready final health of every domain."""
        return [d.as_dict() for d in self.devices]


__all__ = [
    "DeviceHealth",
    "HealthMonitor",
    "HealthState",
    "ResilienceCounters",
    "ResilienceStats",
]
