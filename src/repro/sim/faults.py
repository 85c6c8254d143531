"""Deterministic fault injection for the simulated machine.

Production offload runtimes (BLASX-style multi-GPU BLAS, unified-memory
frameworks) must survive transient link errors, flaky kernels, and
memory pressure.  The seed reproduced only the paper's happy path; this
module gives the simulator a hostile mode so the runtime's resilience
machinery (``repro.runtime``) has something real to push against.

Design rules:

* **Default off.**  No component consults an injector unless a
  :class:`FaultPlan` was attached to the machine/device, so fault-free
  runs are byte-identical to the pre-fault simulator.
* **Seeded and deterministic.**  Every fault category draws from its
  own independent substream of ``plan.seed``, so the same seed + plan
  always yields the same fault schedule, and changing one category's
  rate never shifts another category's draws.
* **Declarative.**  A plan combines per-event probabilities with an
  explicit schedule (``(kind, index)`` pairs), so tests can force the
  Nth h2d transfer to fail without touching probabilities.

Fault categories:

``h2d`` / ``d2h``
    Transient transfer failure: the transfer occupies the link for its
    full duration, then reports failure (CRC-style) instead of landing.
``kernel``
    A launched kernel aborts partway through its nominal duration.
``corrupt``
    Silent tile data corruption: the transfer "succeeds" but the
    payload is perturbed; only per-tile checksums can detect it.
``bandwidth``
    Transient bandwidth collapse: one transfer flows at a fraction of
    the link rate (congestion / degraded lanes).
``alloc``
    Artificial device-memory pressure: a static reservation shrinks the
    usable capacity, and/or individual allocations transiently fail.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Dict, Optional, Tuple

import numpy as np

from ..errors import SimulationError

FAULT_KINDS = ("h2d", "d2h", "kernel", "corrupt", "bandwidth", "alloc")

LIFECYCLE_KINDS = ("device_failure", "device_degradation", "link_brownout")


@dataclass(frozen=True)
class LifecycleFault:
    """One device-lifecycle event on the serve-time simulator clock.

    Unlike the per-event fault categories above (which perturb a single
    transfer or kernel), a lifecycle fault changes the *availability* of
    a whole fault domain for a window of simulated time: it has an
    ``onset`` and a ``duration`` (``math.inf`` = permanent) and is
    interpreted by the serving layer, not by the per-device injector —
    the device that dies is a property of the fleet, not of one
    pipeline.  Subclasses fix ``kind``.
    """

    device: int        #: GPU index within the serving fleet
    onset: float       #: absolute simulated seconds of the event start
    duration: float = math.inf  #: seconds until recovery (inf = never)

    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if self.device < 0:
            raise SimulationError(
                f"negative lifecycle fault device: {self.device}")
        if not self.onset >= 0.0:
            raise SimulationError(
                f"lifecycle fault onset must be >= 0, got {self.onset}")
        if not self.duration > 0.0:
            raise SimulationError(
                f"lifecycle fault duration must be > 0, got {self.duration}")

    @property
    def end(self) -> float:
        """Absolute simulated time of recovery (``inf`` = permanent)."""
        return self.onset + self.duration

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready description (infinite duration maps to null)."""
        return {
            "kind": self.kind,
            "device": self.device,
            "onset": self.onset,
            "duration": (self.duration if math.isfinite(self.duration)
                         else None),
        }


@dataclass(frozen=True)
class DeviceFailure(LifecycleFault):
    """The device dies at ``onset``: in-flight work is lost, the domain
    must be drained, and nothing completes on it until recovery."""

    kind: ClassVar[str] = "device_failure"


@dataclass(frozen=True)
class DeviceDegradation(LifecycleFault):
    """The device clocks down: work launched during the window runs
    ``slowdown`` times slower than the deployed models predict."""

    slowdown: float = 2.0

    kind: ClassVar[str] = "device_degradation"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.slowdown > 1.0 or not math.isfinite(self.slowdown):
            raise SimulationError(
                f"degradation slowdown must be a finite factor > 1, got "
                f"{self.slowdown}")

    def as_dict(self) -> Dict[str, object]:
        doc = super().as_dict()
        doc["slowdown"] = self.slowdown
        return doc


@dataclass(frozen=True)
class LinkBrownout(LifecycleFault):
    """The device's PCIe link browns out: transfers launched during the
    window flow at ``bandwidth_factor`` of the nominal link rate."""

    bandwidth_factor: float = 0.25

    kind: ClassVar[str] = "link_brownout"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.bandwidth_factor < 1.0:
            raise SimulationError(
                f"brownout bandwidth_factor must be in (0, 1), got "
                f"{self.bandwidth_factor}")

    def as_dict(self) -> Dict[str, object]:
        doc = super().as_dict()
        doc["bandwidth_factor"] = self.bandwidth_factor
        return doc


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject.

    All rates are per-event probabilities in ``[0, 1]``; ``scheduled``
    entries are ``(kind, index)`` pairs firing at the index-th event of
    that kind (0-based), independent of the probability draws.
    """

    name: str = "custom"
    seed: int = 0
    #: Probability that one transfer attempt fails (per direction).
    transfer_fail_rate: float = 0.0
    #: Probability that one kernel launch aborts mid-execution.
    kernel_fail_rate: float = 0.0
    #: Probability that one transfer silently corrupts its payload.
    corruption_rate: float = 0.0
    #: Probability that one transfer flows at collapsed bandwidth.
    bandwidth_collapse_rate: float = 0.0
    #: Rate multiplier (0, 1] applied during a bandwidth collapse.
    bandwidth_collapse_factor: float = 0.25
    #: Static reservation subtracted from the usable device memory.
    mem_pressure_bytes: int = 0
    #: Probability that one allocation transiently fails.
    mem_pressure_rate: float = 0.0
    #: Explicit (kind, index) faults, independent of the rates.
    scheduled: Tuple[Tuple[str, int], ...] = ()
    #: Serve-time device-lifecycle events (failures / degradations /
    #: link brownouts).  Interpreted by the serving layer; the per-device
    #: injector ignores them.
    lifecycle: Tuple[LifecycleFault, ...] = ()

    def __post_init__(self) -> None:
        for name in ("transfer_fail_rate", "kernel_fail_rate",
                     "corruption_rate", "bandwidth_collapse_rate",
                     "mem_pressure_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {rate}")
        if not 0.0 < self.bandwidth_collapse_factor <= 1.0:
            raise SimulationError(
                "bandwidth_collapse_factor must be in (0, 1], got "
                f"{self.bandwidth_collapse_factor}"
            )
        if self.mem_pressure_bytes < 0:
            raise SimulationError(
                f"negative mem_pressure_bytes: {self.mem_pressure_bytes}"
            )
        for entry in self.scheduled:
            kind, index = entry
            if kind not in FAULT_KINDS:
                raise SimulationError(
                    f"unknown scheduled fault kind {kind!r}; "
                    f"valid: {FAULT_KINDS}"
                )
            if index < 0:
                raise SimulationError(f"negative scheduled fault index: {index}")
        for event in self.lifecycle:
            if not isinstance(event, LifecycleFault):
                raise SimulationError(
                    f"lifecycle entries must be LifecycleFault instances, "
                    f"got {event!r}")

    @property
    def any_event_faults(self) -> bool:
        """Whether this plan injects per-event faults (a device-level
        :class:`FaultInjector` is only needed for these)."""
        return bool(
            self.transfer_fail_rate or self.kernel_fail_rate
            or self.corruption_rate or self.bandwidth_collapse_rate
            or self.mem_pressure_bytes or self.mem_pressure_rate
            or self.scheduled
        )

    @property
    def any_faults(self) -> bool:
        """Whether this plan can inject anything at all."""
        return self.any_event_faults or bool(self.lifecycle)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)


#: Named plans for the CLI / benchmarks (``--faults light`` etc.).
NAMED_PLANS: Dict[str, FaultPlan] = {
    "light": FaultPlan(name="light", seed=11,
                       transfer_fail_rate=0.01, kernel_fail_rate=0.005,
                       corruption_rate=0.005,
                       bandwidth_collapse_rate=0.01),
    "moderate": FaultPlan(name="moderate", seed=23,
                          transfer_fail_rate=0.03, kernel_fail_rate=0.01,
                          corruption_rate=0.01,
                          bandwidth_collapse_rate=0.03,
                          mem_pressure_rate=0.002),
    "heavy": FaultPlan(name="heavy", seed=37,
                       transfer_fail_rate=0.05, kernel_fail_rate=0.02,
                       corruption_rate=0.02,
                       bandwidth_collapse_rate=0.05,
                       mem_pressure_rate=0.005),
}

_SPEC_FIELDS = {f.name for f in fields(FaultPlan)} - {"name", "scheduled",
                                                     "lifecycle"}


def resolve_plan(spec: "str | FaultPlan | None") -> Optional[FaultPlan]:
    """Turn a CLI spec into a :class:`FaultPlan`.

    Accepts a plan instance, ``None``, a named plan (``"heavy"``), or a
    ``key=value`` list such as
    ``"transfer_fail_rate=0.05,kernel_fail_rate=0.01,seed=3"``.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    name = spec.strip()
    if name in NAMED_PLANS:
        return NAMED_PLANS[name]
    if "=" not in name:
        raise SimulationError(
            f"unknown fault plan {name!r}; named plans: "
            f"{sorted(NAMED_PLANS)} (or key=value,... with keys "
            f"{sorted(_SPEC_FIELDS)})"
        )
    kwargs: Dict[str, object] = {"name": "cli"}
    for item in name.split(","):
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SPEC_FIELDS:
            raise SimulationError(
                f"unknown fault plan key {key!r}; valid: {sorted(_SPEC_FIELDS)}"
            )
        try:
            kwargs[key] = (int(value) if key in ("seed", "mem_pressure_bytes")
                           else float(value))
        except ValueError:
            raise SimulationError(
                f"fault plan key {key!r} needs a number, got {value!r}"
            ) from None
    return FaultPlan(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TransferOutcome:
    """What the injector decided for one transfer attempt."""

    fail: bool = False
    rate_factor: float = 1.0


@dataclass
class ResilienceCounters:
    """What the resilience machinery had to do during one run."""

    retries: int = 0          #: transfer/alloc re-tries after transient failures
    kernel_retries: int = 0   #: kernel re-launches after aborts
    refetches: int = 0        #: corruption-triggered re-transfers
    tile_downshifts: int = 0  #: T reductions under memory pressure
    host_fallbacks: int = 0   #: whole-routine falls back to host BLAS

    def total(self) -> int:
        return (self.retries + self.kernel_retries + self.refetches
                + self.tile_downshifts + self.host_fallbacks)

    def any(self) -> bool:
        return self.total() > 0

    def add(self, other: "ResilienceCounters") -> None:
        self.retries += other.retries
        self.kernel_retries += other.kernel_retries
        self.refetches += other.refetches
        self.tile_downshifts += other.tile_downshifts
        self.host_fallbacks += other.host_fallbacks

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "kernel_retries": self.kernel_retries,
            "refetches": self.refetches,
            "tile_downshifts": self.tile_downshifts,
            "host_fallbacks": self.host_fallbacks,
        }


#: Bounded retry of a faulted op: attempts per op (the first included),
#: with exponential backoff in *simulated* time between them.
MAX_ATTEMPTS = 4
#: Backoff before the second attempt, in simulated seconds ...
BASE_BACKOFF = 20e-6
#: ... growing by this factor per further attempt.
BACKOFF_FACTOR = 2.0


def backoff(attempts_done: int) -> float:
    """Delay before the next attempt after ``attempts_done`` tries."""
    return BASE_BACKOFF * BACKOFF_FACTOR ** max(attempts_done - 1, 0)


class FaultInjector:
    """Stateful, seeded executor of a :class:`FaultPlan`.

    Each fault category draws from an independent ``(seed, category)``
    substream, so category decision sequences never interfere.  The
    injector counts events per category; scheduled faults match on that
    count.  One injector is normally shared across the downshift
    attempts of a single routine call, so transient faults do not
    replay identically on every attempt.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: duck-typed MetricsRegistry (repro.obs.metrics); attached by
        #: the device/runtime layer, None = no metric emission
        self.metrics = None
        self._scheduled: Dict[str, set] = {}
        for kind, index in plan.scheduled:
            self._scheduled.setdefault(kind, set()).add(index)
        #: Events seen per category (denominator of the fault rates).
        self.events: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        #: Faults injected per category.
        self.injected: Dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._rngs = {
            kind: np.random.default_rng([plan.seed, i])
            for i, kind in enumerate(FAULT_KINDS)
        }

    def reset(self) -> None:
        """Rewind all substreams and counters to the initial state."""
        self.events = {k: 0 for k in FAULT_KINDS}
        self.injected = {k: 0 for k in FAULT_KINDS}
        self._rngs = {
            kind: np.random.default_rng([self.plan.seed, i])
            for i, kind in enumerate(FAULT_KINDS)
        }

    def _decide(self, kind: str, rate: float) -> bool:
        """One event of ``kind``: advance its substream and decide."""
        index = self.events[kind]
        self.events[kind] = index + 1
        hit = index in self._scheduled.get(kind, ())
        if rate > 0.0 and float(self._rngs[kind].random()) < rate:
            hit = True
        if hit:
            self.injected[kind] += 1
            if self.metrics is not None:
                self.metrics.counter(f"sim.faults.injected.{kind}").inc()
        return hit

    # ------------------------------------------------------------------
    # hooks, one per wiring point
    # ------------------------------------------------------------------

    def transfer_outcome(self, direction_value: str) -> TransferOutcome:
        """Decide failure + bandwidth collapse for one transfer attempt.

        ``direction_value`` is ``"h2d"`` or ``"d2h"`` (kept as a string
        so the link layer stays the only importer of ``Direction``).
        """
        fail = self._decide(direction_value, self.plan.transfer_fail_rate)
        factor = 1.0
        if self._decide("bandwidth", self.plan.bandwidth_collapse_rate):
            factor = self.plan.bandwidth_collapse_factor
        return TransferOutcome(fail=fail, rate_factor=factor)

    def corrupts_transfer(self) -> bool:
        """Whether this transfer attempt silently corrupts its payload."""
        return self._decide("corrupt", self.plan.corruption_rate)

    def kernel_faults(self) -> bool:
        """Whether this kernel launch aborts mid-execution."""
        return self._decide("kernel", self.plan.kernel_fail_rate)

    def alloc_fails(self) -> bool:
        """Whether this allocation transiently fails (memory pressure)."""
        return self._decide("alloc", self.plan.mem_pressure_rate)

    @property
    def mem_pressure_bytes(self) -> int:
        """Static reservation shrinking the usable device memory."""
        return self.plan.mem_pressure_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inj = {k: v for k, v in self.injected.items() if v}
        return f"FaultInjector(plan={self.plan.name!r}, injected={inj})"


def as_injector(
    faults: "FaultPlan | FaultInjector | None",
) -> Optional[FaultInjector]:
    """Normalize a plan-or-injector argument; ``None`` passes through."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        # Lifecycle-only plans need no per-device injector: a device
        # failing or clocking down is fleet-level state, and skipping
        # the injector keeps lifecycle-only devices on the fault-free
        # fast path (byte-identical pipelines).
        return FaultInjector(faults) if faults.any_event_faults else None
    raise SimulationError(f"expected FaultPlan or FaultInjector, got {faults!r}")


def tile_checksum(array: np.ndarray) -> int:
    """Per-tile checksum used to detect silent corruption.

    Adler-32 over the raw bytes: cheap, deterministic, and sensitive to
    any bit flip the corruption hook applies.
    """
    return zlib.adler32(np.ascontiguousarray(array).tobytes())


def corrupt_array(array: np.ndarray) -> None:
    """Deterministically perturb a tile in place (silent corruption).

    Flips a few spread-out elements by a finite offset so checksums
    always notice but the damage is not trivially at one corner.
    """
    flat = array.reshape(-1)
    if flat.size == 0:
        return
    step = max(flat.size // 3, 1)
    flat[::step] += flat.dtype.type(1.0)
