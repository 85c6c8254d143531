"""Seeded chaos scenarios for the serving layer.

The chaos harness answers the question the fault-free serve report
cannot: *what does the service do when a device dies under load?*  A
scenario is a deterministic schedule of device-lifecycle faults
(:class:`~repro.sim.faults.DeviceFailure` /
:class:`~repro.sim.faults.DeviceDegradation` /
:class:`~repro.sim.faults.LinkBrownout`) sized to the workload's
arrival horizon.  :func:`run_chaos` serves the same seeded workload
twice — once fault-free as the baseline, once under the scenario — and
emits a versioned ``repro.chaos/v1`` document comparing the two:
SLO-under-failure retention, recovery times mined from the health
transition log, drain/requeue/breaker accounting, and the
request-conservation invariant (every admitted request reaches exactly
one terminal state; see
:func:`repro.obs.verify.find_conservation_violations`).

Everything is derived from the scenario seed through
``np.random.default_rng([index, seed])`` substreams and the shared
simulator clock, so one seed produces byte-identical documents — the
property the CI chaos-smoke job pins with a byte compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.instantiation import MachineModels
from ..obs.metrics import MetricsRegistry
from ..obs.schema import (
    COUNT,
    FRACTION,
    METRIC_FAMILIES,
    NON_NEGATIVE,
    Null,
    Rule,
    const,
    non_empty,
    one_of,
    validate,
)
from ..obs.verify import find_conservation_violations
from ..sim.faults import (
    DeviceDegradation,
    DeviceFailure,
    FaultPlan,
    LifecycleFault,
    LinkBrownout,
)
from ..sim.machine import MachineConfig
from .report import serve_report
from .request import ServeError
from .server import BlasServer, ServeOutcome, ServerConfig
from .workload import WorkloadSpec, generate_workload, spec_as_dict

CHAOS_SCHEMA_VERSION = "repro.chaos/v1"

#: RNG substream index for scenario construction (device picks etc.).
_CHAOS_STREAM = 9203


@dataclass(frozen=True)
class ChaosScenario:
    """One named, fully materialized chaos schedule."""

    name: str
    description: str
    lifecycle: Tuple[LifecycleFault, ...]

    def plan(self) -> FaultPlan:
        return FaultPlan(name=f"chaos:{self.name}",
                         lifecycle=self.lifecycle)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "events": [event.as_dict() for event in self.lifecycle],
        }


def _horizon(spec: WorkloadSpec) -> float:
    """Expected arrival span of the workload (scenario time base)."""
    return spec.n_requests / spec.rate


def _build_kill_one_gpu(spec: WorkloadSpec, n_gpus: int,
                        seed: int) -> ChaosScenario:
    """One seed-chosen device dies for good a quarter into the run."""
    rng = np.random.default_rng([_CHAOS_STREAM, seed])
    device = int(rng.integers(n_gpus))
    h = _horizon(spec)
    return ChaosScenario(
        name="kill-one-gpu",
        description=(f"device {device} fails permanently at "
                     f"25% of the arrival horizon"),
        lifecycle=(DeviceFailure(device=device, onset=0.25 * h),),
    )


def _build_rolling_brownout(spec: WorkloadSpec, n_gpus: int,
                            seed: int) -> ChaosScenario:
    """A brownout window sweeps across every device's link in turn."""
    h = _horizon(spec)
    window = 1.5 * h / max(n_gpus, 1)
    events = tuple(
        LinkBrownout(device=i, onset=i * h / max(n_gpus, 1),
                     duration=window, bandwidth_factor=0.25)
        for i in range(n_gpus))
    return ChaosScenario(
        name="rolling-brownout",
        description=(f"PCIe bandwidth drops to 25% on each of the "
                     f"{n_gpus} devices in a rolling window"),
        lifecycle=events,
    )


def _build_flapping_device(spec: WorkloadSpec, n_gpus: int,
                           seed: int) -> ChaosScenario:
    """One seed-chosen device fails and recovers repeatedly."""
    rng = np.random.default_rng([_CHAOS_STREAM + 1, seed])
    device = int(rng.integers(n_gpus))
    h = _horizon(spec)
    events = tuple(
        DeviceFailure(device=device, onset=(0.1 + 0.3 * i) * h,
                      duration=0.12 * h)
        for i in range(3))
    return ChaosScenario(
        name="flapping-device",
        description=(f"device {device} fails and recovers three times "
                     f"(12%-horizon outages)"),
        lifecycle=events,
    )


def _build_all_gpus_degraded(spec: WorkloadSpec, n_gpus: int,
                             seed: int) -> ChaosScenario:
    """Every device clocks down 4x for the whole run (fleet-wide
    thermal event); nobody fails, everything inflates."""
    events = tuple(
        DeviceDegradation(device=i, onset=0.0, slowdown=4.0)
        for i in range(n_gpus))
    return ChaosScenario(
        name="all-gpus-degraded",
        description=f"all {n_gpus} devices run 4x slower for the "
                    f"whole run",
        lifecycle=events,
    )


SCENARIOS: Dict[str, Callable[[WorkloadSpec, int, int], ChaosScenario]] = {
    "kill-one-gpu": _build_kill_one_gpu,
    "rolling-brownout": _build_rolling_brownout,
    "flapping-device": _build_flapping_device,
    "all-gpus-degraded": _build_all_gpus_degraded,
}


def build_scenario(name: str, spec: WorkloadSpec, n_gpus: int,
                   seed: int) -> ChaosScenario:
    """Materialize a named scenario for one workload/fleet/seed."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ServeError(
            f"unknown chaos scenario {name!r}; "
            f"available: {sorted(SCENARIOS)}") from None
    return builder(spec, n_gpus, seed)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def _outcome_summary(outcome: ServeOutcome) -> Dict[str, object]:
    """One leg's summary, judged by the serve report: SLO attainment
    against each request's ``slo_deadline`` (None when no request has
    one), p99 from :func:`repro.obs.stats.latency_summary`."""
    report = serve_report(outcome)
    counts = report["requests"]
    slo = counts["slo"]
    latency = report["latency"]
    return {
        "total": counts["total"],
        "completed": counts["completed"],
        "shed": counts["shed"],
        "failed": counts["failed"],
        "fallbacks": counts["fallbacks"],
        "requeued": sum(1 for r in outcome.requests if r.requeues > 0),
        "makespan": report["makespan"],
        "throughput_rps": report["throughput_rps"],
        "p99_latency": latency["p99"] if latency is not None else None,
        "slo_attainment": (slo["attainment"] if slo["with_deadline"]
                           else None),
    }


#: Transition events that open an outage on a device ...
_DOWN_EVENTS = ("failed", "breaker-opened", "breaker-reopened")
#: ... and the one that closes it again.
_UP_EVENT = "recovered"


def recovery_times(
    transitions: List[Dict[str, object]],
) -> Dict[str, object]:
    """Mine per-device outage durations from the health transition log.

    An outage opens at a ``failed``/``breaker-opened`` transition and
    closes at the device's next ``recovered``; outages still open at
    the end of the run (e.g. a permanent kill) count as unrecovered.
    """
    open_at: Dict[object, float] = {}
    durations: List[float] = []
    for tr in transitions:
        device, event, t = tr["device"], tr["event"], tr["t"]
        if event in _DOWN_EVENTS:
            open_at.setdefault(device, t)
        elif event == _UP_EVENT and device in open_at:
            durations.append(t - open_at.pop(device))
    return {
        "n_outages": len(durations) + len(open_at),
        "n_recovered": len(durations),
        "n_unrecovered": len(open_at),
        "mean_recovery_seconds": (sum(durations) / len(durations)
                                  if durations else None),
        "max_recovery_seconds": max(durations) if durations else None,
    }


def run_chaos(
    machine: MachineConfig,
    models: MachineModels,
    scenario: str,
    spec: Optional[WorkloadSpec] = None,
    config: Optional[ServerConfig] = None,
    seed: int = 0,
    context: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Run one chaos scenario and return the ``repro.chaos/v1`` document.

    The same seeded workload is served twice on fresh servers sharing
    nothing but the deployed models: once on the clean machine (the
    baseline) and once with the scenario's lifecycle faults attached.
    Both runs — and therefore the whole document — are deterministic
    functions of ``seed``.
    """
    spec = spec if spec is not None else WorkloadSpec(
        n_requests=48, rate=8000.0, seed=seed)
    config = config if config is not None else ServerConfig(seed=seed)
    built = build_scenario(scenario, spec, config.n_gpus, seed)

    requests = generate_workload(spec)
    baseline_metrics = MetricsRegistry()
    baseline = BlasServer(
        machine.with_faults(None), models, config,
        metrics=baseline_metrics).serve(requests)

    chaos_metrics = MetricsRegistry()
    chaos = BlasServer(
        machine.with_faults(built.plan()), models, config,
        metrics=chaos_metrics).serve(generate_workload(spec))

    violations = find_conservation_violations(chaos.requests)
    base_summary = _outcome_summary(baseline)
    chaos_summary = _outcome_summary(chaos)
    base_slo = base_summary["slo_attainment"]
    chaos_slo = chaos_summary["slo_attainment"]
    retention = (chaos_slo / base_slo
                 if base_slo not in (None, 0.0) and chaos_slo is not None
                 else None)

    doc: Dict[str, object] = {
        "schema": CHAOS_SCHEMA_VERSION,
        "context": dict(context or {}),
        "scenario": dict(built.as_dict(), seed=seed),
        "workload": spec_as_dict(spec),
        "baseline": base_summary,
        "chaos": chaos_summary,
        "slo_retention": retention,
        "recovery": recovery_times(chaos.health_transitions),
        "resilience": {
            "counters": (chaos.resilience.as_dict()
                         if chaos.resilience is not None else {}),
            "stats": (chaos.resilience_stats.as_dict()
                      if chaos.resilience_stats is not None else {}),
            "health": chaos.health,
            "transitions": chaos.health_transitions,
        },
        "conservation": {
            "ok": not violations,
            "violations": [{"invariant": inv, "message": msg}
                           for inv, msg in violations],
        },
        "metrics": chaos_metrics.as_dict(),
    }
    validate_chaos_json(doc)
    return doc


def dump_chaos_document(doc: Dict[str, object]) -> str:
    """Canonical byte-stable rendering of a chaos document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# schema (checked by obs/schema.py; JSON-path error messages)
# ---------------------------------------------------------------------------

def _outages_partitioned(recovery: dict):
    if (recovery["n_recovered"] + recovery["n_unrecovered"]
            != recovery["n_outages"]):
        return "", "recovered + unrecovered must equal outages"


def _verdict_matches_violations(conservation: dict):
    if conservation["ok"] and conservation["violations"]:
        return "", "ok=true but violations listed"
    if not conservation["ok"] and not conservation["violations"]:
        return "", "ok=false requires violations"


_RUN_SUMMARY = {
    "total": COUNT, "completed": COUNT, "shed": COUNT, "failed": COUNT,
    "fallbacks": COUNT, "requeued": COUNT,
    "makespan": NON_NEGATIVE, "throughput_rps": NON_NEGATIVE,
    "p99_latency": Null(float),
    "slo_attainment": Null(FRACTION),
}

CHAOS_SCHEMA = {
    "schema": const(CHAOS_SCHEMA_VERSION),
    "context": dict,
    "scenario": {
        "name": one_of("scenario", SCENARIOS),
        "description": str,
        "seed": int,
        "events": non_empty([{"kind": str, "device": COUNT,
                              "onset": NON_NEGATIVE,
                              "duration": Null(float)}],
                            "must schedule at least one fault"),
    },
    "workload": dict,
    "baseline": _RUN_SUMMARY,
    "chaos": _RUN_SUMMARY,
    "slo_retention": Null(NON_NEGATIVE),
    "recovery": Rule({
        "n_outages": COUNT, "n_recovered": COUNT, "n_unrecovered": COUNT,
        "mean_recovery_seconds": Null(float),
        "max_recovery_seconds": Null(float),
    }, _outages_partitioned),
    "resilience": {"counters": dict, "stats": dict, "health": list,
                   "transitions": list},
    "conservation": Rule({"ok": bool, "violations": list},
                         _verdict_matches_violations),
    "metrics": METRIC_FAMILIES,
}


def validate_chaos_json(doc: object) -> None:
    """Check a chaos document against schema v1; raise on mismatch."""
    validate(doc, CHAOS_SCHEMA, "chaos")


__all__ = [
    "CHAOS_SCHEMA_VERSION",
    "ChaosScenario",
    "SCENARIOS",
    "build_scenario",
    "dump_chaos_document",
    "recovery_times",
    "run_chaos",
    "validate_chaos_json",
]
