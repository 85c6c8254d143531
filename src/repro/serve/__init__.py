"""Model-guided BLAS serving: queue, predictive placement, SLO control.

The serving layer turns the one-call-at-a-time runtime into a loaded
multi-GPU service: seeded open-loop workloads
(:mod:`~repro.serve.workload`) flow through an EDF-within-priority
queue (:mod:`~repro.serve.request`), a CoCoPeLia-model-guided
dispatcher with backlog-aware placement, batching, host crossover and
SLO admission control (:mod:`~repro.serve.dispatcher`), and an
event-driven execution engine on the shared simulator clock
(:mod:`~repro.serve.server`), producing a versioned ``repro.serve/v1``
report (:mod:`~repro.serve.report`).
"""

from .dispatcher import (
    ADMISSION_MODES,
    HOST_WORKER,
    PLACEMENT_POLICIES,
    Dispatcher,
    Placement,
    batchable,
    coalesce,
)
from .report import (
    SERVE_SCHEMA_VERSION,
    dump_serve_document,
    serve_document,
    serve_report,
    validate_serve_json,
)
from .request import Request, RequestQueue, RequestState, ServeError
from .resilience import (
    DeviceHealth,
    HealthMonitor,
    HealthState,
    ResilienceStats,
)
from .server import BlasServer, ServeOutcome, ServerConfig
from .workload import (
    ARRIVAL_KINDS,
    WorkloadSpec,
    generate_workload,
    reference_time,
    spec_as_dict,
)

__all__ = [
    "ADMISSION_MODES",
    "ARRIVAL_KINDS",
    "BlasServer",
    "DeviceHealth",
    "Dispatcher",
    "HOST_WORKER",
    "HealthMonitor",
    "HealthState",
    "ResilienceStats",
    "PLACEMENT_POLICIES",
    "Placement",
    "Request",
    "RequestQueue",
    "RequestState",
    "SERVE_SCHEMA_VERSION",
    "ServeError",
    "ServeOutcome",
    "ServerConfig",
    "WorkloadSpec",
    "batchable",
    "coalesce",
    "dump_serve_document",
    "generate_workload",
    "reference_time",
    "serve_document",
    "serve_report",
    "spec_as_dict",
    "validate_serve_json",
]
