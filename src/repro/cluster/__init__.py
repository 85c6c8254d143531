"""Cluster-scale serving: a sharded multi-node fleet with a
model-guided autoscaler.

One node = one of today's single-node servers (own simulator clock,
dispatcher, health monitor), fed one request at a time.  The layers
on top:

* :mod:`repro.cluster.router` — consistent-hash sharding by weight
  group with bounded spill, scored by **predicted backlog** (the
  CoCoPeLia models' admission-time predictions), not queue length;
* :mod:`repro.cluster.autoscaler` — scale decisions from an arrival-
  rate EWMA × predicted-service EWMA demand model plus a predicted-
  backlog pressure valve; graceful drain on the way down;
* :mod:`repro.cluster.coordinator` — deterministic lock-step epoch
  barriers over the per-node clocks (same seed → byte-identical
  fleet reports);
* :mod:`repro.cluster.workload` — streamed, phased, memory-bounded
  million-request traces;
* :mod:`repro.cluster.report` — the versioned ``repro.cluster/v1``
  document and its validator.
"""

from .autoscaler import Autoscaler, AutoscalerConfig
from .coordinator import ClusterConfig, ClusterCoordinator, ClusterOutcome
from .node import NODE_STATES, ClusterNode
from .report import (
    CLUSTER_SCHEMA_VERSION,
    cluster_document,
    cluster_report,
    dump_cluster_document,
    validate_cluster_json,
)
from .router import ROUTER_POLICIES, ClusterRouter
from .workload import (
    ClusterWorkloadSpec,
    cluster_arrivals,
    cluster_spec_as_dict,
    iter_cluster_workload,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterOutcome",
    "NODE_STATES",
    "ClusterNode",
    "CLUSTER_SCHEMA_VERSION",
    "cluster_document",
    "cluster_report",
    "dump_cluster_document",
    "validate_cluster_json",
    "ROUTER_POLICIES",
    "ClusterRouter",
    "ClusterWorkloadSpec",
    "cluster_arrivals",
    "cluster_spec_as_dict",
    "iter_cluster_workload",
]
