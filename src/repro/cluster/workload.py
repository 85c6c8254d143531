"""Cluster-scale open-loop workload: streamed, phased, memory-bounded.

The single-node generator (:mod:`repro.serve.workload`) draws one
request at a time and materializes its whole request list — fine for
thousands of requests, hopeless for the million-request traces the
cluster benchmark sustains.  This generator

* pre-draws every random factor **vectorized** into flat numpy arrays
  (a million float64 arrivals is 8 MB, not a million Python objects),
* shares problems through the same
  :class:`~repro.serve.workload.ProblemPool` as the single-node
  generator: all requests at one (routine, dims) share one
  :class:`CoCoProblem`, so the pool stays a few dozen objects
  regardless of trace length, and
* yields :class:`~repro.serve.request.Request` objects lazily, in
  arrival order, so peak live requests are bounded by fleet backlog
  (the coordinator drops them once terminal), not trace length.

Determinism follows the repo's substream idiom — one
``default_rng([index, seed])`` stream per random factor, drawn in one
bulk call each, so the trace is a pure function of the spec.

Phased rates drive the autoscaler: the trace is split into
``len(phases)`` contiguous chunks and chunk *i* arrives at
``rate * phases[i]``.  A (1.0, 2.5, 0.4) profile gives the fleet a
steady start, a sustained surge (predicted backlog climbs ahead of the
queues → scale-up), and a lull (scale-down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..serve.request import Request, ServeError
from ..serve.workload import (
    ProblemPool,
    _size_pools,
    _substreams,
    check_spec,
)


@dataclass(frozen=True)
class ClusterWorkloadSpec:
    """Everything that determines a cluster trace (seed → same bytes)."""

    arrival: str = "bursty"
    rate: float = 400.0              #: base arrival rate, requests/s
    n_requests: int = 20_000
    scale: str = "tiny"
    seed: int = 0
    axpy_fraction: float = 0.2
    small_fraction: float = 0.5
    n_groups: int = 64               #: weight groups (sharding keys)
    n_priorities: int = 2
    deadline_fraction: float = 0.75
    slack_lo: float = 2.0
    slack_hi: float = 8.0
    burst_size: int = 32             #: requests per burst ("bursty")
    burst_spread: float = 0.02
    #: Per-phase rate multipliers over equal contiguous chunks of the
    #: trace; (1.0,) is a flat trace.
    phases: Tuple[float, ...] = (1.0, 2.5, 0.4)

    def __post_init__(self) -> None:
        check_spec(self)
        if not self.phases or not all(m > 0 for m in self.phases):
            raise ServeError(f"phases must be positive: {self.phases}")


def _phase_counts(n: int, phases: Tuple[float, ...]) -> List[int]:
    """Contiguous chunk sizes: n split as evenly as len(phases) allows."""
    base = n // len(phases)
    counts = [base] * len(phases)
    counts[-1] += n - base * len(phases)
    return counts


def _arrival_block(spec: ClusterWorkloadSpec, rng, n: int, rate: float,
                   t0: float) -> np.ndarray:
    """Vectorized arrivals for one phase, starting after ``t0``."""
    if spec.arrival == "poisson":
        return t0 + np.cumsum(rng.exponential(1.0 / rate, n))
    # bursty: burst start times from compensating gaps, tight
    # exponential spacing inside each burst (same shape as the
    # single-node loop, drawn in bulk).
    burst = spec.burst_size
    n_bursts = -(-n // burst)
    gap_mean = burst / rate
    intra_mean = spec.burst_spread * gap_mean
    starts = t0 + np.cumsum(rng.exponential(gap_mean, n_bursts))
    intra = np.cumsum(rng.exponential(intra_mean, (n_bursts, burst)), axis=1)
    return (starts[:, None] + intra).ravel()[:n]


def cluster_arrivals(spec: ClusterWorkloadSpec) -> np.ndarray:
    """All arrival times for the trace, phase by phase, sorted.

    Bursty arrivals can interleave — a short inter-burst gap starts the
    next burst inside the previous one's tail — so the concatenated
    trace is sorted before request ids are assigned; the coordinator's
    barrier protocol requires nondecreasing arrival times.
    """
    rng = _substreams(spec.seed)["arrival"]
    blocks: List[np.ndarray] = []
    t0 = 0.0
    for count, mult in zip(_phase_counts(spec.n_requests, spec.phases),
                           spec.phases):
        if count == 0:
            continue
        block = _arrival_block(spec, rng, count, spec.rate * mult, t0)
        blocks.append(block)
        t0 = float(block[-1])
    return np.sort(np.concatenate(blocks), kind="stable")


def iter_cluster_workload(spec: ClusterWorkloadSpec) -> Iterator[Request]:
    """Yield the trace's requests lazily, in (arrival, req_id) order."""
    rngs = _substreams(spec.seed)
    n = spec.n_requests
    arrivals = cluster_arrivals(spec)
    large, small, axpy_sizes = _size_pools(spec.scale)

    # One bulk draw per factor (substream isolation preserved).
    is_axpy = rngs["routine"].random(n) < spec.axpy_fraction
    size_u = rngs["size"].random(n)          # small-vs-large coin
    size_ix = rngs["size"].integers(0, 1 << 30, n)  # pool index, modulo'd
    groups = rngs["group"].integers(0, spec.n_groups, n)
    priorities = rngs["priority"].integers(0, spec.n_priorities, n)
    has_deadline = rngs["deadline"].random(n) < spec.deadline_fraction
    slacks = rngs["deadline"].uniform(spec.slack_lo, spec.slack_hi, n)

    pool = ProblemPool()
    for i in range(n):
        group: Optional[str] = None
        if is_axpy[i]:
            key = ("axpy", (axpy_sizes[int(size_ix[i]) % len(axpy_sizes)],))
        elif size_u[i] < spec.small_fraction:
            # A weight group is one model: its shared A operand has ONE
            # shape, bound to the group id — so every two requests of a
            # group are batchable (same M, K), and sharding the group
            # onto one node co-locates its batch mates.
            g = int(groups[i])
            key = ("gemm", small[g % len(small)])
            group = f"g{g}"
        else:
            key = ("gemm", large[int(size_ix[i]) % len(large)])
        problem, t_ref = pool[key]
        deadline: Optional[float] = None
        arrival = float(arrivals[i])
        if has_deadline[i]:
            deadline = arrival + float(slacks[i]) * t_ref
        yield Request(req_id=i, problem=problem, arrival=arrival,
                      priority=int(priorities[i]), deadline=deadline,
                      group=group)


def cluster_spec_as_dict(spec: ClusterWorkloadSpec) -> dict:
    """JSON-ready description of a spec (for the cluster report)."""
    return {
        "arrival": spec.arrival,
        "rate": spec.rate,
        "n_requests": spec.n_requests,
        "scale": spec.scale,
        "seed": spec.seed,
        "axpy_fraction": spec.axpy_fraction,
        "small_fraction": spec.small_fraction,
        "n_groups": spec.n_groups,
        "n_priorities": spec.n_priorities,
        "deadline_fraction": spec.deadline_fraction,
        "slack": [spec.slack_lo, spec.slack_hi],
        "burst_size": spec.burst_size,
        "phases": list(spec.phases),
    }
