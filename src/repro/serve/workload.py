"""Seeded open-loop workload generators for the serving layer.

A workload is a list of :class:`~repro.serve.request.Request` objects
with pre-drawn arrival times (open loop: arrivals do not react to the
server).  Determinism follows the :mod:`repro.sim.noise` idiom — every
random factor (arrival spacing, problem size, priority, deadline
slack, group assignment) draws from its own ``default_rng([index,
seed])`` substream, so e.g. changing the size mix never perturbs the
arrival process.

Problem sizes are drawn from the same tables as the experiment
harness (:mod:`repro.experiments.workloads`), extended downward with
sub-tile "small" gemms that exercise the dispatcher's batching and
host-crossover paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.params import CoCoProblem, axpy_problem, gemm_problem
from ..experiments.workloads import _DAXPY_SIZES, _GEMM_SQUARES, _check_scale
from .request import Request, ServeError

ARRIVAL_KINDS = ("poisson", "bursty")

#: Substream index per random factor (see sim/noise.py).
_FACTOR_STREAMS = {
    "arrival": 0,
    "size": 1,
    "priority": 2,
    "deadline": 3,
    "group": 4,
    "routine": 5,
}

#: Reference rates used to convert a problem into a deadline budget:
#: a deadline is ``arrival + slack * t_ref`` with
#: ``t_ref = flops / _REF_FLOPS + bytes / _REF_BYTES_PER_S`` — a crude
#: single-GPU service-time scale, deliberately model-free so deadlines
#: do not depend on the deployed model database.
_REF_FLOPS = 1.0e12
_REF_BYTES_PER_S = 5.0e9


def reference_time(problem: CoCoProblem) -> float:
    """Model-free service-time scale used for deadline budgets."""
    return (problem.flops() / _REF_FLOPS
            + problem.total_bytes() / _REF_BYTES_PER_S)


class ProblemPool(dict):
    """``(routine, dims)`` → one shared float64 ``(CoCoProblem,
    reference_time)``, built on first use: a trace of any length holds
    a few dozen problems."""

    def __missing__(self, key: Tuple[str, Tuple[int, ...]]):
        routine, dims = key
        make = axpy_problem if routine == "axpy" else gemm_problem
        problem = make(*dims, np.float64)
        entry = self[key] = (problem, reference_time(problem))
        return entry


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a generated workload.

    Two specs that compare equal generate identical request lists.
    """

    arrival: str = "poisson"         #: "poisson" | "bursty"
    rate: float = 50.0               #: mean arrival rate, requests/s
    n_requests: int = 64
    scale: str = "tiny"              #: size-table scale (tiny/quick/paper)
    seed: int = 0
    axpy_fraction: float = 0.2       #: fraction of axpy (vs gemm) requests
    small_fraction: float = 0.4      #: fraction of gemms drawn sub-tile
    n_groups: int = 4                #: weight-sharing groups for small gemms
    n_priorities: int = 2            #: uniform priority levels [0, n)
    deadline_fraction: float = 0.75  #: fraction of requests with a deadline
    slack_lo: float = 2.0            #: deadline slack ~ U[lo, hi] * t_ref
    slack_hi: float = 8.0
    burst_size: int = 8              #: requests per burst ("bursty" only)
    burst_spread: float = 0.02       #: intra-burst spacing / inter-burst gap

    def __post_init__(self) -> None:
        check_spec(self)


def check_spec(spec) -> None:
    """Fail fast on a spec no generator can draw a sane trace from.

    Shared by :class:`WorkloadSpec` and the cluster's
    ``ClusterWorkloadSpec``, which carry the same fields.  Every
    rejection is a :class:`ServeError` (an unknown scale keeps the
    experiment tables' ``ReproError``); comparisons are written so that
    NaN fails them.
    """
    if spec.arrival not in ARRIVAL_KINDS:
        raise ServeError(
            f"unknown arrival process {spec.arrival!r}; "
            f"valid: {ARRIVAL_KINDS}")
    _check_scale(spec.scale)
    if not (spec.rate > 0 and math.isfinite(spec.rate)):
        raise ServeError(
            f"arrival rate must be positive and finite: {spec.rate}")
    if spec.n_requests <= 0:
        raise ServeError(f"non-positive request count: {spec.n_requests}")
    for name in ("axpy_fraction", "small_fraction", "deadline_fraction"):
        value = getattr(spec, name)
        if not 0.0 <= value <= 1.0:
            raise ServeError(f"{name} outside [0,1]: {value}")
    if spec.n_groups < 1:
        raise ServeError(f"non-positive group count: {spec.n_groups}")
    if spec.n_priorities < 1:
        raise ServeError(
            f"non-positive priority count: {spec.n_priorities}")
    if not spec.slack_lo <= spec.slack_hi:
        raise ServeError(
            f"slack_lo {spec.slack_lo} > slack_hi {spec.slack_hi}")
    if spec.burst_size <= 0:
        raise ServeError(f"non-positive burst size: {spec.burst_size}")
    if not spec.burst_spread >= 0:
        raise ServeError(f"negative burst spread: {spec.burst_spread}")


def _substreams(seed: int):
    return {name: np.random.default_rng([index, seed])
            for name, index in _FACTOR_STREAMS.items()}


def _arrival_times(spec: WorkloadSpec, rng) -> List[float]:
    """Pre-drawn arrival times, sorted and starting after t=0."""
    times: List[float] = []
    t = 0.0
    if spec.arrival == "poisson":
        for _ in range(spec.n_requests):
            t += float(rng.exponential(1.0 / spec.rate))
            times.append(t)
    else:  # bursty: tight clusters separated by compensating gaps
        gap_mean = spec.burst_size / spec.rate
        intra_mean = spec.burst_spread * gap_mean
        emitted = 0
        while emitted < spec.n_requests:
            t += float(rng.exponential(gap_mean))
            burst_t = t
            for _ in range(min(spec.burst_size, spec.n_requests - emitted)):
                burst_t += float(rng.exponential(intra_mean))
                times.append(burst_t)
                emitted += 1
    return times


def _size_pools(scale: str):
    """(large gemm dims, small gemm dims, axpy sizes) for the scale."""
    squares = _GEMM_SQUARES[scale]
    large = [(d, d, d) for d in squares]
    small = []
    for d in squares:
        for frac in (8, 4):
            # Floor at the smallest deployed tile size so even tiny-scale
            # small problems have a benchmarked candidate tile.
            s = max(d // frac, 256)
            small.append((s, s, s))
    small = sorted(set(small))
    return large, small, list(_DAXPY_SIZES[scale])


def generate_workload(spec: WorkloadSpec) -> List[Request]:
    """Generate the request list for ``spec`` (sorted by arrival)."""
    rngs = _substreams(spec.seed)
    arrivals = _arrival_times(spec, rngs["arrival"])
    large, small, axpy_sizes = _size_pools(spec.scale)

    pool = ProblemPool()
    requests: List[Request] = []
    for req_id, arrival in enumerate(arrivals):
        routine = "gemm"
        group: Optional[str] = None
        if float(rngs["routine"].random()) < spec.axpy_fraction:
            routine = "axpy"
            dims = (axpy_sizes[int(rngs["size"].integers(len(axpy_sizes)))],)
        elif float(rngs["size"].random()) < spec.small_fraction:
            dims = small[int(rngs["size"].integers(len(small)))]
            # Small gemms share weights: the A operand is a group's
            # "model", so requests of one group can be batched.
            group = f"g{int(rngs['group'].integers(spec.n_groups))}"
        else:
            dims = large[int(rngs["size"].integers(len(large)))]
        problem, t_ref = pool[routine, dims]

        priority = int(rngs["priority"].integers(spec.n_priorities))
        deadline: Optional[float] = None
        if float(rngs["deadline"].random()) < spec.deadline_fraction:
            slack = float(rngs["deadline"].uniform(spec.slack_lo,
                                                   spec.slack_hi))
            deadline = arrival + slack * t_ref

        requests.append(Request(req_id=req_id, problem=problem,
                                arrival=arrival, priority=priority,
                                deadline=deadline, group=group))
    return requests


def spec_as_dict(spec: WorkloadSpec) -> dict:
    """JSON-ready description of a spec (for the serve report)."""
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
    }
