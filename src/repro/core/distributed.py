"""Overlap prediction for the distributed routines (SUMMA, streaming gemv).

Extends the paper's single-GPU 3-way-concurrency models to workloads
whose communication happens on the *inter-GPU* fabric:

* :func:`predict_summa` — makespan of the 1D-SUMMA distributed gemm of
  ``repro.runtime.summa`` for a given K-panel width ``p``: a pipeline
  recurrence over panels where each panel's arrival is limited by the
  broadcast chain rate (one panel per link slot) and by the
  double-buffer injection gate, and compute follows in panel order on
  the widest column shard.  The ``blocking`` variant serializes each
  panel's full broadcast before its kernels (the baseline the paper's
  Fig. 2 serial pipeline corresponds to).
* :func:`predict_streaming_gemv` — makespan of the distributed
  streaming gemv: per-GPU chunked h2d streams (x chunk + A panel per
  chunk over the GPU's own PCIe lane) overlapped with per-chunk gemv
  kernels, followed by a ring reduction of the partial ``y`` vectors
  and the final d2h.

Both predictors follow the repo's core discipline: they see only the
*deployed* artifacts — exec lookup tables, fitted PCIe link models, and
the interconnect's :class:`~repro.sim.interconnect.TopologySpec` (the
fabric's published description) — never the simulator's ground-truth
kernel formulas.  Panel/chunk compute time reuses the lookup-table +
``_dim_fill`` edge scaling of :mod:`repro.core.models`.

Topology objects are duck-typed (``kind``/``n_gpus``/``hop_time``/
``broadcast_hops``) so this package does not import ``repro.sim``; the
runtime passes the spec through.

Selection (:func:`select_summa_panel` / :func:`select_gemv_chunk`)
sweeps the benchmarked tile grid exactly like ``select_tile`` — ties
break to the larger candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ModelError, SchedulerError
from .instantiation import MachineModels
from .models import _dim_fill
from .params import CoCoProblem, prefix_for

SUMMA_VARIANTS = ("pipelined", "blocking")


def shard_columns(n: int, n_gpus: int) -> List[Tuple[int, int]]:
    """(offset, width) of each GPU's column block (ceil-balanced).

    The canonical sharding used by every distributed routine.
    """
    if n_gpus <= 0:
        raise SchedulerError(f"need at least one GPU, got {n_gpus}")
    base = math.ceil(n / n_gpus)
    shards = []
    off = 0
    while off < n:
        width = min(base, n - off)
        shards.append((off, width))
        off += width
    return shards


def summa_panels(k: int, n_gpus: int,
                 p: int) -> List[Tuple[int, int, int]]:
    """(k_offset, width, owner) of each SUMMA K-panel.

    ``A`` is K-sharded across the GPUs with :func:`shard_columns`; each
    shard is sub-split into panels of width ``p``, so a panel never
    spans two owners (its broadcast has a single root).
    """
    if p <= 0:
        raise ModelError(f"panel width must be positive, got {p}")
    panels: List[Tuple[int, int, int]] = []
    for owner, (off, width) in enumerate(shard_columns(k, n_gpus)):
        sub = 0
        while sub < width:
            w = min(p, width - sub)
            panels.append((off + sub, w, owner))
            sub += w
    return panels


def _itemsize(problem: CoCoProblem) -> int:
    return np.dtype(problem.dtype).itemsize


def _require_topology(topology, n_gpus: int):
    if topology is None:
        raise ModelError("distributed prediction requires a topology spec")
    if topology.n_gpus != n_gpus:
        raise ModelError(
            f"topology is wired for {topology.n_gpus} GPUs, "
            f"prediction asked for {n_gpus}")
    return topology


# ---------------------------------------------------------------------------
# SUMMA gemm
# ---------------------------------------------------------------------------

def predict_summa(
    problem: CoCoProblem,
    p: int,
    models: MachineModels,
    interpolate: bool = False,
    *,
    n_gpus: int,
    topology,
    variant: str = "pipelined",
    depth: int = 2,
) -> float:
    """Predicted SUMMA makespan for K-panel width ``p`` (seconds).

    Mirrors the runtime exactly: per panel, the owner broadcasts the
    ``M x p`` slice of A (``broadcast_hops`` serial link slots until
    the farthest GPU holds it), every GPU then runs a
    ``ceil(M/p) x ceil(w/p)`` grid of ``p``-edge kernels on its column
    shard; panels proceed in order with at most ``depth`` broadcasts
    in flight past the globally-computed frontier.
    """
    if variant not in SUMMA_VARIANTS:
        raise ModelError(
            f"unknown SUMMA variant {variant!r}; expected {SUMMA_VARIANTS}")
    if depth < 2:
        raise ModelError(f"pipelined SUMMA needs depth >= 2, got {depth}")
    topology = _require_topology(topology, n_gpus)
    m, n, k = problem.dims
    elem = _itemsize(problem)
    lookup = models.exec_lookup("gemm", prefix_for(problem.dtype))
    t_tile = lookup.time(p, interpolate)
    w_max = max(w for _, w in shard_columns(n, n_gpus))
    # ceil(d/p) * _dim_fill(d, p) == d / p: the edge-tile linear scaling
    # of models.tile_times in closed form.
    tiles_mw = (math.ceil(m / p) * _dim_fill(m, p)
                * math.ceil(w_max / p) * _dim_fill(w_max, p))
    panels = summa_panels(k, n_gpus, p)
    d_hops = topology.broadcast_hops(n_gpus - 1)

    def t_hop(pw: int) -> float:
        return topology.hop_time(m * pw * elem)

    def t_comp(pw: int) -> float:
        return t_tile * tiles_mw * (pw / p)

    if variant == "blocking":
        return sum(d_hops * t_hop(pw) + t_comp(pw) for _, pw, _ in panels)

    # Pipelined: arrival is chain-rate limited (one panel per link slot
    # once the d_hops fill is paid) and gated by the depth buffer;
    # compute is in panel order on the widest shard.
    finishes: List[float] = []
    arrive = 0.0
    for j, (_off, pw, _owner) in enumerate(panels):
        if j == 0:
            arrive = d_hops * t_hop(pw)
        else:
            arrive = arrive + t_hop(pw)
        if j >= depth:
            arrive = max(arrive, finishes[j - depth] + d_hops * t_hop(pw))
        start = arrive if not finishes else max(arrive, finishes[-1])
        finishes.append(start + t_comp(pw))
    return finishes[-1]


# ---------------------------------------------------------------------------
# streaming gemv
# ---------------------------------------------------------------------------

def _axpy_add_time(models: MachineModels, m: int, prefix: str,
                   interpolate: bool) -> float:
    """Model time of the reduction add (``y += partial``, length m)."""
    if not models.has_routine("axpy", prefix):
        return 0.0  # reduce-add unmodeled: negligible next to the stream
    lookup = models.exec_lookup("axpy", prefix)
    tiles = [t for t in lookup.tile_sizes if t <= m]
    t0 = max(tiles) if tiles else min(lookup.tile_sizes)
    return lookup.time(t0, interpolate) * (m / t0)


def predict_streaming_gemv(
    problem: CoCoProblem,
    c: int,
    models: MachineModels,
    interpolate: bool = False,
    *,
    n_gpus: int = 1,
    topology=None,
) -> float:
    """Predicted streaming-gemv makespan for chunk width ``c`` (seconds).

    Per GPU: its column shard of A (and of x) streams over its own
    PCIe lane in width-``c`` chunks — an x chunk then the ``M x c`` A
    panel — while ``ceil(M/c)`` row-tile gemv kernels consume each
    chunk as it lands.  Partial ``y`` vectors then ring-reduce to GPU 0
    (hop + add per step) and the result is read back over d2h.
    """
    if c <= 0:
        raise ModelError(f"chunk width must be positive, got {c}")
    if n_gpus > 1:
        topology = _require_topology(topology, n_gpus)
    m, n = problem.dims
    elem = _itemsize(problem)
    prefix = prefix_for(problem.dtype)
    lookup = models.exec_lookup("gemv", prefix)
    t_tile = lookup.time(c, interpolate)
    tiles_m = math.ceil(m / c) * _dim_fill(m, c)
    link = models.link

    def chunk_widths(width: int) -> List[int]:
        out = []
        sub = 0
        while sub < width:
            out.append(min(c, width - sub))
            sub += c
        return out

    finishes: List[float] = []
    for _off, width in shard_columns(n, n_gpus):
        arrive = 0.0
        finish = 0.0
        for cw in chunk_widths(width):
            arrive += (link.h2d.time(cw * elem)
                       + link.h2d.time(m * cw * elem))
            t_comp = t_tile * tiles_m * (cw / c)
            finish = max(arrive, finish) + t_comp
        finishes.append(finish)
    # n < n_gpus leaves trailing GPUs with empty shards (finish at 0).
    finishes += [0.0] * (n_gpus - len(finishes))

    t_add = _axpy_add_time(models, m, prefix, interpolate)
    if n_gpus == 1:
        total = finishes[0]
    else:
        # Reduce chain 1 -> 2 -> ... -> (G-1) -> 0, clockwise hops.
        hop = topology.hop_time(m * elem)
        t = finishes[1 % n_gpus]
        for g in list(range(2, n_gpus)) + [0]:
            t = max(t + hop, finishes[g]) + t_add
        total = t
    return total + link.d2h.time(m * elem)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

@dataclass
class DistributedChoice:
    """Winner of a panel/chunk sweep (mirrors ``TileChoice``)."""

    value: int
    predicted_time: float
    per_candidate: Dict[int, float]
    kind: str  # "summa" | "streaming_gemv"


def candidate_panels(problem: CoCoProblem, n_gpus: int,
                     models: MachineModels) -> List[int]:
    """Benchmarked gemm tile sizes usable as SUMMA K-panel widths."""
    m, n, k = problem.dims
    tiles = models.exec_lookup("gemm", prefix_for(problem.dtype)).tile_sizes
    w_max = max(w for _, w in shard_columns(n, n_gpus))
    k_max = max(w for _, w in shard_columns(k, n_gpus))
    # A panel wider than the owner's K-shard just gets clamped, and a
    # kernel edge beyond the column shard never tiles: cap so kernels
    # stay near the cubic shapes the lookup table was benchmarked on.
    limit = min(m, w_max, k_max)
    cands = [t for t in tiles if t <= limit]
    return cands or [min(tiles)]


def candidate_chunks(problem: CoCoProblem, n_gpus: int,
                     models: MachineModels) -> List[int]:
    """Benchmarked gemv tile sizes usable as streaming chunk widths."""
    _m, n = problem.dims
    w_max = max(w for _, w in shard_columns(n, n_gpus))
    tiles = models.exec_lookup("gemv", prefix_for(problem.dtype)).tile_sizes
    cands = [t for t in tiles if t <= w_max]
    return cands or [min(tiles)]


def _sweep(cands: List[int], predict) -> DistributedChoice:
    per: Dict[int, float] = {t: predict(t) for t in sorted(cands)}
    best = None
    best_t = None
    for t, seconds in per.items():
        # ties break to the larger candidate, like select_tile
        if best is None or seconds <= best:
            best = seconds
            best_t = t
    return DistributedChoice(value=best_t, predicted_time=best,
                             per_candidate=per, kind="")


def select_summa_panel(
    problem: CoCoProblem,
    n_gpus: int,
    topology,
    models: MachineModels,
    variant: str = "pipelined",
    depth: int = 2,
) -> DistributedChoice:
    """Model-selected SUMMA K-panel width over the benchmarked grid."""
    choice = _sweep(
        candidate_panels(problem, n_gpus, models),
        lambda p: predict_summa(problem, p, models,
                                n_gpus=n_gpus, topology=topology,
                                variant=variant, depth=depth))
    choice.kind = "summa"
    return choice


def select_gemv_chunk(
    problem: CoCoProblem,
    n_gpus: int,
    topology,
    models: MachineModels,
) -> DistributedChoice:
    """Model-selected streaming-gemv chunk width."""
    choice = _sweep(
        candidate_chunks(problem, n_gpus, models),
        lambda c: predict_streaming_gemv(problem, c, models,
                                         n_gpus=n_gpus, topology=topology))
    choice.kind = "streaming_gemv"
    return choice
