"""Transfer micro-benchmarks (paper Section IV-A, after Pearson [5]).

Procedure, mirrored from the paper:

* ``t_l``: average of repeated single-byte transfers;
* ``t_b``: zero-intercept least squares over 64 square double-precision
  transfers with edges 256, 512, ..., 16384 (latency excluded from the
  regressed times);
* bidirectional ``t_b``: same sweep with a concurrent opposite-direction
  transfer covering the whole measured transfer; ``sl`` is the ratio of
  the two fitted slopes;
* every individual measurement repeats until the 95% CI of the mean is
  within 5% of the mean.

All benchmarks run through the same async-copy primitive the library
uses (the simulated ``cublas{Set,Get}MatrixAsync`` path with pinned
host memory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..core.transfer_model import LinkModel, TransferFit
from ..errors import DeploymentError
from ..parallel import task_seed
from ..sim.device import GpuDevice
from ..sim.link import Direction
from ..sim.machine import MachineConfig
from ..units import dtype_size
from .regression import measure_until_stable, zero_intercept_lstsq


@dataclass(frozen=True)
class TransferBenchConfig:
    """Knobs for the transfer micro-benchmark campaign."""

    #: Square-transfer edge sizes; paper: 256*i for i in 1..64.
    edges: Tuple[int, ...] = tuple(256 * i for i in range(1, 65))
    dtype: np.dtype = np.dtype(np.float64)
    latency_probes: int = 20
    rel_half_width: float = 0.05
    confidence: float = 0.95
    min_reps: int = 5
    max_reps: int = 200
    #: The concurrent opposite transfer is this much larger than the
    #: measured one, so the measured flow is contended end to end.
    opposite_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.min_reps < 2:
            raise DeploymentError(
                f"min_reps must be >= 2, got {self.min_reps}")
        if self.max_reps < self.min_reps:
            raise DeploymentError(
                f"max_reps ({self.max_reps}) must be >= min_reps "
                f"({self.min_reps})")
        if not 0.0 < self.rel_half_width < 1.0:
            raise DeploymentError(
                f"rel_half_width must be in (0, 1), got "
                f"{self.rel_half_width}")

    @classmethod
    def quick(cls) -> "TransferBenchConfig":
        """A reduced sweep for tests and fast benchmarks."""
        return cls(edges=tuple(256 * i for i in (1, 2, 4, 8, 16, 24, 32)),
                   latency_probes=8, min_reps=3, max_reps=60)


@dataclass
class DirectionBenchData:
    """Raw sweep results for one direction (for Table II reporting)."""

    nbytes: List[int] = field(default_factory=list)
    uni_times: List[float] = field(default_factory=list)
    bid_times: List[float] = field(default_factory=list)
    latency_samples: List[float] = field(default_factory=list)


def _timed_transfer(device: GpuDevice, direction: Direction, nbytes: int) -> float:
    """One isolated transfer; returns its simulated duration."""
    stream = device.create_stream()
    t0 = device.sim.now
    if direction is Direction.H2D:
        device.memcpy_h2d_async(nbytes, stream, tag="bench")
    else:
        device.memcpy_d2h_async(nbytes, stream, tag="bench")
    stream.synchronize()
    return device.sim.now - t0


def _timed_bid_transfer(device: GpuDevice, direction: Direction,
                        nbytes: int, opposite_factor: float) -> float:
    """One transfer coupled with a larger opposite-direction transfer."""
    stream = device.create_stream()
    opp_stream = device.create_stream()
    opp_bytes = int(nbytes * opposite_factor)
    if direction is Direction.H2D:
        device.memcpy_d2h_async(opp_bytes, opp_stream, tag="bench-opp")
        t0 = device.sim.now
        device.memcpy_h2d_async(nbytes, stream, tag="bench")
    else:
        device.memcpy_h2d_async(opp_bytes, opp_stream, tag="bench-opp")
        t0 = device.sim.now
        device.memcpy_d2h_async(nbytes, stream, tag="bench")
    stream.synchronize()
    elapsed = device.sim.now - t0
    # Drain the background transfer so the next sample starts clean.
    opp_stream.synchronize()
    return elapsed


def bench_latency(device: GpuDevice, direction: Direction,
                  cfg: TransferBenchConfig) -> Tuple[float, List[float]]:
    """``t_l``: mean duration of single-byte transfers."""
    samples = [
        _timed_transfer(device, direction, 1) for _ in range(cfg.latency_probes)
    ]
    return float(np.mean(samples)), samples


def bench_transfer_sweep(
    device: GpuDevice,
    direction: Direction,
    cfg: TransferBenchConfig,
    bidirectional: bool = False,
) -> Tuple[List[int], List[float]]:
    """Measure mean transfer time for each square size in the sweep."""
    esize = dtype_size(cfg.dtype)
    sizes: List[int] = []
    times: List[float] = []
    for edge in cfg.edges:
        nbytes = edge * edge * esize
        if bidirectional:
            mean, _ = measure_until_stable(
                lambda: _timed_bid_transfer(
                    device, direction, nbytes, cfg.opposite_factor
                ),
                rel_half_width=cfg.rel_half_width,
                confidence=cfg.confidence,
                min_reps=cfg.min_reps,
                max_reps=cfg.max_reps,
            )
        else:
            mean, _ = measure_until_stable(
                lambda: _timed_transfer(device, direction, nbytes),
                rel_half_width=cfg.rel_half_width,
                confidence=cfg.confidence,
                min_reps=cfg.min_reps,
                max_reps=cfg.max_reps,
            )
        sizes.append(nbytes)
        times.append(mean)
    return sizes, times


def _transfer_point_task(machine: MachineConfig, direction: Direction,
                         kind: str, nbytes: int, cfg: TransferBenchConfig,
                         seed: int):
    """One grid point of the transfer campaign, on a fresh device.

    Each point gets its own device with a pre-derived seed, so the
    measurement is a pure function of the task arguments.
    """
    device = GpuDevice(machine, seed=seed)
    if kind == "latency":
        return bench_latency(device, direction, cfg)
    if kind == "uni":
        measure = lambda: _timed_transfer(device, direction, nbytes)
    else:
        measure = lambda: _timed_bid_transfer(device, direction, nbytes,
                                              cfg.opposite_factor)
    mean, _ = measure_until_stable(
        measure,
        rel_half_width=cfg.rel_half_width,
        confidence=cfg.confidence,
        min_reps=cfg.min_reps,
        max_reps=cfg.max_reps,
    )
    return mean


def fit_link_model(
    machine: MachineConfig,
    cfg: TransferBenchConfig = TransferBenchConfig(),
    seed: int = 1234,
) -> Tuple[LinkModel, Dict[str, DirectionBenchData]]:
    """Run the full transfer campaign and fit the link coefficients.

    Returns the fitted :class:`LinkModel` plus the raw sweep data per
    direction (used by the Table II reproduction).

    The campaign is a grid of independent points (per direction: one
    latency probe set, one uni- and one bidirectional measurement per
    edge), each on its own freshly seeded device, measured in grid
    order.
    """
    esize = dtype_size(cfg.dtype)
    directions = (Direction.H2D, Direction.D2H)
    tasks = []
    for direction in directions:
        d = direction.value
        tasks.append((machine, direction, "latency", 1, cfg,
                      task_seed(seed, d, "latency")))
        for kind in ("uni", "bid"):
            for edge in cfg.edges:
                tasks.append((machine, direction, kind,
                              edge * edge * esize, cfg,
                              task_seed(seed, d, kind, edge)))
    results = [_transfer_point_task(*task) for task in tasks]

    nedges = len(cfg.edges)
    per_direction = 1 + 2 * nedges
    raw: Dict[str, DirectionBenchData] = {}
    fits: Dict[str, TransferFit] = {}
    for di, direction in enumerate(directions):
        base = di * per_direction
        latency, latency_samples = results[base]
        uni = results[base + 1:base + 1 + nedges]
        bid = results[base + 1 + nedges:base + per_direction]
        data = DirectionBenchData()
        data.latency_samples = latency_samples
        data.nbytes = [edge * edge * esize for edge in cfg.edges]
        data.uni_times = uni
        data.bid_times = bid
        # Exclude the measured latency from the regressed times
        # (zero-intercept fit, in the manner of [32]).
        uni_fit = zero_intercept_lstsq(data.nbytes,
                                       [t - latency for t in uni])
        bid_fit = zero_intercept_lstsq(data.nbytes,
                                       [t - latency for t in bid])
        sl = bid_fit.slope / uni_fit.slope
        if sl < 1.0:
            # Measurement noise can push the ratio slightly below 1 on
            # links with no real slowdown; clamp to the physical floor.
            sl = 1.0
        fits[direction.value] = TransferFit(
            latency=latency,
            sec_per_byte=uni_fit.slope,
            sl=sl,
            rse=uni_fit.rse,
            rse_bid=bid_fit.rse,
            p_value=uni_fit.p_value,
            p_value_bid=bid_fit.p_value,
            samples=uni_fit.n,
        )
        raw[direction.value] = data
    if not fits:
        raise DeploymentError("transfer benchmark produced no fits")
    return LinkModel(h2d=fits["h2d"], d2h=fits["d2h"]), raw
