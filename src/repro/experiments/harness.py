"""Shared experiment machinery.

Maps :class:`~repro.core.params.CoCoProblem` descriptors onto the
library call signatures (timing mode — no real data), deploys/caches
model databases per (machine, scale), and provides the per-problem
measurement loops the figure modules build on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.instantiation import MachineModels
from ..core.params import CoCoProblem, Loc
from ..core.registry import predict
from ..core.select import candidate_tiles
from ..deploy import DeploymentConfig, deploy
from ..errors import ReproError
from ..runtime.result import RunResult
from ..sim.machine import MachineConfig, get_testbed
from .metrics import ErrorDistribution, percent_error
from .report import format_table

#: In-process cache of deployed model databases, keyed by
#: (machine name, scale, config fingerprint); deployment is
#: deterministic in those three, so the cache is safe — and parallel
#: workers prime it once per process via :func:`prime_worker`.
_MODEL_CACHE: Dict[Tuple, MachineModels] = {}


def _config_fingerprint(config: Optional[DeploymentConfig]):
    """Stable identity of a deployment config, for cache keying."""
    if config is None:
        return None
    t, e = config.transfer, config.exec
    return (
        config.seed,
        config.tail,
        tuple((r, np.dtype(d).str) for r, d in config.routines),
        (t.edges, t.dtype.str, t.latency_probes, t.rel_half_width,
         t.confidence, t.min_reps, t.max_reps, t.opposite_factor),
        (e.gemm_tiles, e.axpy_tiles, e.gemv_tiles, e.rel_half_width,
         e.confidence, e.min_reps, e.max_reps),
    )


def _default_config(scale: str) -> DeploymentConfig:
    if scale == "paper":
        return DeploymentConfig()
    return DeploymentConfig.quick()


def models_for(machine: MachineConfig, scale: str = "quick",
               force: bool = False,
               config: Optional[DeploymentConfig] = None) -> MachineModels:
    """Deploy (or fetch cached) models for a machine at a given scale.

    An explicit ``config`` gets its own cache entry (keyed by content,
    not object identity), so force-deploying a custom sweep can never
    serve stale models to callers of the default one.
    """
    key = (machine.name, scale, _config_fingerprint(config))
    if not force and key in _MODEL_CACHE:
        return _MODEL_CACHE[key]
    cfg = config if config is not None else _default_config(scale)
    models = deploy(machine, cfg)
    _MODEL_CACHE[key] = models
    return models


def prime_model_cache(machine: MachineConfig, scale: str,
                      models: MachineModels,
                      config: Optional[DeploymentConfig] = None) -> None:
    """Install an already-deployed database into the cache."""
    _MODEL_CACHE[(machine.name, scale, _config_fingerprint(config))] = models


def warm_payload(machines: Sequence[MachineConfig],
                 scale: str = "quick") -> List[Tuple]:
    """A picklable snapshot of the cache entries workers will need.

    Deploys (through the cache) in the parent if necessary; ship the
    result to :func:`prime_worker` via ``pmap(initializer=...)`` so
    each worker process rebuilds its models exactly once instead of
    unpickling them per task.
    """
    return [(machine, scale, models_for(machine, scale).to_dict())
            for machine in machines]


def prime_worker(payload: Sequence[Tuple]) -> None:
    """Pool initializer: rebuild shipped model databases in-process."""
    for machine, scale, models_dict in payload:
        prime_model_cache(machine, scale,
                          MachineModels.from_dict(models_dict))


def problem_locs(problem: CoCoProblem) -> Dict[str, Loc]:
    return {op.name: op.loc for op in problem.operands}


def run_gemm(lib, problem: CoCoProblem, tile_size: Optional[int] = None,
             **kwargs) -> RunResult:
    """Invoke a gemm-capable library on a problem descriptor."""
    if problem.routine.name != "gemm":
        raise ReproError(f"run_gemm got a {problem.routine.name} problem")
    m, n, k = problem.dims
    locs = problem_locs(problem)
    call_kwargs = dict(
        dtype=problem.dtype,
        loc_a=locs["A"], loc_b=locs["B"], loc_c=locs["C"],
        **kwargs,
    )
    if tile_size is not None:
        call_kwargs["tile_size"] = tile_size
    return lib.gemm(m, n, k, **call_kwargs)


def run_axpy(lib, problem: CoCoProblem, tile_size: Optional[int] = None,
             **kwargs) -> RunResult:
    """Invoke an axpy-capable library on a problem descriptor."""
    if problem.routine.name != "axpy":
        raise ReproError(f"run_axpy got a {problem.routine.name} problem")
    (n,) = problem.dims
    locs = problem_locs(problem)
    call_kwargs = dict(dtype=problem.dtype, loc_x=locs["x"], loc_y=locs["y"],
                       **kwargs)
    if tile_size is not None:
        call_kwargs["tile_size"] = tile_size
    return lib.axpy(n, **call_kwargs)


def run_gemv(lib, problem: CoCoProblem, tile_size: Optional[int] = None,
             **kwargs) -> RunResult:
    """Invoke a gemv-capable library on a problem descriptor."""
    if problem.routine.name != "gemv":
        raise ReproError(f"run_gemv got a {problem.routine.name} problem")
    m, n = problem.dims
    locs = problem_locs(problem)
    call_kwargs = dict(dtype=problem.dtype, loc_a=locs["A"],
                       loc_x=locs["x"], loc_y=locs["y"], **kwargs)
    if tile_size is not None:
        call_kwargs["tile_size"] = tile_size
    return lib.gemv(m, n, **call_kwargs)


def run_syrk(lib, problem: CoCoProblem, tile_size: Optional[int] = None,
             **kwargs) -> RunResult:
    """Invoke a syrk-capable library on a problem descriptor."""
    if problem.routine.name != "syrk":
        raise ReproError(f"run_syrk got a {problem.routine.name} problem")
    n, k = problem.dims
    locs = problem_locs(problem)
    call_kwargs = dict(dtype=problem.dtype, loc_a=locs["A"],
                       loc_c=locs["C"], **kwargs)
    if tile_size is not None:
        call_kwargs["tile_size"] = tile_size
    return lib.syrk(n, k, **call_kwargs)


def run_problem(lib, problem: CoCoProblem,
                tile_size: Optional[int] = None, **kwargs) -> RunResult:
    if problem.routine.name == "gemm":
        return run_gemm(lib, problem, tile_size, **kwargs)
    if problem.routine.name == "gemv":
        return run_gemv(lib, problem, tile_size, **kwargs)
    if problem.routine.name == "syrk":
        return run_syrk(lib, problem, tile_size, **kwargs)
    if problem.routine.name == "axpy":
        return run_axpy(lib, problem, tile_size, **kwargs)
    raise ReproError(f"no runner for routine {problem.routine.name!r}")


@dataclass
class SweepPoint:
    """One (problem, T) measurement."""

    problem: CoCoProblem
    tile_size: int
    result: RunResult


def measure_tile_sweep(lib, problem: CoCoProblem,
                       tiles: Sequence[int], **kwargs) -> List[SweepPoint]:
    """Measure a library across a tile-size sweep for one problem."""
    points = []
    for t in tiles:
        result = run_problem(lib, problem, tile_size=t, **kwargs)
        points.append(SweepPoint(problem, t, result))
    return points


def best_point(points: Sequence[SweepPoint]) -> SweepPoint:
    """The empirically fastest point of a sweep (T_opt)."""
    if not points:
        raise ReproError("empty sweep")
    return min(points, key=lambda p: p.result.seconds)


def _subsample(tiles: Sequence[int], limit: int) -> List[int]:
    """At most ``limit`` of ``tiles``, evenly spread, ends included."""
    tiles = list(tiles)
    if len(tiles) <= limit:
        return tiles
    idx = np.linspace(0, len(tiles) - 1, limit).round().astype(int)
    return [tiles[i] for i in sorted(set(idx.tolist()))]


@dataclass
class ErrorSweep:
    """Relative prediction errors of a model-validation figure (Figs. 4
    and 5), one sample list per violin."""

    scale: str
    #: (machine, routine, model) -> error samples in percent
    samples: Dict[Tuple[str, str, str], List[float]] = field(
        default_factory=dict)

    def measure(self, lib, machine: str, routine: str,
                problems: Iterable[CoCoProblem], models: MachineModels,
                model_names: Sequence[str], tiles_per_problem: int) -> None:
        """Run ``lib`` on every problem at up to ``tiles_per_problem`` of
        its valid tile sizes and record each named model's ``e%``
        under ``(machine, routine, model)``."""
        for problem in problems:
            tiles = _subsample(candidate_tiles(problem, models, clamped=False),
                               tiles_per_problem)
            for t in tiles:
                measured = run_problem(lib, problem, tile_size=t).seconds
                for model in model_names:
                    err = percent_error(
                        predict(model, problem, t, models), measured
                    )
                    self.samples.setdefault(
                        (machine, routine, model), []
                    ).append(err)

    def distributions(self) -> List[ErrorDistribution]:
        return [
            ErrorDistribution.from_samples(
                f"{machine}/{routine}/{model}", vals
            )
            for (machine, routine, model), vals in sorted(self.samples.items())
        ]


def render_errors(result: ErrorSweep, title: str) -> str:
    """The violin summaries of ``result`` as a table."""
    rows = []
    for dist in result.distributions():
        rows.append([
            dist.label, dist.n, round(dist.median, 1), round(dist.mean, 1),
            round(dist.q1, 1), round(dist.q3, 1),
            round(dist.min, 1), round(dist.max, 1),
        ])
    return format_table(
        ["machine/routine/model", "n", "median e%", "mean e%", "q1", "q3",
         "min", "max"],
        rows,
        title=title,
    )


def testbeds(names: Optional[Sequence[str]] = None) -> List[MachineConfig]:
    if names is None:
        names = ("testbed_i", "testbed_ii")
    return [get_testbed(n) for n in names]
