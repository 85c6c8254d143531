"""Validation and evaluation sets (paper Section V-B and V-E).

The paper's sets:

* daxpy: ``N = {8, 64, 128, 256} * 2^20`` for all 3 location
  combinations with at least one operand on the host;
* gemm location/size: square ``M = N = K = {4, 8, 12, 16} * 2^10`` for
  all 7 location combinations;
* gemm shape: equal-volume fat-by-thin (``M = N = K * r^2``) and
  thin-by-fat (``M = N = K / r^2``) problems, ``r in {3, 4, 5}``, full
  offload;
* evaluation extension (V-E): 25 square sizes 4K..16K step 0.5K, 11
  daxpy sizes.

Each set exists at three scales.  ``quick`` shrinks sizes (preserving
the transfer/compute balance regimes) so the full harness runs in
minutes through the Python discrete-event simulator; ``tiny`` is for
unit tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..core.params import CoCoProblem, Loc, axpy_problem, gemm_problem
from ..errors import ReproError

SCALES = ("tiny", "quick", "paper")


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ReproError(f"unknown scale {scale!r}; valid: {SCALES}")


# ---------------------------------------------------------------------------
# location combinations
# ---------------------------------------------------------------------------

def location_combos(n_operands: int) -> List[Tuple[Loc, ...]]:
    """All 2^n - 1 combinations with at least one host-resident operand.

    The all-on-GPU case is excluded (paper: "there is no overlap").
    """
    combos = []
    for bits in itertools.product((Loc.HOST, Loc.DEVICE), repeat=n_operands):
        if any(loc is Loc.HOST for loc in bits):
            combos.append(bits)
    return combos


def is_full_offload(problem: CoCoProblem) -> bool:
    return all(op.loc is Loc.HOST for op in problem.operands)


# ---------------------------------------------------------------------------
# size tables per scale
# ---------------------------------------------------------------------------

_DAXPY_SIZES = {
    "tiny": [1 << 20],
    "quick": [4 << 20, 16 << 20, 32 << 20, 64 << 20],
    "paper": [8 << 20, 64 << 20, 128 << 20, 256 << 20],
}

_GEMM_SQUARES = {
    "tiny": [1024],
    "quick": [2048, 3072, 4096, 6144],
    "paper": [4096, 8192, 12288, 16384],
}

#: Cube roots of the equal-volume shape-set volumes.
_SHAPE_VOLUME_EDGE = {
    "tiny": [1024],
    "quick": [3072],
    "paper": [8192],
}

_SHAPE_RATIOS = {
    "tiny": [2],
    "quick": [2, 3],
    "paper": [3, 4, 5],
}

#: Fig. 1 problem sizes (dgemm tiling-size sweep).  The interior
#: performance maximum the paper highlights only exists once the
#: problem is several times the machine's compute/transfer balance
#: tile (~4K on the simulated V100), so even the quick scale uses
#: large problems here.
_FIG1_SIZES = {
    "tiny": [1024],
    "quick": [8192, 12288],
    "paper": [8192, 16384],
}

#: Evaluation-extension square sizes (V-E: 25 sizes 4K..16K step 0.5K).
_EVAL_SQUARES = {
    "tiny": [1024, 1536],
    "quick": [2048, 2560, 3072, 3584, 4096, 5120, 6144],
    "paper": [4096 + 512 * i for i in range(25)],
}

_EVAL_DAXPY = {
    "tiny": [1 << 20, 2 << 20],
    "quick": [(4 + 8 * i) << 20 for i in range(6)],
    "paper": [(1 << 30) + i * (96 << 20) for i in range(11)],
}


def _round_dim(x: float, multiple: int = 128, floor: int = 256) -> int:
    return max(int(round(x / multiple)) * multiple, floor)


def shape_dims(volume_edge: int, ratio: int, fat_by_thin: bool) -> Tuple[int, int, int]:
    """Dims of an equal-volume non-square gemm problem.

    fat_by_thin: M = N = K * r^2 (large output, short inner dim) —
    transfer-heavy.  thin_by_fat: M = N = K / r^2 (small output, long
    inner dim).  Volume ~ volume_edge^3 in both cases.
    """
    v = float(volume_edge) ** 3
    r2 = float(ratio * ratio)
    if fat_by_thin:
        # Solve K^3 * r^4 = V  =>  K = (V / r^4)^(1/3), M = N = K r^2.
        k = (v / (r2 * r2)) ** (1.0 / 3.0)
        m = k * r2
    else:
        # M = N = K / r^2: K^3 / r^4 = V => K = (V r^4)^(1/3).
        k = (v * r2 * r2) ** (1.0 / 3.0)
        m = k / r2
    return _round_dim(m), _round_dim(m), _round_dim(k)


# ---------------------------------------------------------------------------
# validation sets (Section V-B)
# ---------------------------------------------------------------------------

def daxpy_validation_set(scale: str = "quick") -> List[CoCoProblem]:
    """daxpy sizes x all 3 location combinations."""
    _check_scale(scale)
    problems = []
    for n in _DAXPY_SIZES[scale]:
        for loc_x, loc_y in location_combos(2):
            problems.append(axpy_problem(n, np.float64, loc_x, loc_y))
    return problems


def gemm_location_validation_set(scale: str = "quick",
                                 dtype=np.float64) -> List[CoCoProblem]:
    """Square gemm sizes x all 7 location combinations."""
    _check_scale(scale)
    problems = []
    for d in _GEMM_SQUARES[scale]:
        for locs in location_combos(3):
            problems.append(gemm_problem(d, d, d, dtype, *locs))
    return problems


def gemm_shape_validation_set(scale: str = "quick",
                              dtype=np.float64) -> List[CoCoProblem]:
    """Equal-volume fat-by-thin and thin-by-fat problems, full offload."""
    _check_scale(scale)
    problems = []
    for edge in _SHAPE_VOLUME_EDGE[scale]:
        for ratio in _SHAPE_RATIOS[scale]:
            for fat in (True, False):
                m, n, k = shape_dims(edge, ratio, fat)
                problems.append(gemm_problem(m, n, k, dtype))
    return problems


def gemm_validation_set(scale: str = "quick",
                        dtype=np.float64) -> List[CoCoProblem]:
    """The full Section V-B gemm validation set for one dtype."""
    return (gemm_location_validation_set(scale, dtype)
            + gemm_shape_validation_set(scale, dtype))


# ---------------------------------------------------------------------------
# evaluation sets (Section V-E)
# ---------------------------------------------------------------------------

def gemm_evaluation_set(scale: str = "quick",
                        dtype=np.float64) -> List[CoCoProblem]:
    """The extended V-E set: more square sizes x locations + shapes."""
    _check_scale(scale)
    problems = []
    for d in _EVAL_SQUARES[scale]:
        for locs in location_combos(3):
            problems.append(gemm_problem(d, d, d, dtype, *locs))
    problems += gemm_shape_validation_set(scale, dtype)
    return problems


def daxpy_evaluation_set(scale: str = "quick") -> List[CoCoProblem]:
    _check_scale(scale)
    problems = []
    for n in _EVAL_DAXPY[scale]:
        for loc_x, loc_y in location_combos(2):
            problems.append(axpy_problem(n, np.float64, loc_x, loc_y))
    return problems


def fig1_sizes(scale: str = "quick") -> List[int]:
    _check_scale(scale)
    return list(_FIG1_SIZES[scale])


def fig1_tile_sweep(size: int, scale: str = "quick") -> List[int]:
    """Fig. 1 sweeps all the way to ``T = size`` (the no-overlap end),
    unlike the validation sweeps which stop at min(D)/1.5."""
    _check_scale(scale)
    if scale == "paper":
        step, lo = 1024, 1024
    elif scale == "quick":
        step, lo = 512, 512
    else:
        step, lo = 256, 256
    sweep = list(range(lo, size + 1, step))
    if size not in sweep:
        sweep.append(size)
    return sweep
