"""The model-parameter struct of the paper's Table I.

A :class:`CoCoProblem` couples a routine spec (the routine-specific
values: dims, opd, dtype, flops) with per-operand data-specific values
(S1_i, S2_i, loc_i and the derived ``get_i`` / ``set_i`` flags).  All
prediction models and the tile-selection runtime consume this struct.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..blas.spec import AXPY, GEMM, GEMV, SYRK, OperandSpec, RoutineSpec
from ..errors import ModelError
from ..units import dtype_size
import numpy as np


class Loc(enum.Enum):
    """Initial location of an operand's data."""

    HOST = "host"
    DEVICE = "device"


@dataclass(frozen=True)
class OperandInstance:
    """Data-specific values for one operand (Table I lower half)."""

    spec: OperandSpec
    s1: int
    s2: int
    loc: Loc
    #: Problem dims, needed by routine-specific tile-count overrides.
    dims: Tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def get(self) -> bool:
        """``get_i``: must this operand be fetched to the GPU?"""
        return self.spec.role.is_input and self.loc is Loc.HOST

    @property
    def set(self) -> bool:
        """``set_i``: must this operand be written back to the host?

        Following the paper's evaluation setup, outputs return to the
        host only when the data originally lived there.
        """
        return self.spec.role.is_output and self.loc is Loc.HOST

    @property
    def is_vector(self) -> bool:
        return self.spec.vector

    def elements(self) -> int:
        return self.s1 * self.s2

    def tiles(self, t: int) -> int:
        """``tiles_i``: number of T (vector) or T x T (matrix) tiles."""
        if t <= 0:
            raise ModelError(f"non-positive tiling size {t}")
        if self.spec.tile_count is not None:
            return self.spec.tile_count(self.dims, t)
        n1 = math.ceil(self.s1 / t)
        n2 = 1 if self.is_vector else math.ceil(self.s2 / t)
        return n1 * n2


class CoCoProblem:
    """One BLAS invocation: everything the models need to know."""

    def __init__(
        self,
        routine: RoutineSpec,
        dims: Sequence[int],
        dtype,
        locations: Sequence[Loc],
    ) -> None:
        self.routine = routine
        self.dims: Tuple[int, ...] = routine.check_dims(dims)
        self.dtype = np.dtype(dtype)
        self.elem_size = dtype_size(dtype)
        if len(locations) != routine.opd:
            raise ModelError(
                f"{routine.name} has {routine.opd} operands, "
                f"got {len(locations)} locations"
            )
        self.operands: List[OperandInstance] = []
        for spec, loc in zip(routine.operands, locations):
            s1, s2 = spec.sizes(self.dims)
            self.operands.append(
                OperandInstance(spec, s1, s2, loc, dims=self.dims))
        self._sig: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # derived quantities used throughout Section III
    # ------------------------------------------------------------------

    @property
    def level(self) -> int:
        return self.routine.level

    @property
    def opd(self) -> int:
        return self.routine.opd

    def flops(self) -> float:
        return self.routine.flops(self.dims)

    def total_bytes(self) -> int:
        return self.routine.total_elements(self.dims) * self.elem_size

    def k(self, t: int) -> int:
        """Number of subkernels for tiling size ``t`` (paper's ``k``)."""
        if t <= 0:
            raise ModelError(f"non-positive tiling size {t}")
        if self.routine.subkernel_count is not None:
            return self.routine.subkernel_count(self.dims, t)
        k = 1
        for d in self.dims:
            k *= math.ceil(d / t)
        return k

    def min_dim(self) -> int:
        return min(self.dims)

    def tile_bytes(self, t: int) -> int:
        """Bytes of one tile (T elements for vectors, T^2 for matrices).

        All matrix operands of a square-tiled problem share this size,
        which is why the paper writes a single ``t_h2d^T``.
        """
        has_matrix = any(not op.is_vector for op in self.operands)
        elems = t * t if has_matrix else t
        return elems * self.elem_size

    def fetched_operands(self) -> List[OperandInstance]:
        return [op for op in self.operands if op.get]

    def written_operands(self) -> List[OperandInstance]:
        return [op for op in self.operands if op.set]

    def n_get(self) -> int:
        return len(self.fetched_operands())

    def n_set(self) -> int:
        return len(self.written_operands())

    def signature(self) -> Tuple:
        """Hashable identity used for model/tile-choice caching.

        Memoized: problems are immutable after construction, and the
        serving dispatcher calls this per placement candidate (the
        ``str(dtype)`` alone is measurable at that rate).
        """
        sig = self._sig
        if sig is None:
            sig = self._sig = (
                self.routine.name,
                self.dims,
                str(self.dtype),
                tuple(op.loc.value for op in self.operands),
            )
        return sig

    def describe(self) -> str:
        locs = ",".join(f"{op.name}@{op.loc.value[0].upper()}" for op in self.operands)
        dims = "x".join(str(d) for d in self.dims)
        return f"{prefix_for(self.dtype)}{self.routine.name}({dims}; {locs})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoCoProblem {self.describe()}>"

    def __reduce__(self):
        # Operand specs hold shape lambdas that don't pickle; a problem
        # is fully determined by its signature, so rebuild from that.
        return (_restore_problem, self.signature())


def _restore_problem(routine_name: str, dims: Tuple[int, ...],
                     dtype_str: str, loc_values: Tuple[str, ...]) -> "CoCoProblem":
    """Rehydrate a pickled :class:`CoCoProblem` from its signature."""
    from ..blas.spec import get_routine

    return CoCoProblem(get_routine(routine_name), dims, np.dtype(dtype_str),
                       tuple(Loc(v) for v in loc_values))


def prefix_for(dtype) -> str:
    """BLAS dtype prefix ('d' for float64, 's' for float32)."""
    return "d" if np.dtype(dtype).itemsize == 8 else "s"


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def gemm_problem(
    m: int,
    n: int,
    k: int,
    dtype=np.float64,
    loc_a: Loc = Loc.HOST,
    loc_b: Loc = Loc.HOST,
    loc_c: Loc = Loc.HOST,
) -> CoCoProblem:
    """``C = alpha*A@B + beta*C`` with (D1, D2, D3) = (M, N, K)."""
    return CoCoProblem(GEMM, (m, n, k), dtype, (loc_a, loc_b, loc_c))


def gemv_problem(
    m: int,
    n: int,
    dtype=np.float64,
    loc_a: Loc = Loc.HOST,
    loc_x: Loc = Loc.HOST,
    loc_y: Loc = Loc.HOST,
) -> CoCoProblem:
    """``y = alpha*A@x + beta*y`` with (D1, D2) = (M, N)."""
    return CoCoProblem(GEMV, (m, n), dtype, (loc_a, loc_x, loc_y))


def axpy_problem(
    n: int,
    dtype=np.float64,
    loc_x: Loc = Loc.HOST,
    loc_y: Loc = Loc.HOST,
) -> CoCoProblem:
    """``y = alpha*x + y`` with (D1,) = (N,)."""
    return CoCoProblem(AXPY, (n,), dtype, (loc_x, loc_y))


def syrk_problem(
    n: int,
    k: int,
    dtype=np.float64,
    loc_a: Loc = Loc.HOST,
    loc_c: Loc = Loc.HOST,
) -> CoCoProblem:
    """``C = alpha*A@A^T + beta*C`` (symmetric C) with (D1, D2) = (N, K)."""
    return CoCoProblem(SYRK, (n, k), dtype, (loc_a, loc_c))
