"""Square tile decomposition and address matching.

The paper's libraries split matrices into ``T x T`` squares (vectors
into length-``T`` chunks).  These grids own the index arithmetic: tile
counts, per-tile shapes including ragged edges, and the host offsets
each tile maps to.  Both grids answer one question,
``tile(i, j=0) -> (origin, shape)``, with one entry per axis (a chunk
is a tile of rank 1), so the schedulers fetch, write back and read
back every tile the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..errors import SchedulerError


def _span_table(n: int, t: int, n_tiles: int) -> Tuple[Tuple[int, int], ...]:
    """All ``(offset, length)`` chunk spans, built in one numpy pass.

    ``tolist()`` yields Python ints, so the table entries are
    value-identical to the scalar ``i * t`` / ``min(t, n - off)``
    arithmetic they replace.
    """
    offs = np.arange(n_tiles, dtype=np.int64) * t
    lens = np.minimum(t, n - offs)
    return tuple(zip(offs.tolist(), lens.tolist()))


@dataclass(frozen=True)
class Grid1D:
    """A length-``n`` vector split into chunks of ``t`` elements."""

    n: int
    t: int

    #: How tile ``(i, j)`` is written in tags and buffer names.
    TILE_TAG = "[{0}]"

    def __post_init__(self) -> None:
        if self.n <= 0 or self.t <= 0:
            raise SchedulerError(f"invalid 1-D grid: n={self.n}, t={self.t}")
        # Tile count precomputed once: schedulers read it per subkernel.
        # (Plain attribute on a frozen dataclass — not a field, so it
        # does not affect eq/hash/repr.)
        object.__setattr__(self, "n_tiles", math.ceil(self.n / self.t))
        # Span table vectorized up front: the tile schedulers call
        # tile() several times per chunk (fetch + writeback +
        # read-back), so per-call arithmetic becomes a tuple lookup.
        object.__setattr__(self, "spans", _span_table(self.n, self.t,
                                                      self.n_tiles))

    def tile(self, i: int, j: int = 0) -> Tuple[Tuple[int], Tuple[int]]:
        """``((offset,), (length,))`` of chunk ``i`` (``j`` unused)."""
        if not 0 <= i < self.n_tiles:
            raise SchedulerError(f"chunk index {i} out of range [0, {self.n_tiles})")
        off, length = self.spans[i]
        return (off,), (length,)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_tiles))


@dataclass(frozen=True)
class Grid2D:
    """A ``rows x cols`` matrix split into ``t x t_col`` tiles.

    ``t_col`` defaults to ``t`` (the paper's square tiling); passing a
    different value gives the rectangular tiling of the paper's
    future-work extension (see :mod:`repro.core.rect`).
    """

    rows: int
    cols: int
    t: int
    t_col: int = 0  # 0 means "same as t"

    TILE_TAG = "({0},{1})"

    def __post_init__(self) -> None:
        if self.t_col == 0:
            object.__setattr__(self, "t_col", self.t)
        if self.rows <= 0 or self.cols <= 0 or self.t <= 0 or self.t_col <= 0:
            raise SchedulerError(
                f"invalid 2-D grid: {self.rows}x{self.cols}, "
                f"t={self.t}x{self.t_col}"
            )
        # Tile counts precomputed once: tile() and the scheduler
        # inner loops read them per subkernel.  (Plain attributes on a
        # frozen dataclass — not fields, so eq/hash/repr are unchanged.)
        set_ = object.__setattr__
        set_(self, "row_tiles", math.ceil(self.rows / self.t))
        set_(self, "col_tiles", math.ceil(self.cols / self.t_col))
        set_(self, "n_tiles", self.row_tiles * self.col_tiles)
        # Per-axis span tables vectorized up front (see Grid1D.spans);
        # tile() composes one row span and one column span.
        set_(self, "row_spans", _span_table(self.rows, self.t,
                                            self.row_tiles))
        set_(self, "col_spans", _span_table(self.cols, self.t_col,
                                            self.col_tiles))

    def tile(self, i: int, j: int = 0
             ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """``((row0, col0), (rows, cols))`` of tile (i, j), edge-aware."""
        if not (0 <= i < self.row_tiles and 0 <= j < self.col_tiles):
            raise SchedulerError(
                f"tile ({i}, {j}) out of range "
                f"[0,{self.row_tiles})x[0,{self.col_tiles})"
            )
        r0, rows = self.row_spans[i]
        c0, cols = self.col_spans[j]
        return (r0, c0), (rows, cols)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for i in range(self.row_tiles):
            for j in range(self.col_tiles):
                yield i, j
