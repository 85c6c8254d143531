"""Deterministic per-task seed derivation for the fan-out layer.

Parallel determinism hinges on seeds being a pure function of the task
*identity*, never of execution order: every task's seed is derived up
front from a root seed plus the task's coordinates in its grid (edge
index, tile size, ...), so serial and parallel executions feed
bit-identical seeds to bit-identical simulations.

Derivation uses :class:`numpy.random.SeedSequence`, whose spawn
hashing guarantees well-separated substreams for distinct coordinate
paths — neighbouring task indices do not produce correlated noise the
way ``seed + i`` arithmetic can.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

PathEntry = Union[int, str]


def _entry_to_int(entry: PathEntry) -> int:
    if isinstance(entry, str):
        return zlib.crc32(entry.encode("utf-8"))
    return int(entry)


def task_seed(root: int, *path: PathEntry) -> int:
    """A deterministic seed for the task at ``path`` under ``root``.

    ``path`` entries may be ints (grid indices) or strings (direction
    names, routine names); strings hash via CRC-32 so the same path
    always yields the same seed on any platform.

    Caveat: ``SeedSequence`` treats trailing zero words as padding, so
    a path ending in ``0`` collides with its parent path
    (``task_seed(r, "uni") == task_seed(r, "uni", 0)``).  Callers must
    therefore never hand out a prefix of another task's path as a seed
    path of its own — the fan-out sites all use fixed-depth paths per
    grid, where this cannot arise.
    """
    entries = (int(root),) + tuple(_entry_to_int(p) for p in path)
    ss = np.random.SeedSequence(entries)
    return int(ss.generate_state(1)[0])
