"""Memoized tile choices (hot-path pass).

Tile selection sweeps every benchmarked candidate ``T`` through a
prediction model; the serving dispatcher does this once per placement
and once per batch launch, the library once per call.  Most selections
repeat the exact same (models, model, problem) triple — serving asks
about a few problem shapes thousands of times — so this module provides a :class:`PredictionCache` that memoizes whole
:class:`~repro.core.select.TileChoice` results.

Keys combine the *instance* of the deployed
:class:`~repro.core.instantiation.MachineModels` (two machines predict
differently for the same problem), the resolved model name and the
problem's :meth:`~repro.core.params.CoCoProblem.signature`.  Cached
values are exactly what the uncached path would compute — the cache is
a pure memo, so traces, makespans, and serve reports are byte-identical
with and without it (checked by ``tests/runtime/test_cached_selection.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from .instantiation import MachineModels
from .params import CoCoProblem
from .registry import resolve_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (select uses us)
    from .select import TileChoice


@dataclass
class PredCacheStats:
    """Hit/miss counters of one :class:`PredictionCache`."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class PredictionCache:
    """Memo for tile choices.

    One cache instance may be shared across consumers (library calls,
    dispatchers, experiment sweeps) that score the same machine models;
    the models instance is part of every key, so a shared cache is also
    safe across *different* machines.
    """

    def __init__(self) -> None:
        self._choices: Dict[Tuple, "TileChoice"] = {}
        #: Strong refs keep cached MachineModels instances alive so an
        #: ``id()`` is never reused by a different instance mid-life.
        self._pinned: Dict[int, MachineModels] = {}
        self.stats = PredCacheStats()

    def choice(
        self,
        problem: CoCoProblem,
        models: MachineModels,
        model: str = "auto",
    ) -> "TileChoice":
        """Memoized :func:`~repro.core.select.select_tile` result."""
        model_key = resolve_model(model, problem)
        key = (id(models), model_key, problem.signature())
        choice = self._choices.get(key)
        if choice is not None:
            self.stats.hits += 1
            return choice
        self.stats.misses += 1
        from .select import select_tile  # deferred: select imports us

        choice = select_tile(problem, models, model=model_key)
        self._pinned.setdefault(key[0], models)
        self._choices[key] = choice
        return choice
