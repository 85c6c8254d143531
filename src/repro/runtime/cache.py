"""Device tile cache: fetch-once data reuse (paper Sections III-B.3, IV-C).

Each (operand, i, j) tile — a matrix tile or, with ``j = 0``, a vector
chunk — is transferred to the GPU at most once and then reused by
every subkernel that needs it — the behaviour the DR model (Eq. 5)
assumes.  Tiles of device-resident operands are registered without any
transfer.  Every tile scheduler fetches through this one store (see
:meth:`repro.runtime.scheduler._PipelineBase._fetch`).

Problems must fit in device memory; the paper explicitly scopes out
larger problems ("that would require a considerably more sophisticated
implementation of overlap with memory constraints"), so exceeding the
capacity raises :class:`~repro.errors.DeviceMemoryError` instead of
evicting.  Under injected memory pressure the routine layer catches
that error and re-runs the schedule with a smaller ``T`` (see the
degradation ladder in :mod:`repro.runtime.routines`); the cache itself
never evicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, ItemsView, Optional, Set, Tuple

from ..backend.cublas import CublasContext
from ..errors import SchedulerError
from ..sim.memory import DeviceBuffer
from ..sim.stream import CudaEvent, Operation, Stream

TileKey = Tuple[str, int, int]


@dataclass
class TileEntry:
    """One resident device tile (a matrix tile or a vector chunk)."""

    tile: DeviceBuffer
    #: Completion event of the fetch; None for device-resident tiles.
    ready: Optional[CudaEvent] = None
    #: The fetch transfer itself; under fault injection its ``attempts``
    #: counts the retries this tile needed before landing cleanly.
    fetch_op: Optional[Operation] = None
    #: Streams that have already synchronized with ``ready`` — later
    #: work on those streams is ordered by the stream itself.
    _waited: Set[str] = field(default_factory=set)

    def make_stream_wait(self, stream: Stream) -> None:
        """Ensure subsequent work on ``stream`` sees this tile's data."""
        if self.ready is None:
            return
        if stream.name in self._waited:
            return
        stream.wait_event(self.ready)
        self._waited.add(stream.name)


class TileCache:
    """Maps tile keys to resident device tiles."""

    def __init__(self, ctx: CublasContext) -> None:
        self._ctx = ctx
        self._tiles: Dict[TileKey, TileEntry] = {}
        self.fetches = 0
        self.hits = 0

    def __contains__(self, key: TileKey) -> bool:
        return key in self._tiles

    def __len__(self) -> int:
        return len(self._tiles)

    def get(self, key: TileKey) -> TileEntry:
        """Plain lookup of a resident tile; raises if absent.

        Does *not* count as a reuse hit: writebacks and verification
        read-backs retrieve tiles through here, and counting those
        would inflate the DR-model reuse statistics.  Reuse accounting
        happens in :meth:`lookup`, which the schedulers' fetch path
        goes through.
        """
        try:
            return self._tiles[key]
        except KeyError:
            raise SchedulerError(f"tile {key} not resident") from None

    def lookup(self, key: TileKey) -> Optional[TileEntry]:
        """Reuse probe: the resident tile, counted as a hit, or None.

        Single dict probe (no separate ``in`` check), used by the
        scheduler fetch paths; only lookups that actually found a
        reusable tile increment ``hits``.
        """
        entry = self._tiles.get(key)
        if entry is not None:
            self.hits += 1
        return entry

    def insert(self, key: TileKey, entry: TileEntry) -> TileEntry:
        if key in self._tiles:
            raise SchedulerError(f"tile {key} inserted twice")
        self._tiles[key] = entry
        self.fetches += 1
        return entry

    def free_all(self) -> None:
        free = self._ctx.device.free
        for entry in self._tiles.values():
            free(entry.tile)
        self._tiles.clear()

    def items(self) -> ItemsView[TileKey, TileEntry]:
        """Resident tiles in fetch order (not counted as reuse hits)."""
        return self._tiles.items()
