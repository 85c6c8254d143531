"""Cached and uncached tile selection drive identical executions.

:class:`~repro.core.predcache.PredictionCache` is a pure memo: a
library that selects its tile through the cache must pick the same
``T`` and replay the same event stream as one that selects without it,
on the first (miss) call and on a repeat (hit) call alike.
"""

import pytest

from repro.core.predcache import PredictionCache
from repro.runtime import CoCoPeLiaLibrary


def _events(lib):
    return [(ev.engine, ev.tag, ev.start, ev.end, ev.nbytes, ev.flops)
            for ev in lib.last_trace.events]


@pytest.fixture(scope="module")
def runs(tb2, models_tb2):
    """Two gemm calls each on an uncached and a cached library."""
    cache = PredictionCache()
    out = {}
    for name, kwargs in (("uncached", {}),
                         ("cached", {"prediction_cache": cache})):
        lib = CoCoPeLiaLibrary(tb2, models_tb2, seed=7, trace=True,
                               **kwargs)
        calls = []
        for _ in range(2):
            hits = cache.stats.hits
            result = lib.gemm(m=2048, n=2048, k=2048)
            calls.append((result.seconds, result.tile_size, _events(lib),
                          cache.stats.hits - hits))
        out[name] = calls
    return out


def test_second_cached_call_hits(runs):
    (_, _, _, first_hits), (_, _, _, second_hits) = runs["cached"]
    assert first_hits == 0
    assert second_hits == 1


@pytest.mark.parametrize("call", [0, 1], ids=["miss", "hit"])
def test_identical_execution(runs, call):
    sec_u, tile_u, ev_u, _ = runs["uncached"][call]
    sec_c, tile_c, ev_c, _ = runs["cached"][call]
    assert ev_u
    assert tile_c == tile_u
    assert sec_c == sec_u
    assert ev_c == ev_u
