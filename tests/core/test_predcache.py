"""Tests for the memoized tile-choice cache.

The cache is a pure memo: everything it returns must be bit-identical
to what the uncached path computes, or traces and serve reports would
change with cache state.
"""

import pytest

from repro.core.exec_model import ExecLookup
from repro.core.instantiation import MachineModels
from repro.core.params import gemm_problem
from repro.core.predcache import PredictionCache
from repro.core.select import select_tile
from repro.core.transfer_model import LinkModel, TransferFit


def make_models(scale=1.0):
    link = LinkModel(
        TransferFit(latency=1e-5, sec_per_byte=1e-9 * scale, sl=1.2),
        TransferFit(latency=1e-5, sec_per_byte=2e-9 * scale, sl=1.5),
    )
    mm = MachineModels("synthetic", link)
    mm.add_exec_lookup(ExecLookup("gemm", "d", {
        256: 1e-3 * scale, 512: 4e-3 * scale,
        1024: 3e-2 * scale, 2048: 2.3e-1 * scale,
    }))
    mm.add_exec_lookup(ExecLookup("axpy", "d", {
        1 << 18: 1e-4 * scale, 1 << 20: 4e-4 * scale,
        1 << 22: 1.6e-3 * scale,
    }))
    return mm


@pytest.fixture()
def models():
    return make_models()


class TestPredictionCache:
    def test_choice_matches_uncached_bit_exact(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        cached = cache.choice(p, models, model="dr")
        plain = select_tile(p, models, model="dr")
        assert cached.t_best == plain.t_best
        assert cached.predicted_time == plain.predicted_time  # bit-exact
        assert cached.model == plain.model
        assert cached.per_tile == plain.per_tile  # every T, bit-exact

    def test_second_choice_is_a_hit(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        first = cache.choice(p, models)
        second = cache.choice(p, models)
        assert second is first
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_equal_problems_share_an_entry(self, models):
        cache = PredictionCache()
        a = cache.choice(gemm_problem(4096, 4096, 4096), models)
        b = cache.choice(gemm_problem(4096, 4096, 4096), models)
        assert b is a

    def test_auto_resolves_before_keying(self, models):
        """model='auto' and its resolved name share one cache entry."""
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        assert cache.choice(p, models, model="auto") is cache.choice(
            p, models, model="dr")
        assert cache.stats.misses == 1

    def test_distinct_models_instances_do_not_collide(self, models):
        slower = make_models(scale=2.0)
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        fast = cache.choice(p, models)
        slow = cache.choice(p, slower)
        assert cache.stats.misses == 2
        assert slow.predicted_time > fast.predicted_time
        assert slow.predicted_time == select_tile(p, slower).predicted_time

    def test_model_names_do_not_collide(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        bts = cache.choice(p, models, model="bts")
        dr = cache.choice(p, models, model="dr")
        assert cache.stats.misses == 2
        assert (bts.model, dr.model) == ("bts", "dr")
        assert bts.per_tile == select_tile(p, models, model="bts").per_tile
        assert dr.per_tile == select_tile(p, models, model="dr").per_tile

    def test_distinct_problems_do_not_collide(self, models):
        cache = PredictionCache()
        big = cache.choice(gemm_problem(4096, 4096, 4096), models)
        small = cache.choice(gemm_problem(2048, 2048, 2048), models)
        assert cache.stats.misses == 2
        assert small.predicted_time < big.predicted_time

    def test_select_tile_with_cache_uses_the_memo(self, models):
        p = gemm_problem(4096, 4096, 4096)
        cache = PredictionCache()
        first = select_tile(p, models, cache=cache)
        again = select_tile(p, models, cache=cache)
        assert again is first
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        assert first.per_tile == select_tile(p, models).per_tile

    def test_models_instance_pinned(self, models):
        """The cache holds a strong ref so id() keys cannot be reused."""
        cache = PredictionCache()
        cache.choice(gemm_problem(4096, 4096, 4096), models)
        assert models in cache._pinned.values()
