"""Tests for tile grids and the device tile cache."""

import numpy as np
import pytest

from repro.backend.cublas import CublasContext
from repro.errors import SchedulerError
from repro.runtime.cache import TileCache, TileEntry
from repro.runtime.tiles import Grid1D, Grid2D
from repro.sim.device import GpuDevice
from tests.machines import custom_machine


class TestGrid1D:
    def test_exact_division(self):
        g = Grid1D(1000, 250)
        assert g.n_tiles == 4
        assert g.tile(0) == ((0,), (250,))
        assert g.tile(3) == ((750,), (250,))

    def test_ragged_edge(self):
        g = Grid1D(1000, 300)
        assert g.n_tiles == 4
        assert g.tile(3) == ((900,), (100,))

    def test_tile_larger_than_vector(self):
        g = Grid1D(100, 300)
        assert g.n_tiles == 1
        assert g.tile(0) == ((0,), (100,))

    def test_spans_cover_exactly(self):
        g = Grid1D(1234, 100)
        total = sum(g.tile(i)[1][0] for i in g)
        assert total == 1234

    def test_out_of_range_rejected(self):
        with pytest.raises(SchedulerError):
            Grid1D(100, 10).tile(10)

    def test_invalid_params_rejected(self):
        with pytest.raises(SchedulerError):
            Grid1D(0, 10)
        with pytest.raises(SchedulerError):
            Grid1D(10, 0)


class TestGrid2D:
    def test_exact_division(self):
        g = Grid2D(1000, 600, 200)
        assert (g.row_tiles, g.col_tiles) == (5, 3)
        assert g.tile(0, 0) == ((0, 0), (200, 200))
        assert g.tile(4, 2) == ((800, 400), (200, 200))

    def test_ragged_edges(self):
        g = Grid2D(1000, 700, 300)
        assert (g.row_tiles, g.col_tiles) == (4, 3)
        assert g.tile(3, 2) == ((900, 600), (100, 100))
        assert g.tile(0, 2) == ((0, 600), (300, 100))

    def test_clamped_tile(self):
        g = Grid2D(100, 5000, 1024)
        assert g.row_tiles == 1
        assert g.tile(0, 0) == ((0, 0), (100, 1024))

    def test_windows_partition_matrix(self):
        g = Grid2D(777, 555, 128)
        covered = np.zeros((777, 555), dtype=int)
        for i, j in g:
            (r0, c0), (rows, cols) = g.tile(i, j)
            covered[r0:r0 + rows, c0:c0 + cols] += 1
        assert np.all(covered == 1)

    def test_n_tiles(self):
        g = Grid2D(512, 512, 100)
        assert g.n_tiles == 36

    def test_out_of_range_rejected(self):
        with pytest.raises(SchedulerError):
            Grid2D(100, 100, 10).tile(10, 0)


class TestTileCache:
    @pytest.fixture()
    def ctx(self):
        return CublasContext(GpuDevice(custom_machine(noise_sigma=0.0)))

    def _entry(self, ctx, t=16):
        return TileEntry(tile=ctx.alloc((t, t), np.float64))

    def test_insert_and_get(self, ctx):
        cache = TileCache(ctx)
        entry = self._entry(ctx)
        cache.insert(("A", 0, 0), entry)
        assert cache.get(("A", 0, 0)) is entry
        assert ("A", 0, 0) in cache
        assert len(cache) == 1

    def test_missing_tile_raises(self, ctx):
        with pytest.raises(SchedulerError):
            TileCache(ctx).get(("A", 0, 0))

    def test_double_insert_rejected(self, ctx):
        cache = TileCache(ctx)
        cache.insert(("A", 0, 0), self._entry(ctx))
        with pytest.raises(SchedulerError):
            cache.insert(("A", 0, 0), self._entry(ctx))

    def test_get_is_a_pure_lookup(self, ctx):
        """get() serves writebacks/read-backs and must not count as a
        reuse hit — only the fetch-path probe (lookup) feeds the
        DR-model reuse statistics."""
        cache = TileCache(ctx)
        cache.insert(("C", 0, 0), self._entry(ctx))
        for _ in range(3):
            cache.get(("C", 0, 0))
        assert cache.hits == 0
        assert cache.fetches == 1

    def test_lookup_counts_only_found_tiles(self, ctx):
        cache = TileCache(ctx)
        assert cache.lookup(("A", 0, 0)) is None
        assert cache.hits == 0
        entry = cache.insert(("A", 0, 0), self._entry(ctx))
        assert cache.lookup(("A", 0, 0)) is entry
        assert cache.lookup(("A", 0, 0)) is entry
        assert cache.hits == 2

    def test_free_all_releases_memory(self, ctx):
        cache = TileCache(ctx)
        cache.insert(("A", 0, 0), self._entry(ctx))
        assert ctx.device.mem_free < ctx.device.mem_capacity
        cache.free_all()
        assert ctx.device.mem_free == ctx.device.mem_capacity
        assert len(cache) == 0

    def test_stream_wait_only_once_per_stream(self, ctx):
        dev = ctx.device
        s_h2d = dev.create_stream("h")
        s_exec = dev.create_stream("e")
        dev.memcpy_h2d_async(1000, s_h2d)
        entry = TileEntry(tile=ctx.alloc((4, 4), np.float64),
                          ready=s_h2d.record_event())
        entry.make_stream_wait(s_exec)
        entry.make_stream_wait(s_exec)
        # Second wait is a no-op: only one pending wait registered.
        assert len(s_exec._pending_waits) == 1
        dev.launch_async(1e-6, s_exec)
        dev.synchronize()
