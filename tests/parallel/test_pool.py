"""Unit tests for the deterministic process-pool layer."""

import os

import pytest

from repro.errors import ParallelError, WorkerError
from repro.parallel import default_chunksize, pmap, task_seed
from repro.parallel import pool as pool_mod


def _square(x):
    return x * x


def _add(x, y):
    return x + y


def _boom(x):
    if x == 3:
        raise ValueError("boom 42")
    return x


_TOKEN = "unset"


def _set_token(value):
    global _TOKEN
    _TOKEN = value


def _get_token(_):
    return _TOKEN


def _worker_flag(_):
    return pool_mod._IN_WORKER


def _pid(_):
    return os.getpid()


class TestWorkerCount:
    TASKS = [(i,) for i in range(4)]

    def test_defaults_are_serial(self):
        assert pmap(_pid, self.TASKS) == [os.getpid()] * 4
        assert pmap(_pid, self.TASKS, workers=None) == [os.getpid()] * 4

    def test_zero_workers_is_serial(self):
        assert pmap(_pid, self.TASKS, workers=0) == [os.getpid()] * 4

    def test_pool_above_one(self):
        pids = pmap(_pid, self.TASKS, workers=2)
        assert os.getpid() not in pids

    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelError, match="workers"):
            pmap(_square, self.TASKS, workers=-1)

    def test_takes_no_chunksize(self):
        with pytest.raises(TypeError, match="chunksize"):
            pmap(_square, self.TASKS, workers=2, chunksize=3)

    def test_none_and_int_forms_agree(self):
        expected = [i * i for i in range(4)]
        assert pmap(_square, self.TASKS, workers=None) == expected
        assert pmap(_square, self.TASKS, workers=3) == expected

    @pytest.mark.parametrize("bad", [True, "4", 2.0])
    def test_rejects_bool_and_junk(self, bad):
        with pytest.raises(ParallelError, match="workers"):
            pmap(_square, self.TASKS, workers=bad)

    def test_serial_inside_worker(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_IN_WORKER", True)
        assert pmap(_pid, self.TASKS, workers=8) == [os.getpid()] * 4


class TestPmapEdgeCases:
    def test_empty_task_list(self):
        assert pmap(_square, [], workers=4) == []

    def test_single_task_runs_serially(self):
        assert pmap(_square, [(7,)], workers=4) == [49]

    def test_non_tuple_task_rejected(self):
        with pytest.raises(ParallelError, match="not a tuple"):
            pmap(_square, [3], workers=2)

    def test_serial_matches_parallel(self):
        tasks = [(i,) for i in range(13)]
        serial = pmap(_square, tasks)
        assert serial == [i * i for i in range(13)]
        assert pmap(_square, tasks, workers=1) == serial
        assert pmap(_square, tasks, workers=2) == serial
        assert pmap(_square, tasks, workers=4) == serial

    def test_submission_order_with_multi_arg_tasks(self):
        tasks = [(i, 100 * i) for i in range(9)]
        assert pmap(_add, tasks, workers=3) == [101 * i for i in range(9)]

    def test_worker_exception_carries_original_traceback(self):
        tasks = [(i,) for i in range(6)]
        with pytest.raises(WorkerError) as exc_info:
            pmap(_boom, tasks, workers=2)
        assert "ValueError: boom 42" in exc_info.value.traceback_text
        assert "ValueError: boom 42" in str(exc_info.value)
        # The worker-side frame survives the process boundary.
        assert "_boom" in exc_info.value.traceback_text

    def test_serial_exception_is_the_original(self):
        # workers=1 takes the in-process path: no wrapping at all.
        with pytest.raises(ValueError, match="boom 42"):
            pmap(_boom, [(i,) for i in range(6)], workers=1)

    def test_initializer_runs_in_workers_only(self):
        tasks = [(i,) for i in range(8)]
        got = pmap(_get_token, tasks, workers=2,
                   initializer=_set_token, initargs=("warm",))
        assert got == ["warm"] * 8
        # Serial path: the parent is already warm, initializer skipped.
        assert _TOKEN == "unset"
        assert pmap(_get_token, tasks, workers=1,
                    initializer=_set_token,
                    initargs=("warm",)) == ["unset"] * 8

    def test_workers_are_marked_as_workers(self):
        # Nested pmap inside a worker must degrade to serial; the flag
        # that enforces it is set by the bootstrap initializer.
        assert not pool_mod._IN_WORKER
        flags = pmap(_worker_flag, [(i,) for i in range(4)], workers=2)
        assert flags == [True] * 4
        assert not pool_mod._IN_WORKER


class TestChunking:
    def test_chunksize_bounds(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1, 4) == 1
        assert default_chunksize(100, 4) >= 1

    def test_chunks_cover_grid(self):
        for ntasks in (1, 7, 16, 100):
            for workers in (2, 4, 8):
                cs = default_chunksize(ntasks, workers)
                nchunks = -(-ntasks // cs)
                assert nchunks * cs >= ntasks
                assert (nchunks - 1) * cs < ntasks


class TestTaskSeed:
    def test_deterministic(self):
        assert task_seed(7, "a", 3) == task_seed(7, "a", 3)

    def test_path_sensitive(self):
        seeds = {task_seed(7), task_seed(7, 1), task_seed(7, 2),
                 task_seed(7, "a"), task_seed(7, "b"),
                 task_seed(7, "a", 1), task_seed(8, "a")}
        assert len(seeds) == 7

    def test_sibling_indices_distinct(self):
        # Grid neighbours under the same parent path never collide.
        seeds = {task_seed(7, "d2h", "uni", i) for i in range(64)}
        assert len(seeds) == 64

    def test_trailing_zero_padding_caveat(self):
        # SeedSequence pads with zeros: a path ending in 0 equals its
        # parent.  Documented in task_seed; call sites use fixed-depth
        # paths so a parent path is never itself handed out as a seed.
        assert task_seed(7, "uni", 0) == task_seed(7, "uni")

    def test_plain_int_range(self):
        s = task_seed(1234, "d2h", "uni", 4096)
        assert isinstance(s, int)
        assert 0 <= s < 2 ** 32
