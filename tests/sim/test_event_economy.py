"""What transfers cost the event heap: counts, not times.

Every simulated event is one heap entry ``[time, seq, fn, arg]``, and a
cancelled entry has its ``fn`` emptied.  These tests pin how many
entries a transfer pushes and cancels, so a change that adds events, or
cancels work that has already run, shows as a count.
"""

import pytest

from repro.baselines import CublasXtLibrary
from repro.sim import engine
from repro.sim.device import GpuDevice
from repro.sim.engine import Simulator
from repro.sim.link import Direction, DuplexLink, LinkDirectionConfig
from repro.sim.machine import get_testbed
from tests.machines import custom_machine

LAT = 1e-5
BW = 1e9  # 1 byte/ns
SL = 1.5
MB = 1_000_000


class HeapLog:
    """Every entry the simulator pops, with whether it was live then.

    A run that drains the heap pops every entry it pushed, so the log
    also counts the pushes.
    """

    def __init__(self, monkeypatch) -> None:
        self.popped = []
        pop = engine.heappop

        def logged_pop(heap):
            entry = pop(heap)
            self.popped.append((entry, entry[2] is not None))
            return entry

        monkeypatch.setattr(engine, "heappop", logged_pop)

    @property
    def pushes(self) -> int:
        return len(self.popped)

    @property
    def cancelled(self) -> int:
        """Entries cancelled before they reached the top of the heap."""
        return sum(1 for _, live in self.popped if not live)

    @property
    def cancelled_after_firing(self) -> list:
        """Entries that fired and were cancelled afterwards."""
        return [entry for entry, live in self.popped
                if live and entry[2] is None]

    def check_drained(self, sim: Simulator) -> None:
        assert not sim._heap
        # One sequence number per push, none skipped.
        assert next(sim._seqs) == self.pushes


@pytest.fixture()
def log(monkeypatch):
    return HeapLog(monkeypatch)


def make_link(sim):
    return DuplexLink(sim, LinkDirectionConfig(LAT, BW, SL),
                      LinkDirectionConfig(LAT, BW, SL))


class TestLoneTransfer:
    @pytest.mark.parametrize("direction", list(Direction))
    def test_two_pushes_no_cancellation(self, log, direction):
        sim = Simulator()
        make_link(sim).submit(direction, MB)
        sim.run()
        log.check_drained(sim)
        assert log.pushes == 2  # latency end, flow end
        assert log.cancelled == 0
        assert log.cancelled_after_firing == []

    def test_zero_bytes_is_one_push(self, log):
        sim = Simulator()
        make_link(sim).submit(Direction.H2D, 0)
        sim.run()
        log.check_drained(sim)
        assert log.pushes == 1
        assert log.cancelled == 0

    def test_device_copy_and_kernel(self, log):
        device = GpuDevice(custom_machine(), seed=1)
        stream = device.create_stream()
        device.memcpy_h2d_async(MB, stream)
        device.launch_async(1e-3, stream)
        device.synchronize()
        log.check_drained(device.sim)
        assert log.pushes == 3  # copy latency, copy flow, kernel
        assert log.cancelled == 0
        assert log.cancelled_after_firing == []


class TestOverlap:
    def test_simultaneous_pair(self, log):
        # d2h's flow starts after h2d's (same instant, later seq) and
        # ends first: h2d is re-planned at each, d2h never.
        sim = Simulator()
        link = make_link(sim)
        link.submit(Direction.H2D, MB)
        link.submit(Direction.D2H, MB)
        sim.run()
        log.check_drained(sim)
        assert log.cancelled == 2
        assert log.pushes == 2 * 2 + 2
        assert log.cancelled_after_firing == []

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_replan_per_opposite_flow_start_and_end(self, log, k):
        # One long h2d flows while k short d2h transfers start and end.
        sim = Simulator()
        link = make_link(sim)
        link.submit(Direction.H2D, 100 * MB)
        for _ in range(k):
            link.submit(Direction.D2H, MB)
        sim.run()
        log.check_drained(sim)
        assert link.stats(Direction.D2H).transfers == k
        assert log.cancelled == 2 * k
        assert log.pushes == 2 * (1 + k) + 2 * k
        assert log.cancelled_after_firing == []


def test_no_cancellation_targets_a_fired_event(log):
    """A whole cuBLASXt-like gemm: contended, noisy, many streams."""
    lib = CublasXtLibrary(get_testbed("testbed_ii"), seed=3)
    lib.gemm(2048, 2048, 2048, tile_size=512)
    assert log.cancelled > 0  # the pipeline did contend
    assert log.cancelled_after_firing == []
