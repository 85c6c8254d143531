"""Tests for CUDA-like streams, events, compute engine, and the device."""

import pytest

from repro.errors import DeviceMemoryError, SimulationError, StreamError
from repro.sim.device import GpuDevice
from repro.sim.link import Direction
from tests.machines import custom_machine
from repro.units import gib


@pytest.fixture()
def dev():
    return GpuDevice(custom_machine(noise_sigma=0.0), trace=True)


H2D_BW = 8e9  # custom_machine default 8 GB/s
LAT = 5e-6


def event_complete(ev) -> bool:
    """cudaEventQuery: the event's captured work has all finished."""
    return ev._recorded and (ev._marker is None or ev._marker.done)


class TestStreamOrdering:
    def test_same_stream_serializes(self, dev):
        s = dev.create_stream()
        dev.launch_async(1e-3, s, tag="k1")
        dev.launch_async(1e-3, s, tag="k2")
        end = dev.synchronize()
        assert end == pytest.approx(2e-3)

    def test_different_streams_overlap_kernels_serialize_on_engine(self, dev):
        s1, s2 = dev.create_stream(), dev.create_stream()
        dev.launch_async(1e-3, s1)
        dev.launch_async(1e-3, s2)
        # One kernel engine: they serialize even on different streams.
        assert dev.synchronize() == pytest.approx(2e-3)

    def test_transfer_and_kernel_overlap_across_streams(self, dev):
        s1, s2 = dev.create_stream(), dev.create_stream()
        nbytes = int(8e6)  # 1 ms at 8 GB/s
        dev.memcpy_h2d_async(nbytes, s1)
        dev.launch_async(1e-3, s2)
        end = dev.synchronize()
        assert end == pytest.approx(max(1e-3, LAT + nbytes / H2D_BW), rel=1e-6)

    def test_transfer_then_kernel_same_stream_serial(self, dev):
        s = dev.create_stream()
        nbytes = int(8e6)
        dev.memcpy_h2d_async(nbytes, s)
        dev.launch_async(1e-3, s)
        end = dev.synchronize()
        assert end == pytest.approx(LAT + nbytes / H2D_BW + 1e-3, rel=1e-6)


class TestEvents:
    def test_cross_stream_event_ordering(self, dev):
        s1, s2 = dev.create_stream(), dev.create_stream()
        dev.launch_async(2e-3, s1, tag="producer")
        ev = s1.record_event()
        s2.wait_event(ev)
        dev.memcpy_d2h_async(0, s2, tag="consumer")
        end = dev.synchronize()
        assert end == pytest.approx(2e-3 + LAT, rel=1e-6)

    def test_event_on_empty_stream_is_complete(self, dev):
        s = dev.create_stream()
        ev = s.record_event()
        assert event_complete(ev)

    def test_wait_unrecorded_event_rejected(self, dev):
        from repro.sim.stream import CudaEvent

        s = dev.create_stream()
        with pytest.raises(StreamError):
            s.wait_event(CudaEvent())

    def test_event_complete_transitions(self, dev):
        s = dev.create_stream()
        dev.launch_async(1e-3, s)
        ev = s.record_event()
        assert not event_complete(ev)
        dev.synchronize()
        assert event_complete(ev)

    def test_wait_event_only_affects_later_ops(self, dev):
        """Ops enqueued BEFORE wait_event are not delayed by it."""
        s1, s2 = dev.create_stream(), dev.create_stream()
        first = dev.launch_async(1e-3, s2, tag="early")
        dev.launch_async(5e-3, s1)
        ev = s1.record_event()
        s2.wait_event(ev)
        dev.memcpy_d2h_async(0, s2, tag="late")
        done_time = {}
        first.on_done(lambda: done_time.setdefault("early", dev.sim.now))
        dev.synchronize()
        assert done_time["early"] <= 5e-3


class TestStreamSync:
    def test_stream_synchronize_partial(self, dev):
        s1, s2 = dev.create_stream(), dev.create_stream()
        dev.launch_async(1e-3, s1)
        dev.launch_async(5e-3, s2)
        s1.synchronize()
        assert dev.sim.now < 5e-3
        dev.synchronize()

    def test_empty_stream_sync_is_noop(self, dev):
        s = dev.create_stream()
        s.synchronize()
        assert dev.sim.now == 0.0

    def test_idle_property(self, dev):
        s = dev.create_stream()
        assert s.idle
        dev.launch_async(1e-3, s)
        assert not s.idle
        dev.synchronize()
        assert s.idle


class TestMemoryAccounting:
    def test_alloc_free_cycle(self, dev):
        buf = dev.alloc(1 << 20)
        assert dev.mem_capacity - dev.mem_free == 1 << 20
        dev.free(buf)
        assert dev.mem_free == dev.mem_capacity

    def test_oom_raises(self, dev):
        with pytest.raises(DeviceMemoryError) as exc:
            dev.alloc(gib(9))  # capacity is 8 GiB
        assert exc.value.requested == gib(9)

    def test_oom_boundary_exact_fit(self, dev):
        buf = dev.alloc(dev.mem_capacity)
        assert dev.mem_free == 0
        dev.free(buf)

    def test_double_free_rejected(self, dev):
        buf = dev.alloc(100)
        dev.free(buf)
        with pytest.raises(SimulationError):
            dev.free(buf)

    def test_with_data_requires_shape(self, dev):
        with pytest.raises(SimulationError):
            dev.alloc(100, with_data=True)

    def test_with_data_materializes_array(self, dev):
        import numpy as np

        buf = dev.alloc(800, shape=(10, 10), dtype=np.float64, with_data=True)
        assert buf.array is not None
        assert buf.array.shape == (10, 10)


class TestPayloads:
    def test_payload_runs_at_completion_time(self, dev):
        s = dev.create_stream()
        times = []
        dev.launch_async(1e-3, s, payload=lambda: times.append(dev.sim.now))
        dev.synchronize()
        assert times == [pytest.approx(1e-3)]

    def test_payloads_run_in_dependency_order(self, dev):
        s_in, s_ex = dev.create_stream(), dev.create_stream()
        order = []
        dev.memcpy_h2d_async(8000, s_in, payload=lambda: order.append("copy"))
        ev = s_in.record_event()
        s_ex.wait_event(ev)
        dev.launch_async(1e-6, s_ex, payload=lambda: order.append("kernel"))
        dev.synchronize()
        assert order == ["copy", "kernel"]


class TestCounters:
    def test_transfer_counters(self, dev):
        s = dev.create_stream()
        dev.memcpy_h2d_async(1000, s)
        dev.memcpy_h2d_async(2000, s)
        dev.memcpy_d2h_async(500, s)
        dev.synchronize()
        assert dev.transfer_count(Direction.H2D) == 2
        assert dev.transfer_count(Direction.D2H) == 1
        assert dev.bytes_moved(Direction.H2D) == 3000
        assert dev.bytes_moved(Direction.D2H) == 500

    def test_kernel_counter(self, dev):
        s = dev.create_stream()
        for _ in range(3):
            dev.launch_async(1e-4, s)
        dev.synchronize()
        assert dev.compute.kernels_run == 3

    def test_negative_kernel_duration_rejected(self, dev):
        s = dev.create_stream()
        with pytest.raises(SimulationError):
            dev.launch_async(-1.0, s)


class TestTraceIntegration:
    def test_trace_engines(self, dev):
        s = dev.create_stream()
        dev.memcpy_h2d_async(1000, s, tag="in")
        dev.launch_async(1e-4, s, tag="k")
        dev.memcpy_d2h_async(1000, s, tag="out")
        dev.synchronize()
        assert dev.trace is not None
        engines = {ev.engine for ev in dev.trace.events}
        assert engines == {"h2d", "exec", "d2h"}

    def test_three_way_pipeline_steady_state(self, dev):
        """Classic 3-way pipeline: with k chunks, makespan approaches
        fill + (k-1)*bottleneck + drain."""
        k = 8
        nbytes = int(8e6)  # 1 ms per transfer
        kernel = 2e-3      # kernel is the bottleneck
        s_in = dev.create_stream()
        s_ex = dev.create_stream()
        s_out = dev.create_stream()
        for i in range(k):
            dev.memcpy_h2d_async(nbytes, s_in, tag=f"in{i}")
            ev = s_in.record_event()
            s_ex.wait_event(ev)
            dev.launch_async(kernel, s_ex, tag=f"k{i}")
            ev2 = s_ex.record_event()
            s_out.wait_event(ev2)
            dev.memcpy_d2h_async(nbytes, s_out, tag=f"out{i}")
        end = dev.synchronize()
        t_in = LAT + nbytes / H2D_BW
        # Bottleneck is the kernel; the last chunk's input transfer and
        # output transfer are not hidden.
        lower = t_in + k * kernel
        upper = t_in + k * kernel + 2 * (LAT + nbytes / H2D_BW) * 1.5
        assert lower <= end <= upper
