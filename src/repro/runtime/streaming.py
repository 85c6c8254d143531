"""Streaming distributed gemv: compute as operands land.

``y = A @ x`` with A too large (or too cold) to stage: each GPU owns a
column shard of A and of x and *streams* them over its own PCIe lane in
width-``c`` chunks — the x chunk, then the ``M x c`` A panel — while
``ceil(M/c)`` row-tile gemv kernels consume every chunk the moment its
copy event fires.  With ``G`` GPUs the ``G`` h2d lanes stream
concurrently, so the timeline is transfer-dominated on every lane at
once: the profiler's overlap fraction approaches 1 and the makespan
approaches ``bytes / (G * PCIe bandwidth)``.

Partial results then ring-reduce over the inter-GPU fabric: GPU 1
forwards its partial ``y`` clockwise, each receiver adds its own
partial (an axpy on its exec stream, which FIFO-orders after its gemv
kernels) and forwards, until GPU 0 folds the last add and reads ``y``
back over d2h.  A single GPU degenerates to the plain streamed gemv
with no fabric at all.

Chunk width is the streaming analog of the paper's tile size:
:func:`repro.core.distributed.predict_streaming_gemv` picks it from the
deployed gemv lookup grid (``chunk=None`` + ``models``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.distributed import select_gemv_chunk, shard_columns
from ..core.instantiation import MachineModels
from ..core.params import gemv_problem
from ..errors import BlasError
from ..sim.device import GpuDevice
from ..sim.engine import Simulator
from ..sim.interconnect import Interconnect, TopologySpec
from ..sim.link import Direction
from ..sim.machine import MachineConfig


@dataclass
class StreamingGemvResult:
    """Outcome of one streamed distributed gemv."""

    seconds: float
    chunk: int
    n_gpus: int
    flops: float
    kernels: int
    h2d_bytes: int
    d2h_bytes: int
    fabric_bytes: int
    predicted_seconds: Optional[float] = None

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9


class StreamingGemv:
    """Chunk-streamed gemv across ``G`` PCIe lanes + a peer fabric."""

    LIBRARY_NAME = "CoCoPeLia-StreamGemv"

    def __init__(
        self,
        machine: MachineConfig,
        topology: Optional[TopologySpec] = None,
        models: Optional[MachineModels] = None,
        seed: int = 67,
        trace: bool = False,
        metrics=None,
    ) -> None:
        self.machine = machine
        self.topology = topology
        self.n_gpus = topology.n_gpus if topology is not None else 1
        self.models = models
        self._seed = seed
        self._calls = 0
        self.trace = trace
        self.metrics = metrics
        #: most recent call's recorders (one per GPU, plus the fabric's
        #: when a topology is attached).
        self.last_traces: Optional[List] = None

    # ------------------------------------------------------------------

    def gemv(
        self,
        m: int,
        n: int,
        dtype=np.float64,
        chunk: Optional[int] = None,
    ) -> StreamingGemvResult:
        """Run one streamed gemv; returns the makespan and counters."""
        predicted = None
        if chunk is None:
            if self.models is None:
                raise BlasError(
                    "automatic chunk selection requires deployed models")
            choice = select_gemv_chunk(
                gemv_problem(m, n, dtype), self.n_gpus, self.topology,
                self.models)
            chunk, predicted = choice.value, choice.predicted_time
        if chunk <= 0:
            raise BlasError(f"chunk width must be positive, got {chunk}")
        self._calls += 1
        if self.metrics is not None:
            self.metrics.counter("streaming_gemv.calls").inc()

        sim = Simulator()
        n_gpus = self.n_gpus
        devices = [
            GpuDevice(self.machine, sim=sim,
                      seed=self._seed + 100 * self._calls + g,
                      trace=self.trace, metrics=self.metrics)
            for g in range(n_gpus)
        ]
        fabric = None
        if self.topology is not None and n_gpus > 1:
            fabric = Interconnect(sim, self.topology, trace=self.trace,
                                  metrics=self.metrics)
        if self.trace:
            self.last_traces = [dev.trace for dev in devices]
            if fabric is not None:
                self.last_traces.append(fabric.trace)
        s_h2d = [dev.create_stream("h2d") for dev in devices]
        s_exec = [dev.create_stream("exec") for dev in devices]
        elem = np.dtype(dtype).itemsize
        kernels = self.machine.kernels
        total_flops = 0.0

        # Phase 1: every GPU streams its shard over its own PCIe lane.
        # (n < n_gpus leaves trailing GPUs with empty shards.)
        shards = shard_columns(n, n_gpus)
        shards += [(n, 0)] * (n_gpus - len(shards))
        last_gemv = []
        for g, (_off, width) in enumerate(shards):
            last_op = None
            for c0 in range(0, width, chunk):
                cw = min(chunk, width - c0)
                devices[g].memcpy_h2d_async(cw * elem, s_h2d[g],
                                            tag=f"x:g{g}c{c0}")
                devices[g].memcpy_h2d_async(m * cw * elem, s_h2d[g],
                                            tag=f"A:g{g}c{c0}")
                landed = s_h2d[g].record_event()
                s_exec[g].wait_event(landed)
                for r0 in range(0, m, chunk):
                    rows = min(chunk, m - r0)
                    total_flops += 2.0 * rows * cw
                    last_op = devices[g].launch_async(
                        kernels.gemv_time(rows, cw, dtype), s_exec[g],
                        tag=f"gemv:g{g}c{c0}", flops=2.0 * rows * cw)
            last_gemv.append(last_op)

        # Phase 2: ring-reduce the partials clockwise into GPU 0, then
        # read y back.  All callback-driven so every add starts the
        # instant both its inputs (hop arrival + local gemvs) are ready.
        def read_back() -> None:
            devices[0].memcpy_d2h_async(m * elem, s_h2d[0], tag="y:d2h")

        if n_gpus == 1:
            if last_gemv[0] is None:
                raise BlasError("empty gemv problem")
            last_gemv[0].on_done(read_back)
        else:
            add_time = kernels.axpy_time(m, dtype)

            def send_step(src: int) -> None:
                dst = (src + 1) % n_gpus
                fabric.send(src, dst, m * elem,
                            on_complete=lambda: arrived(dst),
                            tag=f"y:{src}>{dst}")

            def arrived(g: int) -> None:
                nonlocal total_flops
                total_flops += 2.0 * m
                add = devices[g].launch_async(add_time, s_exec[g],
                                              tag=f"reduce:g{g}",
                                              flops=2.0 * m)
                add.on_done(read_back if g == 0 else (lambda: send_step(g)))

            start = last_gemv[1]
            if start is None:
                send_step(1)
            else:
                start.on_done(lambda: send_step(1))

        t0 = sim.now
        sim.run()
        seconds = sim.now - t0
        if seconds <= 0:
            raise BlasError("streaming gemv produced a non-positive makespan")
        return StreamingGemvResult(
            seconds=seconds,
            chunk=chunk,
            n_gpus=n_gpus,
            flops=total_flops,
            kernels=sum(dev.compute.kernels_run for dev in devices),
            h2d_bytes=sum(dev.bytes_moved(Direction.H2D) for dev in devices),
            d2h_bytes=sum(dev.bytes_moved(Direction.D2H) for dev in devices),
            fabric_bytes=fabric.total_hop_bytes if fabric is not None else 0,
            predicted_seconds=predicted,
        )
