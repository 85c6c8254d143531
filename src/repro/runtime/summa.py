"""Distributed SUMMA-style gemm over the simulated inter-GPU fabric.

``C = A @ B`` across ``G`` GPUs on one shared clock: B and C live
column-sharded on the devices (:func:`~repro.core.distributed.shard_columns`),
A is K-sharded across owners, and compute proceeds in K-panels — the
owner of panel ``j`` broadcasts the ``M x p`` slice of A to its peers,
then every GPU multiplies it against its own column shard and
accumulates into its C block.  Operands start device-resident, so the
run exercises exactly the paper's question transposed to the peer
network: how much of the broadcast time can kernels hide?

Two variants, mirroring Fig. 2's serial-vs-overlapped pipelines:

* ``blocking`` — each panel's full broadcast drains before its kernels
  launch, and the next broadcast waits for the kernels (the classic
  bulk-synchronous SUMMA baseline).
* ``pipelined`` — broadcasts are injected ahead of compute (at most
  ``depth`` panels past the globally-computed frontier: double
  buffering at the default ``depth=2``) and every GPU launches a
  panel's kernels the instant the panel lands, in panel order.  On a
  ring the per-link FIFO additionally overlaps hop ``h+1`` of one
  panel with hop ``h`` of the next.

Panel width is the distributed analog of the paper's tile size: the
model in :func:`repro.core.distributed.predict_summa` picks it from the
deployed gemm lookup grid (``panel=None`` + ``models``).

Timing-only (no numeric payloads): kernel durations come from the
machine's ground-truth :class:`~repro.sim.kernels.KernelModelSet` with
the per-device noise substreams, broadcasts from the
:class:`~repro.sim.interconnect.Interconnect`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..core.distributed import select_summa_panel, shard_columns, summa_panels
from ..core.instantiation import MachineModels
from ..core.params import gemm_problem
from ..errors import BlasError, SchedulerError
from ..sim.device import GpuDevice
from ..sim.engine import Simulator
from ..sim.interconnect import Interconnect, TopologySpec
from ..sim.machine import MachineConfig

SUMMA_VARIANTS = ("pipelined", "blocking")


@dataclass
class SummaResult:
    """Outcome of one distributed gemm."""

    seconds: float
    variant: str
    panel: int
    depth: int
    n_gpus: int
    topology_kind: str
    flops: float
    kernels: int
    fabric_hops: int
    fabric_bytes: int
    predicted_seconds: Optional[float] = None

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9


class SummaGemm:
    """SUMMA dgemm across the GPUs of one simulated peer fabric."""

    LIBRARY_NAME = "CoCoPeLia-SUMMA"

    def __init__(
        self,
        machine: MachineConfig,
        topology: TopologySpec,
        models: Optional[MachineModels] = None,
        seed: int = 61,
        trace: bool = False,
        metrics=None,
    ) -> None:
        self.machine = machine
        self.topology = topology
        self.n_gpus = topology.n_gpus
        self.models = models
        self._seed = seed
        self._calls = 0
        self.trace = trace
        self.metrics = metrics
        #: most recent call's recorders: one per GPU plus the fabric's
        #: (merge with ``repro.obs.merge_traces`` and labels
        #: ``gpu0..gpuG-1, net``).
        self.last_traces: Optional[List] = None

    # ------------------------------------------------------------------

    def gemm(
        self,
        m: int,
        n: int,
        k: int,
        dtype=np.float64,
        panel: Optional[int] = None,
        variant: str = "pipelined",
        depth: int = 2,
    ) -> SummaResult:
        """Run one distributed gemm; returns the makespan and counters."""
        if variant not in SUMMA_VARIANTS:
            raise BlasError(
                f"unknown SUMMA variant {variant!r}; expected {SUMMA_VARIANTS}")
        if depth < 2:
            raise SchedulerError(
                f"pipelined SUMMA needs depth >= 2, got {depth}")
        predicted = None
        if panel is None:
            if self.models is None:
                raise BlasError(
                    "automatic panel selection requires deployed models")
            problem = gemm_problem(m, n, k, dtype)
            choice = select_summa_panel(
                problem, self.n_gpus, self.topology, self.models,
                variant=variant, depth=depth)
            panel, predicted = choice.value, choice.predicted_time
        if panel <= 0:
            raise BlasError(f"panel width must be positive, got {panel}")
        self._calls += 1
        if self.metrics is not None:
            self.metrics.counter("summa.calls").inc()

        sim = Simulator()
        devices = [
            GpuDevice(self.machine, sim=sim,
                      seed=self._seed + 100 * self._calls + g,
                      trace=self.trace, metrics=self.metrics)
            for g in range(self.n_gpus)
        ]
        fabric = Interconnect(sim, self.topology, trace=self.trace,
                              metrics=self.metrics)
        if self.trace:
            self.last_traces = [dev.trace for dev in devices] + [fabric.trace]
        streams = [dev.create_stream("exec") for dev in devices]
        shards = shard_columns(n, self.n_gpus)
        panels = summa_panels(k, self.n_gpus, panel)
        elem = np.dtype(dtype).itemsize
        kernel_time = self.machine.kernels.gemm_time
        total_flops = 0.0

        def launch_panel(g: int, j: int,
                         on_last: Optional[Callable[[], None]] = None) -> None:
            """Enqueue GPU ``g``'s kernel grid for panel ``j``."""
            nonlocal total_flops
            _off, pw, _owner = panels[j]
            width = shards[g][1] if g < len(shards) else 0
            last_op = None
            for r0 in range(0, m, panel):
                rows = min(panel, m - r0)
                for c0 in range(0, width, panel):
                    cols = min(panel, width - c0)
                    total_flops += 2.0 * rows * cols * pw
                    last_op = devices[g].launch_async(
                        kernel_time(rows, cols, pw, dtype), streams[g],
                        tag=f"summa:g{g}p{j}", flops=2.0 * rows * cols * pw)
            if on_last is None:
                return
            if last_op is None:  # degenerate empty shard
                on_last()
            else:
                last_op.on_done(on_last)

        t0 = sim.now
        if variant == "blocking":
            self._run_blocking(sim, fabric, panels, launch_panel, m, elem)
        else:
            self._run_pipelined(sim, fabric, panels, launch_panel, m, elem,
                                depth)
        seconds = sim.now - t0
        if seconds <= 0:
            raise SchedulerError("SUMMA produced a non-positive makespan")
        return SummaResult(
            seconds=seconds,
            variant=variant,
            panel=panel,
            depth=depth,
            n_gpus=self.n_gpus,
            topology_kind=self.topology.kind,
            flops=total_flops,
            kernels=sum(dev.compute.kernels_run for dev in devices),
            fabric_hops=fabric.total_hops,
            fabric_bytes=fabric.total_hop_bytes,
            predicted_seconds=predicted,
        )

    # ------------------------------------------------------------------

    def _run_blocking(self, sim: Simulator, fabric: Interconnect,
                      panels, launch_panel, m: int, elem: int) -> None:
        """Bulk-synchronous baseline: drain each phase on the shared clock."""
        for j, (_off, pw, owner) in enumerate(panels):
            dests = tuple(g for g in range(self.n_gpus) if g != owner)
            fabric.multicast(owner, dests, m * pw * elem,
                             tag=f"summa:p{j}")
            sim.run()  # broadcast fully lands everywhere
            for g in range(self.n_gpus):
                launch_panel(g, j)
            sim.run()  # kernels drain before the next broadcast

    def _run_pipelined(self, sim: Simulator, fabric: Interconnect,
                       panels, launch_panel, m: int, elem: int,
                       depth: int) -> None:
        """Double-buffered pipelined-multicast variant.

        State machine driven entirely by simulator callbacks: panels
        are injected at most ``depth`` past the globally-computed
        frontier; each GPU computes panels in order as they land.
        """
        n_panels = len(panels)
        n_gpus = self.n_gpus
        ready = [[False] * n_panels for _ in range(n_gpus)]
        next_compute = [0] * n_gpus
        computing = [False] * n_gpus  # in-order: one panel in flight per GPU
        done_count = [0] * n_panels  # per-panel GPUs finished
        frontier = 0  # panels fully computed on every GPU
        state = {"next_inject": 0}

        def try_compute(g: int) -> None:
            if computing[g]:
                return
            j = next_compute[g]
            if j >= n_panels or not ready[g][j]:
                return
            computing[g] = True
            next_compute[g] += 1
            launch_panel(g, j, on_last=lambda: panel_done(g, j))

        def panel_done(g: int, j: int) -> None:
            nonlocal frontier
            computing[g] = False
            done_count[j] += 1
            while frontier < n_panels and done_count[frontier] == n_gpus:
                frontier += 1
            try_inject()
            try_compute(g)

        def try_inject() -> None:
            while (state["next_inject"] < n_panels
                   and state["next_inject"] < frontier + depth):
                j = state["next_inject"]
                state["next_inject"] += 1
                _off, pw, owner = panels[j]
                dests = tuple(g for g in range(n_gpus) if g != owner)

                def landed(node: int, j: int = j) -> None:
                    ready[node][j] = True
                    try_compute(node)

                fabric.multicast(owner, dests, m * pw * elem,
                                 on_arrive=landed, tag=f"summa:p{j}")
                # the owner holds its own slice of A from the start
                landed(owner)

        try_inject()
        sim.run()
