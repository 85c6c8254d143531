"""Machine configurations: the two paper testbeds plus custom machines.

All ground-truth numbers for Testbed I / II come from Tables II and III
of the paper (link latencies, uni/bidirectional bandwidths, slowdown
factors, peak FLOP rates, PCIe generation, GPU memory).  Kernel-model
shape parameters are chosen so the simulated machines reproduce the
paper's qualitative behaviours (Fig. 1 break-points, V100 spikes).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..units import from_gb_per_s, from_tflops, gib
from .faults import FaultPlan
from .kernels import AxpyTimeModel, GemmTimeModel, KernelModelSet
from .link import LinkDirectionConfig


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to instantiate a simulated host+GPU system."""

    name: str
    display_name: str
    cpu: str
    gpu: str
    pcie: str
    h2d: LinkDirectionConfig
    d2h: LinkDirectionConfig
    gpu_mem_bytes: int
    kernels: KernelModelSet
    #: Effective unified-memory migration bandwidth, as a fraction of the
    #: h2d bandwidth (page-fault handling overhead).
    um_bandwidth_factor: float = 0.70
    #: Fraction of migration hidden by prefetching in the UM baseline.
    um_prefetch_overlap: float = 0.70
    #: Sustained host-CPU dgemm rate (FLOP/s) for work run on the host
    #: (the runtime's host fallback, the serving layer's host worker);
    #: the FP32 rate is taken as twice this.
    cpu_gemm_flops: float = 1.5e11
    noise_sigma: float = 0.015
    #: Default-off fault injection: devices built from this config
    #: consult the plan (see :mod:`repro.sim.faults`).  ``None`` keeps
    #: the simulator on its fault-free fast path.
    fault_plan: Optional[FaultPlan] = None

    def host_seconds(self, flops: float, dtype) -> float:
        """Host-CPU time for ``flops`` of BLAS work at the flat
        sustained rate (FP32 at twice the FP64 rate)."""
        rate = self.cpu_gemm_flops
        if np.dtype(dtype).itemsize == 4:
            rate *= 2.0
        return flops / rate

    def with_noise(self, sigma: float) -> "MachineConfig":
        """A copy of this config with a different noise level."""
        return replace(self, noise_sigma=sigma)

    def with_faults(self, plan: Optional[FaultPlan]) -> "MachineConfig":
        """A copy of this config with a fault-injection plan attached."""
        return replace(self, fault_plan=plan)

    def with_degradation(self, compute_slowdown: float = 1.0,
                         bandwidth_factor: float = 1.0) -> "MachineConfig":
        """A copy modelling a degraded device / browned-out link.

        ``compute_slowdown`` (>= 1) slows every kernel model uniformly
        (a clocked-down GPU); ``bandwidth_factor`` (in (0, 1]) scales
        both link directions (a browned-out PCIe link).  The serving
        layer builds per-batch devices from this copy while a
        :class:`~repro.sim.faults.DeviceDegradation` or
        :class:`~repro.sim.faults.LinkBrownout` window is open; the
        identity arguments return configs indistinguishable from the
        healthy machine.
        """
        if not compute_slowdown >= 1.0:
            raise ValueError(
                f"compute_slowdown must be >= 1, got {compute_slowdown}")
        if not 0.0 < bandwidth_factor <= 1.0:
            raise ValueError(
                f"bandwidth_factor must be in (0, 1], got {bandwidth_factor}")
        if compute_slowdown == 1.0 and bandwidth_factor == 1.0:
            return self
        h2d, d2h = self.h2d, self.d2h
        if bandwidth_factor != 1.0:
            h2d = replace(h2d, bandwidth=h2d.bandwidth * bandwidth_factor)
            d2h = replace(d2h, bandwidth=d2h.bandwidth * bandwidth_factor)
        return replace(self, kernels=self.kernels.scaled(compute_slowdown),
                       h2d=h2d, d2h=d2h)


def testbed_i() -> MachineConfig:
    """Paper Testbed I: Intel host + NVIDIA Tesla K40, PCIe Gen2 x8.

    Table II: h2d 3.15 GB/s (2.94 bidirectional), d2h 3.29 GB/s (2.84
    bidirectional) => slowdowns 1.07 / 1.16; latencies ~2.4/2.2 us.
    Table III: FP32 peak 4.29 TFLOP/s, FP64 1.43 TFLOP/s, 12 GB.
    """
    gemm_f64 = GemmTimeModel(
        peak_flops=from_tflops(1.43),
        launch_overhead=8e-6,
        mn_block=128,
        k_block=16,
        grid_half=6.0,
        k_half=128.0,
        max_eff=0.93,
        spike_amp=0.015,
    )
    gemm_f32 = GemmTimeModel(
        peak_flops=from_tflops(4.29),
        launch_overhead=8e-6,
        mn_block=128,
        k_block=16,
        grid_half=6.0,
        k_half=144.0,
        max_eff=0.90,
        spike_amp=0.015,
    )
    axpy = AxpyTimeModel(mem_bandwidth=from_gb_per_s(288.0), launch_overhead=8e-6)
    return MachineConfig(
        name="testbed_i",
        display_name="Testbed I (Tesla K40)",
        cpu="Intel Core i7-4820K @ 3.7GHz",
        gpu="NVIDIA Tesla K40 (FP64 1.43 TFlop/s, FP32 4.29 TFlop/s)",
        pcie="Gen2 x8",
        h2d=LinkDirectionConfig(
            latency=2.4e-6,
            bandwidth=from_gb_per_s(3.15),
            bid_slowdown=3.15 / 2.94,
        ),
        d2h=LinkDirectionConfig(
            latency=2.2e-6,
            bandwidth=from_gb_per_s(3.29),
            bid_slowdown=1.16,
        ),
        gpu_mem_bytes=gib(12),
        kernels=KernelModelSet(gemm_f64, gemm_f32, axpy),
        cpu_gemm_flops=9e10,
    )


def testbed_ii() -> MachineConfig:
    """Paper Testbed II: IBM host + NVIDIA Tesla V100, PCIe Gen3 x16.

    Table II: h2d 12.18 GB/s (9.59 bidirectional), d2h 12.98 GB/s (9.21
    bidirectional) => slowdowns 1.27 / 1.41; latencies ~2.5 us.
    V100 peaks: FP64 7.0 TFLOP/s, FP32 14.0 TFLOP/s, 16 GB.  The paper
    notes cublas gemm performance 'spikes' on this GPU (Section V-C),
    modeled by a larger wobble amplitude.
    """
    gemm_f64 = GemmTimeModel(
        peak_flops=from_tflops(7.0),
        launch_overhead=5e-6,
        mn_block=64,
        k_block=16,
        grid_half=20.0,
        k_half=110.0,
        max_eff=0.94,
        spike_amp=0.06,
    )
    gemm_f32 = GemmTimeModel(
        peak_flops=from_tflops(14.0),
        launch_overhead=5e-6,
        mn_block=64,
        k_block=16,
        grid_half=20.0,
        k_half=128.0,
        max_eff=0.92,
        spike_amp=0.06,
    )
    axpy = AxpyTimeModel(mem_bandwidth=from_gb_per_s(900.0), launch_overhead=5e-6)
    return MachineConfig(
        name="testbed_ii",
        display_name="Testbed II (Tesla V100)",
        cpu="IBM POWER9 @ 3.8GHz",
        gpu="NVIDIA Tesla V100 (FP64 7.0 TFlop/s, FP32 14.0 TFlop/s)",
        pcie="Gen3 x16",
        h2d=LinkDirectionConfig(
            latency=2.5e-6,
            bandwidth=from_gb_per_s(12.18),
            bid_slowdown=1.27,
        ),
        d2h=LinkDirectionConfig(
            latency=2.5e-6,
            bandwidth=from_gb_per_s(12.98),
            bid_slowdown=1.41,
        ),
        gpu_mem_bytes=gib(16),
        kernels=KernelModelSet(gemm_f64, gemm_f32, axpy),
        cpu_gemm_flops=4.5e11,
    )


def custom_machine(
    name: str = "custom",
    h2d_gb: float = 8.0,
    d2h_gb: float = 8.0,
    latency: float = 5e-6,
    sl_h2d: float = 1.2,
    sl_d2h: float = 1.3,
    dgemm_tflops: float = 4.0,
    sgemm_tflops: float = 8.0,
    mem_gb: float = 8.0,
    dev_mem_gbps: float = 400.0,
    noise_sigma: float = 0.0,
    spike_amp: float = 0.0,
    grid_half: float = 12.0,
    launch_overhead: float = 5e-6,
) -> MachineConfig:
    """A fully parameterized machine, mainly for tests and what-if runs."""
    gemm_f64 = GemmTimeModel(
        peak_flops=from_tflops(dgemm_tflops),
        launch_overhead=launch_overhead,
        grid_half=grid_half,
        spike_amp=spike_amp,
    )
    gemm_f32 = GemmTimeModel(
        peak_flops=from_tflops(sgemm_tflops),
        launch_overhead=launch_overhead,
        grid_half=grid_half,
        spike_amp=spike_amp,
    )
    axpy = AxpyTimeModel(
        mem_bandwidth=from_gb_per_s(dev_mem_gbps), launch_overhead=launch_overhead
    )
    return MachineConfig(
        name=name,
        display_name=name,
        cpu="synthetic host",
        gpu="synthetic GPU",
        pcie="synthetic",
        h2d=LinkDirectionConfig(latency, from_gb_per_s(h2d_gb), sl_h2d),
        d2h=LinkDirectionConfig(latency, from_gb_per_s(d2h_gb), sl_d2h),
        gpu_mem_bytes=gib(mem_gb),
        kernels=KernelModelSet(gemm_f64, gemm_f32, axpy),
        noise_sigma=noise_sigma,
    )


TESTBEDS: Dict[str, MachineConfig] = {}


def get_testbed(name: str) -> MachineConfig:
    """Look up one of the paper testbeds by name ('testbed_i'/'testbed_ii')."""
    if not TESTBEDS:
        TESTBEDS["testbed_i"] = testbed_i()
        TESTBEDS["testbed_ii"] = testbed_ii()
    try:
        return TESTBEDS[name]
    except KeyError:
        raise KeyError(
            f"unknown testbed {name!r}; available: {sorted(TESTBEDS)}"
        ) from None
