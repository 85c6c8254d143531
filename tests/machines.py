"""Synthetic machines for tests: every link and kernel parameter is an
argument, so a test can pin round numbers instead of a paper testbed's."""

from __future__ import annotations

from repro.sim.kernels import AxpyTimeModel, GemmTimeModel, KernelModelSet
from repro.sim.link import LinkDirectionConfig
from repro.sim.machine import MachineConfig
from repro.units import from_gb_per_s, from_tflops, gib


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
    """A fully parameterized synthetic machine (noise-free by default)."""
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
