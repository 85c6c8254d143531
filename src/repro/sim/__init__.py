"""Discrete-event simulated GPU system.

This package is the hardware substitute for the CUDA testbeds used in
the CoCoPeLia paper: a simulated host + GPU with a duplex PCIe link
(separate h2d/d2h copy engines contending on a shared medium), a compute
engine with non-linear BLAS kernel timing, CUDA-like streams/events, and
device memory accounting.  See DESIGN.md section 2 for the substitution
rationale.
"""

from .engine import Simulator
from .faults import (
    DeviceDegradation,
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    LIFECYCLE_KINDS,
    LifecycleFault,
    LinkBrownout,
    NAMED_PLANS,
    ResilienceCounters,
    resolve_plan,
    tile_checksum,
)
from .interconnect import (
    CollectiveHandle,
    Interconnect,
    TOPOLOGY_KINDS,
    TopologySpec,
    all_to_all_topology,
    ring_topology,
)
from .link import DuplexLink, Direction, LinkDirectionConfig
from .kernels import GemmTimeModel, AxpyTimeModel, KernelModelSet
from .machine import MachineConfig, testbed_i, testbed_ii, get_testbed, TESTBEDS
from .memory import DeviceBuffer, HostArray
from .noise import NoiseModel
from .device import GpuDevice
from .stream import Stream, CudaEvent
from .trace import TraceRecorder, TraceEvent, render_timeline

__all__ = [
    "Simulator",
    "DeviceDegradation",
    "DeviceFailure",
    "FaultInjector",
    "FaultPlan",
    "LIFECYCLE_KINDS",
    "LifecycleFault",
    "LinkBrownout",
    "NAMED_PLANS",
    "ResilienceCounters",
    "resolve_plan",
    "tile_checksum",
    "CollectiveHandle",
    "Interconnect",
    "TOPOLOGY_KINDS",
    "TopologySpec",
    "all_to_all_topology",
    "ring_topology",
    "DuplexLink",
    "Direction",
    "LinkDirectionConfig",
    "GemmTimeModel",
    "AxpyTimeModel",
    "KernelModelSet",
    "MachineConfig",
    "testbed_i",
    "testbed_ii",
    "get_testbed",
    "TESTBEDS",
    "DeviceBuffer",
    "HostArray",
    "NoiseModel",
    "GpuDevice",
    "Stream",
    "CudaEvent",
    "TraceRecorder",
    "TraceEvent",
    "render_timeline",
]
