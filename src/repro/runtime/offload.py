"""The offload path every library shares (paper Section IV-C).

Every library call runs the same sequence: bind the caller's arrays to
a problem, pick ``T``, run a tile schedule on a fresh seeded device,
read a device-resident output back, release the device tiles, and
report a :class:`~repro.runtime.result.RunResult`.  This module holds
the steps that do not depend on the library:

* :func:`bind_operands` — arrays (or dims) to a
  :class:`~repro.core.params.CoCoProblem` plus its host operands;
* :func:`host_operands` — the host-operand dict for a known problem;
* :func:`offload_result` — read back, release, and report one schedule;
* :class:`OffloadLibrary` — the machine, seed and per-call device a
  library is built on.

What a library adds is its choice of ``T`` and of scheduler, and, for
CoCoPeLia, the degradation ladder in :mod:`repro.runtime.routines`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..blas.spec import OperandSpec, RoutineSpec
from ..core.params import CoCoProblem, Loc, prefix_for
from ..errors import BlasError
from ..sim.device import GpuDevice
from ..sim.machine import MachineConfig
from ..sim.memory import HostArray
from .result import RunResult


def _dim_axes(spec: OperandSpec, ndims: int) -> Tuple[Optional[int], ...]:
    """The problem dim each array axis of ``spec`` spans (None: unit).

    Operand shapes are projections of the problem dims (Table I), so
    evaluating the shape on the probe ``(-1, -2, ...)`` names the dim
    behind every axis.
    """
    s1, s2 = spec.shape(tuple(range(-1, -ndims - 1, -1)))
    axes = (s1,) if spec.vector else (s1, s2)
    return tuple(-1 - v if v < 0 else None for v in axes)


def host_operands(problem: CoCoProblem,
                  arrays: Optional[Sequence[Optional[np.ndarray]]] = None
                  ) -> Dict[str, HostArray]:
    """Host operands of ``problem``, one array per operand in spec order.

    A given array is checked against the operand's rank, shape and the
    problem dtype and wrapped in place (results land in it); ``None``
    (or no ``arrays`` at all) gives a data-less shadow (timing mode).
    """
    if arrays is None:
        arrays = (None,) * len(problem.operands)
    hosts = {}
    for op, array in zip(problem.operands, arrays):
        name = op.name
        shape = (op.s1,) if op.is_vector else (op.s1, op.s2)
        if array is None:
            hosts[name] = HostArray.shadow(shape, problem.dtype, name=name)
            continue
        if array.ndim != len(shape):
            raise BlasError(f"operand {name} has wrong rank: {array.shape}")
        if tuple(array.shape) != shape:
            raise BlasError(
                f"operand {name} shape {array.shape} != expected {shape}"
            )
        if array.dtype != problem.dtype:
            raise BlasError(
                f"operand {name} dtype {array.dtype} != problem dtype "
                f"{problem.dtype}"
            )
        hosts[name] = HostArray.wrap(array, pinned=True, name=name)
    return hosts


def bind_operands(
    routine: RoutineSpec,
    dims: Sequence[Optional[int]],
    arrays: Sequence[Optional[np.ndarray]],
    dtype,
    locs: Sequence[Loc],
) -> Tuple[CoCoProblem, Dict[str, HostArray]]:
    """The problem and host operands of one library call.

    Pass either every array (compute mode: dims and dtype come from
    the arrays, and any explicit dim must agree with them) or none
    (timing mode: every dim is required).
    """
    given = [array is not None for array in arrays]
    if any(given):
        if not all(given):
            names = ", ".join(op.name for op in routine.operands)
            raise BlasError(f"pass all of {names} or none of them")
        found = [None] * routine.ndims
        for spec, array in zip(routine.operands, arrays):
            axes = _dim_axes(spec, routine.ndims)
            if array.ndim != len(axes):
                raise BlasError(
                    f"operand {spec.name} has wrong rank: {array.shape}")
            for dim, extent in zip(axes, array.shape):
                if dim is not None and found[dim] is None:
                    found[dim] = extent
        if any(d is not None and d != f for d, f in zip(dims, found)):
            raise BlasError(
                f"explicit dims {tuple(dims)} disagree with array shapes "
                f"{tuple(found)}"
            )
        dims = found
        dtype = arrays[0].dtype
    elif any(d is None for d in dims):
        raise BlasError(
            f"{routine.name} needs {routine.ndims} dims or arrays")
    problem = CoCoProblem(routine, dims, dtype, locs)
    return problem, host_operands(problem, arrays)


def offload_result(library: str, problem: CoCoProblem, stats, tile_size,
                   sched=None, output: Optional[np.ndarray] = None,
                   **fields) -> RunResult:
    """Read back, release and report one finished schedule.

    With a scheduler, a device-resident output in compute mode is
    assembled into ``RunResult.output`` and every device tile is freed.
    Without one (CoCoPeLia's host fallback) ``output`` is reported as
    given.  ``fields`` are the remaining :class:`RunResult` fields.
    """
    if sched is not None:
        out = next(op for op in problem.operands if op.spec.role.is_output)
        if out.loc is Loc.DEVICE and sched.hosts[out.name].has_data:
            output = sched.read_back_device_result()
        sched.release()
    return RunResult(
        library=library,
        routine=f"{prefix_for(problem.dtype)}{problem.routine.name}",
        seconds=stats.seconds,
        flops=problem.flops(),
        tile_size=tile_size,
        h2d_bytes=stats.h2d_bytes,
        d2h_bytes=stats.d2h_bytes,
        h2d_transfers=stats.h2d_transfers,
        d2h_transfers=stats.d2h_transfers,
        kernels=stats.kernels,
        output=output,
        **fields,
    )


class OffloadLibrary:
    """A library bound to one machine, with a per-call seed sequence.

    :meth:`_next_device` gives the ``n``-th call a fresh device seeded
    ``seed + n``, so repeated calls see fresh noise while a same-seed
    library replays exactly.
    """

    LIBRARY_NAME = ""

    def __init__(self, machine: MachineConfig, seed: int) -> None:
        self.machine = machine
        self._seed = seed
        self._calls = 0

    def _next_device(self, machine: Optional[MachineConfig] = None,
                     **kwargs) -> GpuDevice:
        self._calls += 1
        return GpuDevice(machine if machine is not None else self.machine,
                         seed=self._seed + self._calls, **kwargs)

    def _run(self, sched) -> RunResult:
        """Run ``sched`` once and report it at the scheduler's own ``T``."""
        return offload_result(self.LIBRARY_NAME, sched.problem, sched.run(),
                              sched.t, sched)
