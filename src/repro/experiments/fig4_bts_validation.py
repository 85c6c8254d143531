"""Fig. 4: prediction-error distributions of the BTS model vs CSO.

The BTS model (Eq. 4) targets problems *without* inter-subkernel data
reuse: daxpy (no reuse exists) and the cuBLASXt-like gemm (the library
does not reuse input tiles).  For every validation problem and every
benchmarked tile size valid for it, the offload is measured and both
models' relative errors ``e%`` are recorded; the paper summarizes the
distributions as violin plots, reproduced here as quartile summaries.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..baselines import CublasXtLibrary
from ..runtime import CoCoPeLiaLibrary
from ..sim.machine import MachineConfig
from . import workloads
from .harness import ErrorSweep, models_for, render_errors, testbeds

#: Models compared in Fig. 4.
MODELS = ("bts", "cso")


def run(scale: str = "quick",
        machines: Optional[Sequence[MachineConfig]] = None,
        tiles_per_problem: int = 4) -> ErrorSweep:
    machines = list(machines) if machines is not None else testbeds()
    result = ErrorSweep(scale=scale)
    for machine in machines:
        models = models_for(machine, scale)
        # --- daxpy, measured on the CoCoPeLia chunked implementation ---
        result.measure(CoCoPeLiaLibrary(machine, models), machine.name,
                       "daxpy", workloads.daxpy_validation_set(scale),
                       models, MODELS, tiles_per_problem)
        # --- gemm, measured on the cuBLASXt-like library (no reuse) ---
        xt = CublasXtLibrary(machine)
        for dtype, prefix in ((np.float64, "d"), (np.float32, "s")):
            result.measure(xt, machine.name, f"{prefix}gemm",
                           workloads.gemm_validation_set(scale, dtype),
                           models, MODELS, tiles_per_problem)
    return result


def render(result: ErrorSweep) -> str:
    return render_errors(
        result,
        title="Fig. 4: BTS vs CSO relative prediction error (violin summary)")
