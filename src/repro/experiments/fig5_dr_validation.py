"""Fig. 5: prediction-error distributions of the DR model vs CSO.

The DR model (Eq. 5) targets the data-reuse implementation: the
CoCoPeLia library's own sgemm/dgemm, which fetch each tile once.  Same
protocol as Fig. 4 (:class:`~repro.experiments.harness.ErrorSweep`):
measure every (validation problem, valid tile size) pair and summarize
both models' relative errors.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..runtime import CoCoPeLiaLibrary
from ..sim.machine import MachineConfig
from . import workloads
from .harness import ErrorSweep, models_for, render_errors, testbeds

MODELS = ("dr", "cso")


def run(scale: str = "quick",
        machines: Optional[Sequence[MachineConfig]] = None,
        tiles_per_problem: int = 4) -> ErrorSweep:
    machines = list(machines) if machines is not None else testbeds()
    result = ErrorSweep(scale=scale)
    for machine in machines:
        models = models_for(machine, scale)
        cc = CoCoPeLiaLibrary(machine, models)
        for dtype, prefix in ((np.float64, "d"), (np.float32, "s")):
            result.measure(cc, machine.name, f"{prefix}gemm",
                           workloads.gemm_validation_set(scale, dtype),
                           models, MODELS, tiles_per_problem)
    return result


def render(result: ErrorSweep) -> str:
    return render_errors(
        result,
        title="Fig. 5: DR vs CSO relative prediction error on the "
              "CoCoPeLia library (violin summary)")
