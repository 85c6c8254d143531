"""End-to-end deployment: benchmarks -> fits -> MachineModels.

This is the 'Deployment' box of the paper's Fig. 3: run the transfer
micro-benchmarks, fit the six link coefficients, benchmark the kernel
time tables for every requested (routine, dtype), and assemble the
machine's model database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.instantiation import MachineModels
from ..errors import DeploymentError
from ..sim.machine import MachineConfig
from .exec_bench import ExecBenchConfig, bench_exec_table
from .microbench import TransferBenchConfig, fit_link_model

#: The paper's three example routines: daxpy, dgemm, sgemm.
DEFAULT_ROUTINES: Tuple[Tuple[str, object], ...] = (
    ("gemm", np.float64),
    ("gemm", np.float32),
    ("axpy", np.float64),
)


@dataclass(frozen=True)
class DeploymentConfig:
    """Bundles the benchmark configurations for one deployment run."""

    transfer: TransferBenchConfig = field(default_factory=TransferBenchConfig)
    exec: ExecBenchConfig = field(default_factory=ExecBenchConfig)
    routines: Tuple[Tuple[str, object], ...] = DEFAULT_ROUTINES
    seed: int = 99
    #: Also fit the residual-quantile tail bank (``models.tail``) after
    #: the mean fits; off by default so existing databases keep their
    #: exact bytes.
    tail: bool = False

    @classmethod
    def quick(cls, routines: Optional[Sequence[Tuple[str, object]]] = None
              ) -> "DeploymentConfig":
        return cls(
            transfer=TransferBenchConfig.quick(),
            exec=ExecBenchConfig.quick(),
            routines=tuple(routines) if routines is not None else DEFAULT_ROUTINES,
        )


def deploy(
    machine: MachineConfig,
    config: Optional[DeploymentConfig] = None,
) -> MachineModels:
    """Instantiate all models for ``machine`` from micro-benchmarks."""
    cfg = config if config is not None else DeploymentConfig()
    if not cfg.routines:
        raise DeploymentError("deployment requires at least one routine")
    link, _raw = fit_link_model(machine, cfg.transfer, seed=cfg.seed)
    models = MachineModels(machine_name=machine.name, link=link)
    for i, (routine, dtype) in enumerate(cfg.routines):
        lookup = bench_exec_table(
            machine, routine, dtype, cfg.exec, seed=cfg.seed + 1 + i,
        )
        models.add_exec_lookup(lookup)
    if cfg.tail:
        from .tailfit import fit_tail_bank

        # Seed offset past the exec-bench range so adding routines
        # never aliases the tail fit's noise stream.
        models.tail = fit_tail_bank(machine, models,
                                    seed=cfg.seed + 1 + len(cfg.routines))
    return models
