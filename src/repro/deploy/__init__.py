"""Deployment module: offline model instantiation (paper Section IV-A).

Runs transfer and execution micro-benchmarks on a (simulated) machine,
fits the latency/bandwidth/slowdown coefficients by zero-intercept
least squares, builds the ``t_GPU^T`` lookup tables, and persists the
result as a JSON model database.
"""

from .regression import (
    zero_intercept_lstsq,
    RegressionResult,
    confidence_interval,
    measure_until_stable,
)
from .microbench import (
    TransferBenchConfig,
    bench_latency,
    fit_link_model,
)
from .exec_bench import ExecBenchConfig, bench_exec_table
from .database import save_models, load_models, deploy_or_load
from .pipeline import DeploymentConfig, deploy
from .tailfit import fit_tail_bank

__all__ = [
    "zero_intercept_lstsq",
    "RegressionResult",
    "confidence_interval",
    "measure_until_stable",
    "TransferBenchConfig",
    "bench_latency",
    "fit_link_model",
    "ExecBenchConfig",
    "bench_exec_table",
    "save_models",
    "load_models",
    "deploy_or_load",
    "DeploymentConfig",
    "deploy",
    "fit_tail_bank",
]
