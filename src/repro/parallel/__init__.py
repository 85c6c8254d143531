"""Deterministic process-pool parallelism for the experiment sweeps.

The per-problem sweeps of fig7, table4 and the distributed SUMMA suite
are independent seeded simulations heavy enough to amortise a worker
pool; this package fans them out across a ``ProcessPoolExecutor``
without giving up the repo's byte-identical determinism contract (see
:mod:`repro.parallel.pool` for the contract, DESIGN.md §7c for which
sweeps fan out and why the others stay serial).
"""

from .pool import default_chunksize, pmap
from .seeds import task_seed

__all__ = [
    "default_chunksize",
    "pmap",
    "task_seed",
]
