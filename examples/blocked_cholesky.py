"""Application: right-looking blocked Cholesky on the CoCoPeLia library.

The kind of workload the paper's introduction motivates: a dense solver
built from BLAS building blocks, where the heavy trailing-matrix
updates are offloaded with 3-way concurrency while the small panel
factorizations stay on the host.

    for each panel p:
        L[p,p]   = potrf(A[p,p])                (host, tiny)
        L[i,p]   = A[i,p] @ L[p,p]^-T           (host trsm, thin)
        A[i,j]  -= L[i,p] @ L[j,p]^T            (OFFLOADED:
                                                  syrk for the diagonal,
                                                  gemm for the rest)

Each offloaded update gets its tile size from the deployed models;
repeated panels of equal size reuse the cached decision (the paper's
model-reuse behaviour).  The factor is verified against
``numpy.linalg.cholesky``.

Run:  python examples/blocked_cholesky.py
"""

import time

import numpy as np

from repro import CoCoPeLiaLibrary, deploy_quick, testbed_ii
from repro.deploy import DeploymentConfig, deploy


def make_spd(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    return a @ a.T + 2.0 * np.eye(n)


def blocked_cholesky(lib: CoCoPeLiaLibrary, a: np.ndarray, panel: int):
    """In-place lower Cholesky; returns (L, offload stats)."""
    n = a.shape[0]
    offload_time = 0.0
    offload_flops = 0.0
    calls = 0
    for p0 in range(0, n, panel):
        p1 = min(p0 + panel, n)
        # Host: factor the diagonal panel.
        a[p0:p1, p0:p1] = np.linalg.cholesky(a[p0:p1, p0:p1])
        if p1 < n:
            # Host: triangular solve for the sub-diagonal panel
            # (A[i,p] L[p,p]^-T, i.e. a trsm).
            l_pp = a[p0:p1, p0:p1]
            a[p1:, p0:p1] = np.linalg.solve(l_pp, a[p1:, p0:p1].T).T
            panel_block = np.ascontiguousarray(a[p1:, p0:p1])
            # OFFLOADED: symmetric trailing update via syrk.
            trailing = np.ascontiguousarray(a[p1:, p1:])
            res = lib.syrk(a=panel_block, c=trailing, alpha=-1.0, beta=1.0)
            offload_time += res.seconds
            offload_flops += res.flops
            calls += 1
            a[p1:, p1:] = trailing
    return np.tril(a), {
        "offload_time": offload_time,
        "offload_flops": offload_flops,
        "calls": calls,
        "cached_choices": lib.prediction_cache.stats.misses,
    }


def main() -> None:
    machine = testbed_ii()
    models = deploy(machine, DeploymentConfig.quick(
        routines=[("gemm", np.float64), ("syrk", np.float64)]))
    lib = CoCoPeLiaLibrary(machine, models)

    n, panel = 1536, 384
    print(f"Blocked Cholesky of a {n}x{n} SPD matrix, panel={panel}, on "
          f"{machine.display_name}\n")
    a = make_spd(n)
    expected = np.linalg.cholesky(a)
    factor, stats = blocked_cholesky(lib, a.copy(), panel)
    err = np.max(np.abs(factor - expected)) / np.max(np.abs(expected))
    print(f"factor matches numpy.linalg.cholesky (rel. error {err:.2e})")
    print(f"offloaded {stats['calls']} trailing updates "
          f"({stats['offload_flops'] / 1e9:.2f} GFLOP) in "
          f"{stats['offload_time'] * 1e3:.2f} ms simulated "
          f"({stats['offload_flops'] / stats['offload_time'] / 1e9:.0f} "
          "GFLOP/s)")
    print(f"tile-selection model evaluated {stats['cached_choices']} times "
          f"for {stats['calls']} offloads (per-size caching)")

    print("\nScaling the trailing updates (timing mode, syrk):")
    for size in (4096, 8192, 12288):
        res = lib.syrk(size, panel)
        print(f"  trailing {size:5d} x panel {panel}: T={res.tile_size:5d} "
              f"{res.seconds * 1e3:8.2f} ms ({res.gflops:6.0f} GFLOP/s, "
              f"h2d {res.h2d_bytes / 1e6:7.1f} MB)")


if __name__ == "__main__":
    main()
