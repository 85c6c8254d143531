"""Iterative-solver scenario: repeated gemm with device-resident data.

The paper motivates location-aware modeling with kernels that are
"executed iteratively ... some of the data may still be resident on the
GPU" (Section III-A.2, the XKBlas use case).  This example simulates a
block power iteration

    V <- A @ V   (repeated, V normalized on the host between steps)

where the large system matrix A is uploaded once and stays device-
resident, while the iterate block V round-trips.  It shows:

* the DataLoc/DR models selecting a different (larger) tile once A
  stops being transferred;
* per-problem model reuse: the tile choice is computed once and reused
  on every subsequent iteration (paper Section IV-C);
* the gain over naively treating every iteration as a full offload.

Run:  python examples/iterative_solver.py
"""

import numpy as np

from repro import CoCoPeLiaLibrary, Loc, deploy_quick, gemm_problem, testbed_ii
from repro.core.select import select_tile


def main() -> None:
    machine = testbed_ii()
    models = deploy_quick(machine)
    lib = CoCoPeLiaLibrary(machine, models)

    n = 8192          # system dimension
    block = 2048      # iterate block width
    iterations = 8

    full = gemm_problem(n, block, n)  # everything on the host
    resident = gemm_problem(n, block, n, loc_a=Loc.DEVICE)

    t_full = select_tile(full, models)
    t_res = select_tile(resident, models)
    print("Tile selection (DR model):")
    print(f"  full offload (A on host):      T={t_full.t_best:5d}, "
          f"predicted {t_full.predicted_time * 1e3:7.1f} ms/iter")
    print(f"  iterative (A device-resident): T={t_res.t_best:5d}, "
          f"predicted {t_res.predicted_time * 1e3:7.1f} ms/iter")

    print(f"\nRunning {iterations} iterations of V <- A @ V "
          f"({n}x{block}, A resident after warm-up)...")
    total_resident = 0.0
    total_naive = 0.0
    for i in range(iterations):
        if i == 0:
            # First iteration pays the full upload of A.
            res = lib.gemm(n, block, n, beta=0.0)
        else:
            res = lib.gemm(n, block, n, beta=0.0, loc_a=Loc.DEVICE)
        total_resident += res.seconds
        naive = lib.gemm(n, block, n, beta=0.0)
        total_naive += naive.seconds
        if i in (0, 1, iterations - 1):
            print(f"  iter {i}: resident {res.seconds * 1e3:7.1f} ms "
                  f"(T={res.tile_size})  vs full offload "
                  f"{naive.seconds * 1e3:7.1f} ms (T={naive.tile_size})")

    print(f"\nTotals over {iterations} iterations:")
    print(f"  location-aware:  {total_resident * 1e3:8.1f} ms")
    print(f"  naive full:      {total_naive * 1e3:8.1f} ms")
    print(f"  speedup:         {total_naive / total_resident:5.2f}x")
    cached = lib.prediction_cache.stats.misses
    print(f"\nModel reuse: {iterations * 2} calls required only {cached} "
          "tile-selection model evaluations (cached by problem signature).")

    print("\nNumerical check on a small instance...")
    rng = np.random.default_rng(1)
    a = rng.standard_normal((256, 256)) / 16.0
    v = rng.standard_normal((256, 64))
    v_ref = v.copy()
    for _ in range(3):
        out = np.zeros_like(v)
        lib.gemm(a=a, b=v, c=out, beta=0.0, tile_size=64)
        v = out / np.linalg.norm(out, axis=0)
        v_ref = a @ v_ref
        v_ref = v_ref / np.linalg.norm(v_ref, axis=0)
    err = np.max(np.abs(v - v_ref))
    print(f"  3-step block power iteration matches numpy (max err {err:.2e})")


if __name__ == "__main__":
    main()
