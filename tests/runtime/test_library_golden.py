"""Golden results for every library entry point.

Each case calls one entry point of one of the six libraries twice on
the same library instance (so the per-call device seed sequence is
pinned too) and compares every ``RunResult.to_json()`` field, plus a
sha256 of the output data, against ``tests/data/golden_library_results.json``.
Cases cover timing mode and compute mode, host- and device-resident
outputs, and CoCoPeLia's degradation ladder (a tile downshift and a
host fallback).

Compute-mode inputs are small integers, so every tile product and
accumulation is exact and the output hashes do not depend on the
order in which a BLAS implementation sums.

Serial's four traffic fields are left to ``TestSerial`` in
``tests/baselines/test_baselines.py``; here Serial's timing, kernels
and numerics are pinned.

Regenerate (only after an intentional change to a library's timing,
traffic or numerics)::

    PYTHONPATH=src python tests/runtime/test_library_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import functools

import numpy as np
import pytest

from repro.baselines import (BlasXLibrary, CublasXtLibrary,
                             SerialOffloadLibrary, UnifiedMemoryLibrary)
from repro.core.params import Loc
from repro.deploy import DeploymentConfig, deploy
from repro.runtime import CoCoPeLiaLibrary, MultiGpuCoCoPeLia
from repro.sim import FaultPlan
from repro.sim.interconnect import ring_topology
from repro.sim.machine import testbed_ii as _testbed_ii

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "golden_library_results.json")

#: Fields excluded per library (Serial's traffic: see the module doc).
EXCLUDED = {"Serial": ("h2d_bytes", "d2h_bytes", "h2d_transfers",
                       "d2h_transfers")}

D = Loc.DEVICE


def _ints(rng, shape, dtype):
    return rng.integers(-3, 4, size=shape).astype(dtype)


def _gemm_arrays(rng, m, n, k, dtype=np.float64):
    return {"a": _ints(rng, (m, k), dtype), "b": _ints(rng, (k, n), dtype),
            "c": _ints(rng, (m, n), dtype)}


def _syrk_arrays(rng, n, k, dtype=np.float64):
    return {"a": _ints(rng, (n, k), dtype), "c": _ints(rng, (n, n), dtype)}


def _gemv_arrays(rng, m, n, dtype=np.float64):
    return {"a": _ints(rng, (m, n), dtype), "x": _ints(rng, (n,), dtype),
            "y": _ints(rng, (m,), dtype)}


def _axpy_arrays(rng, n, dtype=np.float64):
    return {"x": _ints(rng, (n,), dtype), "y": _ints(rng, (n,), dtype)}


def _machine(plan=None):
    machine = _testbed_ii()
    return machine if plan is None else machine.with_faults(plan)


@functools.lru_cache(maxsize=None)
def _models():
    """Quick-scale models for Testbed II (automatic tile selection)."""
    return deploy(_testbed_ii(), DeploymentConfig.quick())


#: Downshift then succeed: the first allocation fails through the whole
#: retry budget (four attempts), the retry at a smaller T runs clean.
_DOWNSHIFT = FaultPlan(name="alloc-oom", seed=3,
                       scheduled=tuple(("alloc", i) for i in range(4)))
#: Every transfer fails: the ladder ends in the host fallback.
_DEAD_LINK = FaultPlan(name="dead-link", seed=5, transfer_fail_rate=1.0)

#: name -> (library factory, method, arrays factory or None, kwargs)
CASES = {
    # --- CoCoPeLia ----------------------------------------------------
    "coco-gemm-timing": (lambda: CoCoPeLiaLibrary(_machine()), "gemm", None,
                         dict(m=2048, n=1536, k=1024, tile_size=512)),
    "coco-gemm-timing-devC": (lambda: CoCoPeLiaLibrary(_machine()), "gemm",
                              None, dict(m=1024, n=1024, k=768, loc_c=D,
                                         tile_size=256)),
    "coco-gemm-host": (lambda: CoCoPeLiaLibrary(_machine()), "gemm",
                       lambda r: _gemm_arrays(r, 300, 200, 250),
                       dict(tile_size=128, alpha=2.0, beta=0.5)),
    "coco-gemm-devC": (lambda: CoCoPeLiaLibrary(_machine()), "gemm",
                       lambda r: _gemm_arrays(r, 300, 200, 250),
                       dict(tile_size=128, loc_a=D, loc_c=D)),
    "coco-sgemm-host": (lambda: CoCoPeLiaLibrary(_machine()), "gemm",
                        lambda r: _gemm_arrays(r, 256, 192, 128, np.float32),
                        dict(tile_size=64)),
    "coco-gemm-rect": (lambda: CoCoPeLiaLibrary(_machine()), "gemm",
                       lambda r: _gemm_arrays(r, 256, 192, 160),
                       dict(tile_size=(128, 64, 96))),
    "coco-gemm-nocache-louter": (lambda: CoCoPeLiaLibrary(_machine()), "gemm",
                                 lambda r: _gemm_arrays(r, 256, 256, 256),
                                 dict(tile_size=128, use_cache=False,
                                      order="l_outer")),
    "coco-gemm-prefetch": (lambda: CoCoPeLiaLibrary(_machine()), "gemm", None,
                           dict(m=1024, n=1024, k=1024, tile_size=256,
                                prefetch_depth=2)),
    "coco-syrk-timing": (lambda: CoCoPeLiaLibrary(_machine()), "syrk", None,
                         dict(n=1024, k=768, tile_size=256)),
    "coco-syrk-host": (lambda: CoCoPeLiaLibrary(_machine()), "syrk",
                       lambda r: _syrk_arrays(r, 200, 150),
                       dict(tile_size=64, alpha=2.0, beta=0.5)),
    "coco-syrk-devC": (lambda: CoCoPeLiaLibrary(_machine()), "syrk",
                       lambda r: _syrk_arrays(r, 200, 150),
                       dict(tile_size=64, loc_c=D)),
    "coco-gemv-timing": (lambda: CoCoPeLiaLibrary(_machine()), "gemv", None,
                         dict(m=4096, n=3072, tile_size=1024)),
    "coco-gemv-host": (lambda: CoCoPeLiaLibrary(_machine()), "gemv",
                       lambda r: _gemv_arrays(r, 300, 200),
                       dict(tile_size=64, alpha=2.0, beta=0.5)),
    "coco-gemv-devy": (lambda: CoCoPeLiaLibrary(_machine()), "gemv",
                       lambda r: _gemv_arrays(r, 300, 200),
                       dict(tile_size=64, loc_x=D, loc_y=D)),
    "coco-axpy-timing": (lambda: CoCoPeLiaLibrary(_machine()), "axpy", None,
                         dict(n=1 << 20, tile_size=1 << 17)),
    "coco-axpy-host": (lambda: CoCoPeLiaLibrary(_machine()), "axpy",
                       lambda r: _axpy_arrays(r, 5000),
                       dict(tile_size=1024, alpha=2.0)),
    "coco-axpy-devy": (lambda: CoCoPeLiaLibrary(_machine()), "axpy",
                       lambda r: _axpy_arrays(r, 5000),
                       dict(tile_size=1024, loc_x=D, loc_y=D)),
    # automatic tile selection and model predictions
    "coco-gemm-auto": (lambda: CoCoPeLiaLibrary(_machine(), _models()),
                       "gemm", None, dict(m=4096, n=4096, k=2048)),
    "coco-gemm-auto-rect": (lambda: CoCoPeLiaLibrary(_machine(), _models()),
                            "gemm", None, dict(m=2048, n=3072, k=1024,
                                               rect=True)),
    "coco-gemm-predict": (lambda: CoCoPeLiaLibrary(_machine(), _models()),
                          "gemm", lambda r: _gemm_arrays(r, 300, 200, 250),
                          dict(tile_size=128)),
    "coco-axpy-auto": (lambda: CoCoPeLiaLibrary(_machine(), _models()),
                       "axpy", None, dict(n=1 << 22)),
    "coco-syrk-predict": (lambda: CoCoPeLiaLibrary(_machine(), _models()),
                          "syrk", None, dict(n=2048, k=1024, tile_size=512)),
    "mg-gemm-auto": (lambda: MultiGpuCoCoPeLia(_machine(), 2, _models()),
                     "gemm", None, dict(m=2048, n=4096, k=2048)),
    # degradation ladder
    "coco-gemm-downshift": (lambda: CoCoPeLiaLibrary(_machine(_DOWNSHIFT)),
                            "gemm", lambda r: _gemm_arrays(r, 256, 256, 256),
                            dict(tile_size=256)),
    "coco-gemm-fallback-host": (
        lambda: CoCoPeLiaLibrary(_machine(_DEAD_LINK)), "gemm",
        lambda r: _gemm_arrays(r, 256, 192, 128), dict(tile_size=128)),
    "coco-gemm-fallback-devC": (
        lambda: CoCoPeLiaLibrary(_machine(_DEAD_LINK)), "gemm",
        lambda r: _gemm_arrays(r, 256, 192, 128),
        dict(tile_size=128, loc_c=D)),
    "coco-syrk-fallback-devC": (
        lambda: CoCoPeLiaLibrary(_machine(_DEAD_LINK)), "syrk",
        lambda r: _syrk_arrays(r, 200, 150), dict(tile_size=64, loc_c=D)),
    "coco-gemv-fallback-host": (
        lambda: CoCoPeLiaLibrary(_machine(_DEAD_LINK)), "gemv",
        lambda r: _gemv_arrays(r, 300, 200), dict(tile_size=64)),
    "coco-axpy-fallback-devy": (
        lambda: CoCoPeLiaLibrary(_machine(_DEAD_LINK)), "axpy",
        lambda r: _axpy_arrays(r, 5000), dict(tile_size=1024, loc_y=D)),
    # --- BLASX --------------------------------------------------------
    "blasx-gemm-timing": (lambda: BlasXLibrary(_machine()), "gemm", None,
                          dict(m=4096, n=3072, k=2048)),
    "blasx-gemm-host": (lambda: BlasXLibrary(_machine(), tile_size=128),
                        "gemm", lambda r: _gemm_arrays(r, 300, 200, 250),
                        dict(alpha=2.0, beta=0.5)),
    "blasx-gemm-devC": (lambda: BlasXLibrary(_machine(), tile_size=128),
                        "gemm", lambda r: _gemm_arrays(r, 300, 200, 250),
                        dict(loc_b=D, loc_c=D)),
    # --- cuBLASXt -----------------------------------------------------
    "xt-gemm-timing": (lambda: CublasXtLibrary(_machine()), "gemm", None,
                       dict(m=4096, n=3072, k=2048, tile_size=1024)),
    "xt-gemm-timing-default": (lambda: CublasXtLibrary(_machine()), "gemm",
                               None, dict(m=2048, n=2048, k=2048)),
    "xt-gemm-host": (lambda: CublasXtLibrary(_machine()), "gemm",
                     lambda r: _gemm_arrays(r, 300, 200, 250),
                     dict(tile_size=128, alpha=2.0, beta=0.5)),
    "xt-gemm-devC": (lambda: CublasXtLibrary(_machine(), nstreams=2), "gemm",
                     lambda r: _gemm_arrays(r, 300, 200, 250),
                     dict(tile_size=128, loc_a=D, loc_c=D)),
    # --- UnifiedMem ---------------------------------------------------
    "um-axpy-timing": (lambda: UnifiedMemoryLibrary(_machine()), "axpy",
                       None, dict(n=1 << 24)),
    "um-axpy-host": (lambda: UnifiedMemoryLibrary(_machine()), "axpy",
                     lambda r: _axpy_arrays(r, 5000),
                     dict(tile_size=1024, alpha=2.0)),
    "um-axpy-devy": (lambda: UnifiedMemoryLibrary(_machine()), "axpy",
                     lambda r: _axpy_arrays(r, 5000),
                     dict(tile_size=1024, loc_y=D)),
    # --- Serial -------------------------------------------------------
    "serial-gemm-timing": (lambda: SerialOffloadLibrary(_machine()), "gemm",
                           None, dict(m=2048, n=1536, k=1024)),
    "serial-gemm-host": (lambda: SerialOffloadLibrary(_machine()), "gemm",
                         lambda r: _gemm_arrays(r, 300, 200, 250),
                         dict(alpha=2.0, beta=0.5)),
    "serial-gemm-devC": (lambda: SerialOffloadLibrary(_machine()), "gemm",
                         lambda r: _gemm_arrays(r, 300, 200, 250),
                         dict(loc_a=D, loc_c=D)),
    "serial-axpy-timing": (lambda: SerialOffloadLibrary(_machine()), "axpy",
                           None, dict(n=1 << 20)),
    "serial-axpy-host": (lambda: SerialOffloadLibrary(_machine()), "axpy",
                         lambda r: _axpy_arrays(r, 5000), dict(alpha=2.0)),
    "serial-axpy-devy": (lambda: SerialOffloadLibrary(_machine()), "axpy",
                         lambda r: _axpy_arrays(r, 5000),
                         dict(loc_x=D, loc_y=D)),
    # --- Multi-GPU ----------------------------------------------------
    "mg-gemm-timing": (lambda: MultiGpuCoCoPeLia(_machine(), 2), "gemm",
                       None, dict(m=1024, n=1536, k=768, tile_size=256)),
    "mg-gemm-host": (lambda: MultiGpuCoCoPeLia(_machine(), 3), "gemm",
                     lambda r: _gemm_arrays(r, 256, 320, 192),
                     dict(tile_size=64, alpha=2.0, beta=0.5)),
    "mg-gemm-devC": (lambda: MultiGpuCoCoPeLia(_machine(), 2), "gemm",
                     lambda r: _gemm_arrays(r, 256, 320, 192),
                     dict(tile_size=64, loc_c=D)),
    "mg-gemm-fabric": (
        lambda: MultiGpuCoCoPeLia(_machine(), 2,
                                  topology=ring_topology(2, gb_per_s=50.0,
                                                         latency=1e-6)),
        "gemm", lambda r: _gemm_arrays(r, 256, 320, 192),
        dict(tile_size=64)),
}

#: Which array each routine writes.
_OUTPUT = {"gemm": "c", "syrk": "c", "gemv": "y", "axpy": "y"}


def _sha(array) -> str:
    if array is None:
        return None
    data = np.ascontiguousarray(array).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _record(result) -> dict:
    if hasattr(result, "shards"):  # MultiGpuResult
        return {"seconds": result.seconds, "n_gpus": result.n_gpus,
                "shards": [_record(s) for s in result.shards]}
    doc = result.to_json()
    for key in EXCLUDED.get(result.library, ()):
        doc.pop(key)
    doc["output_sha"] = _sha(result.output)
    return doc


def run_case(name: str) -> list:
    """Two calls of one entry point on one library instance."""
    factory, method, arrays_of, kwargs = CASES[name]
    lib = factory()
    out = []
    for call in range(2):
        arrays = {}
        if arrays_of is not None:
            arrays = arrays_of(np.random.default_rng(1000 + call))
        result = getattr(lib, method)(**arrays, **kwargs)
        doc = _record(result)
        written = arrays.get(_OUTPUT[method])
        doc["host_sha"] = _sha(written)
        out.append(doc)
    return json.loads(json.dumps(out))


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_point_matches_golden(name):
    assert run_case(name) == load_golden()[name]


def test_golden_covers_every_case():
    assert sorted(load_golden()) == sorted(CASES)


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    doc = {name: run_case(name) for name in sorted(CASES)}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc)} cases to {GOLDEN_PATH}", file=sys.stderr)
