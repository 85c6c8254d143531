"""The shared offload path: the operand binder and host operands.

Every library entry point binds its arrays through
:func:`repro.runtime.offload.bind_operands`, so each one rejects
explicit dims that contradict the arrays and partial array sets.
"""

import numpy as np
import pytest

from repro.baselines import (BlasXLibrary, CublasXtLibrary,
                             SerialOffloadLibrary, UnifiedMemoryLibrary)
from repro.blas.spec import AXPY, GEMM, GEMV, SYRK
from repro.core.params import Loc
from repro.errors import BlasError
from repro.runtime import (CoCoPeLiaLibrary, MultiGpuCoCoPeLia,
                           bind_operands, host_operands)
from repro.sim.machine import custom_machine


@pytest.fixture(scope="module")
def machine():
    return custom_machine(noise_sigma=0.0)


def _gemm():
    return {"a": np.ones((64, 48)), "b": np.ones((48, 40)),
            "c": np.ones((64, 40))}


def _vectors():
    return {"x": np.ones(256), "y": np.ones(256)}


#: entry point -> (library factory, method, arrays, extra kwargs,
#: an explicit dim that contradicts the arrays, the dims that match)
ENTRY_POINTS = {
    "CoCoPeLia.gemm": (CoCoPeLiaLibrary, "gemm", _gemm, {"tile_size": 32},
                       {"m": 999}, {"m": 64, "n": 40, "k": 48}),
    "CoCoPeLia.syrk": (CoCoPeLiaLibrary, "syrk",
                       lambda: {"a": np.ones((64, 48)),
                                "c": np.ones((64, 64))},
                       {"tile_size": 32}, {"k": 999}, {"n": 64, "k": 48}),
    "CoCoPeLia.gemv": (CoCoPeLiaLibrary, "gemv",
                       lambda: {"a": np.ones((64, 48)), "x": np.ones(48),
                                "y": np.ones(64)},
                       {"tile_size": 32}, {"n": 999}, {"m": 64, "n": 48}),
    "CoCoPeLia.axpy": (CoCoPeLiaLibrary, "axpy", _vectors,
                       {"tile_size": 64}, {"n": 10}, {"n": 256}),
    "BLASX.gemm": (BlasXLibrary, "gemm", _gemm, {}, {"m": 999},
                   {"m": 64, "n": 40, "k": 48}),
    "cuBLASXt.gemm": (CublasXtLibrary, "gemm", _gemm, {"tile_size": 32},
                      {"k": 999}, {"m": 64, "n": 40, "k": 48}),
    "Serial.gemm": (SerialOffloadLibrary, "gemm", _gemm, {}, {"n": 999},
                    {"m": 64, "n": 40, "k": 48}),
    "Serial.axpy": (SerialOffloadLibrary, "axpy", _vectors, {}, {"n": 10},
                    {"n": 256}),
    "UnifiedMem.axpy": (UnifiedMemoryLibrary, "axpy", _vectors, {},
                        {"n": 10}, {"n": 256}),
    "MultiGpu.gemm": (lambda m: MultiGpuCoCoPeLia(m, 2), "gemm", _gemm,
                      {"tile_size": 32}, {"m": 999},
                      {"m": 64, "n": 40, "k": 48}),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestEveryEntryPoint:
    def test_contradicting_explicit_dim_rejected(self, machine, entry):
        factory, method, arrays, kwargs, wrong, _ = ENTRY_POINTS[entry]
        with pytest.raises(BlasError, match="disagree"):
            getattr(factory(machine), method)(**wrong, **arrays(), **kwargs)

    def test_matching_explicit_dims_accepted(self, machine, entry):
        factory, method, arrays, kwargs, _, right = ENTRY_POINTS[entry]
        getattr(factory(machine), method)(**right, **arrays(), **kwargs)

    def test_partial_arrays_rejected(self, machine, entry):
        factory, method, arrays, kwargs, _, right = ENTRY_POINTS[entry]
        first, *_ = arrays().items()
        with pytest.raises(BlasError):
            getattr(factory(machine), method)(**dict([first]), **kwargs)


class TestBindOperands:
    @pytest.mark.parametrize("routine,arrays,dims", [
        (GEMM, ((5, 3), (3, 4), (5, 4)), (5, 4, 3)),
        (GEMV, ((5, 3), (3,), (5,)), (5, 3)),
        (AXPY, ((7,), (7,)), (7,)),
        (SYRK, ((5, 3), (5, 5)), (5, 3)),
    ])
    def test_dims_derived_from_arrays(self, routine, arrays, dims):
        arrs = tuple(np.zeros(shape, np.float32) for shape in arrays)
        locs = (Loc.HOST,) * len(arrs)
        problem, hosts = bind_operands(routine, (None,) * len(dims), arrs,
                                       np.float64, locs)
        assert problem.dims == dims
        assert problem.dtype == np.float32
        for op, arr in zip(problem.operands, arrs):
            assert hosts[op.name].array is arr

    def test_timing_mode_needs_every_dim(self):
        with pytest.raises(BlasError, match="needs 3 dims"):
            bind_operands(GEMM, (64, None, 64), (None, None, None),
                          np.float64, (Loc.HOST,) * 3)

    def test_timing_mode_shadows(self):
        problem, hosts = bind_operands(GEMM, (8, 6, 4), (None,) * 3,
                                       np.float64, (Loc.HOST,) * 3)
        assert [h.shape for h in hosts.values()] == [(8, 4), (4, 6), (8, 6)]
        assert not any(h.has_data for h in hosts.values())

    def test_inconsistent_shapes_rejected(self):
        arrs = (np.zeros((5, 3)), np.zeros((4, 4)), np.zeros((5, 4)))
        with pytest.raises(BlasError, match="operand B shape"):
            bind_operands(GEMM, (None,) * 3, arrs, np.float64,
                          (Loc.HOST,) * 3)

    def test_wrong_rank_rejected(self):
        with pytest.raises(BlasError, match="wrong rank"):
            bind_operands(AXPY, (None,), (np.zeros((4, 1)), np.zeros(4)),
                          np.float64, (Loc.HOST,) * 2)

    def test_mixed_dtypes_rejected(self):
        arrs = (np.zeros(4), np.zeros(4, np.float32))
        with pytest.raises(BlasError, match="dtype"):
            bind_operands(AXPY, (None,), arrs, np.float64, (Loc.HOST,) * 2)
