"""Tests for the units helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro import errors, units


class TestUnits:
    def test_dtype_sizes(self):
        assert units.dtype_size(np.float64) == 8
        assert units.dtype_size(np.float32) == 4
        assert units.dtype_size("float64") == 8

    def test_unsupported_dtype_raises(self):
        with pytest.raises(errors.BlasError):
            units.dtype_size(np.int32)
        with pytest.raises(errors.BlasError):
            units.dtype_size(np.complex128)

    def test_gflops(self):
        assert units.gflops(2e9, 1.0) == pytest.approx(2.0)
        assert units.gflops(1e9, 0.5) == pytest.approx(2.0)

    def test_gflops_invalid_duration(self):
        with pytest.raises(ValueError):
            units.gflops(1e9, 0.0)

    def test_gb_per_s(self):
        assert units.gb_per_s(3e9, 1.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            units.gb_per_s(1, -1.0)

    def test_rate_conversions(self):
        assert units.from_gb_per_s(2.5) == 2.5e9
        assert units.from_tflops(3.0) == 3e12

    def test_binary_sizes(self):
        assert units.gib(2) == 2 << 30
        assert units.gib(0.5) == 1 << 29


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        errors.SimulationError,
        errors.InvalidTransferError,
        errors.StreamError,
        errors.BlasError,
        errors.ModelError,
        errors.DeploymentError,
        errors.SchedulerError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_device_memory_error_fields(self):
        exc = errors.DeviceMemoryError(requested=100, free=50, capacity=200)
        assert exc.requested == 100
        assert exc.free == 50
        assert exc.capacity == 200
        assert "OOM" in str(exc)
        assert isinstance(exc, errors.SimulationError)

    def test_catch_all_library_failures(self):
        """A caller can catch ReproError without catching ValueError."""
        with pytest.raises(errors.ReproError):
            raise errors.SchedulerError("x")
        with pytest.raises(ValueError):
            try:
                raise ValueError("not a library error")
            except errors.ReproError:  # pragma: no cover
                pytest.fail("ReproError must not catch ValueError")
