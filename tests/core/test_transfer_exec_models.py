"""Tests for the transfer sub-models and the execution lookup table."""

import pytest

from repro.core.exec_model import ExecLookup
from repro.core.transfer_model import LinkModel, TransferFit
from repro.errors import ModelError


@pytest.fixture()
def fit():
    return TransferFit(latency=1e-5, sec_per_byte=1e-9, sl=1.3,
                       rse=1e-6, p_value=1e-20, samples=64)


class TestTransferFit:
    def test_time_linear(self, fit):
        assert fit.time(0) == pytest.approx(1e-5)
        assert fit.time(1_000_000) == pytest.approx(1e-5 + 1e-3)

    def test_bandwidth(self, fit):
        assert fit.bandwidth == pytest.approx(1e9)
        assert fit.bandwidth_gb == pytest.approx(1.0)

    def test_negative_bytes_rejected(self, fit):
        with pytest.raises(ModelError):
            fit.time(-1)

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ModelError):
            TransferFit(latency=-1e-6, sec_per_byte=1e-9)
        with pytest.raises(ModelError):
            TransferFit(latency=1e-6, sec_per_byte=0.0)
        with pytest.raises(ModelError):
            TransferFit(latency=1e-6, sec_per_byte=1e-9, sl=0.5)

    def test_dict_round_trip(self, fit):
        again = TransferFit.from_dict(fit.to_dict())
        assert again == fit

    def test_link_model_round_trip(self, fit):
        link = LinkModel(h2d=fit, d2h=fit)
        assert LinkModel.from_dict(link.to_dict()) == link


class TestExecLookup:
    def make(self):
        lk = ExecLookup("gemm", "d")
        lk.add(256, 1e-4)
        lk.add(512, 8e-4)
        lk.add(1024, 6e-3)
        return lk

    def test_exact_lookup(self):
        lk = self.make()
        assert lk.time(512) == 8e-4

    def test_unknown_without_interpolation_raises(self):
        lk = self.make()
        with pytest.raises(ModelError, match="benchmarked"):
            lk.time(700)

    def test_interpolation_between_points(self):
        lk = self.make()
        t = lk.time(700, interpolate=True)
        assert 8e-4 < t < 6e-3

    def test_interpolation_monotone(self):
        lk = self.make()
        ts = [lk.time(t, interpolate=True) for t in (300, 400, 600, 800, 900)]
        assert ts == sorted(ts)

    def test_extrapolation_below_uses_cubic_scaling(self):
        lk = self.make()
        assert lk.time(128, interpolate=True) == pytest.approx(
            1e-4 * (128 / 256) ** 3)

    def test_extrapolation_above(self):
        lk = self.make()
        assert lk.time(2048, interpolate=True) == pytest.approx(
            6e-3 * (2048 / 1024) ** 3)

    def test_tile_sizes_sorted(self):
        lk = ExecLookup("gemm", "d")
        lk.add(1024, 1.0)
        lk.add(256, 0.1)
        assert lk.tile_sizes == [256, 1024]

    def test_contains_and_len(self):
        lk = self.make()
        assert 256 in lk and 700 not in lk
        assert len(lk) == 3

    def test_invalid_entries_rejected(self):
        lk = ExecLookup("gemm", "d")
        with pytest.raises(ModelError):
            lk.add(0, 1.0)
        with pytest.raises(ModelError):
            lk.add(256, 0.0)

    def test_empty_lookup_interpolation_raises(self):
        lk = ExecLookup("gemm", "d")
        with pytest.raises(ModelError, match="empty"):
            lk.time(256, interpolate=True)

    def test_dict_round_trip(self):
        lk = self.make()
        again = ExecLookup.from_dict(lk.to_dict())
        assert again.tile_sizes == lk.tile_sizes
        assert again.time(512) == lk.time(512)
        assert again.routine == "gemm" and again.dtype_prefix == "d"
