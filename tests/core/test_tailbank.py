"""PercentileBank unit tests: bucketing, refit schedule, determinism."""

import numpy as np
import pytest

from repro.core import GLOBAL_BUCKET, TAIL_PERCENTILES, PercentileBank, tail_bucket
from repro.core.params import axpy_problem, gemm_problem
from repro.errors import ReproError

GEMM = gemm_problem(1024, 1024, 1024, np.float64)
AXPY = axpy_problem(1 << 20, np.float64)


class TestBucketing:
    def test_bucket_key_shape(self):
        routine, prefix, decade = tail_bucket(GEMM)
        assert routine == "gemm" and prefix == "d"
        assert decade == int(np.floor(np.log10(GEMM.flops())))

    def test_size_separates_buckets(self):
        tiny = gemm_problem(256, 256, 256, np.float64)
        huge = gemm_problem(8192, 8192, 8192, np.float64)
        assert tail_bucket(tiny) != tail_bucket(huge)

    def test_dtype_separates_buckets(self):
        f32 = gemm_problem(1024, 1024, 1024, np.float32)
        assert tail_bucket(f32) != tail_bucket(GEMM)
        assert tail_bucket(f32)[1] == "s"

    def test_routine_separates_buckets(self):
        assert tail_bucket(AXPY)[0] == "axpy"
        assert tail_bucket(AXPY) != tail_bucket(GEMM)


class TestObserveAndRefit:
    def test_no_fit_before_schedule(self):
        bank = PercentileBank(refit_every=8)
        for _ in range(7):
            bank.observe(GEMM, 1.0, 1.5)
        assert bank.refits == 0
        assert bank.multiplier(GEMM, 99.0) == 1.0

    def test_refit_fires_exactly_on_schedule(self):
        bank = PercentileBank(refit_every=8)
        for _ in range(8):
            bank.observe(GEMM, 1.0, 1.5)
        # The problem bucket and the global bucket both hit count 8.
        assert bank.refits == 2
        assert bank.multiplier(GEMM, 99.0) == pytest.approx(1.5)

    def test_ratio_quantiles_are_numpy_percentiles(self):
        bank = PercentileBank(refit_every=4)
        ratios = [1.0, 1.2, 1.4, 2.0]
        for r in ratios:
            bank.observe(GEMM, 2.0, 2.0 * r)
        for p in TAIL_PERCENTILES:
            assert bank.quantile(GEMM, p) == pytest.approx(
                float(np.percentile(ratios, p)))

    def test_global_bucket_is_fallback(self):
        bank = PercentileBank(refit_every=4)
        for _ in range(4):
            bank.observe(GEMM, 1.0, 2.0)
        # axpy never observed: its bucket is empty, so the global
        # bucket (fed by the gemm observations) answers.
        assert bank.quantile(AXPY, 95.0) == pytest.approx(2.0)
        assert bank.multiplier(AXPY, 95.0) == pytest.approx(2.0)

    def test_multiplier_clamps_at_one(self):
        bank = PercentileBank(refit_every=4)
        for _ in range(4):
            bank.observe(GEMM, 2.0, 1.0)  # model over-predicts 2x
        assert bank.quantile(GEMM, 99.0) == pytest.approx(0.5)
        assert bank.multiplier(GEMM, 99.0) == 1.0

    def test_unknown_percentile_returns_mean_behaviour(self):
        bank = PercentileBank(refit_every=4)
        for _ in range(4):
            bank.observe(GEMM, 1.0, 3.0)
        assert bank.quantile(GEMM, 12.5) is None
        assert bank.multiplier(GEMM, 12.5) == 1.0

    def test_degenerate_pairs_ignored(self):
        bank = PercentileBank()
        bank.observe(GEMM, 0.0, 1.0)
        bank.observe(GEMM, 1.0, 0.0)
        bank.observe(GEMM, -1.0, 1.0)
        bank.observe(GEMM, float("nan"), 1.0)
        bank.observe(GEMM, 1.0, float("inf"))
        assert bank.observations == 0
        assert bank._samples == {}

    def test_window_bounds_samples(self):
        bank = PercentileBank(window=16, refit_every=8)
        for i in range(100):
            bank.observe(GEMM, 1.0, 1.0 + i)
        assert len(bank._samples[tail_bucket(GEMM)]) == 16
        assert len(bank._samples[GLOBAL_BUCKET]) == 16
        # Lifetime counts keep driving the schedule past the window.
        assert bank._counts[GLOBAL_BUCKET] == 100

    def test_ensure_percentile_refits_existing_samples(self):
        bank = PercentileBank(refit_every=4)
        for _ in range(4):
            bank.observe(GEMM, 1.0, 2.0)
        assert bank.quantile(GEMM, 75.0) is None
        bank.ensure_percentile(75.0)
        assert 75.0 in bank.percentiles
        assert bank.quantile(GEMM, 75.0) == pytest.approx(2.0)

    def test_refits_count_every_scheduled_refit(self):
        bank = PercentileBank(refit_every=2)
        seen = {bank.refits}
        for i in range(8):
            bank.observe(GEMM, 1.0, 1.0 + i)
            seen.add(bank.refits)
        # 4 scheduled refits x 2 buckets (problem + global); both
        # buckets refit within one observe.
        assert bank.refits == 8
        assert seen == {0, 2, 4, 6, 8}


class TestValidation:
    def test_percentile_range(self):
        for bad in (0.0, -5.0, 101.0, float("nan")):
            with pytest.raises(ReproError):
                PercentileBank(percentiles=(bad,))
            with pytest.raises(ReproError):
                PercentileBank().ensure_percentile(bad)

    def test_needs_at_least_one_percentile(self):
        with pytest.raises(ReproError):
            PercentileBank(percentiles=())

    def test_refit_every_and_window(self):
        with pytest.raises(ReproError):
            PercentileBank(refit_every=0)
        with pytest.raises(ReproError):
            PercentileBank(window=4, refit_every=8)


class TestDeterminismAndPersistence:
    def _fed(self):
        bank = PercentileBank(refit_every=4)
        for i in range(16):
            bank.observe(GEMM, 1.0, 1.0 + (i % 5) * 0.1)
            bank.observe(AXPY, 2.0, 2.0 + (i % 3) * 0.2)
        return bank

    def test_same_sequence_same_state(self):
        assert self._fed().to_dict() == self._fed().to_dict()

    def test_round_trip_preserves_fits(self):
        bank = self._fed()
        back = PercentileBank.from_dict(bank.to_dict())
        assert back.percentiles == bank.percentiles
        assert back.observations == bank.observations
        for p in bank.percentiles:
            for problem in (GEMM, AXPY):
                assert back.quantile(problem, p) == bank.quantile(problem, p)

    def test_reloaded_bank_keeps_refining(self):
        back = PercentileBank.from_dict(self._fed().to_dict())
        before = back.quantile(GEMM, 99.0)
        # The reloaded counts put the gemm bucket mid-schedule; feeding
        # it to the next multiple of refit_every refits from the fresh
        # window only.
        back.observe(GEMM, 1.0, 9.0)
        while back._counts[tail_bucket(GEMM)] % back.refit_every != 0:
            back.observe(GEMM, 1.0, 9.0)
        assert back.quantile(GEMM, 99.0) != before

    def test_snapshot_shape(self):
        snap = self._fed().snapshot()
        assert snap["percentiles"] == [50.0, 95.0, 99.0]
        assert snap["observations"] == 32
        assert snap["refits"] > 0
        names = [(b["routine"], b["dtype"]) for b in snap["buckets"]]
        assert names == sorted(names)
        for bucket in snap["buckets"]:
            assert set(bucket["quantiles"]) == {"p50", "p95", "p99"}
            assert bucket["n"] > 0
