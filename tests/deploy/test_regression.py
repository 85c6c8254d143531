"""Tests for the deployment statistics: fits, CIs, stopping rule."""

import numpy as np
import pytest

from repro.deploy.regression import (
    confidence_interval,
    measure_until_stable,
    sem,
    t_ppf,
    t_sf,
    zero_intercept_lstsq,
)
from repro.errors import DeploymentError


class TestZeroInterceptFit:
    def test_recovers_exact_slope(self):
        x = np.arange(1.0, 65.0) * 1e6
        y = 2.5e-9 * x
        fit = zero_intercept_lstsq(x, y)
        assert fit.slope == pytest.approx(2.5e-9)
        assert fit.rse == pytest.approx(0.0, abs=1e-15)
        assert fit.n == 64

    def test_recovers_noisy_slope(self):
        rng = np.random.default_rng(0)
        x = np.arange(1.0, 65.0) * 1e6
        y = 2.5e-9 * x * (1 + 0.02 * rng.standard_normal(64))
        fit = zero_intercept_lstsq(x, y)
        assert fit.slope == pytest.approx(2.5e-9, rel=0.02)
        assert fit.rse > 0
        assert fit.p_value < 1e-10

    def test_bandwidth_inverse(self):
        x = [1e6, 2e6, 3e6]
        y = [1e-3, 2e-3, 3e-3]
        fit = zero_intercept_lstsq(x, y)
        assert fit.bandwidth == pytest.approx(1e9)

    def test_p_value_large_for_pure_noise(self):
        rng = np.random.default_rng(1)
        x = np.ones(50) + 0.1 * rng.standard_normal(50)
        y = rng.standard_normal(50)
        fit = zero_intercept_lstsq(x, y)
        assert fit.p_value > 0.01

    def test_too_few_samples_rejected(self):
        with pytest.raises(DeploymentError):
            zero_intercept_lstsq([1.0], [1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DeploymentError):
            zero_intercept_lstsq([1.0, 2.0], [1.0])

    def test_all_zero_x_rejected(self):
        with pytest.raises(DeploymentError):
            zero_intercept_lstsq([0.0, 0.0], [1.0, 2.0])


class TestConfidenceInterval:
    def test_zero_width_for_constant_samples(self):
        mean, half = confidence_interval([5.0] * 10)
        assert mean == 5.0
        assert half == 0.0

    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(2)
        small = rng.normal(10.0, 1.0, size=5)
        large = rng.normal(10.0, 1.0, size=500)
        _, half_small = confidence_interval(small)
        _, half_large = confidence_interval(large)
        assert half_large < half_small

    def test_matches_scipy_t(self):
        stats = pytest.importorskip("scipy.stats")

        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, half = confidence_interval(samples, 0.95)
        expected = stats.sem(samples) * stats.t.ppf(0.975, 4)
        assert mean == 3.0
        assert half == _close(expected)

    def test_single_sample_rejected(self):
        with pytest.raises(DeploymentError):
            confidence_interval([1.0])


def _close(want, rel=1e-12):
    return pytest.approx(want, rel=rel, abs=0)


class TestStudentT:
    """The exact Student-t against scipy, the test oracle."""

    DOFS = range(1, 400)
    LEVELS = (0.9, 0.95, 0.975, 0.995)
    T_GRID = np.geomspace(1e-3, 1e3, 61)

    def test_ppf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for dof in self.DOFS:
            for q in self.LEVELS:
                want = stats.t.ppf(q, dof)
                assert t_ppf(q, dof) == _close(want), (q, dof)
                assert t_ppf(1.0 - q, dof) == _close(-want), (1.0 - q, dof)

    def test_sf_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        checked = 0
        for dof in self.DOFS:
            for t, want in zip(self.T_GRID, stats.t.sf(self.T_GRID, dof)):
                if want < 1e-300:
                    continue
                assert t_sf(float(t), dof) == _close(want), (t, dof)
                assert t_sf(-float(t), dof) == _close(1.0 - want), (-t, dof)
                checked += 1
        assert checked > 0.9 * len(self.DOFS) * len(self.T_GRID)

    def test_sem_bit_equal_to_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(6)
        for n in (2, 3, 5, 17, 200):
            samples = rng.lognormal(-7.0, 0.3, n)
            assert sem(samples) == stats.sem(samples)

    def test_special_points(self):
        assert t_sf(0.0, 7) == 0.5
        assert t_sf(np.inf, 7) == 0.0
        assert t_sf(-np.inf, 7) == 1.0
        assert t_ppf(0.5, 7) == 0.0
        # dof 1 is Cauchy, dof 2 has a closed form.
        assert t_sf(1.0, 1) == _close(0.25, rel=1e-15)
        assert t_ppf(0.975, 2) == _close(
            (2.0 / (4 * 0.975 * 0.025) - 2.0) ** 0.5, rel=1e-14)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_bad_level_rejected(self, q):
        with pytest.raises(DeploymentError):
            t_ppf(q, 3)

    def test_bad_dof_rejected(self):
        with pytest.raises(DeploymentError):
            t_sf(1.0, 0)
        with pytest.raises(DeploymentError):
            t_ppf(0.9, 0)


class TestMeasureUntilStable:
    def test_constant_measure_stops_at_min_reps(self):
        calls = []

        def measure():
            calls.append(1)
            return 3.0

        mean, samples = measure_until_stable(measure, min_reps=5)
        assert mean == 3.0
        assert len(samples) == 5

    def test_noisy_measure_needs_more_reps(self):
        rng = np.random.default_rng(3)

        def measure():
            return float(rng.normal(1.0, 0.2))

        mean, samples = measure_until_stable(measure, min_reps=5,
                                             max_reps=500)
        assert len(samples) > 5
        assert mean == pytest.approx(1.0, rel=0.1)
        # The stopping criterion held at the final sample count.
        _, half = confidence_interval(samples)
        assert half <= 0.05 * mean

    def test_pathological_noise_raises(self):
        rng = np.random.default_rng(4)

        def measure():
            return float(rng.normal(0.1, 50.0))

        with pytest.raises(DeploymentError, match="stabilize"):
            measure_until_stable(measure, max_reps=20)

    def test_equal_min_and_max_fix_the_count(self):
        """min_reps == max_reps takes exactly that many samples, however
        wide their CI (the fixed-repetition baseline of the CI ablation)."""
        values = iter([1.0, 3.0])
        mean, samples = measure_until_stable(lambda: next(values),
                                             min_reps=2, max_reps=2)
        assert samples == [1.0, 3.0]
        assert mean == 2.0

    def test_zero_measurements_ok(self):
        mean, _ = measure_until_stable(lambda: 0.0)
        assert mean == 0.0

    def test_tighter_criterion_needs_more_samples(self):
        def run(rel):
            rng = np.random.default_rng(5)
            _, samples = measure_until_stable(
                lambda: float(rng.normal(1.0, 0.05)),
                rel_half_width=rel, max_reps=2000,
            )
            return len(samples)

        assert run(0.01) >= run(0.10)
