import math

import numpy as np
import pytest

from ersim.errors import InvalidParameterError
from ersim.fitting import (
    MODELS,
    decay_initial_guess,
    exponential_decay,
    fit_exponential,
    fit_gaussian,
    fit_lorentzian,
    gaussian_peak,
    levenberg_marquardt,
    lorentzian_peak,
    peak_initial_guess,
)
from ersim.records import DecayHistogram, Spectrum


def _fd_step_scales(kind, params):
    """Characteristic scale of each parameter for finite-difference steps.

    The center of a peak lives on an absolute frequency axis, so its
    sensitivity scale is the linewidth, not its own magnitude.
    """
    if kind == "exponential":
        amplitude, t1, baseline = params
        return (abs(amplitude), t1, max(abs(baseline), abs(amplitude)))
    center, fwhm, amplitude, baseline = params
    return (fwhm, fwhm, abs(amplitude), max(abs(baseline), abs(amplitude)))


def jacobian_fd_max_error(kind, x, params):
    """Worst column-norm relative deviation between analytic and central FD."""
    model, jacobian, _, _ = MODELS[kind]
    analytic = jacobian(x, np.asarray(params, dtype=float))
    worst = 0.0
    for j, scale in enumerate(_fd_step_scales(kind, params)):
        h = 6e-6 * max(scale, 1e-12)
        hi = np.array(params, dtype=float)
        lo = np.array(params, dtype=float)
        hi[j] += h
        lo[j] -= h
        fd = (model(x, hi) - model(x, lo)) / (2.0 * h)
        num = float(np.linalg.norm(analytic[:, j] - fd))
        den = max(float(np.linalg.norm(analytic[:, j])), 1e-300)
        worst = max(worst, num / den)
    return worst


def random_peak_params(rng, x):
    span = x[-1] - x[0]
    center = rng.uniform(x[0] + 0.2 * span, x[-1] - 0.2 * span)
    fwhm = rng.uniform(0.05, 0.5) * span
    amplitude = rng.uniform(-50.0, 50.0) or 1.0
    baseline = rng.uniform(-10.0, 10.0)
    return center, fwhm, amplitude, baseline


class TestJacobians:
    def test_peak_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(1234)
        x = np.linspace(-5.0, 5.0, 61)
        for kind in ("lorentzian", "gaussian"):
            for _ in range(50):
                err = jacobian_fd_max_error(kind, x, random_peak_params(rng, x))
                assert err < 1e-6

    def test_exponential_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        t = np.linspace(0.0, 10.0, 61)
        for _ in range(50):
            params = (rng.uniform(1.0, 100.0), rng.uniform(0.3, 5.0), rng.uniform(-5.0, 5.0))
            assert jacobian_fd_max_error("exponential", t, params) < 1e-6

    def test_jacobians_at_experiment_scales(self):
        x = np.linspace(195.59e12 - 2e10, 195.59e12 + 2e10, 101)
        err = jacobian_fd_max_error("lorentzian", x, (195.59e12, 4.7e9, -0.8, 1.0))
        assert err < 1e-6
        t = np.linspace(0.0, 20e-6, 81)
        err = jacobian_fd_max_error("exponential", t, (100.0, 2.43e-6, 0.5))
        assert err < 1e-6


class TestRoundTrips:
    def test_perturbed_initialization_recovers_parameters(self):
        rng = np.random.default_rng(7)
        x = np.linspace(-4.0, 4.0, 101)
        cases = [
            ("lorentzian", (0.3, 1.2, 40.0, 3.0)),
            ("gaussian", (-0.5, 0.9, -25.0, 10.0)),
        ]
        for kind, true in cases:
            model, jac, _, log_mask = MODELS[kind]
            y = model(x, np.asarray(true))
            for _ in range(10):
                p0 = np.asarray(true) * (1.0 + rng.uniform(-0.2, 0.2, size=4))
                p, _, _, _, status = levenberg_marquardt(model, jac, x, y, p0, log_mask=log_mask)
                assert status == "ok"
                assert np.all(np.abs(p - np.asarray(true)) <= 1e-3 * np.abs(true))

    def test_exponential_roundtrip_perturbed(self):
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 12.0, 80)
        true = (120.0, 2.2, 4.0)
        model, jac, _, log_mask = MODELS["exponential"]
        y = model(t, np.asarray(true))
        for _ in range(10):
            p0 = np.asarray(true) * (1.0 + rng.uniform(-0.2, 0.2, size=3))
            p, _, _, _, status = levenberg_marquardt(model, jac, t, y, p0, log_mask=log_mask)
            assert status == "ok"
            assert np.all(np.abs(p - np.asarray(true)) <= 1e-3 * np.abs(true))


class TestFitLorentzian:
    def test_noiseless_cavity_spectrum(self):
        center = 195.59e12
        fwhm = 4.724e9
        x = np.linspace(center - 4 * fwhm, center + 4 * fwhm, 200)
        y = lorentzian_peak(x, (center, fwhm, -0.8, 1.0))
        fit = fit_lorentzian(Spectrum(x, np.clip(y, 0.0, None)))
        assert fit.converged
        assert fit.value("q_factor") == pytest.approx(center / fwhm, rel=0.005)

    def test_noisy_fwhm_within_two_percent(self):
        center = 195.59e12
        fwhm = 4.724e9
        rng = np.random.default_rng(42)
        x = np.linspace(center - 4 * fwhm, center + 4 * fwhm, 200)
        y = lorentzian_peak(x, (center, fwhm, -0.8, 1.0))
        noisy = y * (1.0 + 0.01 * rng.standard_normal(len(x)))
        fit = fit_lorentzian(Spectrum(x, np.clip(noisy, 0.0, None)))
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(fwhm, rel=0.02)

    def test_pure_baseline_flagged_degenerate(self):
        x = np.linspace(0.0, 10.0, 50)
        fit = fit_lorentzian(Spectrum(x, np.full(50, 7.0)))
        assert not fit.converged
        assert fit.status == "degenerate"
        assert fit.value("amplitude") == 0.0
        assert math.isnan(fit.sigma("baseline"))

    def test_requires_five_points(self):
        with pytest.raises(InvalidParameterError):
            fit_lorentzian(Spectrum(np.arange(4.0), np.ones(4)))

    def test_uncertainties_scale_with_noise(self):
        center, fwhm = 0.0, 2.0
        x = np.linspace(-8, 8, 200)
        rng = np.random.default_rng(3)
        y = lorentzian_peak(x, (center, fwhm, 50.0, 5.0))
        fit = fit_lorentzian(Spectrum(x, y + rng.normal(0, 0.5, len(x)) + 10))
        assert fit.converged
        assert 0 < fit.sigma("fwhm") < 0.2 * fwhm


class TestFitGaussian:
    def test_noiseless_linewidth(self):
        fwhm = 173.6e6
        x = 195.6e12 + np.linspace(-400e6, 400e6, 81)
        y = gaussian_peak(x, (195.6e12, fwhm, 300.0, 2.0))
        fit = fit_gaussian(Spectrum(x, y))
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(fwhm, rel=1e-3)

    def test_fwhm_sigma_relation(self):
        sigma = 100e6
        x = np.linspace(-5 * sigma, 5 * sigma, 101)
        y = 10.0 * np.exp(-(x**2) / (2.0 * sigma**2))
        fit = fit_gaussian(Spectrum(x, y))
        assert fit.converged
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma
        assert expected == pytest.approx(235.48e6, rel=1e-4)
        assert fit.value("fwhm") == pytest.approx(expected, rel=1e-3)


class TestFitExponential:
    @staticmethod
    def histogram(t1=2.43e-6, amplitude=100.0, baseline=0.0, n_bins=80, t_max=20e-6):
        edges = np.linspace(0.0, t_max, n_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = exponential_decay(centers, (amplitude, t1, baseline))
        return DecayHistogram(edges, counts, total_shots=1000)

    def test_noiseless_recovery(self):
        fit = fit_exponential(self.histogram())
        assert fit.converged
        assert fit.value("t1") == pytest.approx(2.43e-6, rel=1e-3)

    def test_baseline_recovery(self):
        fit = fit_exponential(self.histogram(baseline=7.5))
        assert fit.converged
        assert fit.value("baseline") == pytest.approx(7.5, rel=1e-2)

    def test_flat_data_degenerate_with_baseline_fallback(self):
        edges = np.linspace(0.0, 1.0, 11)
        fit = fit_exponential(DecayHistogram(edges, np.full(10, 5.0), 1))
        assert not fit.converged
        assert fit.status == "degenerate"
        assert fit.value("amplitude") == 0.0
        assert fit.value("baseline") == pytest.approx(5.0)

    def test_requires_four_nonempty_bins(self):
        edges = np.linspace(0.0, 1.0, 11)
        counts = np.zeros(10)
        counts[:3] = 5.0
        with pytest.raises(InvalidParameterError):
            fit_exponential(DecayHistogram(edges, counts, 1))

    def test_lifetime_positive_by_construction(self):
        rng = np.random.default_rng(11)
        edges = np.linspace(0.0, 10e-6, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        counts = np.clip(
            exponential_decay(centers, (20.0, 1e-6, 0.2)) + rng.normal(0, 2.0, 40), 0, None
        )
        fit = fit_exponential(DecayHistogram(edges, counts, 100))
        assert fit.value("t1") > 0


class TestNonConvergence:
    def test_iteration_limit_flags_not_converged(self):
        model, jac, _, log_mask = MODELS["gaussian"]
        x = np.linspace(-3, 3, 40)
        y = model(x, np.array([0.0, 1.0, 10.0, 0.0]))
        p0 = (2.5, 4.0, -3.0, 8.0)
        p, cov, rss, iters, status = levenberg_marquardt(
            model, jac, x, y, p0, log_mask=log_mask, max_iterations=1
        )
        assert status == "max_iterations"
        assert iters == 1
        assert cov is None

    def test_unconverged_fit_result_has_nan_sigmas(self):
        # a two-point-per-parameter pathological spectrum that cannot settle in 1 step
        x = np.linspace(0, 1, 6)
        y = np.array([0.0, 5.0, 0.0, 5.0, 0.0, 5.0])
        from ersim.fitting import _build_result

        result = _build_result(("a", "b"), np.array([1.0, 2.0]), None, 1.0, 3, "max_iterations")
        assert not result.converged
        assert all(math.isnan(p.sigma) for p in result.parameters)

    def test_singular_normal_matrix_gives_no_covariance(self):
        # the width collapses far below the grid step, so the peak's Jacobian
        # columns vanish together and the data determine no uncertainty
        fit = fit_lorentzian(Spectrum(np.linspace(1, 2, 7), [2, 4, 3, 1, 6, 2, 2]))
        assert fit.converged and fit.covariance is None
        assert all(math.isnan(p.sigma) for p in fit.parameters)

    def test_damping_limit_reports_stalled(self):
        # no step lowers the cost long before the 200-iteration limit
        fit = fit_gaussian(Spectrum(np.linspace(0, 1, 7), [2, 4, 3, 1, 6, 2, 2]))
        assert not fit.converged
        assert fit.status == "stalled"
        assert fit.iterations < 200


class TestHeuristics:
    def test_peak_guess_finds_dip(self):
        x = np.linspace(0.0, 10.0, 101)
        y = lorentzian_peak(x, (6.0, 1.5, -4.0, 9.0))
        center, fwhm, amplitude, baseline = peak_initial_guess(x, y)
        assert center == pytest.approx(6.0, abs=0.2)
        assert amplitude < 0
        assert baseline == pytest.approx(9.0, abs=0.2)
        assert 0.5 < fwhm < 4.0

    def test_decay_guess_near_truth(self):
        t = np.linspace(0.0, 10.0, 100)
        y = exponential_decay(t, (50.0, 2.0, 1.0))
        amplitude, t1, baseline = decay_initial_guess(t, y)
        assert amplitude == pytest.approx(49.0, rel=0.2)
        assert t1 == pytest.approx(2.0, rel=0.5)
