"""Damped Gauss-Newton (Levenberg-Marquardt) peak and decay fitting.

Three model families with analytic Jacobians: Lorentzian peak, Gaussian peak
and exponential decay.  Width and lifetime parameters are kept positive by
optimizing their logarithm; reported values and uncertainties are in natural
units.  Initial guesses come from data heuristics (extremum location,
half-maximum crossings, edge-point baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .physics import _require, lorentzian
from .records import DecayHistogram, Spectrum

_LN2x4 = 4.0 * math.log(2.0)
_XTOL = 1e-12   # convergence: relative step in the internal parameters
_FTOL = 1e-12   # convergence: relative decrease of the cost
# The models compute up to fourth powers of their parameters (the Lorentzian
# Jacobian squares (x - center)**2 + (fwhm/2)**2), so a parameter of magnitude
# within exp(+-_LOG_LIMIT) keeps them finite: exp(4 * 175) is a normal double.
_LOG_LIMIT = 175.0


def lorentzian_peak(x, params):
    """baseline + amplitude * (fwhm/2)^2 / ((x-center)^2 + (fwhm/2)^2)."""
    center, fwhm, amplitude, baseline = params
    return lorentzian(x, center, fwhm, amplitude, baseline)


def lorentzian_peak_jacobian(x, params):
    center, fwhm, amplitude, baseline = params
    half = 0.5 * fwhm
    dx = x - center
    denom = dx**2 + half**2
    shape = half**2 / denom
    j_center = amplitude * half**2 * 2.0 * dx / denom**2
    j_fwhm = amplitude * half * dx**2 / denom**2
    j_amp = shape
    j_base = np.ones_like(x)
    return np.column_stack([j_center, j_fwhm, j_amp, j_base])


def gaussian_peak(x, params):
    """baseline + amplitude * exp(-4 ln2 (x-center)^2 / fwhm^2)."""
    center, fwhm, amplitude, baseline = params
    return baseline + amplitude * np.exp(-_LN2x4 * (x - center) ** 2 / fwhm**2)


def gaussian_peak_jacobian(x, params):
    center, fwhm, amplitude, baseline = params
    dx = x - center
    shape = np.exp(-_LN2x4 * dx**2 / fwhm**2)
    j_center = amplitude * shape * 2.0 * _LN2x4 * dx / fwhm**2
    j_fwhm = amplitude * shape * 2.0 * _LN2x4 * dx**2 / fwhm**3
    j_amp = shape
    j_base = np.ones_like(x)
    return np.column_stack([j_center, j_fwhm, j_amp, j_base])


def exponential_decay(t, params):
    """baseline + amplitude * exp(-t / t1)."""
    amplitude, t1, baseline = params
    return baseline + amplitude * np.exp(-t / t1)


def exponential_decay_jacobian(t, params):
    amplitude, t1, baseline = params
    shape = np.exp(-t / t1)
    j_amp = shape
    j_t1 = amplitude * shape * t / t1**2
    j_base = np.ones_like(t)
    return np.column_stack([j_amp, j_t1, j_base])


#: name -> (model, jacobian, parameter names, log-parameterized mask)
MODELS = {
    "lorentzian": (
        lorentzian_peak,
        lorentzian_peak_jacobian,
        ("center", "fwhm", "amplitude", "baseline"),
        (False, True, False, False),
    ),
    "gaussian": (
        gaussian_peak,
        gaussian_peak_jacobian,
        ("center", "fwhm", "amplitude", "baseline"),
        (False, True, False, False),
    ),
    "exponential": (
        exponential_decay,
        exponential_decay_jacobian,
        ("amplitude", "t1", "baseline"),
        (False, True, False),
    ),
}


@dataclass(frozen=True)
class FitParameter:
    name: str
    value: float
    sigma: float


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with 1-sigma uncertainties and convergence info.

    Unconverged or degenerate fits carry the last iterate (or the fallback)
    with NaN uncertainties, never fabricated ones.
    """

    parameters: tuple
    rss: float
    iterations: int
    converged: bool
    status: str = "ok"
    covariance: np.ndarray | None = None

    def _parameter(self, name: str) -> FitParameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    def value(self, name: str) -> float:
        return self._parameter(name).value

    def sigma(self, name: str) -> float:
        return self._parameter(name).sigma


def peak_initial_guess(x, y):
    """(center, fwhm, amplitude, baseline) heuristics for a single peak or dip."""
    n = len(x)
    k = max(1, n // 10)
    baseline = float(np.median(np.concatenate([y[:k], y[-k:]])))
    dev = y - baseline
    i_ext = int(np.argmax(np.abs(dev)))
    amplitude = float(dev[i_ext])
    center = float(x[i_ext])
    span = float(x[-1] - x[0])
    fwhm = span / 4.0
    if amplitude != 0.0:
        above = np.nonzero(np.abs(dev) >= 0.5 * abs(amplitude))[0]
        if len(above) >= 2 and x[above[-1]] > x[above[0]]:
            fwhm = float(x[above[-1]] - x[above[0]])
    step = span / max(n - 1, 1)
    return center, max(fwhm, step), amplitude, baseline


def decay_initial_guess(t, y):
    """(amplitude, t1, baseline) heuristics for an exponential decay."""
    n = len(t)
    k = max(1, n // 10)
    baseline = float(np.median(y[-k:]))
    amplitude = float(y[0] - baseline)
    span = float(t[-1] - t[0]) if n > 1 else float(t[0]) or 1.0
    t1 = span / 5.0
    if amplitude > 0:
        dt = span / max(n - 1, 1)
        integral = float(np.sum(np.clip(y - baseline, 0.0, None)) * dt)
        if integral > 0:
            t1 = integral / amplitude
    t1 = min(max(t1, span / (10.0 * n)), 100.0 * span)
    return amplitude, t1, baseline


def _to_internal(params, log_mask):
    return np.array(
        [math.log(p) if m else p for p, m in zip(params, log_mask)], dtype=float
    )


def _to_natural(u, log_mask):
    return np.array([math.exp(v) if m else v for v, m in zip(u, log_mask)], dtype=float)


def levenberg_marquardt(
    model,
    jacobian,
    x,
    y,
    p0,
    weights=None,
    log_mask=None,
    max_iterations=200,
):
    """Minimize sum w (model(x, p) - y)^2 and return (p, cov, rss, iters, status).

    ``status`` says why the iteration stopped: ``"ok"`` (converged),
    ``"max_iterations"`` (iteration limit reached), ``"stalled"`` (no step
    lowered the cost before the damping exceeded 1e14) or ``"singular"``
    (the damped normal equations could not be solved).
    ``log_mask`` selects parameters optimized as logarithms (kept positive).
    A step that takes a parameter's magnitude out of exp(+-175) is rejected
    before the model runs, so the model never divides by zero or overflows.
    The damped normal equations are solved with diagonal equilibration so that
    parameters of wildly different magnitudes (Hz-scale centers, unit-scale
    amplitudes) coexist.  A converged fit whose equilibrated normal matrix is
    singular to working precision gets no covariance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(p0)
    if log_mask is None:
        log_mask = (False,) * m
    sw = np.ones_like(y) if weights is None else np.sqrt(np.asarray(weights, dtype=float))
    limit = np.where(log_mask, _LOG_LIMIT, math.exp(_LOG_LIMIT))

    def residual_and_jac(u):
        """Weighted residuals, Jacobian in u, and dp/du (p for a log parameter)."""
        p = _to_natural(u, log_mask)
        dp_du = np.where(log_mask, p, 1.0)
        return sw * (model(x, p) - y), jacobian(x, p) * sw[:, None] * dp_du, dp_du

    u = _to_internal(p0, log_mask)
    r, J, dp_du = residual_and_jac(u)
    cost = float(r @ r)
    lam = 1e-3
    status = "max_iterations"
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        A = J.T @ J
        g = J.T @ r
        d = np.sqrt(np.diag(A))
        d[d <= 0] = 1.0
        A_hat = A / np.outer(d, d)
        g_hat = g / d
        try:
            step_hat = np.linalg.solve(A_hat + lam * np.eye(m), -g_hat)
        except np.linalg.LinAlgError:
            return _to_natural(u, log_mask), None, cost, iterations, "singular"
        step = step_hat / d
        u_try = u + step
        cost_try = math.inf
        if np.all(np.abs(u_try) < limit):  # also rejects a non-finite step
            r_try, J_try, dp_du_try = residual_and_jac(u_try)
            cost_try = float(r_try @ r_try)
        if np.isfinite(cost_try) and cost_try <= cost:
            small_step = np.all(np.abs(step) <= _XTOL * (np.abs(u) + _XTOL))
            small_decrease = (cost - cost_try) <= _FTOL * max(cost, 1e-300)
            u, r, J, dp_du, cost = u_try, r_try, J_try, dp_du_try, cost_try
            lam = max(lam * 0.3, 1e-14)
            if small_step or small_decrease:
                status = "ok"
                break
        else:
            lam *= 8.0
            if lam > 1e14:
                status = "stalled"
                break

    p = _to_natural(u, log_mask)
    cov = None
    if status == "ok":
        n_dof = len(y) - m
        A = J.T @ J
        d = np.sqrt(np.diag(A))
        d[d <= 0] = 1.0
        A_hat = A / np.outer(d, d)
        if np.linalg.cond(A_hat) * np.finfo(float).eps < 1.0:
            cov_u = np.linalg.inv(A_hat) / np.outer(d, d)
            scale = cost / n_dof if n_dof > 0 else 0.0
            cov_u = cov_u * scale
            cov = cov_u * np.outer(dp_du, dp_du)
    return p, cov, cost, iterations, status


def _build_result(names, p, cov, rss, iterations, status):
    converged = status == "ok"
    if cov is not None and converged:
        sigmas = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    else:
        sigmas = np.full(len(p), np.nan)
    params = tuple(FitParameter(n, float(v), float(s)) for n, v, s in zip(names, p, sigmas))
    return FitResult(params, float(rss), iterations, converged, status, cov)


def _fit_peak(kind: str, spectrum: Spectrum) -> FitResult:
    _require(len(spectrum) >= 5, "peak fits need at least 5 points")
    model, jac, names, log_mask = MODELS[kind]
    x = spectrum.frequencies
    y = spectrum.counts
    center, fwhm, amplitude, baseline = peak_initial_guess(x, y)
    if amplitude == 0.0:
        rss = np.sum((y - baseline) ** 2)
        return _build_result(names, (center, fwhm, 0.0, baseline), None, rss, 0, "degenerate")
    p, cov, rss, iters, status = levenberg_marquardt(
        model, jac, x, y, (center, fwhm, amplitude, baseline), log_mask=log_mask
    )
    return _build_result(names, p, cov, rss, iters, status)


def fit_gaussian(spectrum: Spectrum) -> FitResult:
    """Least-squares Gaussian peak fit: {center, fwhm, amplitude, baseline}."""
    return _fit_peak("gaussian", spectrum)


def fit_lorentzian(spectrum: Spectrum) -> FitResult:
    """Least-squares Lorentzian fit, plus the derived quality factor center/fwhm."""
    result = _fit_peak("lorentzian", spectrum)
    center = result.value("center")
    fwhm = result.value("fwhm")
    q = center / fwhm if fwhm else float("nan")
    sigma_q = float("nan")
    if result.converged and result.covariance is not None and fwhm:
        grad = np.zeros(len(result.parameters))
        grad[0] = 1.0 / fwhm
        grad[1] = -center / fwhm**2
        var = float(grad @ result.covariance @ grad)
        sigma_q = math.sqrt(max(var, 0.0))
    q_param = FitParameter("q_factor", float(q), sigma_q)
    return replace(result, parameters=result.parameters + (q_param,))


def fit_exponential(histogram: DecayHistogram) -> FitResult:
    """Poisson-weighted fit of amplitude * exp(-t/t1) + baseline to a decay histogram."""
    nonempty = int(np.count_nonzero(histogram.counts))
    _require(nonempty >= 4, "exponential fits need at least 4 nonempty bins")
    model, jac, names, log_mask = MODELS["exponential"]
    t = histogram.centers
    y = histogram.counts
    weights = 1.0 / np.maximum(y, 1.0)
    amplitude, t1, baseline = decay_initial_guess(t, y)
    if np.max(np.abs(y - np.median(y))) == 0.0:
        return _build_result(names, (0.0, t1, float(np.mean(y))), None, 0.0, 0, "degenerate")
    if amplitude <= 0:
        amplitude = max(float(np.max(y) - baseline), 1.0)
    p, cov, rss, iters, status = levenberg_marquardt(
        model, jac, t, y, (amplitude, t1, baseline), weights=weights, log_mask=log_mask
    )
    return _build_result(names, p, cov, rss, iters, status)
