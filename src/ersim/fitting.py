"""Damped Gauss-Newton (Levenberg-Marquardt) peak and decay fitting.

Three model families, Lorentzian peak, Gaussian peak and exponential decay,
each one function that also gives its analytic Jacobian from the same terms.
Width and lifetime parameters are kept positive by optimizing their
logarithm; reported values and uncertainties are in natural units.  Initial
guesses come from data heuristics (extremum location, half-maximum
crossings, edge-point baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .physics import _require
from .records import DecayHistogram, Spectrum

_LN2x4 = 4.0 * math.log(2.0)
_XTOL = 1e-12   # convergence: relative step in the internal parameters
_FTOL = 1e-12   # convergence: relative decrease of the cost
MAX_ITERATIONS = 200  # iteration limit of levenberg_marquardt
# The models compute up to fourth powers of their parameters (the Lorentzian
# Jacobian squares (x - center)**2 + (fwhm/2)**2), so a parameter of magnitude
# within exp(+-_LOG_LIMIT) keeps them finite: exp(4 * 175) is a normal double.
_LOG_LIMIT = 175.0
_VALUE_LIMIT = math.exp(_LOG_LIMIT)  # bound on a non-log parameter, so on a count to fit


def lorentzian_peak(x, params, jacobian=False):
    """baseline + amplitude * (fwhm/2)^2 / ((x-center)^2 + (fwhm/2)^2).

    With ``jacobian``, returns the value and its derivatives in the parameters
    as the columns of an ``(len(x), 4)`` array, both from one set of terms.
    """
    center, fwhm, amplitude, baseline = params
    half = 0.5 * fwhm
    h2 = half**2
    dx = x - center
    dx2 = dx**2
    denom = dx2 + h2
    value = baseline + amplitude * h2 / denom
    if not jacobian:
        return value
    denom2 = denom**2
    J = np.empty((len(x), 4))
    J[:, 0] = amplitude * h2 * 2.0 * dx / denom2
    J[:, 1] = amplitude * half * dx2 / denom2
    J[:, 2] = h2 / denom
    J[:, 3] = 1.0
    return value, J


def gaussian_peak(x, params, jacobian=False):
    """baseline + amplitude * exp(-4 ln2 (x-center)^2 / fwhm^2); ``jacobian`` as
    for ``lorentzian_peak``."""
    center, fwhm, amplitude, baseline = params
    dx = x - center
    dx2 = dx**2
    f2 = fwhm**2
    shape = np.exp(-_LN2x4 * dx2 / f2)
    scaled = amplitude * shape
    value = baseline + scaled
    if not jacobian:
        return value
    slope = scaled * 2.0 * _LN2x4
    J = np.empty((len(x), 4))
    J[:, 0] = slope * dx / f2
    J[:, 1] = slope * dx2 / fwhm**3
    J[:, 2] = shape
    J[:, 3] = 1.0
    return value, J


def exponential_decay(t, params, jacobian=False):
    """baseline + amplitude * exp(-t / t1); ``jacobian`` as for ``lorentzian_peak``,
    with 3 columns."""
    amplitude, t1, baseline = params
    shape = np.exp(-t / t1)
    scaled = amplitude * shape
    value = baseline + scaled
    if not jacobian:
        return value
    J = np.empty((len(t), 3))
    J[:, 0] = shape
    J[:, 1] = scaled * t / t1**2
    J[:, 2] = 1.0
    return value, J


#: name -> (model, parameter names, log-parameterized mask); ``model(x, p, True)``
#: gives the value and the Jacobian that ``levenberg_marquardt`` takes
MODELS = {
    "lorentzian": (lorentzian_peak, ("center", "fwhm", "amplitude", "baseline"), (False, True, False, False)),
    "gaussian": (gaussian_peak, ("center", "fwhm", "amplitude", "baseline"), (False, True, False, False)),
    "exponential": (exponential_decay, ("amplitude", "t1", "baseline"), (False, True, False)),
}


@dataclass(frozen=True)
class FitParameter:
    name: str
    value: float
    sigma: float


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with 1-sigma uncertainties and convergence info.

    The fields are the row that ``write_fit_csv`` writes and ``read_fit_csv``
    reads back.  ``converged`` is derived: a fit converged when its
    ``status`` is ``"ok"``.  Unconverged or degenerate fits carry the last
    iterate (or the fallback) with NaN uncertainties, never fabricated ones.
    """

    parameters: tuple
    rss: float
    iterations: int
    status: str = "ok"

    @property
    def converged(self) -> bool:
        return self.status == "ok"

    def _parameter(self, name: str) -> FitParameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    def value(self, name: str) -> float:
        return self._parameter(name).value

    def sigma(self, name: str) -> float:
        return self._parameter(name).sigma


def _median(values) -> float:
    """NumPy's median of finite floats, without the ``numpy.ma`` import of its NaN check.

    The middle value, or ``(a + b) / 2`` of the two middle values, summed as
    NumPy's mean sums them: from +0.0, so that a -0.0 comes out as 0.0.
    """
    s = np.sort(values)
    mid = len(s) // 2
    return float(0.0 + s[mid] if len(s) % 2 else (0.0 + s[mid - 1] + s[mid]) / 2)


def peak_initial_guess(x, y):
    """(center, fwhm, amplitude, baseline) heuristics for a single peak or dip."""
    n = len(x)
    k = max(1, n // 10)
    baseline = _median(np.concatenate([y[:k], y[-k:]]))
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
    baseline = _median(y[-k:])
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


def _to_natural(u, log_mask) -> list:
    return [math.exp(v) if m else v for v, m in zip(u.tolist(), log_mask)]


def _equilibrated(J):
    """``J.T @ J`` scaled to a unit diagonal, and the scale (1 for a zero column)."""
    A = J.T @ J
    d = np.sqrt(A.diagonal())
    d[d <= 0] = 1.0
    return A / (d[:, None] * d), d


def levenberg_marquardt(model, x, y, p0, log_mask, weights=None):
    """Minimize sum w (model(x, p) - y)^2 and return (p, cov, rss, iters, status).

    ``model(x, p, True)`` gives the value and the Jacobian, as in ``MODELS``.
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
    singular to working precision, or whose covariance overflows, gets none.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = len(p0)
    eye = np.eye(m)
    sw = None if weights is None else np.sqrt(np.asarray(weights, dtype=float))
    limits = [_LOG_LIMIT if lg else _VALUE_LIMIT for lg in log_mask]
    logs = [j for j, lg in enumerate(log_mask) if lg]

    def residual_and_jac(u):
        """Weighted residuals and the Jacobian in u: a log parameter's column times p."""
        p = _to_natural(u, log_mask)
        value, J = model(x, p, True)
        r = value - y
        if sw is not None:  # a weight of 1 would change no bit, so an unweighted fit skips it
            r = sw * r
            J *= sw[:, None]
        for j in logs:
            J[:, j] *= p[j]
        return r, J

    u = _to_internal(p0, log_mask)
    r, J = residual_and_jac(u)
    cost = float(r @ r)
    lam = 1e-3
    status = "max_iterations"
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        A_hat, d = _equilibrated(J)
        try:
            step_hat = np.linalg.solve(A_hat + lam * eye, -(J.T @ r) / d)
        except np.linalg.LinAlgError:
            return np.array(_to_natural(u, log_mask)), None, cost, iterations, "singular"
        step = step_hat / d
        u_try = u + step
        cost_try = math.inf
        if all(abs(v) < lim for v, lim in zip(u_try.tolist(), limits)):  # also rejects a non-finite step
            r_try, J_try = residual_and_jac(u_try)
            cost_try = float(r_try @ r_try)
        if math.isfinite(cost_try) and cost_try <= cost:
            small_step = all(abs(s) <= _XTOL * (abs(v) + _XTOL) for s, v in zip(step.tolist(), u.tolist()))
            small_decrease = (cost - cost_try) <= _FTOL * max(cost, 1e-300)
            u, r, J, cost = u_try, r_try, J_try, cost_try
            lam = max(lam * 0.3, 1e-14)
            if small_step or small_decrease:
                status = "ok"
                break
        else:
            lam *= 8.0
            if lam > 1e14:
                status = "stalled"
                break

    p = np.array(_to_natural(u, log_mask))
    cov = None
    if status == "ok":
        n_dof = len(y) - m
        A_hat, d = _equilibrated(J)
        if np.linalg.cond(A_hat) * np.finfo(float).eps < 1.0:
            scale = cost / n_dof if n_dof > 0 else 0.0
            dp_du = np.where(log_mask, p, 1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                cov = np.linalg.inv(A_hat) / (d[:, None] * d) * scale * (dp_du[:, None] * dp_du)
            cov = cov if np.all(np.isfinite(cov)) else None
    return p, cov, cost, iterations, status


def _build_result(names, p, cov, rss, iterations, status):
    sigmas = np.full(len(p), np.nan) if cov is None else np.sqrt(np.clip(np.diag(cov), 0.0, None))
    params = tuple(FitParameter(n, float(v), float(s)) for n, v, s in zip(names, p, sigmas))
    return FitResult(params, float(rss), iterations, status)


def _fit_peak(kind: str, spectrum: Spectrum) -> tuple[FitResult, np.ndarray | None]:
    """The fit of a peak model and its parameter covariance (None without sigmas)."""
    _require(len(spectrum) >= 5, "peak fits need at least 5 points")
    _require(spectrum.counts.max() < _VALUE_LIMIT, "counts must be below exp(175)")
    # the center is a non-log parameter, and the guess subtracts the grid's ends
    _require(np.abs(spectrum.frequencies).max() < _VALUE_LIMIT, "|frequencies| must be below exp(175) Hz")
    model, names, log_mask = MODELS[kind]
    x = spectrum.frequencies
    y = spectrum.counts
    center, fwhm, amplitude, baseline = peak_initial_guess(x, y)
    if amplitude == 0.0:
        rss = np.sum((y - baseline) ** 2)
        return _build_result(names, (center, fwhm, 0.0, baseline), None, rss, 0, "degenerate"), None
    p, cov, rss, iters, status = levenberg_marquardt(
        model, x, y, (center, fwhm, amplitude, baseline), log_mask=log_mask
    )
    return _build_result(names, p, cov, rss, iters, status), cov


def fit_gaussian(spectrum: Spectrum) -> FitResult:
    """Least-squares Gaussian peak fit: {center, fwhm, amplitude, baseline}."""
    return _fit_peak("gaussian", spectrum)[0]


def fit_lorentzian(spectrum: Spectrum) -> FitResult:
    """Least-squares Lorentzian fit, plus the derived quality factor center/fwhm."""
    result, cov = _fit_peak("lorentzian", spectrum)
    center, fwhm = result.value("center"), result.value("fwhm")
    sigma_q = float("nan")
    if cov is not None:  # first-order propagation through d(q)/d(center, fwhm)
        grad = np.array([1.0 / fwhm, -center / fwhm**2, 0.0, 0.0])
        sigma_q = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    q_param = FitParameter("q_factor", float(center / fwhm), sigma_q)
    return replace(result, parameters=result.parameters + (q_param,))


def fit_exponential(histogram: DecayHistogram) -> FitResult:
    """Poisson-weighted fit of amplitude * exp(-t/t1) + baseline to a decay histogram."""
    nonempty = int(np.count_nonzero(histogram.counts))
    _require(nonempty >= 4, "exponential fits need at least 4 nonempty bins")
    _require(histogram.counts.max() < _VALUE_LIMIT, "counts must be below exp(175)")
    model, names, log_mask = MODELS["exponential"]
    t = histogram.centers
    y = histogram.counts
    weights = 1.0 / np.maximum(y, 1.0)
    amplitude, t1, baseline = decay_initial_guess(t, y)
    if y.max() == y.min():
        return _build_result(names, (0.0, t1, float(np.mean(y))), None, 0.0, 0, "degenerate")
    if amplitude <= 0:
        amplitude = max(float(np.max(y) - baseline), 1.0)
    p, cov, rss, iters, status = levenberg_marquardt(
        model, t, y, (amplitude, t1, baseline), weights=weights, log_mask=log_mask
    )
    return _build_result(names, p, cov, rss, iters, status)
