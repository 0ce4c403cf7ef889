"""Acceptance suite: every headline quantity at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import hashlib
import math

import numpy as np
import pytest

import scenarios
from oracles import clicks_per_shot, enhanced_lifetime, g2_zero, signal_fraction
from test_fitting import jacobian_fd_max_error

from ersim.analysis import (
    background_corrected_g2,
    histogram_arrivals,
    pulsed_g2,
    purcell_report,
    spectral_diffusion_map,
    spectrum_from_scan,
)
from ersim.cli import EXIT_OK, main
from ersim.engine import run_lifetime, run_scan_session, validate_click_stream
from ersim.fitting import fit_exponential, fit_lorentzian, lorentzian_peak
from ersim.physics import SPEED_OF_LIGHT, radiative_linewidth
from ersim.records import Spectrum
from ersim.reporting import generate_report, write_fit_csv
from ersim.streamfile import read_clickstream, write_clickstream


# seed of the checks that simulate no shipped experiment
ACCEPTANCE_SEED = 20260809
# signal fraction S/(S+B) of configs/g2_background.ini, as scripts/reproduce_results.py passes it
RHO_SIGNAL_FRACTION = 0.861


def check(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# The fixtures simulate the shipped configs as written: the streams that
# scripts/reproduce_results.py simulates.
@pytest.fixture(scope="module")
def lifetime_runs():
    runs = {}
    for label, name, bin_width in (
        ("enhanced", "lifetime_cavity", 0.25e-6),
        ("reference", "lifetime_reference", 0.1e-3),
    ):
        cfg = scenarios.shipped(name)
        stream = run_lifetime(cfg)
        fit = fit_exponential(histogram_arrivals(stream, bin_width))
        target = enhanced_lifetime(cfg.emitters[0].gamma_0, cfg.cavity.p_peak)
        runs[label] = dict(config=cfg, stream=stream, fit=fit, target=target)
    return runs


@pytest.fixture(scope="module")
def g2_oracles():
    oracles = {}
    for label, cfg in (
        ("single", scenarios.g2_config()),
        ("pair", scenarios.g2_config(2)),
        ("poissonian", scenarios.g2_config(poisson_rate=0.5)),
    ):
        stream = run_lifetime(cfg)
        oracles[label] = dict(config=cfg, stream=stream, hist=pulsed_g2(stream, 30))
    return oracles


@pytest.fixture(scope="module")
def background_g2():
    cfg = scenarios.shipped("g2_background")
    stream = run_lifetime(cfg)
    hist = pulsed_g2(stream, 30)
    raw = hist.g2_zero
    corrected = background_corrected_g2(raw, RHO_SIGNAL_FRACTION)
    return dict(config=cfg, stream=stream, hist=hist, raw=raw, corrected=corrected)


@pytest.fixture(scope="module")
def linewidth_session():
    cfg = scenarios.shipped("ple_session")
    scans = run_scan_session(cfg)
    spectra = [spectrum_from_scan(s, label=f"scan {i}") for i, s in enumerate(scans)]
    sd_map = spectral_diffusion_map(spectra)
    extra = []
    for seed in (1311, 277231):
        small = scenarios.linewidth_session_config(
            seed=seed, scan_repeats=8, n_shots=2500, points=31, span=700e6
        )
        small_spectra = [spectrum_from_scan(s) for s in run_scan_session(small)]
        extra.append(spectral_diffusion_map(small_spectra))
    return dict(map=sd_map, extra=extra)


def test_criterion_1_purcell_arithmetic():
    from ersim.fitting import FitParameter, FitResult

    def lifetime_fit(value, sigma):
        return FitResult(
            (FitParameter("amplitude", 1.0, 0.0), FitParameter("t1", value, sigma),
             FitParameter("baseline", 0.0, 0.0)),
            0.0, 1, "ok",
        )

    p, sigma = purcell_report(lifetime_fit(2.43e-6, 0.13e-6), lifetime_fit(1.12e-3, 0.18e-3))
    ok = abs(p - 460.0) <= 1.0
    check(
        "1 (purcell arithmetic)",
        ok,
        f"P = {p:.3f} +- {sigma:.1f} (target 460 +- 1)",
    )


def test_criterion_2_cavity_lorentzian_refit():
    nu0 = SPEED_OF_LIGHT / 1532.8e-9
    q_true = 4.14e4
    fwhm_true = nu0 / q_true
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    x = np.linspace(nu0 - 4 * fwhm_true, nu0 + 4 * fwhm_true, 200)
    dip = lorentzian_peak(x, (nu0, fwhm_true, -0.8, 1.0))
    noisy = dip * (1.0 + 0.01 * rng.standard_normal(len(x)))
    fit = fit_lorentzian(Spectrum(x, np.clip(noisy, 0.0, None)))
    fwhm = fit.value("fwhm")
    q = fit.value("q_factor")
    ok = (
        fit.converged
        and abs(fwhm - 4.7e9) <= 0.02 * 4.7e9
        and abs(q - q_true) <= 0.02 * q_true
    )
    check(
        "2 (cavity lorentzian refit)",
        ok,
        f"FWHM = {fwhm/1e9:.3f} GHz (4.7 +- 2%), Q = {q:.0f} (41400 +- 2%)",
    )


def test_criterion_3_lifetime_pipeline(lifetime_runs):
    details = []
    ok = True
    for label, run in lifetime_runs.items():
        fitted = run["fit"].value("t1")
        target = run["target"]
        rel = abs(fitted - target) / target
        ok = ok and run["fit"].converged and rel < 0.05
        details.append(f"{label}: {fitted:.4g} s vs {target:.4g} s ({100*rel:.2f}%)")
    check("3 (lifetime pipeline)", ok, "; ".join(details) + " [tol 5%]")


def test_criterion_4_antibunching_suite(g2_oracles):
    single = g2_oracles["single"]["hist"].g2_zero
    pair = g2_oracles["pair"]["hist"].g2_zero
    poisson = g2_oracles["poissonian"]["hist"].g2
    poisson_dev = float(np.max(np.abs(poisson - 1.0)))
    ok = single < 0.05 and abs(pair - 0.5) <= 0.05 and poisson_dev <= 0.02
    check(
        "4 (antibunching oracles)",
        ok,
        f"single g2(0) = {single:.4f} (< 0.05); two-emitter = {pair:.4f} (0.5 +- 0.05); "
        f"poissonian max|g2-1| = {poisson_dev:.4f} (<= 0.02)",
    )


def test_criterion_5_background_g2_reproduction(background_g2):
    raw = background_g2["raw"]
    corrected = background_g2["corrected"]
    ok = abs(raw - 0.29) <= 0.03 and abs(corrected - 0.04) <= 0.03
    check(
        "5 (background-corrected g2)",
        ok,
        f"raw g2(0) = {raw:.4f} (0.29 +- 0.03), corrected = {corrected:.4f} (0.04 +- 0.03) "
        f"at rho = {RHO_SIGNAL_FRACTION}",
    )


def test_background_g2_and_rho_match_their_oracles(background_g2):
    # a changed dark rate in g2_background.ini moves the analytic rho off the
    # typed one, which would silently skew the corrected g2(0)
    cfg = background_g2["config"]
    probs = clicks_per_shot(cfg, cfg.single_frequency())
    dark_mean = cfg.detector.dark_rate * cfg.sequence.t_coll
    expected = g2_zero(probs, dark_mean)
    sigma = background_g2["hist"].g2_zero_sigma()
    assert abs(background_g2["raw"] - expected) <= 4 * sigma, (background_g2["raw"], expected, sigma)
    rho = signal_fraction(probs, dark_mean)
    assert abs(RHO_SIGNAL_FRACTION - rho) <= 5e-4, (RHO_SIGNAL_FRACTION, rho)


def test_criterion_6_linewidth_pipeline(linewidth_session):
    sd_map = linewidth_session["map"]
    first = float(sd_map.converged_fwhm[0])
    single_mean = float(np.mean(sd_map.converged_fwhm))
    averaged = float(sd_map.average_fwhm)
    ok = (
        abs(first - 173.6e6) <= 0.05 * 173.6e6
        and abs(single_mean - 173.6e6) <= 0.05 * 173.6e6
        and abs(averaged - 209.4e6) <= 0.15 * 209.4e6
        and averaged > single_mean
    )
    for extra in linewidth_session["extra"]:
        ok = ok and extra.average_fwhm > float(np.mean(extra.converged_fwhm))
    check(
        "6 (linewidth pipeline)",
        ok,
        f"single scan {first/1e6:.1f} MHz, mean {single_mean/1e6:.1f} MHz (173.6 +- 5%); "
        f"time-averaged {averaged/1e6:.1f} MHz (209.4 +- 15%); broadening strict in 3 seeds",
    )


def test_criterion_7_radiative_limit_reported(lifetime_runs, linewidth_session, tmp_path):
    value = radiative_linewidth(2.43e-6)
    ok = abs(value - 65.5e3) <= 1e-3 * 65.5e3
    work = tmp_path / "work"
    work.mkdir()
    write_fit_csv(lifetime_runs["enhanced"]["fit"], work / "fit_exponential_cavity.csv", "exponential")
    write_fit_csv(lifetime_runs["reference"]["fit"], work / "fit_exponential_reference.csv", "exponential")
    write_fit_csv(linewidth_session["map"].average_fit, work / "fit_gaussian_average.csv", "gaussian")
    summary = generate_report(work, tmp_path / "report")
    reported = float(summary.get("radiative_linewidth_khz", "nan"))
    ok = (
        ok
        and "measured_linewidth_mhz" in summary
        and abs(reported * 1e3 - 1.0 / (2 * math.pi * lifetime_runs["enhanced"]["fit"].value("t1")))
        <= 0.02 * 65.5e3
    )
    measured = float(summary.get("measured_linewidth_mhz", "nan"))
    check(
        "7 (radiative limit)",
        ok,
        f"1/(2 pi T1) = {value/1e3:.2f} kHz (65.5 +- 0.1%); report shows "
        f"{reported:.2f} kHz beside measured {measured:.1f} MHz",
    )


def test_criterion_8_property_suites(g2_oracles, background_g2, lifetime_runs, tmp_path):
    problems = []

    # fitter jacobians against central finite differences
    rng = np.random.default_rng(77)
    x = np.linspace(-5.0, 5.0, 61)
    t = np.linspace(0.0, 10.0, 61)
    worst = 0.0
    for _ in range(25):
        span = x[-1] - x[0]
        peak_params = (
            rng.uniform(-3, 3), rng.uniform(0.3, 0.5) * span,
            rng.uniform(-50, 50) or 1.0, rng.uniform(-10, 10),
        )
        worst = max(worst, jacobian_fd_max_error("lorentzian", x, peak_params))
        worst = max(worst, jacobian_fd_max_error("gaussian", x, peak_params))
        exp_params = (rng.uniform(1, 100), rng.uniform(0.3, 5.0), rng.uniform(-5, 5))
        worst = max(worst, jacobian_fd_max_error("exponential", t, exp_params))
    if worst >= 1e-6:
        problems.append(f"jacobian FD deviation {worst:.2e}")

    # g2 symmetry and poissonian normalization
    for label, data in g2_oracles.items():
        hist = data["hist"]
        if not np.array_equal(hist.coincidences, hist.coincidences[::-1]):
            problems.append(f"g2 asymmetry in {label}")
    poisson_hist = g2_oracles["poissonian"]["hist"]
    side = poisson_hist.g2[np.abs(poisson_hist.offsets) >= 1]
    n_side = int(poisson_hist.coincidences[np.abs(poisson_hist.offsets) >= 1].sum())
    if abs(float(side.mean()) - 1.0) >= 3.0 / math.sqrt(n_side):
        problems.append("poissonian side-peak mean outside 3 sigma")

    # stream validator over every engine output produced in this suite
    for data in list(g2_oracles.values()) + [background_g2] + list(lifetime_runs.values()):
        validate_click_stream(data["stream"], data["config"].detector.dead_time)

    # binary format: million-record digest round trip
    big = g2_oracles["poissonian"]["stream"]
    first = tmp_path / "big.ertt"
    second = tmp_path / "big2.ertt"
    write_clickstream(big, first)
    write_clickstream(read_clickstream(first), second)
    d1 = hashlib.sha256(first.read_bytes()).hexdigest()
    d2 = hashlib.sha256(second.read_bytes()).hexdigest()
    if d1 != d2:
        problems.append("ERTT round-trip digest mismatch")

    # end-to-end CLI determinism: two identical runs give identical bytes
    cfg_text = (
        "[emitter]\np_max = 0.5\n[sequence]\nn_shots = 20000\n"
        "[detector]\ndark_rate_per_s = 3000\n[seed]\nmaster_seed = momentum\n"
    ).replace("momentum", str(ACCEPTANCE_SEED))
    cfg_path = tmp_path / "cli.ini"
    cfg_path.write_text(cfg_text)
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(["simulate", "g2", "--config", str(cfg_path), "--out", str(out)])
        if code != EXIT_OK:
            problems.append(f"cli exit {code} in {name}")
        outs.append(hashlib.sha256((out / "clicks.ertt").read_bytes()).hexdigest())
    if outs[0] != outs[1]:
        problems.append("repeated CLI runs give different stream bytes")

    check(
        "8 (property suites)",
        not problems,
        "jacobians < 1e-6, g2 symmetric and normalized, streams valid, "
        "ERTT digest stable, repeated CLI bytes identical"
        if not problems
        else "; ".join(problems),
    )
