#!/usr/bin/env python3
"""Calibrate the spectral-diffusion parameters for the linewidth pipeline.

Finds the fast-jitter standard deviation that makes a single PLE scan fit to
a 173.6 MHz Gaussian FWHM, then the slow random-walk rate that brings the
time-averaged linewidth of a 25-scan, 3.5-hour session to 209.4 MHz.  The
resulting constants are frozen in two places: tests/scenarios.py (in Hz and
Hz^2/s) and configs/ple_session.ini (in MHz and MHz^2/s); update both.  Rerun
this script after engine changes that alter the random stream layout.

Usage: python3 scripts/calibrate_linewidth.py [--seed N]
"""

import argparse
import time

import numpy as np

from ersim.analysis import spectral_diffusion_map, spectrum_from_scan
from ersim.engine import ExperimentConfig, PulseSequence, run_scan_session
from ersim.fitting import fit_gaussian
from ersim.physics import CavityModel, DetectorModel, EmitterModel, SpectralDiffusionParams

NU0 = 195.6e12
SINGLE_SCAN_FWHM = 173.6e6
AVERAGED_FWHM = 209.4e6
SESSION_SECONDS = 3.5 * 3600.0


def session_config(sigma_fast, sigma_slow_rate, seed, repeats=25, n_shots=6000,
                   points=41, span=820e6, dwell=None):
    scan_time = points * n_shots * 60e-6
    if dwell is None:
        dwell = (SESSION_SECONDS - repeats * scan_time) / max(repeats - 1, 1)
    emitter = EmitterModel(
        nu_ion_0=NU0,
        gamma_0=1 / 1.12e-3,
        gamma_h=10e6,
        p_max=1.0,
        diffusion=SpectralDiffusionParams(sigma_fast, 1e-3, sigma_slow_rate),
    )
    cavity = CavityModel(nu_cav=NU0, q_factor=4.14e4, p_peak=460.0)
    grid = tuple(NU0 + np.linspace(-0.5 * span, 0.5 * span, points))
    return ExperimentConfig(
        emitter=emitter,
        cavity=cavity,
        detector=DetectorModel(),
        sequence=PulseSequence(1e-6, 20e-6, 60e-6, n_shots),
        laser_frequency=grid,
        master_seed=seed,
        scan_repeats=repeats,
        scan_dwell=dwell,
    )


def measure(sigma_fast, rate, seed):
    scans = run_scan_session(session_config(sigma_fast, rate, seed))
    spectra = [spectrum_from_scan(s, label=f"scan {i}") for i, s in enumerate(scans)]
    sd_map = spectral_diffusion_map(spectra)
    return float(np.mean(sd_map.per_scan_fwhm)), float(sd_map.average_fwhm)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260809)
    args = parser.parse_args()

    # stage 1: fast jitter against static single scans
    sigma_fast = SINGLE_SCAN_FWHM / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    for _ in range(3):
        cfg = session_config(sigma_fast, 0.0, args.seed, repeats=3, dwell=0.0)
        fits = [fit_gaussian(spectrum_from_scan(s)) for s in run_scan_session(cfg)]
        mean = float(np.mean([f.value("fwhm") for f in fits]))
        print(f"sigma_fast = {sigma_fast/1e6:.4f} MHz -> single-scan FWHM {mean/1e6:.2f} MHz")
        sigma_fast *= SINGLE_SCAN_FWHM / mean

    # stage 2: slow walk against the full session, refining both jointly
    rate = 6.0 * ((AVERAGED_FWHM**2 - SINGLE_SCAN_FWHM**2) / (2.355**2)) / SESSION_SECONDS
    for iteration in range(6):
        t0 = time.perf_counter()
        single, averaged = measure(sigma_fast, rate, args.seed)
        print(
            f"iter {iteration}: sigma_fast {sigma_fast/1e6:.4f} MHz, "
            f"rate {rate/1e12:.5f} MHz^2/s -> single {single/1e6:.2f} MHz, "
            f"averaged {averaged/1e6:.2f} MHz ({time.perf_counter()-t0:.0f} s)"
        )
        if abs(single - SINGLE_SCAN_FWHM) < 0.012 * SINGLE_SCAN_FWHM and abs(
            averaged - AVERAGED_FWHM
        ) < 0.012 * AVERAGED_FWHM:
            break
        sigma_fast *= SINGLE_SCAN_FWHM / single
        excess_target = AVERAGED_FWHM**2 - SINGLE_SCAN_FWHM**2
        excess_now = max(averaged**2 - single**2, 1e12)
        rate *= excess_target / excess_now

    print()
    print(f"SIGMA_FAST_HZ = {float(sigma_fast)!r}")
    print(f"SIGMA_SLOW_RATE_HZ2_PER_S = {float(rate)!r}")


if __name__ == "__main__":
    main()
