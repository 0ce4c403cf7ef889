#!/usr/bin/env python3
"""Calibrate the spectral-diffusion parameters of configs/ple_session.ini.

Finds the fast-jitter standard deviation that makes a single PLE scan fit to
a 173.6 MHz Gaussian FWHM, then the slow random-walk rate that brings the
time-averaged linewidth of the file's session to 209.4 MHz.  Every other
value is the file's.  The script ends by printing the two diffusion lines of
the file's [emitter] section, in its units and to its 7 significant digits;
that file is the only copy of them.  Rerun this script after engine changes
that alter the random stream layout.

Usage: python3 scripts/calibrate_linewidth.py [--seed N]
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ersim.analysis import spectral_diffusion_map, spectrum_from_scan
from ersim.config import parse_config_file
from ersim.engine import run_scan_session

SESSION_FILE = Path(__file__).resolve().parent.parent / "configs" / "ple_session.ini"
SINGLE_SCAN_FWHM = 173.6e6
AVERAGED_FWHM = 209.4e6


def session_config(session, sigma_fast, sigma_slow_rate, **scan):
    """``session`` with these diffusion values; ``scan`` replaces its repeats or dwell."""
    (emitter,) = session.emitters
    diffusion = replace(emitter.diffusion, sigma_fast=sigma_fast, sigma_slow_rate=sigma_slow_rate)
    return replace(session, emitters=(replace(emitter, diffusion=diffusion),), **scan)


def measure(session, sigma_fast, rate):
    scans = run_scan_session(session_config(session, sigma_fast, rate))
    spectra = [spectrum_from_scan(s, label=f"scan {i}") for i, s in enumerate(scans)]
    sd_map = spectral_diffusion_map(spectra)
    return float(np.mean(sd_map.converged_fwhm)), float(sd_map.average_fwhm)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None, help="override the file's seed")
    args = parser.parse_args()
    session = parse_config_file(SESSION_FILE)
    if args.seed is not None:
        session = replace(session, master_seed=args.seed)

    # stage 1: fast jitter against static single scans
    sigma_fast = SINGLE_SCAN_FWHM / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    for _ in range(3):
        cfg = session_config(session, sigma_fast, 0.0, scan_repeats=3, scan_dwell=0.0)
        sd_map = spectral_diffusion_map(spectrum_from_scan(s) for s in run_scan_session(cfg))
        mean = float(np.mean(sd_map.converged_fwhm))
        print(f"sigma_fast = {sigma_fast/1e6:.4f} MHz -> single-scan FWHM {mean/1e6:.2f} MHz")
        sigma_fast *= SINGLE_SCAN_FWHM / mean

    # stage 2: slow walk against the full session, refining both jointly
    scans, seq = session.scan_repeats, session.sequence
    seconds = scans * len(session.laser_frequency) * seq.n_shots * seq.t_rep
    seconds += (scans - 1) * session.scan_dwell
    rate = 6.0 * ((AVERAGED_FWHM**2 - SINGLE_SCAN_FWHM**2) / (2.355**2)) / seconds
    for iteration in range(6):
        t0 = time.perf_counter()
        single, averaged = measure(session, sigma_fast, rate)
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
    print(f"sigma_fast_mhz = {sigma_fast / 1e6:.7g}")
    print(f"sigma_slow_rate_mhz2_per_s = {rate / 1e12:.7g}")


if __name__ == "__main__":
    main()
