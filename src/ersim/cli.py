"""Command-line interface.

    ersim simulate {ple,lifetime,g2} --config FILE --out DIR [--seed N]
    ersim fit {lorentzian,gaussian,exponential} --in CSV --out CSV
    ersim g2 --in STREAM --max-offset K [--rho R] --out CSV
    ersim report --in DIR --out DIR

Exit codes: 0 success, 2 configuration error, 3 I/O or file-format error,
4 fit non-convergence.  Outputs are a pure function of (config bytes, seed).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import background_corrected_g2, histogram_arrivals, pulsed_g2, spectrum_from_scan
from .config import parse_config_file, serialize_config
from .engine import run_lifetime, run_scan_session
from .errors import ConfigError, InvalidParameterError, StreamFormatError
from .fitting import fit_exponential, fit_gaussian, fit_lorentzian
from .reporting import (
    _named,
    generate_report,
    read_decay_histogram_csv,
    read_spectrum_csv,
    write_correlation_csv,
    write_decay_histogram_csv,
    write_fit_csv,
    write_spectrum_csv,
)
from .streamfile import read_clickstream, write_clickstream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once; each ``parse_args`` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(prog="ersim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim.add_argument("experiment", choices=["ple", "lifetime", "g2"])
    sim.add_argument("--config", required=True, help="configuration document")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    fit = sub.add_parser("fit", help="fit an exported table")
    fit.add_argument("model", choices=["lorentzian", "gaussian", "exponential"])
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--out", dest="outfile", required=True)

    g2 = sub.add_parser("g2", help="pulsed autocorrelation of a click stream")
    g2.add_argument("--in", dest="infile", required=True)
    g2.add_argument("--max-offset", dest="max_offset", type=int, required=True)
    g2.add_argument("--rho", type=float, default=1.0, help="signal fraction S/(S+B)")
    g2.add_argument("--out", dest="outfile", required=True)

    rep = sub.add_parser("report", help="aggregate outputs into a report bundle")
    rep.add_argument("--in", dest="indir", required=True)
    rep.add_argument("--out", dest="outdir", required=True)
    return parser


def _lifetime_bin_width(t_coll: float) -> float:
    bins = 64
    width_ns = max(1, round(t_coll * 1e9 / bins))
    return width_ns * 1e-9


def _cmd_simulate(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.experiment != "ple":
        config.single_frequency()
    elif len(config.laser_frequency) < 2:
        raise ConfigError("simulate ple requires a [scan] grid with at least 2 points")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.ini").write_text(serialize_config(config), encoding="utf-8")

    if args.experiment == "ple":
        scans = run_scan_session(config)
        width = max(3, len(str(len(scans) - 1)))  # names sort as their numbers do
        for i, scan in enumerate(scans):
            spectrum = spectrum_from_scan(scan, label=f"scan {i}")
            write_spectrum_csv(spectrum, out / f"scan_{i:0{width}d}.csv")
        print(f"wrote {len(scans)} scan(s) to {out}")
        return EXIT_OK

    stream = run_lifetime(config)
    write_clickstream(stream, out / "clicks.ertt")
    if args.experiment == "lifetime":
        hist = histogram_arrivals(stream, _lifetime_bin_width(config.sequence.t_coll))
        write_decay_histogram_csv(hist, out / "decay_histogram.csv")
    print(f"{len(stream)} clicks in {config.sequence.n_shots} shots -> {out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    if args.model == "exponential":
        table, fit = read_decay_histogram_csv(args.infile), fit_exponential
    else:
        table = read_spectrum_csv(args.infile)
        fit = fit_lorentzian if args.model == "lorentzian" else fit_gaussian
    result = _named(args.infile, fit, table)   # a table outside the fit's domain names it
    write_fit_csv(result, args.outfile, kind=args.model)
    for p in result.parameters:
        print(f"{p.name} = {p.value!r} +- {p.sigma!r}")
    if not result.converged:
        print(f"fit did not converge (status: {result.status})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_g2(args) -> int:
    if not 0 < args.rho <= 1:
        raise InvalidParameterError("rho must lie in (0, 1]")
    stream = read_clickstream(args.infile)
    hist = pulsed_g2(stream, args.max_offset)
    write_correlation_csv(hist, args.outfile, rho=args.rho)
    if hist.is_empty:
        print("stream has too few clicks for a correlation", file=sys.stderr)
        return EXIT_OK
    zero = hist.g2_zero
    print(f"g2_zero_raw = {zero!r}")
    print(f"g2_zero_sigma = {hist.g2_zero_sigma()!r}")
    print(f"g2_zero_corrected = {background_corrected_g2(zero, args.rho)!r}")
    return EXIT_OK


def _cmd_report(args) -> int:
    if not Path(args.indir).is_dir():
        raise FileNotFoundError(f"input directory {args.indir} does not exist")
    summary = generate_report(args.indir, args.outdir)
    for key, value in summary.items():
        print(f"{key} = {value}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "g2":
            return _cmd_g2(args)
        return _cmd_report(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StreamFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidParameterError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
