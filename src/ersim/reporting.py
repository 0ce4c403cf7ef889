"""CSV exports and the machine-readable report bundle.

All tabular files are comma-separated with one header row whose column names
carry units; optional ``# key = value`` comment lines precede the header.
Floats are rendered with ``repr`` so files are byte-reproducible and parse
back to identical values.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .analysis import background_corrected_g2, purcell_report, spectral_diffusion_map
from .errors import InvalidParameterError
from .fitting import FitParameter, FitResult
from .physics import frequency_to_wavelength, radiative_linewidth
from .records import CorrelationHistogram, DecayHistogram, Spectrum


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_table(path, comments: dict, header: list, rows: list) -> None:
    lines = [f"# {k} = {v}" for k, v in comments.items()]
    lines.append(",".join(header))
    lines += [",".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_table(path) -> tuple[dict, list, list]:
    comments: dict = {}
    header: list = []
    rows: list = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                comments[k.strip()] = v.strip()
            continue
        if not header:
            header = [c.strip() for c in line.split(",")]
        else:
            rows.append([c.strip() for c in line.split(",")])
    if not header:
        raise InvalidParameterError(f"no header row in {path}")
    return comments, header, rows


def _number(path, name: str, text, kind=float):
    """``kind(text)``; InvalidParameterError names the file and the column or key."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidParameterError(f"{path}: {name} is not a number: {text!r}") from None


def _float_columns(path, header: list, rows: list, names) -> list:
    """The named columns as float arrays.

    A missing or empty column, a short or long row, or a cell that is not a
    number raises InvalidParameterError naming the file and the column.
    """
    for row in rows:
        if len(row) != len(header):
            raise InvalidParameterError(f"{path}: row length does not match header")
    columns = []
    for name in names:
        if name not in header:
            raise InvalidParameterError(f"{path} lacks column {name}")
        if not rows:
            raise InvalidParameterError(f"{path} has no values in column {name}")
        j = header.index(name)
        columns.append(np.array([_number(path, name, row[j]) for row in rows]))
    return columns


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    center = 0.5 * (spectrum.frequencies[0] + spectrum.frequencies[-1])
    comments = {
        "label": spectrum.label,
        "acquisition_time_s": _fmt(spectrum.acquisition_time),
    }
    rows = [
        [
            _fmt(f),
            _fmt(frequency_to_wavelength(f) * 1e9),
            _fmt((f - center) / 1e6),
            _fmt(c),
        ]
        for f, c in zip(spectrum.frequencies, spectrum.counts)
    ]
    _write_table(path, comments, ["frequency_hz", "wavelength_nm", "detuning_mhz", "counts"], rows)


def read_spectrum_csv(path) -> Spectrum:
    comments, header, rows = _read_table(path)
    frequencies, counts = _float_columns(path, header, rows, ("frequency_hz", "counts"))
    acquisition_time = comments.get("acquisition_time_s", 0.0)
    return Spectrum(
        frequencies,
        counts,
        acquisition_time=_number(path, "acquisition_time_s", acquisition_time),
        label=comments.get("label", ""),
    )


def write_decay_histogram_csv(hist: DecayHistogram, path) -> None:
    comments = {"total_shots": str(hist.total_shots)}
    rows = [
        [_fmt(le), _fmt(re), _fmt(c)]
        for le, re, c in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
    ]
    _write_table(path, comments, ["bin_left_s", "bin_right_s", "counts"], rows)


def read_decay_histogram_csv(path) -> DecayHistogram:
    comments, header, rows = _read_table(path)
    lefts, rights, counts = _float_columns(
        path, header, rows, ("bin_left_s", "bin_right_s", "counts")
    )
    return DecayHistogram(
        np.append(lefts, rights[-1]),
        counts,
        total_shots=_number(path, "total_shots", comments.get("total_shots", 0), int),
    )


def write_correlation_csv(hist: CorrelationHistogram, path, rho: float = 1.0) -> None:
    g2 = hist.g2
    comments = {
        "normalization_per_pair": _fmt(hist.normalization),
        "n_clicks": str(hist.n_clicks),
        "t_rep_s": _fmt(hist.t_rep),
        "g2_zero_sigma": _fmt(hist.g2_zero_sigma()),
    }
    rows = []
    for i, offset in enumerate(hist.offsets):
        value = float(g2[i])
        corrected = (
            background_corrected_g2(value, rho) if math.isfinite(value) else float("nan")
        )
        rows.append(
            [
                str(int(offset)),
                _fmt(offset * hist.t_rep),
                str(int(hist.coincidences[i])),
                str(int(hist.shot_pairs[i])),
                _fmt(value),
                _fmt(corrected),
                _fmt(rho),
            ]
        )
    _write_table(
        path,
        comments,
        ["offset_shots", "delay_s", "coincidences", "shot_pairs", "g2", "g2_corrected", "rho"],
        rows,
    )


_FIT_COLUMN_UNITS = {
    "center": "center_hz",
    "fwhm": "fwhm_hz",
    "amplitude": "amplitude",
    "baseline": "baseline",
    "t1": "t1_s",
    "q_factor": "q_factor",
}


def write_fit_csv(fit: FitResult, path, kind: str = "") -> None:
    comments = {}
    if kind:
        comments["model"] = kind
    header: list = []
    row: list = []
    for p in fit.parameters:
        column = _FIT_COLUMN_UNITS.get(p.name, p.name)
        header += [column, column + "_sigma"]
        row += [_fmt(p.value), _fmt(p.sigma)]
    header += ["rss", "iterations", "converged", "status"]
    row += [_fmt(fit.rss), str(fit.iterations), _fmt(fit.converged), fit.status]
    _write_table(path, comments, header, [row])


def read_fit_csv(path) -> FitResult:
    comments, header, rows = _read_table(path)
    if len(rows) != 1 or len(rows[0]) != len(header):
        raise InvalidParameterError(f"{path} must contain exactly one fit row matching the header")
    cells = dict(zip(header, rows[0]))
    inverse = {v: k for k, v in _FIT_COLUMN_UNITS.items()}
    parameters = []
    for column in header:
        if column.endswith("_sigma") or column in ("rss", "iterations", "converged", "status"):
            continue
        name = inverse.get(column, column)
        sigma = _number(path, column + "_sigma", cells.get(column + "_sigma", "nan"))
        parameters.append(FitParameter(name, _number(path, column, cells[column]), sigma))
    return FitResult(
        tuple(parameters),
        _number(path, "rss", cells.get("rss", "nan")),
        _number(path, "iterations", cells.get("iterations", 0), int),
        cells.get("converged", "false") == "true",
        cells.get("status", ""),
        None,
    )


def write_summary(path, entries: dict) -> None:
    lines = [f"{k} = {v}" for k, v in entries.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate_report(in_dir, out_dir) -> dict:
    """Aggregate fit outputs, correlation tables and scans into a report bundle.

    With two exponential-fit files present the longer lifetime is taken as the
    cavity-free reference and a Purcell block (including the radiative-limit
    linewidth of the enhanced lifetime) is emitted.  Repeated scan exports
    produce a spectral-diffusion map and linewidth statistics.  Returns the
    summary entries that were written.
    """
    in_dir = Path(in_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {}

    exp_fits = []
    for path in sorted(in_dir.glob("fit_exponential*.csv")):
        fit = read_fit_csv(path)
        if fit.converged:
            exp_fits.append((path.name, fit))
    if len(exp_fits) >= 2:
        ordered = sorted(exp_fits, key=lambda item: item[1].value("t1"))
        short, long_ = ordered[0][1], ordered[-1][1]
        report = purcell_report(short, long_)
        summary["t1_us"] = _fmt(report.t1 * 1e6)
        summary["t1_sigma_us"] = _fmt(report.t1_sigma * 1e6)
        summary["t1_reference_ms"] = _fmt(report.t1_reference * 1e3)
        summary["t1_reference_sigma_ms"] = _fmt(report.t1_reference_sigma * 1e3)
        summary["purcell_factor"] = _fmt(report.purcell_factor)
        summary["purcell_factor_sigma"] = _fmt(report.sigma)
        summary["radiative_linewidth_khz"] = _fmt(radiative_linewidth(report.t1) / 1e3)
    elif len(exp_fits) == 1:
        fit = exp_fits[0][1]
        summary["t1_us"] = _fmt(fit.value("t1") * 1e6)
        summary["t1_sigma_us"] = _fmt(fit.sigma("t1") * 1e6)
        summary["radiative_linewidth_khz"] = _fmt(radiative_linewidth(fit.value("t1")) / 1e3)

    for path in sorted(in_dir.glob("fit_gaussian*.csv")):
        fit = read_fit_csv(path)
        if fit.converged:
            summary["measured_linewidth_mhz"] = _fmt(fit.value("fwhm") / 1e6)
            break

    scans = [read_spectrum_csv(p) for p in sorted(in_dir.glob("scan_*.csv"))]
    if len(scans) >= 2:
        sd_map = spectral_diffusion_map(scans)
        rows = [
            [_fmt(f)] + [_fmt(c) for c in sd_map.counts[:, j]]
            for j, f in enumerate(sd_map.frequencies)
        ]
        header = ["frequency_hz"] + [f"scan_{i}_counts" for i in range(len(scans))]
        _write_table(out_dir / "diffusion_map.csv", {}, header, rows)
        fwhm_rows = [
            [str(i), _fmt(f.value("fwhm") / 1e6), _fmt(f.sigma("fwhm") / 1e6)]
            for i, f in enumerate(sd_map.per_scan_fits)
        ]
        _write_table(
            out_dir / "scan_linewidths.csv",
            {},
            ["scan_index", "fwhm_mhz", "fwhm_sigma_mhz"],
            fwhm_rows,
        )
        summary["single_scan_fwhm_mhz_mean"] = _fmt(float(np.mean(sd_map.per_scan_fwhm)) / 1e6)
        summary["time_averaged_fwhm_mhz"] = _fmt(sd_map.average_fwhm / 1e6)
        summary["measured_linewidth_mhz"] = summary.get(
            "measured_linewidth_mhz", _fmt(float(np.mean(sd_map.per_scan_fwhm)) / 1e6)
        )

    for path in sorted(in_dir.glob("g2*.csv")):
        comments, header, rows = _read_table(path)
        offsets, raw, corrected, rho = _float_columns(
            path, header, rows, ("offset_shots", "g2", "g2_corrected", "rho")
        )
        zero = np.flatnonzero(offsets == 0)
        if len(zero) == 0:
            continue
        i = zero[-1]
        sigma = _number(path, "g2_zero_sigma", comments.get("g2_zero_sigma", "nan"))
        summary["g2_zero_raw"] = _fmt(raw[i])
        summary["g2_zero_raw_sigma"] = _fmt(sigma)
        summary["g2_zero_corrected"] = _fmt(corrected[i])
        summary["g2_rho"] = _fmt(rho[i])
        break

    write_summary(out_dir / "summary.txt", summary)
    return summary
