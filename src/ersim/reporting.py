"""CSV exports and the machine-readable report bundle.

All tabular files are comma-separated with one header row whose column names
carry units; optional ``# key = value`` comment lines precede the header.
``_write_table`` is the only renderer: each writer declares its columns and
``_fmt`` turns every cell and comment value into text; ``_column`` renders a
whole column to the same text.  Floats are rendered with ``repr`` so files
are byte-reproducible and parse back to identical values.
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
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


_TABLE_ROWS = 2**14  # rows rendered and written at a time


def _column(values) -> list:
    """``_fmt`` of every cell of one column: a float64 array through ``repr``
    and an integer array through ``str`` in one pass each."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return list(map(repr, values.tolist()))
        if values.dtype.kind in "iu":
            return list(map(str, values.tolist()))
    return list(map(_fmt, values))


def _write_table(path, comments: dict, columns: dict) -> None:
    """Comment lines, a header of the column names, then one row per index of
    the equal-length value sequences in ``columns``, rendered a column at a
    time in chunks of ``_TABLE_ROWS`` rows."""
    lengths = {len(v) for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError("table columns differ in length")
    head = [f"# {k} = {_fmt(v)}" for k, v in comments.items()]
    head.append(",".join(columns))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(head) + "\n")
        for start in range(0, max(lengths, default=0), _TABLE_ROWS):
            cells = [_column(v[start : start + _TABLE_ROWS]) for v in columns.values()]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _read_table(path) -> tuple[dict, list, list]:
    comments: dict = {}
    header: list = []
    rows: list = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    for raw in text.splitlines():
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


def _number(path, name: str, text, kind=float, finite=True):
    """``kind(text)``; InvalidParameterError names the file and the column or key.

    The value must be finite unless ``finite`` is false, as for an estimate
    (a sigma, a g2 value) that a writer leaves undefined as nan.
    """
    try:
        value = kind(text)
    except ValueError:
        raise InvalidParameterError(f"{path}: {name} is not a number: {text!r}") from None
    if finite and kind is float and not math.isfinite(value):
        raise InvalidParameterError(f"{path}: {name} is not a finite number: {text!r}")
    return value


def _float_columns(path, header: list, rows: list, names, finite=True) -> list:
    """The named columns as float arrays.

    A missing or empty column, a short or long row, or a cell that is not a
    number (or not finite, where ``finite``) raises InvalidParameterError
    naming the file and the column.
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
        columns.append(np.array([_number(path, name, row[j], finite=finite) for row in rows]))
    return columns


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    f = spectrum.frequencies
    center = 0.5 * (f[0] + f[-1])
    _write_table(
        path,
        {"label": spectrum.label, "acquisition_time_s": spectrum.acquisition_time},
        {
            "frequency_hz": f,
            "wavelength_nm": frequency_to_wavelength(f) * 1e9,
            "detuning_mhz": (f - center) / 1e6,
            "counts": spectrum.counts,
        },
    )


def _named(path, record_type, *args, **kwargs):
    """``record_type(*args, **kwargs)``; its InvalidParameterError names the file."""
    try:
        return record_type(*args, **kwargs)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from None


def read_spectrum_csv(path) -> Spectrum:
    comments, header, rows = _read_table(path)
    frequencies, counts = _float_columns(path, header, rows, ("frequency_hz", "counts"))
    acquisition_time = _number(path, "acquisition_time_s", comments.get("acquisition_time_s", 0.0))
    return _named(
        path, Spectrum, frequencies, counts,
        acquisition_time=acquisition_time, label=comments.get("label", ""),
    )


def write_decay_histogram_csv(hist: DecayHistogram, path) -> None:
    _write_table(
        path,
        {"total_shots": hist.total_shots},
        {"bin_left_s": hist.bin_edges[:-1], "bin_right_s": hist.bin_edges[1:], "counts": hist.counts},
    )


def read_decay_histogram_csv(path) -> DecayHistogram:
    comments, header, rows = _read_table(path)
    lefts, rights, counts = _float_columns(
        path, header, rows, ("bin_left_s", "bin_right_s", "counts")
    )
    # exact: the writer's repr round trip gives each shared edge the same float
    if not np.array_equal(rights[:-1], lefts[1:]):
        raise InvalidParameterError(f"{path}: each bin_right_s must equal the next bin_left_s")
    total_shots = _number(path, "total_shots", comments.get("total_shots", 0), int)
    return _named(path, DecayHistogram, np.append(lefts, rights[-1]), counts, total_shots=total_shots)


def write_correlation_csv(hist: CorrelationHistogram, path, rho: float = 1.0) -> None:
    g2 = hist.g2    # finite, or nan throughout in an empty histogram, which still has rho checked
    corrected = background_corrected_g2(g2[:0] if hist.is_empty else g2, rho)
    if hist.is_empty:
        corrected = np.full(len(g2), math.nan)
    comments = {
        "normalization_per_pair": hist.normalization,
        "n_clicks": hist.n_clicks,
        "t_rep_s": hist.t_rep,
        "g2_zero_sigma": hist.g2_zero_sigma(),
    }
    columns = {
        "offset_shots": hist.offsets,
        "delay_s": hist.offsets * hist.t_rep,
        "coincidences": hist.coincidences,
        "shot_pairs": hist.shot_pairs,
        "g2": g2,
        "g2_corrected": corrected,
        "rho": np.full(len(g2), rho),
    }
    _write_table(path, comments, columns)


#: fit parameter -> column name, where the column carries a unit
_FIT_COLUMN_UNITS = {"center": "center_hz", "fwhm": "fwhm_hz", "t1": "t1_s"}
#: FitResult attributes written after the parameter and sigma columns
_FIT_SCALARS = ("rss", "iterations", "converged", "status")


def write_fit_csv(fit: FitResult, path, kind: str = "") -> None:
    columns: dict = {}
    for p in fit.parameters:
        column = _FIT_COLUMN_UNITS.get(p.name, p.name)
        columns[column], columns[column + "_sigma"] = [p.value], [p.sigma]
    columns.update((name, [getattr(fit, name)]) for name in _FIT_SCALARS)
    _write_table(path, {"model": kind} if kind else {}, columns)


def read_fit_csv(path) -> FitResult:
    comments, header, rows = _read_table(path)
    if len(rows) != 1 or len(rows[0]) != len(header):
        raise InvalidParameterError(f"{path} must contain exactly one fit row matching the header")
    cells = dict(zip(header, rows[0]))
    inverse = {v: k for k, v in _FIT_COLUMN_UNITS.items()}
    parameters = []
    for column in header:
        if column.endswith("_sigma") or column in _FIT_SCALARS:
            continue
        name = inverse.get(column, column)
        sigma = _number(path, column + "_sigma", cells.get(column + "_sigma", "nan"), finite=False)
        parameters.append(FitParameter(name, _number(path, column, cells[column]), sigma))
    return FitResult(
        tuple(parameters),
        _number(path, "rss", cells.get("rss", "nan"), finite=False),
        _number(path, "iterations", cells.get("iterations", 0), int),
        cells.get("status", ""),
    )


def _read_fit_of(path, name: str) -> FitResult:
    """``read_fit_csv(path)`` of a fit with parameter ``name``, else InvalidParameterError."""
    fit = read_fit_csv(path)
    if all(p.name != name for p in fit.parameters):
        raise InvalidParameterError(f"{path} lacks column {_FIT_COLUMN_UNITS[name]}")
    return fit


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

    exp_fits = [_read_fit_of(p, "t1") for p in sorted(in_dir.glob("fit_exponential*.csv"))]
    exp_fits = sorted((f for f in exp_fits if f.converged), key=lambda f: f.value("t1"))
    if exp_fits:
        fit = exp_fits[0]
        summary["t1_us"] = fit.value("t1") * 1e6
        summary["t1_sigma_us"] = fit.sigma("t1") * 1e6
        if len(exp_fits) >= 2:
            reference = exp_fits[-1]
            summary["t1_reference_ms"] = reference.value("t1") * 1e3
            summary["t1_reference_sigma_ms"] = reference.sigma("t1") * 1e3
            summary["purcell_factor"], summary["purcell_factor_sigma"] = purcell_report(fit, reference)
        summary["radiative_linewidth_khz"] = radiative_linewidth(fit.value("t1")) / 1e3

    for path in sorted(in_dir.glob("fit_gaussian*.csv")):
        fit = _read_fit_of(path, "fwhm")
        if fit.converged:
            summary["measured_linewidth_mhz"] = fit.value("fwhm") / 1e6
            break

    scans = [read_spectrum_csv(p) for p in sorted(in_dir.glob("scan_*.csv"))]
    if len(scans) >= 2:
        sd_map = spectral_diffusion_map(scans)
        columns = {"frequency_hz": scans[0].frequencies}
        columns.update((f"scan_{i}_counts", s.counts) for i, s in enumerate(scans))
        _write_table(out_dir / "diffusion_map.csv", {}, columns)
        fits = sd_map.per_scan_fits
        columns = {
            "scan_index": range(len(fits)),
            "fwhm_mhz": [f.value("fwhm") / 1e6 for f in fits],
            "fwhm_sigma_mhz": [f.sigma("fwhm") / 1e6 for f in fits],
        }
        _write_table(out_dir / "scan_linewidths.csv", {}, columns)
        widths = sd_map.converged_fwhm
        if len(widths):
            summary["single_scan_fwhm_mhz_mean"] = float(np.mean(widths)) / 1e6
        if sd_map.average_fit.converged:
            summary["time_averaged_fwhm_mhz"] = sd_map.average_fwhm / 1e6
        if len(widths):
            summary.setdefault("measured_linewidth_mhz", summary["single_scan_fwhm_mhz_mean"])

    for path in sorted(in_dir.glob("g2*.csv")):
        comments, header, rows = _read_table(path)
        offsets, raw, corrected, rho = _float_columns(
            path, header, rows, ("offset_shots", "g2", "g2_corrected", "rho"), finite=False
        )
        zero = np.flatnonzero(offsets == 0)
        if len(zero) == 0:
            continue
        i = zero[-1]
        sigma = _number(path, "g2_zero_sigma", comments.get("g2_zero_sigma", "nan"), finite=False)
        summary["g2_zero_raw"] = raw[i]
        summary["g2_zero_raw_sigma"] = sigma
        summary["g2_zero_corrected"] = corrected[i]
        summary["g2_rho"] = rho[i]
        break

    summary = {k: _fmt(v) for k, v in summary.items()}
    lines = [f"{k} = {v}" for k, v in summary.items()]
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return summary
