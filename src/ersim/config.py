"""Experiment configuration documents.

INI-style text with sections mirroring the experiment config: ``[emitter]``
(plus ``[emitter.2]``.. for multi-emitter sources), ``[cavity]``,
``[detector]``, ``[sequence]``, ``[scan]``, ``[seed]``, ``[source]``.  Every
physical key carries its unit as a suffix; convenience aliases in laboratory
units (THz, MHz, us, ns) convert onto the canonical SI keys.  Unknown
sections or keys are rejected with line diagnostics and a close-match hint.

The canonical serialization uses SI-unit keys only, so parse -> serialize ->
parse reproduces the configuration exactly.
"""

from __future__ import annotations

import difflib
import re

import numpy as np

from .engine import ExperimentConfig, NEmitters, Poissonian, PulseSequence, SingleEmitter
from .errors import ConfigError, InvalidParameterError
from .physics import CavityModel, DetectorModel, EmitterModel, SpectralDiffusionParams

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_]+)\s*=\s*(.*)$")

# key -> (scale to SI, canonical key); canonical keys map onto themselves
_EMITTER_KEYS = {
    "nu_ion_hz": (1.0, "nu_ion_hz"),
    "nu_ion_thz": (1e12, "nu_ion_hz"),
    "gamma0_per_s": (1.0, "gamma0_per_s"),
    "gamma_h_hz": (1.0, "gamma_h_hz"),
    "gamma_h_mhz": (1e6, "gamma_h_hz"),
    "p_max": (1.0, "p_max"),
    "sigma_fast_hz": (1.0, "sigma_fast_hz"),
    "sigma_fast_mhz": (1e6, "sigma_fast_hz"),
    "tau_fast_s": (1.0, "tau_fast_s"),
    "sigma_slow_rate_hz2_per_s": (1.0, "sigma_slow_rate_hz2_per_s"),
    "sigma_slow_rate_mhz2_per_s": (1e12, "sigma_slow_rate_hz2_per_s"),
}
_CAVITY_KEYS = {
    "nu_cav_hz": (1.0, "nu_cav_hz"),
    "nu_cav_thz": (1e12, "nu_cav_hz"),
    "q_factor": (1.0, "q_factor"),
    "p_peak": (1.0, "p_peak"),
}
_DETECTOR_KEYS = {
    "efficiency": (1.0, "efficiency"),
    "dark_rate_per_s": (1.0, "dark_rate_per_s"),
    "dead_time_s": (1.0, "dead_time_s"),
    "dead_time_ns": (1e-9, "dead_time_s"),
}
_SEQUENCE_KEYS = {
    "t_pulse_s": (1.0, "t_pulse_s"),
    "t_pulse_us": (1e-6, "t_pulse_s"),
    "t_coll_s": (1.0, "t_coll_s"),
    "t_coll_us": (1e-6, "t_coll_s"),
    "t_rep_s": (1.0, "t_rep_s"),
    "t_rep_us": (1e-6, "t_rep_s"),
    "n_shots": (None, "n_shots"),
}
_SCAN_KEYS = {
    "frequency_hz": (1.0, "frequency_hz"),
    "frequency_thz": (1e12, "frequency_hz"),
    "grid_hz": (None, "grid_hz"),
    "center_hz": (1.0, "center_hz"),
    "center_thz": (1e12, "center_hz"),
    "span_hz": (1.0, "span_hz"),
    "span_mhz": (1e6, "span_hz"),
    "points": (None, "points"),
    "repeats": (None, "repeats"),
    "dwell_s": (1.0, "dwell_s"),
}
_SEED_KEYS = {"master_seed": (None, "master_seed")}
_SOURCE_KEYS = {
    "kind": (None, "kind"),
    "n": (None, "n"),
    "rate_per_shot": (1.0, "rate_per_shot"),
}

_SECTION_SCHEMAS = {
    "emitter": _EMITTER_KEYS,
    "cavity": _CAVITY_KEYS,
    "detector": _DETECTOR_KEYS,
    "sequence": _SEQUENCE_KEYS,
    "scan": _SCAN_KEYS,
    "seed": _SEED_KEYS,
    "source": _SOURCE_KEYS,
}

_EMITTER_DEFAULTS = {
    "nu_ion_hz": 195.6e12,
    "gamma0_per_s": 1000.0,
    "gamma_h_hz": 10e6,
    "p_max": 0.5,
    "sigma_fast_hz": 0.0,
    "tau_fast_s": 0.0,
    "sigma_slow_rate_hz2_per_s": 0.0,
}


def _suggest(name: str, candidates) -> str:
    match = difflib.get_close_matches(name, list(candidates), n=1)
    return f"; did you mean '{match[0]}'?" if match else ""


def _tokenize(text: str) -> dict:
    """Split a document into {section: {key: (raw value, line number)}}."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name in sections:
                raise ConfigError(f"duplicate section '{name}'", section=name, line=lineno)
            sections[name] = {}
            current = name
            continue
        m = _KEY_RE.match(line)
        if m:
            if current is None:
                raise ConfigError("key outside any section", line=lineno)
            key, value = m.group(1), m.group(2).strip()
            if key in sections[current]:
                raise ConfigError(f"duplicate key '{key}'", section=current, line=lineno)
            sections[current][key] = (value, lineno)
            continue
        raise ConfigError(f"cannot parse line: {raw.strip()!r}", line=lineno)
    return sections


def _section_schema(name: str):
    base = name.split(".")[0]
    if base == "emitter" and re.fullmatch(r"emitter(\.[0-9]+)?", name):
        return _EMITTER_KEYS
    return _SECTION_SCHEMAS.get(name)


def _convert(section: str, schema: dict, entries: dict) -> dict:
    """Validate keys, apply unit scales, and map aliases to canonical keys."""
    out: dict = {}
    origin: dict = {}
    for key, (raw, lineno) in entries.items():
        if key not in schema:
            raise ConfigError(
                f"unknown key '{key}'" + _suggest(key, schema), section=section, line=lineno
            )
        scale, canonical = schema[key]
        if canonical in out:
            raise ConfigError(
                f"'{key}' conflicts with '{origin[canonical]}' (same quantity)",
                section=section,
                line=lineno,
            )
        if scale is None:
            value = raw
        else:
            try:
                value = float(raw) * scale
            except ValueError:
                raise ConfigError(
                    f"value for '{key}' is not a number: {raw!r}", section=section, line=lineno
                ) from None
        out[canonical] = value
        origin[canonical] = key
    return out


def _int_value(section: str, values: dict, key: str, default: int) -> int:
    if key not in values:
        return default
    raw = values[key]
    try:
        return int(str(raw).strip())
    except ValueError:
        raise ConfigError(f"value for '{key}' is not an integer: {raw!r}", section=section) from None


def _build_emitter(section: str, values: dict) -> EmitterModel:
    merged = {**_EMITTER_DEFAULTS, **values}
    try:
        diffusion = SpectralDiffusionParams(
            sigma_fast=merged["sigma_fast_hz"],
            tau_fast=merged["tau_fast_s"],
            sigma_slow_rate=merged["sigma_slow_rate_hz2_per_s"],
        )
        return EmitterModel(
            nu_ion_0=merged["nu_ion_hz"],
            gamma_0=merged["gamma0_per_s"],
            gamma_h=merged["gamma_h_hz"],
            p_max=merged["p_max"],
            diffusion=diffusion,
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), section=section) from exc


def _build_scan(values: dict, default_center: float):
    single_keys = {"frequency_hz"} & values.keys()
    grid_keys = {"grid_hz"} & values.keys()
    window_keys = {"center_hz", "span_hz", "points"} & values.keys()
    chosen = [bool(single_keys), bool(grid_keys), bool(window_keys)]
    if sum(chosen) > 1:
        raise ConfigError(
            "scan accepts only one of: frequency, grid_hz, or center/span/points",
            section="scan",
        )
    if single_keys:
        return float(values["frequency_hz"])
    if grid_keys:
        try:
            grid = tuple(float(v) for v in str(values["grid_hz"]).split(","))
        except ValueError:
            raise ConfigError("grid_hz must be a comma-separated list of numbers", section="scan") from None
        return grid
    if window_keys:
        if window_keys != {"center_hz", "span_hz", "points"}:
            missing = {"center_hz", "span_hz", "points"} - window_keys
            raise ConfigError(
                f"scan window needs center, span and points (missing {sorted(missing)})",
                section="scan",
            )
        points = _int_value("scan", values, "points", 0)
        if points < 2:
            raise ConfigError("scan points must be >= 2", section="scan")
        span = float(values["span_hz"])
        if span <= 0:
            raise ConfigError("scan span must be > 0", section="scan")
        center = float(values["center_hz"])
        grid = center + np.linspace(-0.5 * span, 0.5 * span, points)
        return tuple(float(g) for g in grid)
    return default_center


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document."""
    sections = _tokenize(text)
    converted: dict = {}
    emitter_sections: dict = {}
    for name, entries in sections.items():
        schema = _section_schema(name)
        if schema is None:
            raise ConfigError(
                f"unknown section '{name}'" + _suggest(name, _SECTION_SCHEMAS), section=name
            )
        values = _convert(name, schema, entries)
        if name.startswith("emitter"):
            emitter_sections[name] = values
        else:
            converted[name] = values

    source_values = converted.get("source", {})
    kind = source_values.get("kind", "single")
    if kind not in ("single", "n_emitters", "poissonian"):
        raise ConfigError(
            f"unknown source kind '{kind}' (single, n_emitters, poissonian)", section="source"
        )
    if "n" in source_values and kind != "n_emitters":
        raise ConfigError("'n' is only valid for kind = n_emitters", section="source")
    if "rate_per_shot" in source_values and kind != "poissonian":
        raise ConfigError("'rate_per_shot' is only valid for kind = poissonian", section="source")
    if kind == "single":
        source = SingleEmitter()
    elif kind == "n_emitters":
        n = _int_value("source", source_values, "n", 0)
        if n < 1:
            raise ConfigError("n_emitters requires n >= 1", section="source")
        source = NEmitters(n)
    else:
        try:
            source = Poissonian(float(source_values.get("rate_per_shot", 0.0)))
        except InvalidParameterError as exc:
            raise ConfigError(str(exc), section="source") from exc

    numbered = sorted(k for k in emitter_sections if k != "emitter")
    if numbered:
        if not isinstance(source, NEmitters):
            raise ConfigError(
                "numbered emitter sections require source kind = n_emitters",
                section=numbered[0],
            )
        expected = [f"emitter.{i}" for i in range(2, source.n + 1)]
        if numbered != expected:
            raise ConfigError(
                f"expected emitter sections {expected} for n = {source.n}, got {numbered}",
                section=numbered[0],
            )
    base_emitter = _build_emitter("emitter", emitter_sections.get("emitter", {}))
    if numbered:
        emitters: object = (base_emitter,) + tuple(
            _build_emitter(name, emitter_sections[name]) for name in numbered
        )
    else:
        emitters = base_emitter

    cavity_values = converted.get("cavity", {})
    try:
        cavity = CavityModel(
            nu_cav=cavity_values.get("nu_cav_hz", 195.6e12),
            q_factor=cavity_values.get("q_factor", 4e4),
            p_peak=cavity_values.get("p_peak", 400.0),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), section="cavity") from exc

    detector_values = converted.get("detector", {})
    try:
        detector = DetectorModel(
            efficiency=detector_values.get("efficiency", 1.0),
            dark_rate=detector_values.get("dark_rate_per_s", 0.0),
            dead_time=detector_values.get("dead_time_s", 0.0),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), section="detector") from exc

    seq_values = converted.get("sequence", {})
    try:
        sequence = PulseSequence(
            t_pulse=seq_values.get("t_pulse_s", 1e-6),
            t_coll=seq_values.get("t_coll_s", 20e-6),
            t_rep=seq_values.get("t_rep_s", 60e-6),
            n_shots=_int_value("sequence", seq_values, "n_shots", 10_000),
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), section="sequence") from exc

    scan_values = converted.get("scan", {})
    laser = _build_scan(scan_values, base_emitter.nu_ion_0)
    repeats = _int_value("scan", scan_values, "repeats", 1)
    dwell = float(scan_values.get("dwell_s", 0.0))

    seed_values = converted.get("seed", {})
    master_seed = _int_value("seed", seed_values, "master_seed", 0)

    try:
        return ExperimentConfig(
            emitter=emitters,
            cavity=cavity,
            detector=detector,
            sequence=sequence,
            laser_frequency=laser,
            master_seed=master_seed,
            source=source,
            scan_repeats=repeats,
            scan_dwell=dwell,
        )
    except InvalidParameterError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _emitter_lines(name: str, emitter: EmitterModel) -> list:
    d = emitter.diffusion
    return [
        f"[{name}]",
        f"nu_ion_hz = {emitter.nu_ion_0!r}",
        f"gamma0_per_s = {emitter.gamma_0!r}",
        f"gamma_h_hz = {emitter.gamma_h!r}",
        f"p_max = {emitter.p_max!r}",
        f"sigma_fast_hz = {d.sigma_fast!r}",
        f"tau_fast_s = {d.tau_fast!r}",
        f"sigma_slow_rate_hz2_per_s = {d.sigma_slow_rate!r}",
        "",
    ]


def serialize_config(config: ExperimentConfig) -> str:
    """Render a configuration as canonical SI-unit text (parses back exactly)."""
    lines: list = []
    emitters = config.emitter if isinstance(config.emitter, tuple) else (config.emitter,)
    lines += _emitter_lines("emitter", emitters[0])
    for i, em in enumerate(emitters[1:], start=2):
        lines += _emitter_lines(f"emitter.{i}", em)
    lines += [
        "[cavity]",
        f"nu_cav_hz = {config.cavity.nu_cav!r}",
        f"q_factor = {config.cavity.q_factor!r}",
        f"p_peak = {config.cavity.p_peak!r}",
        "",
        "[detector]",
        f"efficiency = {config.detector.efficiency!r}",
        f"dark_rate_per_s = {config.detector.dark_rate!r}",
        f"dead_time_s = {config.detector.dead_time!r}",
        "",
        "[sequence]",
        f"t_pulse_s = {config.sequence.t_pulse!r}",
        f"t_coll_s = {config.sequence.t_coll!r}",
        f"t_rep_s = {config.sequence.t_rep!r}",
        f"n_shots = {config.sequence.n_shots}",
        "",
        "[scan]",
    ]
    if isinstance(config.laser_frequency, tuple):
        grid = ", ".join(repr(f) for f in config.laser_frequency)
        lines.append(f"grid_hz = {grid}")
    else:
        lines.append(f"frequency_hz = {config.laser_frequency!r}")
    lines += [
        f"repeats = {config.scan_repeats}",
        f"dwell_s = {config.scan_dwell!r}",
        "",
        "[seed]",
        f"master_seed = {config.master_seed}",
        "",
        "[source]",
    ]
    if isinstance(config.source, SingleEmitter):
        lines.append("kind = single")
    elif isinstance(config.source, NEmitters):
        lines.append("kind = n_emitters")
        lines.append(f"n = {config.source.n}")
    else:
        lines.append("kind = poissonian")
        lines.append(f"rate_per_shot = {config.source.rate_per_shot!r}")
    lines.append("")
    return "\n".join(lines)
