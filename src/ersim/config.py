"""Experiment configuration documents.

INI-style text with sections mirroring the experiment config: ``[emitter]``
(plus ``[emitter.2]``.. for multi-emitter sources), ``[cavity]``,
``[detector]``, ``[sequence]``, ``[scan]``, ``[seed]``, ``[source]``.  Every
physical key carries its unit as a suffix; convenience aliases in laboratory
units (THz, MHz, us, ns) convert onto the canonical SI keys.  Unknown
sections or keys are rejected with line diagnostics and a close-match hint;
numbers must be finite.  ``[source]`` ``kind`` and ``n`` are words of the
text only: the parser turns them into the tuple of emitters sampled, and
``serialize_config`` writes them back from its length.

One table, ``_SCHEMA``, drives parse and echo: key validation, unit
conversion, defaults and model construction walk it, and ``serialize_config``
writes its canonical SI keys in its order, so parse -> serialize -> parse
reproduces the configuration exactly.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import re

import numpy as np

from .engine import ExperimentConfig, PulseSequence
from .errors import ConfigError, InvalidParameterError
from .physics import CavityModel, DetectorModel, EmitterModel, SpectralDiffusionParams

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_KEY_RE = re.compile(r"^([A-Za-z0-9_]+)\s*=\s*(.*)$")
_EMITTER_RE = re.compile(r"emitter(\.[0-9]+)?")

# section -> canonical key -> (default, {alias: scale to SI}).  Keys are in
# the order serialize_config writes them; for [emitter], [cavity], [detector]
# and [sequence] that is also the field order of the model built from them.
# An alias map of None marks a key whose text is kept as written; if its
# default is an int, the text is parsed as an integer where it is used.
# A default of None means there is none: the scan form keys only.
_SCHEMA = {
    "emitter": {
        "nu_ion_hz": (195.6e12, {"nu_ion_thz": 1e12}),
        "gamma0_per_s": (1000.0, {}),
        "gamma_h_hz": (10e6, {"gamma_h_mhz": 1e6}),
        "p_max": (0.5, {}),
        "sigma_fast_hz": (0.0, {"sigma_fast_mhz": 1e6}),
        "tau_fast_s": (0.0, {}),
        "sigma_slow_rate_hz2_per_s": (0.0, {"sigma_slow_rate_mhz2_per_s": 1e12}),
    },
    "cavity": {
        "nu_cav_hz": (195.6e12, {"nu_cav_thz": 1e12}),
        "q_factor": (4e4, {}),
        "p_peak": (400.0, {}),
    },
    "detector": {
        "efficiency": (1.0, {}),
        "dark_rate_per_s": (0.0, {}),
        "dead_time_s": (0.0, {"dead_time_ns": 1e-9}),
    },
    "sequence": {
        "t_pulse_s": (1e-6, {"t_pulse_us": 1e-6}),
        "t_coll_s": (20e-6, {"t_coll_us": 1e-6}),
        "t_rep_s": (60e-6, {"t_rep_us": 1e-6}),
        "n_shots": (10_000, None),
    },
    "scan": {
        "frequency_hz": (None, {"frequency_thz": 1e12}),
        "grid_hz": (None, None),
        "center_hz": (None, {"center_thz": 1e12}),
        "span_hz": (None, {"span_mhz": 1e6}),
        "points": (0, None),
        "repeats": (1, None),
        "dwell_s": (0.0, {}),
    },
    "seed": {"master_seed": (0, None)},
    "source": {
        "kind": ("single", None),
        "n": (0, None),
        "rate_per_shot": (0.0, {}),
    },
}

# section -> accepted key -> (scale to SI, or None for kept text; canonical key)
_KEYS = {
    section: {
        name: (scale, key)
        for key, (_, aliases) in keys.items()
        for name, scale in ({key: None} if aliases is None else {key: 1.0, **aliases}).items()
    }
    for section, keys in _SCHEMA.items()
}

# sections that are one model each, named after their ExperimentConfig field
_MODELS = {"cavity": CavityModel, "detector": DetectorModel, "sequence": PulseSequence}
# the [source] kinds: one emitter, n emitters, or no emitter and Poissonian photons
_SOURCE_KINDS = ("single", "n_emitters", "poissonian")
# the [scan] keys that together give an evenly spaced grid
_WINDOW = {"center_hz", "span_hz", "points"}


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


def _convert(section: str, keys: dict, entries: dict) -> dict:
    """Validate keys, apply unit scales, and map aliases to canonical keys.

    Returns {canonical key: (value, line number)}.
    """
    out: dict = {}
    origin: dict = {}
    for key, (raw, lineno) in entries.items():
        if key not in keys:
            raise ConfigError(
                f"unknown key '{key}'" + _suggest(key, keys), section=section, line=lineno
            )
        scale, canonical = keys[key]
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
            if not math.isfinite(value):
                raise ConfigError(
                    f"value for '{key}' is not a finite number", section=section, line=lineno
                )
        out[canonical] = (value, lineno)
        origin[canonical] = key
    return out


def _value(section: str, values: dict, key: str):
    """The converted value of ``key``, or its default; integer keys are parsed here."""
    default, aliases = _SCHEMA[section.split(".")[0]][key]
    if key not in values:
        return default
    raw, lineno = values[key]
    if aliases is None and isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"value for '{key}' is not an integer: {raw!r}", section=section, line=lineno
            ) from None
    return raw


def _line(values: dict, key: str):
    """Line number of ``key`` in its section, or None when the key is not written."""
    return values[key][1] if key in values else None


def _resolved(section: str, values: dict) -> list:
    """The values of a section in schema order, defaults filled in."""
    return [_value(section, values, key) for key in _SCHEMA[section.split(".")[0]]]


def _build(section, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, reporting a parameter violation against ``section``."""
    try:
        return cls(*args, **kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(str(exc), section=section) from exc


def _build_scan(values: dict, default_center: float):
    window = _WINDOW & values.keys()
    if ("frequency_hz" in values) + ("grid_hz" in values) + bool(window) > 1:
        raise ConfigError(
            "scan accepts only one of: frequency, grid_hz, or center/span/points",
            section="scan",
        )
    if "frequency_hz" in values:
        return (_value("scan", values, "frequency_hz"),)
    if "grid_hz" in values:
        line = _line(values, "grid_hz")
        try:
            grid = tuple(float(v) for v in _value("scan", values, "grid_hz").split(","))
        except ValueError:
            raise ConfigError(
                "grid_hz must be a comma-separated list of numbers", section="scan", line=line
            ) from None
        if not all(map(math.isfinite, grid)):
            raise ConfigError("value for 'grid_hz' is not a finite number", section="scan", line=line)
        return grid
    if not window:
        return (default_center,)
    if window != _WINDOW:
        raise ConfigError(
            f"scan window needs center, span and points (missing {sorted(_WINDOW - window)})",
            section="scan",
        )
    points = _value("scan", values, "points")
    if points < 2:
        raise ConfigError("scan points must be >= 2", section="scan", line=_line(values, "points"))
    span = _value("scan", values, "span_hz")
    if span <= 0:
        raise ConfigError("scan span must be > 0", section="scan", line=_line(values, "span_hz"))
    grid = _value("scan", values, "center_hz") + np.linspace(-0.5 * span, 0.5 * span, points)
    return grid


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document."""
    converted: dict = {}
    emitter_sections: dict = {}
    for name, entries in _tokenize(text).items():
        base = "emitter" if _EMITTER_RE.fullmatch(name) else name
        if base not in _KEYS:
            raise ConfigError(f"unknown section '{name}'" + _suggest(name, _SCHEMA), section=name)
        values = _convert(name, _KEYS[base], entries)
        (emitter_sections if base == "emitter" else converted)[name] = values

    source_values = converted.get("source", {})
    kind = _value("source", source_values, "kind")
    if kind not in _SOURCE_KINDS:
        raise ConfigError(
            f"unknown source kind '{kind}' ({', '.join(_SOURCE_KINDS)})",
            section="source",
            line=_line(source_values, "kind"),
        )
    for key, owner in (("n", "n_emitters"), ("rate_per_shot", "poissonian")):
        if key in source_values and kind != owner:
            raise ConfigError(
                f"'{key}' is only valid for kind = {owner}",
                section="source",
                line=_line(source_values, key),
            )
    n = _value("source", source_values, "n")
    if kind == "n_emitters" and n < 1:
        raise ConfigError(
            "n_emitters requires n >= 1", section="source", line=_line(source_values, "n")
        )

    # by number, so that [emitter.10] follows [emitter.9]
    numbered = sorted((k for k in emitter_sections if k != "emitter"), key=lambda k: int(k[8:]))
    if kind == "poissonian" and emitter_sections:
        raise ConfigError("a poissonian source has no emitters", section=min(emitter_sections))
    if numbered:
        if kind != "n_emitters":
            raise ConfigError(
                "numbered emitter sections require source kind = n_emitters",
                section=numbered[0],
            )
        expected = [f"emitter.{i}" for i in range(2, n + 1)]
        if numbered != expected:
            raise ConfigError(
                f"expected emitter sections {expected} for n = {n}, got {numbered}",
                section=numbered[0],
            )
    emitters = []
    for name in [] if kind == "poissonian" else ["emitter", *numbered]:
        v = _resolved(name, emitter_sections.get(name, {}))  # EmitterModel fields, then diffusion
        emitters.append(_build(name, EmitterModel, *v[:4], _build(name, SpectralDiffusionParams, *v[4:])))
    if kind == "n_emitters" and not numbered:
        emitters *= n  # the one [emitter] stands for all n
    models = {
        name: _build(name, cls, *_resolved(name, converted.get(name, {})))
        for name, cls in _MODELS.items()
    }
    scan_values = converted.get("scan", {})
    nu_ion = _value("emitter", emitter_sections.get("emitter", {}), "nu_ion_hz")  # or its default
    laser = _build_scan(scan_values, nu_ion)
    # after _build_scan, so a bad form is reported before anything else in [scan]
    *_, repeats, dwell = _resolved("scan", scan_values)
    (master_seed,) = _resolved("seed", converted.get("seed", {}))

    return _build(
        None,
        ExperimentConfig,
        emitters=emitters,
        **models,
        laser_frequency=laser,
        master_seed=master_seed,
        poisson_rate_per_shot=_value("source", source_values, "rate_per_shot"),
        scan_repeats=repeats,
        scan_dwell=dwell,
    )


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _flat(model) -> list:
    """Field values of a model dataclass in field order, nested dataclasses inlined."""
    out: list = []
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        out += _flat(value) if dataclasses.is_dataclass(value) else [value]
    return out


def _lines(section: str, values) -> list:
    """``[section]`` then ``key = value`` for each value in schema key order; None is skipped."""
    schema = _SCHEMA[section.split(".")[0]]
    lines = [f"[{section}]"]
    for key, value in zip(schema, values):
        if value is not None:
            lines.append(f"{key} = {value!r}" if schema[key][1] is not None else f"{key} = {value}")
    return lines + [""]


def serialize_config(config: ExperimentConfig) -> str:
    """Render a configuration as canonical SI-unit text (parses back exactly)."""
    lines: list = []
    for i, em in enumerate(config.emitters, start=1):
        lines += _lines("emitter" if i == 1 else f"emitter.{i}", _flat(em))
    for name in _MODELS:
        lines += _lines(name, _flat(getattr(config, name)))
    grid = config.laser_frequency  # frequency_hz for one point, grid_hz otherwise
    form = (grid[0], None) if len(grid) == 1 else (None, ", ".join(map(repr, grid)))
    lines += _lines("scan", (*form, None, None, None, config.scan_repeats, config.scan_dwell))
    lines += _lines("seed", (config.master_seed,))
    k = len(config.emitters)  # the number of emitters gives the [source] kind
    source = {0: ("poissonian", None, config.poisson_rate_per_shot), 1: ("single", None, None)}
    lines += _lines("source", source.get(k, ("n_emitters", k, None)))
    return "\n".join(lines)
