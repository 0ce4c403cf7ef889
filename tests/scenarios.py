"""The paper's experiments as configs/*.ini describes them, with the overrides a test asks for.

Each builder parses its shipped file and applies only the overrides its caller
passes; an override left None keeps the file's value.  Also stream fixtures.
"""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np

from ersim.config import parse_config_file
from ersim.engine import ClickStream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped(name):
    """The experiment ``configs/<name>.ini`` describes, as parsed."""
    return parse_config_file(CONFIGS / f"{name}.ini")


def _replace(obj, **changes):
    """``dataclasses.replace`` with only the changes that are not None."""
    changes = {key: value for key, value in changes.items() if value is not None}
    return dataclasses.replace(obj, **changes) if changes else obj


def override(config, seed=None, n_shots=None, p_max=None, dark_rate=None, diffusion=None, **fields):
    """``config`` with the given overrides in place.

    ``p_max`` and ``diffusion`` change every emitter of the config;
    ``fields`` are ``ExperimentConfig`` fields such as ``scan_dwell``.
    """
    return _replace(
        config,
        emitters=tuple(_replace(em, p_max=p_max, diffusion=diffusion) for em in config.emitters),
        detector=_replace(config.detector, dark_rate=dark_rate),
        sequence=_replace(config.sequence, n_shots=n_shots),
        master_seed=seed,
        **fields,
    )


def lifetime_config(enhanced=True, **overrides):
    """``lifetime_cavity.ini``, or ``lifetime_reference.ini`` unless ``enhanced``."""
    return override(shipped("lifetime_cavity" if enhanced else "lifetime_reference"), **overrides)


def g2_config(copies=1, poisson_rate=None, **overrides):
    """``g2_single.ini`` with its emitter ``copies`` times or, given a ``poisson_rate``,
    the Poissonian source at that many photons per shot and no emitter."""
    config = override(shipped("g2_single"), **overrides)
    if poisson_rate is not None:
        return dataclasses.replace(config, emitters=(), poisson_rate_per_shot=poisson_rate)
    return dataclasses.replace(config, emitters=config.emitters * copies)


def background_g2_config(**overrides):
    """``g2_background.ini``: two emitters and dark counts, raw g2(0) near 0.29."""
    return override(shipped("g2_background"), **overrides)


def linewidth_session_config(points=None, span=None, **overrides):
    """``ple_session.ini``; ``points`` or ``span`` rebuild its grid about the same centre."""
    config = shipped("ple_session")
    if points is not None or span is not None:
        grid = config.laser_frequency
        points = points or len(grid)
        span = span or grid[-1] - grid[0]
        offsets = np.linspace(-0.5 * span, 0.5 * span, points)
        overrides["laser_frequency"] = tuple(0.5 * (grid[0] + grid[-1]) + offsets)
    return override(config, **overrides)


def paired_stream(n_records):
    """A valid stream of n_records clicks in the shipped 1 us + 20 us window, two per shot.

    Record 0 is alone in shot 0; records 2k - 1 and 2k share shot k, the
    second 500 ns after the first.  So records 2**20 - 1 and 2**20 share a shot.
    """
    i = np.arange(n_records)
    shots = (i + 1) // 2
    times = 1000 + (shots * 7919) % 19_000 + ((i + 1) % 2) * 500
    seq = lifetime_config(n_shots=int(shots[-1]) + 1).sequence
    return ClickStream(np.column_stack((shots, times)), seq)


def traced_peak(fn, *args):
    """Return fn(*args) and the peak of memory traced by tracemalloc during the call, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
