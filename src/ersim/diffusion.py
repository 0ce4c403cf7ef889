"""Spectral-diffusion state and its stochastic evolution.

The fast component follows an exact Ornstein-Uhlenbeck update over any step
dt (Gillespie, Phys. Rev. E 54, 2084, 1996), the slow one a Gaussian random
walk.  ``generate_trajectory`` is the only update: each step draws two
standard normals (fast, then slow) even when a component is off, so split
segments chain bit for bit, and the gap between segments is one step.  A
static emitter (both components off) draws nothing; only its wall time moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidParameterError
from .physics import SpectralDiffusionParams


@dataclass(frozen=True)
class DiffusionState:
    """Instantaneous frequency offsets of one emitter plus elapsed wall time."""

    nu_offset_fast: float = 0.0
    nu_offset_slow: float = 0.0
    wall_time: float = 0.0


def _ou_coefficients(dt: float, params: SpectralDiffusionParams) -> tuple[float, float]:
    """Return (decay factor a, innovation scale c) for the fast OU update."""
    if dt == 0.0 or params.sigma_fast == 0.0:
        return 1.0, 0.0
    if params.tau_fast == 0.0:
        # zero correlation time: every step is a fresh stationary draw
        return 0.0, params.sigma_fast
    a = math.exp(-dt / params.tau_fast)
    return a, params.sigma_fast * math.sqrt(1.0 - a * a)


@dataclass(frozen=True)
class DiffusionTrajectory:
    """Frozen per-shot offsets for one emitter over a run segment.

    ``fast[k]`` / ``slow[k]`` are the offsets in effect for shot k of the
    segment; ``final`` is the state after the last evolution step, ready to
    seed a following segment.
    """

    fast: np.ndarray
    slow: np.ndarray
    final: DiffusionState

    def total(self) -> np.ndarray:
        return self.fast + self.slow


def generate_trajectory(
    state: DiffusionState,
    n_steps: int,
    dt: float,
    params: SpectralDiffusionParams,
    rng: np.random.Generator,
) -> DiffusionTrajectory:
    """Evolve ``state`` n_steps times by dt, keeping the state before each step.

    Shot k of the segment uses the state after k steps (shot 0 sees the
    incoming state unchanged); ``final`` is the state after the last step, so
    consecutive segments chain exactly like one long segment.
    """
    if n_steps < 0:
        raise InvalidParameterError("n_steps must be >= 0")
    if dt < 0:
        raise InvalidParameterError("dt must be >= 0")
    if n_steps == 0:
        return DiffusionTrajectory(np.empty(0), np.empty(0), state)
    walls_next = np.cumsum(np.concatenate(([state.wall_time], np.full(n_steps, dt))))[1:]
    if params.is_static:
        final = DiffusionState(state.nu_offset_fast, state.nu_offset_slow, float(walls_next[-1]))
        return DiffusionTrajectory(
            np.full(n_steps, state.nu_offset_fast), np.full(n_steps, state.nu_offset_slow), final
        )
    draws = rng.standard_normal(2 * n_steps).reshape(n_steps, 2)
    a, c = _ou_coefficients(dt, params)
    # AR(1) recurrence x[k] = a x[k-1] + c z[k]; lfilter reproduces the serial
    # float operations exactly (same products, commuted addition).
    fast_next = lfilter([c], [1.0, -a], draws[:, 0], zi=[a * state.nu_offset_fast])[0]
    walk_scale = math.sqrt(params.sigma_slow_rate * dt)
    # cumsum seeded with the incoming value is the same left fold as a serial
    # loop, so splitting a segment does not change a bit of the path.
    slow_next = np.cumsum(np.concatenate(([state.nu_offset_slow], walk_scale * draws[:, 1])))[1:]

    fast = np.concatenate(([state.nu_offset_fast], fast_next[:-1]))
    slow = np.concatenate(([state.nu_offset_slow], slow_next[:-1]))
    final = DiffusionState(float(fast_next[-1]), float(slow_next[-1]), float(walls_next[-1]))
    return DiffusionTrajectory(fast, slow, final)
