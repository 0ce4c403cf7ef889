"""Spectral-diffusion state and its stochastic evolution.

The fast component follows an exact Ornstein-Uhlenbeck update over any step
dt (Gillespie, Phys. Rev. E 54, 2084, 1996), the slow one a Gaussian random
walk.  ``generate_trajectory`` is the only update: each step draws two
standard normals (fast, then slow) even when a component is off, and the gap
between segments is one step.  Split segments draw the same numbers as one
run; the slow walk chains bit for bit, the fast part within a few ulps,
since its recurrence is evaluated as a doubling scan.  A static emitter (both
components off) draws nothing and keeps its offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physics import SpectralDiffusionParams


@dataclass(frozen=True)
class DiffusionState:
    """Instantaneous frequency offsets of one emitter."""

    nu_offset_fast: float = 0.0
    nu_offset_slow: float = 0.0


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
    incoming state unchanged); ``final`` is the state after the last step, to
    seed the next segment; zero steps draw nothing and give the incoming state.
    The engine passes ``t_rep`` or ``scan_dwell`` as dt, each checked >= 0.
    """
    if params.is_static:
        fast, slow = np.full(n_steps, state.nu_offset_fast), np.full(n_steps, state.nu_offset_slow)
        return DiffusionTrajectory(fast, slow, state)
    draws = rng.standard_normal(2 * n_steps).reshape(n_steps, 2)
    a, c = _ou_coefficients(dt, params)
    # AR(1) recurrence x[k] = a x[k-1] + c z[k] as a doubling scan: after the pass
    # with shift s, fast[k] = sum of a**j fast0[k-j] for j < 2s; one step is serial.
    fast = np.concatenate(([state.nu_offset_fast], c * draws[:, 0]))
    a_shift, shift = a, 1
    while shift <= n_steps:
        fast[shift:] += a_shift * fast[:-shift]
        a_shift, shift = a_shift * a_shift, 2 * shift
    # the seeded cumsum is the serial left fold, so a split changes no bit of the walk
    walk_scale = math.sqrt(params.sigma_slow_rate * dt)
    slow = np.cumsum(np.concatenate(([state.nu_offset_slow], walk_scale * draws[:, 1])))
    return DiffusionTrajectory(fast[:-1], slow[:-1], DiffusionState(float(fast[-1]), float(slow[-1])))
