"""Closed-form physics for a two-level emitter coupled to a Lorentzian cavity.

All functions are pure and operate in SI units: frequencies in Hz, rates in
1/s, times in s.  Frequencies are absolute; conversion to wavelength or
detuning happens only in the reporting layer.  Each relation is defined once
here.  The engine samples through them with fields the model types check;
only relations fed by CSV values check.  The fitted lineshapes are defined
once, beside their Jacobians, in ``fitting``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

SPEED_OF_LIGHT = 299_792_458.0  # m/s


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidParameterError(message)


@dataclass(frozen=True)
class SpectralDiffusionParams:
    """Two-scale spectral diffusion of the emitter transition frequency.

    The fast component is an Ornstein-Uhlenbeck process (stationary standard
    deviation ``sigma_fast``, correlation time ``tau_fast``); the slow
    component is an unbounded random walk with diffusivity
    ``sigma_slow_rate`` in Hz^2/s.  All zeros gives a static emitter.
    """

    sigma_fast: float = 0.0
    tau_fast: float = 0.0
    sigma_slow_rate: float = 0.0

    def __post_init__(self):
        # the offsets enter the detunings that the sampler squares (see EmitterModel)
        _require(0 <= self.sigma_fast < 2.0**128, "sigma_fast must lie in [0, 2**128) Hz")
        _require(self.tau_fast >= 0, "tau_fast must be >= 0")
        _require(0 <= self.sigma_slow_rate < 2.0**128, "sigma_slow_rate must lie in [0, 2**128)")

    @property
    def is_static(self) -> bool:
        return self.sigma_fast == 0.0 and self.sigma_slow_rate == 0.0


@dataclass(frozen=True)
class EmitterModel:
    """Two-level ion: transition frequency, bare decay rate, excitation line."""

    nu_ion_0: float          # transition center frequency (Hz)
    gamma_0: float           # intrinsic decay rate without the cavity (1/s)
    gamma_h: float           # homogeneous FWHM of the excitation line (Hz)
    p_max: float             # peak per-pulse excitation probability on resonance
    diffusion: SpectralDiffusionParams = field(default_factory=SpectralDiffusionParams)

    def __post_init__(self):
        # like the laser grid, nu_cav and the offsets, below 2**128 Hz: squared detunings stay finite
        _require(0 < self.nu_ion_0 < 2.0**128, "nu_ion_0 must lie in (0, 2**128) Hz")
        # the delay scale 1e9 / (gamma_0 (1 + P)) in ns is finite, and so is gamma_0 (1 + P)
        _require(2.0**-128 < self.gamma_0 < 2.0**128, "gamma_0 must lie in (2**-128, 2**128) /s")
        # (gamma_h / 2)**2, on resonance the whole denominator, is finite and nonzero
        _require(0 < self.gamma_h < 2.0**512, "gamma_h must lie in (0, 2**512) Hz")
        _require(self.gamma_h > 2.0**-512, "gamma_h must exceed 2**-512 Hz")
        # p_max = 0 is allowed so that "emitter off" oracle configurations are
        # expressible; excitation_probability then is identically zero.
        _require(0 <= self.p_max <= 1, "p_max must lie in [0, 1]")


@dataclass(frozen=True)
class CavityModel:
    """Single Lorentzian cavity mode with an on-resonance Purcell factor."""

    nu_cav: float            # mode center frequency (Hz)
    q_factor: float          # quality factor
    p_peak: float            # Purcell factor for a resonant emitter

    def __post_init__(self):
        _require(0 < self.nu_cav < 2.0**128, "nu_cav must lie in (0, 2**128) Hz")
        _require(self.q_factor > 0, "q_factor must be > 0")
        _require(0 <= self.p_peak < 2.0**128, "p_peak must lie in [0, 2**128)")  # in gamma_0 (1 + P)
        _require(self.fwhm > 0, "nu_cav / q_factor must be > 0")
        # (2 delta / kappa)**2 in purcell_profile is finite for any detuning below 2**380 Hz
        _require(self.fwhm > 2.0**-128, "nu_cav / q_factor must exceed 2**-128 Hz")

    @property
    def fwhm(self) -> float:
        """Mode linewidth kappa = nu_cav / Q (Hz)."""
        return self.nu_cav / self.q_factor


@dataclass(frozen=True)
class DetectorModel:
    """Single-photon detector: efficiency, dark counts, optional dead time."""

    efficiency: float = 1.0      # detection probability per collected photon
    dark_rate: float = 0.0       # dark-count rate (counts/s)
    dead_time: float = 0.0       # minimum separation of clicks in one shot (s)

    def __post_init__(self):
        _require(0 <= self.efficiency <= 1, "efficiency must lie in [0, 1]")
        _require(self.dark_rate >= 0, "dark_rate must be >= 0")
        _require(self.dead_time >= 0, "dead_time must be >= 0")


def purcell_profile(delta, p_peak: float, kappa: float):
    """Purcell factor at emitter-cavity detuning delta.

    Lorentzian roll-off of the on-resonance value: P(delta) =
    p_peak / (1 + (2 delta / kappa)^2).
    """
    return p_peak / (1.0 + (2.0 * np.asarray(delta) / kappa) ** 2)


def enhanced_decay_rate(gamma_0: float, p) -> float:
    """Total decay rate gamma_0 * (1 + P) for Purcell factor P."""
    return gamma_0 * (1.0 + p)


def purcell_from_lifetimes(t1: float, t1_0: float) -> float:
    """Purcell factor P = t1_0 / t1 - 1 from enhanced and reference lifetimes."""
    _require(t1 > 0, "t1 must be > 0")
    _require(t1_0 > 0, "t1_0 must be > 0")
    return t1_0 / t1 - 1.0


def radiative_linewidth(t1: float) -> float:
    """Lifetime-limited linewidth 1 / (2 pi t1)."""
    _require(t1 > 0, "t1 must be > 0")
    return 1.0 / (2.0 * math.pi * t1)


def excitation_probability(delta_laser_ion, gamma_h: float, p_max: float):
    """Per-pulse excitation probability for a laser detuned by delta_laser_ion.

    Saturating Lorentzian with FWHM gamma_h and peak value p_max; incoherent
    (no Rabi dynamics).  p_max = 0 is the switched-off emitter.
    """
    half = 0.5 * gamma_h
    # unit-bounded shape factor first so the result never exceeds p_max
    return half**2 / (half**2 + np.asarray(delta_laser_ion) ** 2) * p_max


def cavity_branching_fraction(p) -> float:
    """Fraction P / (P + 1) of enhanced emission routed into the cavity channel."""
    return p / (p + 1.0)


def frequency_to_wavelength(frequency_hz):
    """c / frequency, of one frequency or elementwise of an array of them."""
    _require(bool(np.all(frequency_hz > 0)), "frequency must be > 0")
    return SPEED_OF_LIGHT / frequency_hz
