"""Shot-by-shot Monte Carlo of the pulsed excitation experiment.

Each shot: excite the emitter(s) with a probability set by the laser-ion
detuning, draw an exponential emission delay at the Purcell-enhanced rate,
route the photon to the detector through the cavity channel, superimpose
Poisson dark counts inside the collection window, and apply dead-time
filtering.  Click times are quantized to integer nanoseconds at creation so
streams round-trip bit-exactly through the binary file format.

Randomness contract: shot k draws from a counter-based substream keyed by
(master_seed, k); spectral diffusion draws from one sequential substream per
emitter.  Results therefore do not depend on the order in which shots are
sampled.
Within a shot the draw order is fixed: per emitter in order (excitation
uniform; if excited, emission delay then detection uniform), then the
Poissonian source draws (count, then per photon detection and time uniforms),
then dark counts (count, then one time uniform per click).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .diffusion import DiffusionState, DiffusionTrajectory, evolve_diffusion, generate_trajectory
from .errors import InvalidParameterError, StreamInvariantError
from .physics import CavityModel, DetectorModel, EmitterModel, _require
from .rng import ShotStreams, diffusion_stream

def _to_ns(t_seconds: float) -> int:
    return int(round(t_seconds * 1e9))


@dataclass(frozen=True)
class PulseSequence:
    """Pulsed excitation timing: pulse, collection window, repetition period."""

    t_pulse: float           # excitation pulse duration (s)
    t_coll: float            # collection window duration (s)
    t_rep: float             # shot repetition period (s)
    n_shots: int             # number of repetitions

    def __post_init__(self):
        _require(self.t_pulse > 0, "t_pulse must be > 0")
        _require(self.t_coll > 0, "t_coll must be > 0")
        _require(
            self.t_pulse + self.t_coll <= self.t_rep,
            "pulse plus collection window must fit inside the repetition period",
        )
        _require(self.n_shots >= 1, "n_shots must be >= 1")

    @property
    def t_pulse_ns(self) -> int:
        return _to_ns(self.t_pulse)

    @property
    def t_coll_ns(self) -> int:
        return _to_ns(self.t_coll)

    @property
    def t_rep_ns(self) -> int:
        return _to_ns(self.t_rep)


@dataclass(frozen=True)
class SingleEmitter:
    """One emitter feeding the detector."""


@dataclass(frozen=True)
class NEmitters:
    """k independent emitters; oracle for multi-emitter autocorrelation limits."""

    n: int

    def __post_init__(self):
        _require(self.n >= 1, "NEmitters requires n >= 1")


@dataclass(frozen=True)
class Poissonian:
    """Coherent-source oracle: Poisson photons per shot, uniform in the window."""

    rate_per_shot: float

    def __post_init__(self):
        _require(self.rate_per_shot >= 0, "rate_per_shot must be >= 0")


SourceKind = Union[SingleEmitter, NEmitters, Poissonian]


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulated experiment."""

    emitter: Union[EmitterModel, tuple]
    cavity: CavityModel
    detector: DetectorModel
    sequence: PulseSequence
    laser_frequency: Union[float, tuple]   # single frequency or scan grid (Hz)
    master_seed: int = 0
    source: SourceKind = field(default_factory=SingleEmitter)
    scan_repeats: int = 1                  # repeated scans for diffusion maps
    scan_dwell: float = 0.0                # idle time between repeated scans (s)

    def __post_init__(self):
        _require(0 <= self.master_seed < 2**64, "master_seed must fit in 64 bits")
        _require(self.scan_repeats >= 1, "scan_repeats must be >= 1")
        _require(self.scan_dwell >= 0, "scan_dwell must be >= 0")
        if isinstance(self.emitter, (list, tuple)):
            object.__setattr__(self, "emitter", tuple(self.emitter))
            _require(len(self.emitter) >= 1, "emitter list must be nonempty")
        if isinstance(self.laser_frequency, (list, tuple, np.ndarray)):
            grid = tuple(float(f) for f in self.laser_frequency)
            _require(len(grid) >= 1, "laser grid must be nonempty")
            _require(
                all(b > a for a, b in zip(grid, grid[1:])),
                "laser grid must be strictly increasing",
            )
            object.__setattr__(self, "laser_frequency", grid)
        self.resolved_emitters()  # raises on emitter/source mismatch

    def resolved_emitters(self) -> tuple:
        """Emitters actually simulated, expanded according to the source kind."""
        given = self.emitter if isinstance(self.emitter, tuple) else (self.emitter,)
        if isinstance(self.source, Poissonian):
            return ()
        if isinstance(self.source, SingleEmitter):
            _require(len(given) == 1, "SingleEmitter source requires exactly one emitter")
            return given
        k = self.source.n
        if len(given) == 1:
            return given * k
        _require(len(given) == k, "emitter list length must match NEmitters count")
        return given

    def laser_grid(self) -> np.ndarray:
        if isinstance(self.laser_frequency, tuple):
            return np.asarray(self.laser_frequency, dtype=float)
        return np.asarray([self.laser_frequency], dtype=float)

    def single_frequency(self) -> float:
        if isinstance(self.laser_frequency, tuple):
            _require(len(self.laser_frequency) == 1, "operation requires a single laser frequency")
            return self.laser_frequency[0]
        return float(self.laser_frequency)


def config_digest(config: ExperimentConfig) -> str:
    """First 16 hex digits of the SHA-256 of the canonical text ``serialize_config`` writes."""
    from .config import serialize_config  # config imports engine at module load

    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]


@dataclass
class ClickStream:
    """Time-tagged detector clicks, ordered by (shot index, time within shot).

    Times are integer nanoseconds from the start of the shot; the float-second
    view is available as ``times_s``.
    """

    shot_indices: np.ndarray     # int64, nondecreasing
    times_ns: np.ndarray         # int64, within [t_pulse, t_pulse + t_coll)
    sequence: PulseSequence
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.shot_indices = np.asarray(self.shot_indices, dtype=np.int64)
        self.times_ns = np.asarray(self.times_ns, dtype=np.int64)
        if self.shot_indices.shape != self.times_ns.shape:
            raise InvalidParameterError("shot_indices and times_ns must have equal length")

    def __len__(self) -> int:
        return len(self.times_ns)

    @property
    def times_s(self) -> np.ndarray:
        return self.times_ns * 1e-9

    def delays_s(self) -> np.ndarray:
        """Click delays relative to the end of the excitation pulse (s)."""
        return (self.times_ns - self.sequence.t_pulse_ns) * 1e-9


def validate_click_stream(stream: ClickStream, dead_time: float = 0.0) -> None:
    """Raise StreamInvariantError unless gating, ordering and dead time hold."""
    seq = stream.sequence
    shots = stream.shot_indices
    times = stream.times_ns
    if len(stream) == 0:
        return
    if shots.min() < 0 or shots.max() >= seq.n_shots:
        raise StreamInvariantError("shot index outside [0, n_shots)")
    lo = seq.t_pulse_ns
    hi = seq.t_pulse_ns + seq.t_coll_ns
    if times.min() < lo:
        raise StreamInvariantError("click inside the excitation pulse window")
    if times.max() >= hi:
        raise StreamInvariantError("click after the collection window")
    if hi > seq.t_rep_ns:
        raise StreamInvariantError("collection window extends past the repetition period")
    d_shot = np.diff(shots)
    if np.any(d_shot < 0):
        raise StreamInvariantError("records not sorted by shot index")
    d_t = np.diff(times)[d_shot == 0]
    if np.any(d_t < 0):
        raise StreamInvariantError("records not sorted by time within shot")
    dead_ns = _to_ns(dead_time)
    if dead_ns > 0 and np.any(d_t < dead_ns):
        raise StreamInvariantError("clicks closer than the detector dead time")


class _RunContext:
    """Per-run constants unpacked from the configuration for the hot loop."""

    __slots__ = (
        "nu_ion", "gamma_0", "p_max", "half_sq", "n_emitters",
        "nu_cav", "kappa", "p_peak", "efficiency",
        "t_pulse_ns", "t_coll_ns", "window_end_ns", "dead_ns",
        "dark_mean", "poisson_rate",
    )

    def __init__(self, config: ExperimentConfig):
        emitters = config.resolved_emitters()
        self.n_emitters = len(emitters)
        self.nu_ion = [e.nu_ion_0 for e in emitters]
        self.gamma_0 = [e.gamma_0 for e in emitters]
        self.p_max = [e.p_max for e in emitters]
        self.half_sq = [(0.5 * e.gamma_h) ** 2 for e in emitters]
        self.nu_cav = config.cavity.nu_cav
        self.kappa = config.cavity.fwhm
        self.p_peak = config.cavity.p_peak
        self.efficiency = config.detector.efficiency
        seq = config.sequence
        self.t_pulse_ns = seq.t_pulse_ns
        self.t_coll_ns = seq.t_coll_ns
        self.window_end_ns = seq.t_pulse_ns + seq.t_coll_ns
        self.dead_ns = _to_ns(config.detector.dead_time)
        self.dark_mean = config.detector.dark_rate * seq.t_coll
        self.poisson_rate = (
            config.source.rate_per_shot if isinstance(config.source, Poissonian) else None
        )


def _sample_clicks(ctx: _RunContext, laser_hz: float, offsets, rng) -> list:
    """Click times (ns) for one shot; see the module docstring for draw order."""
    ts = []
    for i in range(ctx.n_emitters):
        nu = ctx.nu_ion[i] + offsets[i]
        u_exc = rng.random()
        d = laser_hz - nu
        h2 = ctx.half_sq[i]
        if u_exc < h2 / (h2 + d * d) * ctx.p_max[i]:
            dc = 2.0 * (nu - ctx.nu_cav) / ctx.kappa
            purcell = ctx.p_peak / (1.0 + dc * dc)
            delay = rng.exponential(1.0 / (ctx.gamma_0[i] * (1.0 + purcell)))
            t_ns = ctx.t_pulse_ns + int(delay * 1e9)
            u_det = rng.random()
            if t_ns < ctx.window_end_ns:
                if u_det < purcell / (purcell + 1.0) * ctx.efficiency:
                    ts.append(t_ns)
    if ctx.poisson_rate is not None:
        for _ in range(rng.poisson(ctx.poisson_rate)):
            u_det = rng.random()
            u_t = rng.random()
            if u_det < ctx.efficiency:
                ts.append(ctx.t_pulse_ns + int(u_t * ctx.t_coll_ns))
    if ctx.dark_mean > 0.0:
        for _ in range(rng.poisson(ctx.dark_mean)):
            ts.append(ctx.t_pulse_ns + int(rng.random() * ctx.t_coll_ns))
    if len(ts) > 1:
        ts.sort()
        if ctx.dead_ns > 0:
            kept = [ts[0]]
            for t in ts[1:]:
                if t - kept[-1] >= ctx.dead_ns:
                    kept.append(t)
            ts = kept
    return ts


def _emitter_trajectories(
    config: ExperimentConfig,
    n_steps: int,
    states: Sequence[DiffusionState] | None,
    rngs: Sequence[np.random.Generator] | None,
) -> tuple[list[DiffusionTrajectory], list[np.random.Generator]]:
    emitters = config.resolved_emitters()
    if states is None:
        states = [DiffusionState() for _ in emitters]
    if rngs is None:
        rngs = [diffusion_stream(config.master_seed, i) for i in range(len(emitters))]
    trajectories = [
        generate_trajectory(states[i], n_steps, config.sequence.t_rep, em.diffusion, rngs[i])
        for i, em in enumerate(emitters)
    ]
    return trajectories, list(rngs)


def _run_shots(
    config: ExperimentConfig,
    laser: float,
    offset_arrays: Sequence[np.ndarray],
    global_start: int,
    digest: str,
) -> ClickStream:
    ctx = _RunContext(config)
    streams = ShotStreams(config.master_seed)
    shots = []
    times = []
    for k in range(config.sequence.n_shots):
        rng = streams.for_shot(global_start + k)
        offs = [o[k] for o in offset_arrays]
        for t in _sample_clicks(ctx, laser, offs, rng):
            shots.append(k)
            times.append(t)
    metadata = {
        "config_digest": digest,
        "laser_frequency_hz": laser,
        "global_shot_start": global_start,
    }
    return ClickStream(
        np.asarray(shots, dtype=np.int64),
        np.asarray(times, dtype=np.int64),
        config.sequence,
        metadata,
    )


def run_lifetime(config: ExperimentConfig) -> ClickStream:
    """Run n_shots at a fixed laser frequency for lifetime or g2 analysis."""
    laser = config.single_frequency()
    trajectories, _ = _emitter_trajectories(config, config.sequence.n_shots, None, None)
    offsets = [t.total() for t in trajectories]
    return _run_shots(config, laser, offsets, 0, config_digest(config))


@dataclass(frozen=True)
class ScanPoint:
    laser_frequency: float
    counts: int
    stream: ClickStream


@dataclass(frozen=True)
class ScanResult:
    """One pass over the laser grid plus the state needed to chain scans."""

    points: tuple
    diffusion_states: tuple
    next_shot_index: int

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray([p.laser_frequency for p in self.points])

    @property
    def counts(self) -> np.ndarray:
        return np.asarray([p.counts for p in self.points], dtype=float)


def run_ple_scan(
    config: ExperimentConfig,
    *,
    diffusion_states: Sequence[DiffusionState] | None = None,
    diffusion_rngs: Sequence[np.random.Generator] | None = None,
    start_shot: int = 0,
) -> ScanResult:
    """Step the laser over the grid, n_shots per point, diffusion continuous.

    Per-point streams carry local shot indices 0..n_shots-1; the substream
    keys continue globally from ``start_shot`` so chained scans never reuse
    randomness.
    """
    grid = config.laser_grid()
    _require(len(grid) >= 1, "scan grid must be nonempty")
    n_per = config.sequence.n_shots
    total = len(grid) * n_per
    trajectories, rngs = _emitter_trajectories(config, total, diffusion_states, diffusion_rngs)
    offsets_full = [t.total() for t in trajectories]
    digest = config_digest(config)

    points = []
    for g, laser in enumerate(grid):
        segment = [o[g * n_per : (g + 1) * n_per] for o in offsets_full]
        stream = _run_shots(config, float(laser), segment, start_shot + g * n_per, digest)
        points.append(ScanPoint(float(laser), len(stream), stream))
    final_states = tuple(t.final for t in trajectories)
    return ScanResult(tuple(points), final_states, start_shot + total)


def run_scan_session(config: ExperimentConfig) -> list[ScanResult]:
    """Repeat the scan ``config.scan_repeats`` times with dwell gaps between.

    Diffusion evolves continuously: within scans at one step per shot, across
    the gaps as a single step of duration ``config.scan_dwell``.
    """
    emitters = config.resolved_emitters()
    states = [DiffusionState() for _ in emitters]
    rngs = [diffusion_stream(config.master_seed, i) for i in range(len(emitters))]
    scans = []
    start_shot = 0
    for repeat in range(config.scan_repeats):
        result = run_ple_scan(
            config,
            diffusion_states=states,
            diffusion_rngs=rngs,
            start_shot=start_shot,
        )
        scans.append(result)
        states = list(result.diffusion_states)
        start_shot = result.next_shot_index
        if repeat + 1 < config.scan_repeats:
            states = [
                evolve_diffusion(states[i], config.scan_dwell, emitters[i].diffusion, rngs[i])
                for i in range(len(emitters))
            ]
    return scans
