"""Shot-by-shot Monte Carlo of the pulsed excitation experiment.

Each shot: excite the emitter(s) with a probability set by the laser-ion
detuning, draw an exponential emission delay at the Purcell-enhanced rate,
route the photon to the detector through the cavity channel, superimpose
Poisson dark counts inside the collection window, and apply dead-time
filtering.  Click times are quantized to integer nanoseconds at creation, by
truncation toward zero, so streams round-trip bit-exactly through the binary
file format.

Randomness contract, stream layout 2 (``STREAM_LAYOUT``): shots are sampled in
blocks of ``BLOCK_SHOTS`` = 2**14.  A session of R scans over a grid of G
laser points counts global shots point by point, then scan by scan: point g of
scan r covers global shots s0 = (r * G + g) * n_shots onwards and samples
blocks starting at s0, s0 + BLOCK_SHOTS, ...; its last block may be partial.
A lifetime run is point 0 of scan 0.  The block starting at global shot s
draws from the counter-based substream keyed by (master_seed, 1 + s)
(``rng.block_stream``).  Block starts are distinct global shot indices, so no
key is reused.  Spectral diffusion draws from one sequential substream per
emitter.  A stream is therefore a pure function of the config and seed,
independent of the order in which blocks are sampled.

Within a block of n shots the draws come in this column order:

1. per emitter in order: n excitation uniforms; then, for the excited shots
   only, their exponential emission delays, then their detection uniforms
   (drawn also when the delay falls after the collection window);
2. Poissonian source: n photon counts, then per photon a detection uniform
   and a time uniform;
3. dark counts: n counts, then one time uniform per click.

The clicks are then sorted by (shot, time) once, and the greedy dead-time
filter keeps a click when it comes at least the dead time after the last
kept click of its shot; only shots with two or more clicks are filtered.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

import numpy as np

from .diffusion import DiffusionState, generate_trajectory
from .errors import InvalidParameterError, StreamInvariantError
from .physics import (
    CavityModel,
    DetectorModel,
    EmitterModel,
    _require,
    cavity_branching_fraction,
    enhanced_decay_rate,
    excitation_probability,
    purcell_profile,
)
from .rng import block_stream, diffusion_stream

STREAM_LAYOUT = 2         # version of the random-stream layout described above
BLOCK_SHOTS = 2**14       # shots per sampling block; fixed by the layout
_CHUNK = 1 << 20          # records per pass window over a click stream (here and in streamfile)


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

    Times are integer nanoseconds from the start of the shot.
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
    # Ordering and dead time from adjacent differences, in windows of _CHUNK + 1
    # records that overlap by one, through one reused buffer.  The time verdicts
    # wait for the whole shot-ordering pass so that the messages keep their order.
    dead_ns = _to_ns(dead_time)
    n_pairs = len(stream) - 1
    diff = np.empty(min(n_pairs, _CHUNK), dtype=np.int64)
    times_unsorted = too_close = False
    for start in range(0, n_pairs, _CHUNK):
        stop = min(start + _CHUNK, n_pairs)
        d = diff[: stop - start]
        np.subtract(shots[start + 1 : stop + 1], shots[start:stop], out=d)
        if d.min() < 0:
            raise StreamInvariantError("records not sorted by shot index")
        new_shot = d > 0
        np.subtract(times[start + 1 : stop + 1], times[start:stop], out=d)
        np.copyto(d, np.iinfo(np.int64).max, where=new_shot)
        closest = d.min()
        times_unsorted |= closest < 0
        too_close |= closest < dead_ns
    if times_unsorted:
        raise StreamInvariantError("records not sorted by time within shot")
    if dead_ns > 0 and too_close:
        raise StreamInvariantError("clicks closer than the detector dead time")


def _apply_dead_time(shots: np.ndarray, times: np.ndarray, dead_ns: int):
    """Greedy dead-time filter over clicks sorted by (shot, time).

    A click is kept when it comes at least ``dead_ns`` after the last kept
    click of its shot.  Only shots with two or more clicks are visited, one
    click rank at a time across all of them.
    """
    starts = np.flatnonzero(np.r_[True, shots[1:] != shots[:-1]])
    sizes = np.diff(np.r_[starts, len(shots)])
    multi = sizes >= 2
    starts, sizes = starts[multi], sizes[multi]
    keep = np.ones(len(shots), dtype=bool)
    last = times[starts]
    for rank in range(1, sizes.max(initial=1)):
        live = sizes > rank
        idx = starts[live] + rank
        ok = times[idx] - last[live] >= dead_ns
        keep[idx] = ok
        last[live] = np.where(ok, times[idx], last[live])
    return shots[keep], times[keep]


def _sample_block(config: ExperimentConfig, laser_hz: float, offsets, n: int, rng):
    """Clicks of one block of n shots as (block-local shot, time ns) arrays.

    Sorted by (shot, time) with dead time applied; see the module docstring
    for the column order of the draws.
    """
    cavity, detector, seq = config.cavity, config.detector, config.sequence
    t_pulse_ns, t_coll_ns = seq.t_pulse_ns, seq.t_coll_ns
    shots = []
    times = []
    for em, off in zip(config.resolved_emitters(), offsets):
        nu = em.nu_ion_0 + off
        p_exc = excitation_probability(laser_hz - nu, em.gamma_h, em.p_max)
        excited = np.flatnonzero(rng.random(n) < p_exc)
        purcell = purcell_profile(nu[excited] - cavity.nu_cav, cavity.p_peak, cavity.fwhm)
        late_ns = rng.exponential(1.0 / enhanced_decay_rate(em.gamma_0, purcell)) * 1e9
        u_det = rng.random(len(excited))
        p_det = cavity_branching_fraction(purcell) * detector.efficiency
        # late_ns < t_coll_ns is int(late_ns) < t_coll_ns, tested before the cast
        hit = (late_ns < t_coll_ns) & (u_det < p_det)
        shots.append(excited[hit])
        times.append(t_pulse_ns + late_ns[hit].astype(np.int64))
    if isinstance(config.source, Poissonian):
        counts = rng.poisson(config.source.rate_per_shot, n)
        u = rng.random((int(counts.sum()), 2))  # per photon: detection, time
        hit = u[:, 0] < detector.efficiency
        shots.append(np.repeat(np.arange(n), counts)[hit])
        times.append(t_pulse_ns + (u[hit, 1] * t_coll_ns).astype(np.int64))
    dark_mean = detector.dark_rate * seq.t_coll
    if dark_mean > 0.0:
        counts = rng.poisson(dark_mean, n)
        u_t = rng.random(int(counts.sum()))
        shots.append(np.repeat(np.arange(n), counts))
        times.append(t_pulse_ns + (u_t * t_coll_ns).astype(np.int64))
    # one sort of (shot, time) packed into an int64 key; times lie below `end`
    end = t_pulse_ns + t_coll_ns
    _require(BLOCK_SHOTS * end < 2**63, "collection window too long for the block sort")
    key = np.concatenate(shots) * end + np.concatenate(times)
    key.sort()
    shots = key // end
    times = key - shots * end
    dead_ns = _to_ns(detector.dead_time)
    if dead_ns > 0 and len(key) > 1:
        return _apply_dead_time(shots, times, dead_ns)
    return shots, times


def _run_shots(
    config: ExperimentConfig,
    laser: float,
    offset_arrays: Sequence[np.ndarray],
    global_start: int,
    digest: str,
) -> ClickStream:
    n_shots = config.sequence.n_shots
    shots = []
    times = []
    for first in range(0, n_shots, BLOCK_SHOTS):
        stop = min(first + BLOCK_SHOTS, n_shots)
        rng = block_stream(config.master_seed, global_start + first)
        block = [o[first:stop] for o in offset_arrays]
        block_shots, block_times = _sample_block(config, laser, block, stop - first, rng)
        shots.append(block_shots + first)
        times.append(block_times)
    metadata = {
        "config_digest": digest,
        "laser_frequency_hz": laser,
        "global_shot_start": global_start,
        "stream_layout": STREAM_LAYOUT,
    }
    return ClickStream(np.concatenate(shots), np.concatenate(times), config.sequence, metadata)


@dataclass(frozen=True)
class ScanPoint:
    laser_frequency: float
    counts: int
    stream: ClickStream


@dataclass(frozen=True)
class ScanResult:
    """One pass over the laser grid and the diffusion states after it."""

    points: tuple
    diffusion_states: tuple

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray([p.laser_frequency for p in self.points])

    @property
    def counts(self) -> np.ndarray:
        return np.asarray([p.counts for p in self.points], dtype=float)


def _scans(config: ExperimentConfig) -> Iterator[ScanResult]:
    """The run loop: ``config.scan_repeats`` passes over the laser grid, lazily.

    Diffusion evolves continuously: within scans at one step per shot, across
    the gap before each later scan as a single step of ``config.scan_dwell``.
    Per-point streams carry local shot indices 0..n_shots-1; point g of scan r
    samples from global shot (r * len(grid) + g) * n_shots.
    """
    emitters = config.resolved_emitters()
    rngs = [diffusion_stream(config.master_seed, i) for i in range(len(emitters))]
    states = [DiffusionState() for _ in emitters]
    grid = config.laser_grid()
    n_per = config.sequence.n_shots
    digest = config_digest(config)
    for repeat in range(config.scan_repeats):
        if repeat:
            states = [
                generate_trajectory(s, 1, config.scan_dwell, em.diffusion, rng).final
                for s, em, rng in zip(states, emitters, rngs)
            ]
        trajectories = [
            generate_trajectory(s, len(grid) * n_per, config.sequence.t_rep, em.diffusion, rng)
            for s, em, rng in zip(states, emitters, rngs)
        ]
        states = [t.final for t in trajectories]
        offsets = [t.total() for t in trajectories]
        points = []
        for g, laser in enumerate(grid):
            segment = [o[g * n_per : (g + 1) * n_per] for o in offsets]
            first = (repeat * len(grid) + g) * n_per
            stream = _run_shots(config, float(laser), segment, first, digest)
            points.append(ScanPoint(float(laser), len(stream), stream))
        # drop this scan's per-shot arrays before the next scan's are generated
        del trajectories, offsets, segment
        yield ScanResult(tuple(points), tuple(states))


def run_lifetime(config: ExperimentConfig) -> ClickStream:
    """Run n_shots at a fixed laser frequency for lifetime or g2 analysis.

    Only the first scan of the session is sampled, whatever ``scan_repeats``.
    """
    config.single_frequency()  # raises unless the grid has one point
    return next(_scans(config)).points[0].stream


def run_scan_session(config: ExperimentConfig) -> list[ScanResult]:
    """All ``config.scan_repeats`` scans over the laser grid, n_shots per point."""
    return list(_scans(config))
