"""Shot-by-shot Monte Carlo of the pulsed excitation experiment.

Each shot: excite the emitter(s) with a probability set by the laser-ion
detuning, draw an exponential emission delay at the Purcell-enhanced rate,
route the photon to the detector through the cavity channel, superimpose
Poisson dark counts inside the collection window, and apply dead-time
filtering.  Click times are quantized to integer nanoseconds at creation, by
truncation toward zero, so streams round-trip bit-exactly through the binary
file format.  Every ``ClickStream`` is validated when it is made.

Randomness contract, stream layout 2 (``STREAM_LAYOUT``): shots are sampled in
blocks of ``BLOCK_SHOTS`` = 2**14.  A session of R scans over a grid of G
laser points counts global shots point by point, then scan by scan: point g of
scan r covers global shots s0 = (r * G + g) * n_shots onwards and samples
blocks starting at s0, s0 + BLOCK_SHOTS, ...; its last block may be partial.
A lifetime run is point 0 of scan 0.  The block starting at global shot s
draws from the counter-based substream keyed by (master_seed, 1 + s)
(``rng.block_stream``).  Block starts are distinct global shot indices, so no
key is reused.  Spectral diffusion draws from one sequential substream per
emitter, advanced block by block in shot order (and by one step across each
dwell gap); chained so, its draws are the same numbers as one draw over the
whole scan.  A stream is therefore a pure function of the config and seed.

Within a block of n shots the draws come in this column order:

1. per emitter in order: n excitation uniforms; then, for the excited shots
   only, their exponential emission delays, then their detection uniforms
   (drawn also when the delay falls after the collection window);
2. with no emitters, the Poissonian source: n photon counts, then per
   photon a detection uniform and a time uniform;
3. dark counts: n counts, then one time uniform per click.

The clicks are then sorted by (shot, time) once, and the greedy dead-time
filter keeps a click when it comes at least the dead time after the last
kept click of its shot; only shots with two or more clicks are filtered.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterator

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
_CHUNK = 1 << 20          # records per pass window over a click stream
CLICK_BUDGET = 2**22      # most clicks expected in one block; bounds the sampler's arrays


def _to_ns(t_seconds: float) -> int:
    return int(round(t_seconds * 1e9))


@dataclass(frozen=True)
class PulseSequence:
    """Pulsed excitation timing: pulse, collection window, repetition period.

    Each time is a whole number of nanoseconds below 2**48 (about 3.3 days),
    as the ERTT header stores it: within 1e-3 ns or four ulps, whichever is
    larger, so that a header count N read as N / 1e9 passes.  The bound keeps
    that under 0.125 ns and the block sort key below 2**62.  The window fits
    the period in nanoseconds.  At most 2**62 shots keep every shot index of
    a stream, and so every ERTT record field, below 2**62.
    """

    t_pulse: float           # excitation pulse duration (s)
    t_coll: float            # collection window duration (s)
    t_rep: float             # shot repetition period (s)
    n_shots: int             # number of repetitions

    def __post_init__(self):
        for name in ("t_pulse", "t_coll", "t_rep"):
            ns = getattr(self, name) * 1e9
            whole = math.isfinite(ns) and abs(ns - round(ns)) <= max(1e-3, 4 * math.ulp(ns))
            _require(whole, f"{name} must be a whole number of nanoseconds")
            _require(ns < 2**48, f"{name} must be below 2**48 ns")
        _require(self.t_pulse_ns >= 1, "t_pulse must be at least 1 ns")
        _require(self.t_coll_ns >= 1, "t_coll must be at least 1 ns")
        _require(
            self.t_pulse_ns + self.t_coll_ns <= self.t_rep_ns,
            "pulse plus collection window must fit inside the repetition period",
        )
        _require(1 <= self.n_shots <= 2**62, "n_shots must lie in [1, 2**62]")

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
class ExperimentConfig:
    """Complete description of one simulated experiment; sequences given are kept as tuples.

    ``emitters`` are exactly the emitters sampled, in order; with none, the
    source is Poissonian at ``poisson_rate_per_shot``, which is 0 otherwise.
    The clicks expected in a block, one per emitter per shot plus photons and
    dark counts, are at most ``CLICK_BUDGET``.
    """

    emitters: tuple[EmitterModel, ...]     # the emitters sampled; () for a Poissonian source
    cavity: CavityModel
    detector: DetectorModel
    sequence: PulseSequence
    laser_frequency: tuple[float, ...]     # grid (Hz), strictly increasing; one point if fixed
    master_seed: int = 0
    poisson_rate_per_shot: float = 0.0     # mean photons per shot when there are no emitters
    scan_repeats: int = 1                  # repeated scans for diffusion maps
    scan_dwell: float = 0.0                # idle time between repeated scans (s)

    def __post_init__(self):
        _require(0 <= self.master_seed < 2**64, "master_seed must fit in 64 bits")
        _require(self.scan_repeats >= 1, "scan_repeats must be >= 1")
        _require(self.scan_dwell >= 0, "scan_dwell must be >= 0")
        object.__setattr__(self, "emitters", tuple(self.emitters))
        rate = self.poisson_rate_per_shot
        _require(rate >= 0, "poisson_rate_per_shot must be >= 0")
        _require(rate == 0 or not self.emitters, "poisson_rate_per_shot requires no emitters")
        per_shot = len(self.emitters) + rate + self.detector.dark_rate * self.sequence.t_coll
        clicks = min(self.sequence.n_shots, BLOCK_SHOTS) * per_shot   # in the largest block
        _require(clicks <= CLICK_BUDGET, "expected clicks per block exceed the 2**22 click budget")
        grid = tuple(float(f) for f in self.laser_frequency)
        object.__setattr__(self, "laser_frequency", grid)
        _require(len(grid) >= 1, "laser grid must be nonempty")
        _require(np.all(np.diff(grid) > 0), "laser grid must be strictly increasing")
        _require(grid[0] > 0, "laser frequencies must be > 0")

    def single_frequency(self) -> float:
        _require(len(self.laser_frequency) == 1, "operation requires a single laser frequency")
        return self.laser_frequency[0]


def config_digest(config: ExperimentConfig) -> str:
    """First 16 hex digits of the SHA-256 of the canonical text ``serialize_config`` writes."""
    from .config import serialize_config  # config imports engine at module load

    return hashlib.sha256(serialize_config(config).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ClickStream:
    """Time-tagged detector clicks, ordered by (shot index, time within shot).

    ``records`` is a C-contiguous ``(n, 2)`` int64 array whose rows are the
    (shot index, time in ns from the start of the shot) records of an ERTT
    file, and ``shot_indices`` and ``times_ns`` are views of its columns.  An
    int64 C-contiguous array that owns its data is adopted without a copy and
    made read-only in place; anything else is copied first.  The stream is
    then checked with ``validate_click_stream``, so no invalid one exists.
    Its fields are frozen; only a view of an adopted array taken before the
    stream was made keeps its own writeable flag.
    """

    records: np.ndarray          # (n, 2) int64: shots nondecreasing in [0, n_shots),
    sequence: PulseSequence      # times in [t_pulse, t_pulse + t_coll)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        records = np.require(self.records, np.int64, ["C_CONTIGUOUS", "OWNDATA"])  # adopt or copy
        if records.ndim != 2 or records.shape[1] != 2:
            raise InvalidParameterError("records must be an (n, 2) array of (shot, time) rows")
        records.flags.writeable = False
        object.__setattr__(self, "records", records)
        validate_click_stream(self)

    @property
    def shot_indices(self) -> np.ndarray:
        return self.records[:, 0]

    @property
    def times_ns(self) -> np.ndarray:
        return self.records[:, 1]

    def __len__(self) -> int:
        return len(self.records)


def validate_click_stream(stream: ClickStream, dead_time: float = 0.0) -> None:
    """Raise StreamInvariantError unless gating, ordering and dead time hold.

    One pass over adjacent records in windows of ``_CHUNK``, reading the
    columns of ``stream.records`` in place and writing only two reused bool
    buffers (and an int64 one for a dead time), also takes each window's time
    extremes.  Sorted shots have their
    extremes at the ends; whole-column extremes are taken only when the shot
    order fails, so that the messages keep their order.
    """
    seq = stream.sequence
    shots, times, n = stream.shot_indices, stream.times_ns, len(stream)
    if n == 0:
        return
    dead_ns = _to_ns(dead_time)
    size = min(n, _CHUNK)
    flag_buf, same_buf = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    gap_buf = np.empty(size, dtype=np.int64) if dead_ns > 0 else None
    t_min = t_max = int(times[0])
    shots_unsorted = times_unsorted = too_close = False
    for start in range(0, n, _CHUNK):
        window = times[start : start + _CHUNK]
        t_min, t_max = min(t_min, int(window.min())), max(t_max, int(window.max()))
        m = min(start + _CHUNK, n - 1) - start    # the pairs (i, i + 1), i in [start, start + m)
        flag, same = flag_buf[:m], same_buf[:m]
        shot, next_shot = shots[start : start + m], shots[start + 1 : start + m + 1]
        if np.less(next_shot, shot, out=flag).any():
            shots_unsorted = True
            break
        np.equal(next_shot, shot, out=same)
        t, next_t = times[start : start + m], times[start + 1 : start + m + 1]
        np.less(next_t, t, out=flag)
        flag &= same
        times_unsorted |= flag.any()
        if gap_buf is not None:
            gap = gap_buf[:m]
            np.subtract(next_t, t, out=gap)
            np.less(gap, dead_ns, out=flag)
            flag &= same
            too_close |= flag.any()
    if shots_unsorted:
        s_min, s_max, t_min, t_max = shots.min(), shots.max(), times.min(), times.max()
    else:
        s_min, s_max = shots[0], shots[-1]
    for broken, message in (
        (s_min < 0 or s_max >= seq.n_shots, "shot index outside [0, n_shots)"),
        (t_min < seq.t_pulse_ns, "click inside the excitation pulse window"),
        (t_max >= seq.t_pulse_ns + seq.t_coll_ns, "click after the collection window"),
        (shots_unsorted, "records not sorted by shot index"),
        (times_unsorted, "records not sorted by time within shot"),
        (too_close, "clicks closer than the detector dead time"),
    ):
        if broken:
            raise StreamInvariantError(message)


def _apply_dead_time(records: np.ndarray, dead_ns: int) -> np.ndarray:
    """Greedy dead-time filter over (shot, time) records in that order.

    A click is kept when it comes at least ``dead_ns`` after the last kept
    click of its shot.  Only shots with two or more clicks are visited, one
    click rank at a time across all of them.
    """
    shots, times = records[:, 0], records[:, 1]
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
    return records[keep]


def _sample_block(config: ExperimentConfig, laser_hz: float, offsets, n: int, rng):
    """Clicks of one block of n shots as (block-local shot, time ns) records.

    Sorted by (shot, time) with dead time applied; see the module docstring
    for the column order of the draws.
    """
    cavity, detector, seq = config.cavity, config.detector, config.sequence
    t_pulse_ns, t_coll_ns = seq.t_pulse_ns, seq.t_coll_ns
    shots = []
    times = []
    for em, off in zip(config.emitters, offsets):
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
    if not config.emitters:
        counts = rng.poisson(config.poisson_rate_per_shot, n)
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
    key = np.concatenate(shots) * end + np.concatenate(times)
    key.sort()
    records = np.column_stack(np.divmod(key, end))
    dead_ns = _to_ns(detector.dead_time)
    if dead_ns > 0 and len(key) > 1:
        return _apply_dead_time(records, dead_ns)
    return records


def _run_shots(
    config: ExperimentConfig, laser: float, states, diffusion_rngs, global_start: int, digest: str
):
    """One grid point and the diffusion states after it; each block draws its own offsets."""
    seq = config.sequence
    blocks = []
    for first in range(0, seq.n_shots, BLOCK_SHOTS):
        n = min(BLOCK_SHOTS, seq.n_shots - first)
        paths = [
            generate_trajectory(s, n, seq.t_rep, em.diffusion, d_rng)
            for s, em, d_rng in zip(states, config.emitters, diffusion_rngs)
        ]
        states = [t.final for t in paths]
        rng = block_stream(config.master_seed, global_start + first)
        records = _sample_block(config, laser, [t.total() for t in paths], n, rng)
        records[:, 0] += first
        blocks.append(records)
    metadata = {
        "config_digest": digest,
        "laser_frequency_hz": laser,
        "global_shot_start": global_start,
        "stream_layout": STREAM_LAYOUT,
    }
    return ClickStream(np.concatenate(blocks), seq, metadata), states


@dataclass(frozen=True)
class ScanPoint:
    laser_frequency: float
    counts: int
    stream: ClickStream


@dataclass(frozen=True)
class ScanResult:
    """One pass over the laser grid."""

    points: tuple

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
    emitters = config.emitters
    rngs = [diffusion_stream(config.master_seed, i) for i in range(len(emitters))]
    states = [DiffusionState() for _ in emitters]
    grid = config.laser_frequency
    n_per = config.sequence.n_shots
    digest = config_digest(config)
    for repeat in range(config.scan_repeats):
        if repeat:
            states = [
                generate_trajectory(s, 1, config.scan_dwell, em.diffusion, rng).final
                for s, em, rng in zip(states, emitters, rngs)
            ]
        points = []
        for g, laser in enumerate(grid):
            first = (repeat * len(grid) + g) * n_per
            stream, states = _run_shots(config, laser, states, rngs, first, digest)
            points.append(ScanPoint(laser, len(stream), stream))
        yield ScanResult(tuple(points))


def run_lifetime(config: ExperimentConfig) -> ClickStream:
    """Run n_shots at a fixed laser frequency for lifetime or g2 analysis.

    Only the first scan of the session is sampled, whatever ``scan_repeats``.
    """
    config.single_frequency()  # raises unless the grid has one point
    return next(_scans(config)).points[0].stream


def run_scan_session(config: ExperimentConfig) -> list[ScanResult]:
    """All ``config.scan_repeats`` scans over the laser grid, n_shots per point."""
    return list(_scans(config))
