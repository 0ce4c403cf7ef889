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
key is reused.  A run keeps its own list of block generators, as long as its
largest segment, and re-keys them for each segment; re-keyed, a generator
draws exactly the stream of a new ``Philox(key=...)``.

A scan pass is sampled in segments (``_segments``), in shot order.  A segment
(points, first, size) holds shots first .. first + size - 1 of each grid point
in the range ``points``: one block per point, a (blocks, size) grid of shots.
It is either as many whole points of one block from shot 0 as hold at most
``BLOCK_SHOTS`` shots and expect at most ``CLICK_BUDGET`` clicks, or one block
of a longer point; a block never spans two points.  Each segment draws
one diffusion trajectory per emitter, then does its physics arithmetic, its
sort and its dead-time filter once over the grid and cuts the records back
into blocks at multiples of the size; only the keys and draws are per block,
so the grouping changes no draw.  Spectral diffusion draws from one sequential
substream per emitter, advanced segment by segment in shot order (and by one
step across each dwell gap); chained so, its draws are the same numbers as
one draw over the whole scan, its slow walk bit for bit the same and its fast
offsets within ulps.  The block split and the grouping are fixed, so a stream
is a pure function of the config and seed.

Within a block of n shots the draws come in this column order:

1. per emitter in order: n excitation uniforms; then, for the excited shots
   only, their standard exponential emission delays (scaled by the lifetime
   after the draw), then their detection uniforms (drawn also when the delay
   falls after the collection window);
2. with no emitters, the Poissonian source: n photon counts, then per
   photon a detection uniform and a time uniform;
3. dark counts: n counts, then one time uniform per click.

The segment's clicks are then sorted by (shot, time) once, and the greedy
dead-time filter keeps a click when it comes at least the dead time after the
last kept click of its shot; only shots with two or more clicks are filtered.
Both act within shots, so a block's records are the same as when it is
sampled alone.  No per-shot array outlives its segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
_CHUNK = 2**15            # records per pass window over a click stream: a 256 KiB int64 column
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
        # one walk step over the dwell, sqrt(sigma_slow_rate * scan_dwell), stays below 2**128 Hz
        _require(0 <= self.scan_dwell < 2.0**128, "scan_dwell must lie in [0, 2**128) s")
        object.__setattr__(self, "emitters", tuple(self.emitters))
        rate = self.poisson_rate_per_shot
        _require(rate >= 0, "poisson_rate_per_shot must be >= 0")
        _require(rate == 0 or not self.emitters, "poisson_rate_per_shot requires no emitters")
        # the clicks expected in the largest block
        clicks = min(self.sequence.n_shots, BLOCK_SHOTS) * _clicks_per_shot(self)
        _require(clicks <= CLICK_BUDGET, "expected clicks per block exceed the 2**22 click budget")
        grid = tuple(float(f) for f in self.laser_frequency)
        object.__setattr__(self, "laser_frequency", grid)
        _require(len(grid) >= 1, "laser grid must be nonempty")
        # compared pairwise, not subtracted, so that no difference overflows
        _require(all(a < b for a, b in zip(grid, grid[1:])), "laser grid must be strictly increasing")
        # the grid enters the detunings that the sampler squares (see EmitterModel)
        _require(0 < grid[0], "laser frequencies must be > 0")
        _require(grid[-1] < 2.0**128, "laser frequencies must be below 2**128 Hz")

    def single_frequency(self) -> float:
        _require(len(self.laser_frequency) == 1, "operation requires a single laser frequency")
        return self.laser_frequency[0]


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

    One pass over adjacent records in windows of ``_CHUNK``.  Each window's
    shot and time columns, and the record after the window, are copied into
    two fresh contiguous int64 arrays, so that the checks read contiguous
    memory that stays in cache rather than the stride-16 columns of
    ``stream.records``.  The pass also takes each window's time extremes.
    Sorted shots have their extremes at the ends; whole-column extremes are
    taken only when the shot order fails, so that the messages keep their
    order.
    """
    seq = stream.sequence
    shots, times, n = stream.shot_indices, stream.times_ns, len(stream)
    if n == 0:
        return
    dead_ns = _to_ns(dead_time)
    t_min = t_max = int(times[0])
    shots_unsorted = times_unsorted = too_close = False
    for start in range(0, n, _CHUNK):
        # the window's records and the one after it, for the pairs (i, i + 1) from start;
        # one copy per statement, so that each takes the memory the last window's copy
        # frees (made together, malloc can trim the heap and fault in ~190 KiB a window)
        shot = shots[start : start + _CHUNK + 1].copy()
        t = times[start : start + _CHUNK + 1].copy()
        t_min, t_max = min(t_min, int(t.min())), max(t_max, int(t.max()))
        if (shot[1:] < shot[:-1]).any():
            shots_unsorted = True
            break
        same = shot[1:] == shot[:-1]
        times_unsorted |= (same & (t[1:] < t[:-1])).any()
        if dead_ns > 0:
            too_close |= (same & (t[1:] - t[:-1] < dead_ns)).any()
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


def _clicks_per_shot(config: ExperimentConfig) -> float:
    """Clicks expected per shot: one per emitter, plus source photons and dark counts."""
    dark = config.detector.dark_rate * config.sequence.t_coll
    return len(config.emitters) + config.poisson_rate_per_shot + dark


def _segments(config: ExperimentConfig) -> Iterator[tuple[range, int, int]]:
    """The segments of one scan pass in shot order, lazily, as (points, first, size).

    A segment samples shots ``first`` .. ``first + size - 1`` of each grid
    point in the range ``points``, one block per point.  It is either as many
    whole points of one block each as hold at most ``BLOCK_SHOTS`` shots and
    expect at most ``CLICK_BUDGET`` clicks, or one block of a longer point;
    the config check lets every block fit alone.
    """
    n_shots, n_points = config.sequence.n_shots, len(config.laser_frequency)
    per, per_shot = max(1, BLOCK_SHOTS // n_shots), _clicks_per_shot(config)
    while per > 1 and per * n_shots * per_shot > CLICK_BUDGET:
        per -= 1
    for g in range(0, n_points, per):
        for first in range(0, n_shots, BLOCK_SHOTS):
            yield range(g, min(g + per, n_points)), first, min(BLOCK_SHOTS, n_shots - first)


def _poisson_events(rngs, size: int, mean: float, per_event: tuple):
    """Per block, ``size`` Poisson counts of ``mean``, then ``per_event`` uniforms per event.

    Returns the counts and the uniforms, each joined over the blocks.
    """
    counts, uniforms = [], []
    for rng in rngs:
        counts.append(rng.poisson(mean, size))
        uniforms.append(rng.random((int(counts[-1].sum()), *per_event)))
    return np.concatenate(counts), np.concatenate(uniforms)


def _sample_segment(config: ExperimentConfig, lasers, first: int, size: int, offsets, rngs) -> list:
    """Clicks of a segment's blocks: per block, its (point shot, time ns) records.

    Block i is shots ``first`` .. ``first + size - 1`` of its point, at laser
    frequency ``lasers[i]``, drawn from ``rngs[i]`` in the column order of the
    module docstring: row i of a (blocks, ``size``) grid, for which
    ``offsets`` holds each emitter's diffusion offsets.  The arithmetic, one
    sort by (shot, time) and the dead-time filter run over the whole grid.
    """
    cavity, detector, seq = config.cavity, config.detector, config.sequence
    t_pulse_ns, t_coll_ns = seq.t_pulse_ns, seq.t_coll_ns
    k = len(rngs)
    bounds = np.arange(k + 1) * size    # each block's first segment shot, then the end
    laser_column = np.array(lasers)[:, None]
    shots, times = [], []
    for em, off in zip(config.emitters, offsets):
        nu = em.nu_ion_0 + off
        detuning = laser_column - nu.reshape(k, size)
        p_exc = excitation_probability(detuning, em.gamma_h, em.p_max)
        u_exc = np.empty((k, size))
        for rng, row in zip(rngs, u_exc):
            rng.random(out=row)
        excited = np.flatnonzero(u_exc < p_exc)
        purcell = purcell_profile(nu[excited] - cavity.nu_cav, cavity.p_peak, cavity.fwhm)
        delay, u_det = np.empty(len(excited)), np.empty(len(excited))
        cuts = np.searchsorted(excited, bounds)
        for rng, a, b in zip(rngs, cuts, cuts[1:]):
            rng.standard_exponential(out=delay[a:b])
            rng.random(out=u_det[a:b])
        # scale * standard exponential: the bits of rng.exponential(scale)
        late_ns = 1.0 / enhanced_decay_rate(em.gamma_0, purcell) * delay * 1e9
        p_det = cavity_branching_fraction(purcell) * detector.efficiency
        # late_ns < t_coll_ns is int(late_ns) < t_coll_ns, tested before the cast
        hit = (late_ns < t_coll_ns) & (u_det < p_det)
        shots.append(excited[hit])
        times.append(t_pulse_ns + late_ns[hit].astype(np.int64))
    if not config.emitters:
        # per photon: detection, time
        counts, u = _poisson_events(rngs, size, config.poisson_rate_per_shot, (2,))
        hit = u[:, 0] < detector.efficiency
        shots.append(np.repeat(np.arange(k * size), counts)[hit])
        times.append(t_pulse_ns + (u[hit, 1] * t_coll_ns).astype(np.int64))
    dark_mean = detector.dark_rate * seq.t_coll
    if dark_mean > 0.0:
        counts, u_t = _poisson_events(rngs, size, dark_mean, ())
        shots.append(np.repeat(np.arange(k * size), counts))
        times.append(t_pulse_ns + (u_t * t_coll_ns).astype(np.int64))
    # one sort of (shot, time) packed into an int64 key; times lie below `end`
    end = t_pulse_ns + t_coll_ns
    key = np.concatenate(shots) * end + np.concatenate(times)
    key.sort()
    records = np.column_stack(np.divmod(key, end))
    dead_ns = _to_ns(detector.dead_time)
    if dead_ns > 0 and len(key) > 1:
        records = _apply_dead_time(records, dead_ns)
    cuts = np.searchsorted(records[:, 0], bounds)
    # segment shots to point shots: block i begins at segment shot i * size and point shot first
    records[:, 0] += np.repeat(first - bounds[:-1], np.diff(cuts))
    return [records[a:b] for a, b in zip(cuts, cuts[1:])]


@dataclass(frozen=True)
class ScanPoint:
    laser_frequency: float
    stream: ClickStream

    @property
    def counts(self) -> int:
        return len(self.stream)


@dataclass(frozen=True)
class ScanResult:
    """One pass over the laser grid: a ``ScanPoint`` per grid frequency."""

    points: tuple


def _scans(config: ExperimentConfig) -> Iterator[ScanResult]:
    """The run loop: ``config.scan_repeats`` passes over the laser grid, lazily.

    Diffusion evolves continuously: within scans at one step per shot, one
    trajectory per segment, across the gap before each later scan as a single
    step of ``config.scan_dwell``.  Per-point streams carry local shot indices
    0..n_shots-1; point g of scan r samples from global shot
    (r * len(grid) + g) * n_shots.
    """
    emitters, seq = config.emitters, config.sequence
    rngs = [diffusion_stream(config.master_seed, i) for i in range(len(emitters))]
    pool = []   # this run's block generators, re-keyed segment by segment
    states = [DiffusionState() for _ in emitters]
    grid = config.laser_frequency
    n_per = seq.n_shots
    for repeat in range(config.scan_repeats):
        if repeat:
            states = [
                generate_trajectory(s, 1, config.scan_dwell, em.diffusion, rng).final
                for s, em, rng in zip(states, emitters, rngs)
            ]
        scan, blocks = [], []
        for points, first, size in _segments(config):
            paths = [
                generate_trajectory(s, len(points) * size, seq.t_rep, em.diffusion, rng)
                for s, em, rng in zip(states, emitters, rngs)
            ]
            states = [t.final for t in paths]
            # the pool grows to the widest segment; every generator is re-keyed before it draws
            pool += [np.random.Generator(np.random.Philox()) for _ in range(len(points) - len(pool))]
            block_rngs = [
                block_stream(config.master_seed, (repeat * len(grid) + g) * n_per + first, rng)
                for g, rng in zip(points, pool)
            ]
            sampled = _sample_segment(
                config, [grid[g] for g in points], first, size, [t.total() for t in paths], block_rngs
            )
            for g, records in zip(points, sampled):
                blocks.append(records)
                if first + size == n_per:   # the point's last block
                    scan.append(ScanPoint(grid[g], ClickStream(np.concatenate(blocks), seq)))
                    blocks = []
        yield ScanResult(tuple(scan))


def run_lifetime(config: ExperimentConfig) -> ClickStream:
    """Run n_shots at a fixed laser frequency for lifetime or g2 analysis.

    Only the first scan of the session is sampled, whatever ``scan_repeats``.
    """
    config.single_frequency()  # raises unless the grid has one point
    return next(_scans(config)).points[0].stream


def run_scan_session(config: ExperimentConfig) -> list[ScanResult]:
    """All ``config.scan_repeats`` scans over the laser grid, n_shots per point."""
    return list(_scans(config))
