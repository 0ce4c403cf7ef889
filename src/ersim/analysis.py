"""Click-stream and spectrum analysis: decay histograms, pulsed autocorrelation,
background correction, spectral-diffusion maps and Purcell reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _CHUNK, ClickStream, ScanResult
from .errors import InvalidParameterError
from .fitting import FitResult, fit_gaussian
from .physics import _require, purcell_from_lifetimes
from .records import CorrelationHistogram, DecayHistogram, Spectrum

_G2_WINDOW = 2**16        # shots heading one pulsed_g2 window; K more shots follow each
_FLOAT64_EXACT = 2**53    # float64 dots are exact while a window's records squared stay below


def histogram_arrivals(stream: ClickStream, bin_width: float) -> DecayHistogram:
    """Histogram click delays (time after the pulse) into uniform bins.

    Bins are right-closed multiples of the bin width starting at zero, with a
    delay of exactly zero counted in the first bin; the sum of the counts
    equals the number of clicks.  An empty stream gives an all-zero histogram.
    One pass bins ceil(delay / width) in windows of ``_CHUNK`` clicks, or of
    as many clicks as there are bins if that is more, each window's indices
    a fresh contiguous array.
    """
    _require(bin_width > 0, "bin_width must be > 0")
    ns = bin_width * 1e9
    # finite and, like every PulseSequence time, below 2**48 ns: bw_ns stays an int64
    _require(math.isfinite(ns) and round(ns) < 2**48, "bin_width must be below 2**48 ns")
    bw_ns = round(ns)
    _require(bw_ns >= 1, "bin_width must be at least 1 ns")
    seq = stream.sequence
    n_bins = -(-seq.t_coll_ns // bw_ns)
    # bin ceil(delay / bw) of n_bins + 1; bin 0 holds the delays of exactly zero and
    # joins bin 1 at the end.  A window of at least n_bins clicks keeps adding its
    # counts no costlier than binning it.
    times = stream.times_ns
    step = max(_CHUNK, n_bins)
    counts = np.zeros(n_bins + 1, dtype=np.int64)
    for lo in range(0, len(times), step):
        idx = times[lo : lo + step] - (seq.t_pulse_ns - bw_ns + 1)
        idx //= bw_ns
        counts += np.bincount(idx, minlength=n_bins + 1)
    counts[1] += counts[0]
    edges = np.arange(n_bins + 1) * (bw_ns * 1e-9)
    return DecayHistogram(edges, counts[1:].astype(float), total_shots=seq.n_shots)


def pulsed_g2(stream: ClickStream, max_offset: int) -> CorrelationHistogram:
    """Single-detector pulsed autocorrelation over shot offsets -K..K.

    Every unordered pair of clicks in shots separated by |d| <= K increments
    the +d and -d bins; pairs within one shot are counted as ordered pairs in
    the zero bin, which makes a Poissonian stream normalize to 1 at every
    offset.  Only the coincidences are counted here: the histogram derives
    the shot pairs available at each offset (the edge correction) and the
    nonzero-offset mean rate that normalizes its ``g2``.

    The stream is in (shot, time) order and within its shot count, as every
    ``ClickStream`` is checked when it is made.  The pass visits only occupied
    shots, in windows of W = ``_G2_WINDOW`` shots plus K, so it costs
    O(clicks + windows * K * W) time and O(W + K) memory beyond the records
    of one window; K is at most 2**22, a 64 MiB histogram.  The shot count
    sets no limit: the clicks of a stream spanning 2**61 shots are counted
    as exactly as any.

    Streams with fewer than two clicks (or no side coincidences) return a
    histogram flagged ``is_empty`` rather than raising.
    """
    _require(max_offset >= 1, "max_offset must be >= 1")
    # checked before anything is allocated
    _require(max_offset <= 2**22, "max_offset must be at most 2**22")
    n_shots = stream.sequence.n_shots
    _require(max_offset < n_shots, "max_offset must be smaller than the shot count")
    k = max_offset
    coincidences = np.zeros(2 * k + 1, dtype=np.int64)
    if len(stream) >= 2:
        coincidences[k:] = _pairs_by_offset(stream.shot_indices, k)
        coincidences[k] -= len(stream)
        coincidences[:k] = coincidences[: k : -1]
    return CorrelationHistogram(coincidences, n_shots, stream.sequence.t_rep, n_clicks=len(stream))


def _pairs_by_offset(shots: np.ndarray, k: int) -> np.ndarray:
    """Sum over shots s of c(s) c(s + d) for d = 0..k, c the clicks per shot.

    A window counts the clicks of shots [a, a + W + k) from the next unvisited
    occupied shot a; the shots [a, a + W) head it, so every occupied shot
    heads exactly one.  Its m records bound every partial sum by m**2, which
    picks float64 dots, on a float64 copy of the window's counts, where they
    are exact and int64 dots beyond.
    """
    w = _G2_WINDOW
    sums = np.zeros(k + 1, dtype=np.int64)
    last = int(shots[-1])
    i = 0
    while i < len(shots):
        a = int(shots[i])
        j = int(np.searchsorted(shots, min(a + w + k - 1, last), side="right"))
        nxt = i + int(np.searchsorted(shots[i:j], a + w)) if a + w <= last else j
        counts = np.bincount(shots[i:j] - a, minlength=w + k)
        if (j - i) ** 2 < _FLOAT64_EXACT:
            counts = counts.astype(float)
        head = int(shots[nxt - 1]) - a + 1     # shots up to the head's last click
        span = int(shots[j - 1]) - a + 1       # shots up to the window's last click
        for d in range(min(k + 1, span)):
            sums[d] += int(np.dot(counts[:head], counts[d : d + head]))
        i = nxt
    return sums


def background_corrected_g2(g2_raw, rho: float):
    """Remove an uncorrelated background with signal fraction rho = S/(S+B).

    Returns (g2_raw - (1 - rho^2)) / rho^2, clamped below at zero: a float for
    one value, or an array corrected elementwise for an array of them.
    """
    _require(0 < rho <= 1, "rho must lie in (0, 1]")
    r2 = rho * rho
    _require(r2 > 0, "rho is so small that rho**2 underflows to 0")
    g2 = np.asarray(g2_raw, dtype=float)
    _require(bool(np.all(g2 >= 0)), "g2_raw must be >= 0")
    with np.errstate(over="ignore"):  # a huge g2 over a tiny rho^2 is inf, as in float arithmetic
        corrected = (g2 - (1.0 - r2)) / r2
    corrected = np.where(corrected > 0.0, corrected, 0.0)
    return float(corrected) if corrected.ndim == 0 else corrected


def spectrum_from_scan(scan: ScanResult, label: str = "") -> Spectrum:
    """Total counts per grid frequency for one scan pass."""
    seq = scan.points[0].stream.sequence
    seq_time = seq.n_shots * seq.t_rep * len(scan.points)
    frequencies = [p.laser_frequency for p in scan.points]
    counts = [p.counts for p in scan.points]
    return Spectrum(frequencies, counts, acquisition_time=seq_time, label=label)


@dataclass
class SpectralDiffusionMap:
    """Gaussian fits of repeated scans: one per scan and one of their mean."""

    per_scan_fits: tuple
    average_fit: FitResult

    @property
    def converged_fwhm(self) -> np.ndarray:
        """The widths of the per-scan fits that converged, in scan order; a fit
        that did not converge holds its starting guess, not a linewidth."""
        return np.asarray([f.value("fwhm") for f in self.per_scan_fits if f.converged])

    @property
    def average_fwhm(self) -> float:
        return self.average_fit.value("fwhm")


def spectral_diffusion_map(scans) -> SpectralDiffusionMap:
    """Fit each scan and the per-frequency mean spectrum with Gaussians."""
    scans = list(scans)
    _require(len(scans) >= 2, "need at least 2 scans")
    freqs = scans[0].frequencies
    for s in scans[1:]:
        if not np.array_equal(s.frequencies, freqs):
            raise InvalidParameterError("scans must share an identical frequency grid")
    fits = tuple(fit_gaussian(s) for s in scans)
    average = Spectrum(freqs, np.mean([s.counts for s in scans], axis=0))
    return SpectralDiffusionMap(fits, fit_gaussian(average))


def purcell_report(t1_fit: FitResult, t1_0_fit: FitResult) -> tuple[float, float]:
    """Purcell factor and its sigma from two fitted lifetimes.

    First-order error propagation: the relative error of P + 1 is the
    quadrature sum of the two relative lifetime errors.
    """
    if not (t1_fit.converged and t1_0_fit.converged):
        raise InvalidParameterError("purcell_report requires converged lifetime fits")
    t1, t1_0 = t1_fit.value("t1"), t1_0_fit.value("t1")
    p = purcell_from_lifetimes(t1, t1_0)
    rel_1, rel_0 = t1_fit.sigma("t1") / t1, t1_0_fit.sigma("t1") / t1_0
    rel = math.sqrt(rel_1 * rel_1 + rel_0 * rel_0)  # x * x overflows to inf, x ** 2 raises
    return p, (p + 1.0) * rel
