"""Analysis data containers: spectra, decay histograms, correlation histograms.

Each stores only what it cannot derive, and derives the rest in properties or once when made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .physics import _require


@dataclass
class Spectrum:
    """Counts versus laser frequency for one scan."""

    frequencies: np.ndarray      # Hz, strictly increasing
    counts: np.ndarray           # nonnegative
    acquisition_time: float = 0.0
    label: str = ""

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.frequencies.shape != self.counts.shape or self.frequencies.ndim != 1:
            raise InvalidParameterError("frequencies and counts must be equal-length 1-D arrays")
        _require(np.all(np.diff(self.frequencies) > 0), "frequencies must be strictly increasing")
        _require(np.all(self.counts >= 0), "counts must be >= 0")
        _require(self.acquisition_time >= 0, "acquisition_time must be >= 0")

    def __len__(self) -> int:
        return len(self.frequencies)


@dataclass
class DecayHistogram:
    """Histogram of click delays after the excitation pulse, uniform bins."""

    bin_edges: np.ndarray        # s, uniform, strictly increasing, length n+1
    counts: np.ndarray           # length n
    total_shots: int = 0

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if len(self.bin_edges) != len(self.counts) + 1:
            raise InvalidParameterError("bin_edges must have one more entry than counts")
        widths = np.diff(self.bin_edges)
        _require(np.all(widths > 0), "bin edges must be strictly increasing")
        if len(widths) > 1:
            _require(
                np.allclose(widths, widths[0], rtol=1e-9, atol=0.0),
                "bins must be uniform",
            )
        _require(np.all(self.counts >= 0), "counts must be >= 0")
        _require(self.total_shots >= 0, "total_shots must be >= 0")

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class CorrelationHistogram:
    """Pulsed autocorrelation versus shot offset, symmetric about zero.

    ``coincidences[k]`` counts click pairs at shot offset ``offsets[k]``,
    which run -K..K.  The rest is derived once, when the histogram is made:
    ``shot_pairs[k]`` = n_shots - |offsets[k]| is the number of shot pairs
    available at that offset (the finite-trace edge correction), and
    ``normalization`` is the mean per-pair coincidence rate over all nonzero
    offsets, so ``g2`` is 1 for a Poissonian source.  Below two clicks every
    coincidence is 0, and so is the normalization; a histogram without a
    positive one ``is_empty``, its ``g2`` nan throughout.  K < n_shots gives
    every offset a shot pair, so any other ``g2`` is finite.  The fields are
    frozen and the arrays read-only, an owned int64 array adopted in place.
    """

    coincidences: np.ndarray     # int64, 2K + 1 bins for offsets -K..K, K >= 1
    n_shots: int
    t_rep: float
    n_clicks: int
    offsets: np.ndarray = field(init=False)
    shot_pairs: np.ndarray = field(init=False)
    normalization: float = field(init=False)
    g2: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.require(self.coincidences, np.int64, ["C_CONTIGUOUS", "OWNDATA"])  # adopt or copy
        shape_ok = c.ndim == 1 and len(c) % 2 == 1 and len(c) >= 3
        _require(shape_ok, "coincidences must have 2K + 1 bins for offsets -K..K, K >= 1")
        k = len(c) // 2
        _require(k < self.n_shots, "n_shots must exceed the largest offset")
        offsets = np.arange(-k, k + 1)
        shot_pairs = self.n_shots - np.abs(offsets)
        rate = c / shot_pairs          # coincidences per shot pair
        normalization = float(np.mean(rate[offsets != 0]))
        g2 = rate / normalization if normalization > 0 else np.full(len(c), np.nan)
        arrays = {"coincidences": c, "offsets": offsets, "shot_pairs": shot_pairs, "g2": g2}
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "normalization", normalization)

    @property
    def is_empty(self) -> bool:
        return self.normalization <= 0

    @property
    def g2_zero(self) -> float:
        return float(self.g2[len(self.coincidences) // 2])

    def g2_zero_sigma(self) -> float:
        """Poisson error on g2(0) propagated through the normalization.

        The zero bin counts each same-shot pair twice, as two ordered pairs, so
        its count n0 has variance 2 n0.
        """
        if self.is_empty:
            return float("nan")
        n0 = float(self.coincidences[len(self.coincidences) // 2])
        return float(np.sqrt(2.0 * max(n0, 1.0)) / (self.n_shots * self.normalization))
