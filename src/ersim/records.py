"""Analysis data containers: spectra, decay histograms, correlation histograms.

Each stores only what it cannot derive; what follows from its fields is a property.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class CorrelationHistogram:
    """Pulsed autocorrelation versus shot offset, symmetric about zero.

    ``coincidences[k]`` counts click pairs at shot offset ``offsets[k]``,
    which run -K..K.  The rest is derived from the stored fields:
    ``shot_pairs[k]`` = n_shots - |offsets[k]| is the number of shot
    pairs available at that offset (the finite-trace edge correction), and
    ``normalization`` is the mean per-pair coincidence rate over all nonzero
    offsets, so ``g2`` is 1 for a Poissonian source.  Below two clicks every
    coincidence is 0, and so is the normalization.
    """

    coincidences: np.ndarray     # int64, 2K + 1 bins for offsets -K..K, K >= 1
    n_shots: int
    t_rep: float
    n_clicks: int

    def __post_init__(self):
        c = self.coincidences = np.asarray(self.coincidences, dtype=np.int64)
        shape_ok = c.ndim == 1 and len(c) % 2 == 1 and len(c) >= 3
        _require(shape_ok, "coincidences must have 2K + 1 bins for offsets -K..K, K >= 1")

    @property
    def offsets(self) -> np.ndarray:
        k = len(self.coincidences) // 2
        return np.arange(-k, k + 1)

    @property
    def shot_pairs(self) -> np.ndarray:
        return self.n_shots - np.abs(self.offsets)

    @property
    def normalization(self) -> float:
        side = self.offsets != 0
        return float(np.mean(self.coincidences[side] / self.shot_pairs[side]))

    @property
    def is_empty(self) -> bool:
        return self.normalization <= 0

    @property
    def g2(self) -> np.ndarray:
        normalization = self.normalization
        if normalization <= 0:
            return np.full(len(self.coincidences), np.nan)
        return self.coincidences / self.shot_pairs / normalization

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
