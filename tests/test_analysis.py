import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenarios
from oracles import dark_count_floor, enhanced_lifetime
import ersim.analysis
from ersim.analysis import (
    _G2_WINDOW,
    background_corrected_g2,
    histogram_arrivals,
    pulsed_g2,
    purcell_report,
    spectral_diffusion_map,
)
from ersim.engine import _CHUNK, ClickStream, PulseSequence, run_lifetime
from ersim.errors import InvalidParameterError, StreamInvariantError
from ersim.fitting import FitParameter, FitResult, fit_gaussian, gaussian_peak
from ersim.records import CorrelationHistogram, Spectrum
from ersim.reporting import _read_table, generate_report, write_spectrum_csv


def make_stream(shots, times_ns, n_shots=100, t_pulse=1e-6, t_coll=20e-6, t_rep=60e-6):
    seq = PulseSequence(t_pulse, t_coll, t_rep, n_shots)
    return ClickStream(np.column_stack((shots, times_ns)), seq)


def stream_from_counts(counts_per_shot, rng, t_pulse_ns=1000, t_coll_ns=20000):
    """Synthetic stream with the given number of clicks per shot (oracle input)."""
    shots = np.repeat(np.arange(len(counts_per_shot)), counts_per_shot)
    times = t_pulse_ns + rng.integers(0, t_coll_ns, size=shots.shape[0])
    order = np.lexsort((times, shots))
    seq = PulseSequence(t_pulse_ns * 1e-9, t_coll_ns * 1e-9, 60e-6, len(counts_per_shot))
    return ClickStream(np.column_stack((shots[order], times[order])), seq)


def brute_force_pairs(counts, k):
    """Oracle: sum over shots of c(s) c(s + d) for d = 0..k, by one int64 dot per offset.

    The same-shot clicks themselves are taken out at d = 0, leaving ordered
    pairs.  An offset by which no two occupied shots are apart is zero
    without a dot.
    """
    occupied = np.flatnonzero(counts)
    lags = np.unique(occupied[None, :] - occupied[:, None])
    out = np.zeros(k + 1, dtype=np.int64)
    for d in lags[(lags >= 0) & (lags <= k)]:
        out[d] = np.dot(counts[: len(counts) - d], counts[d:])
    out[0] -= counts.sum()
    return out


def seam_counts(k, rng):
    """Clicks per shot that cross at least three pulsed_g2 windows for max offset k.

    Gaps shorter than k, equal to k and longer than the window; a window head
    a with one click at a + W - 1 and one at a + W + k - 1, the farthest pair
    the window sees; 300 clicks in shot a.
    """
    w = _G2_WINDOW
    occupied = [0]
    for gap in (k - 1, k, w + 7):
        if gap:
            occupied.append(occupied[-1] + gap)
    a = occupied[-1]
    occupied += [a + w - 1, a + w + k - 1]
    b = occupied[-1] + w + k + 11
    occupied += [b, b + 1, b + 4]
    counts = np.zeros(occupied[-1] + 6, dtype=np.int64)
    counts[occupied] = rng.integers(1, 4, size=len(occupied))
    counts[a] = 300
    return counts


def fit_summary(value, sigma, converged=True):
    return FitResult(
        (FitParameter("amplitude", 1.0, 0.0), FitParameter("t1", value, sigma),
         FitParameter("baseline", 0.0, 0.0)),
        0.0, 5, "ok" if converged else "max_iterations",
    )


class TestHistogramArrivals:
    def test_counts_delays_into_bins(self):
        stream = make_stream([0, 1, 2], [2000, 2000, 4000], t_coll=4e-6)
        hist = histogram_arrivals(stream, 1e-6)
        assert hist.counts[:3].tolist() == [2.0, 0.0, 1.0]
        assert hist.counts.sum() == 3
        assert hist.total_shots == 100

    def test_empty_stream_gives_zero_histogram(self):
        hist = histogram_arrivals(make_stream([], []), 1e-6)
        assert hist.counts.sum() == 0
        assert len(hist) == 20

    def test_zero_delay_lands_in_first_bin(self):
        stream = make_stream([0], [1000])
        hist = histogram_arrivals(stream, 1e-6)
        assert hist.counts[0] == 1

    def test_sum_equals_click_count(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(0.8, size=5000)
        stream = stream_from_counts(counts, rng)
        hist = histogram_arrivals(stream, 0.73e-6)
        assert hist.counts.sum() == len(stream)

    def test_exponential_stream_matches_analytic_bin_fractions(self):
        cfg = scenarios.lifetime_config(seed=303, n_shots=200_000, p_max=0.9)
        stream = run_lifetime(cfg)
        bw = 1e-6
        hist = histogram_arrivals(stream, bw)
        t1 = enhanced_lifetime(cfg.emitters[0].gamma_0, cfg.cavity.p_peak)
        edges = hist.bin_edges
        expected_fraction = (np.exp(-edges[:-1] / t1) - np.exp(-edges[1:] / t1)) / (
            1.0 - np.exp(-cfg.sequence.t_coll / t1)
        )
        assert np.all(np.diff(expected_fraction) < 0)  # monotone decreasing means
        total = hist.counts.sum()
        for k in range(8):
            expected = expected_fraction[k] * total
            assert abs(hist.counts[k] - expected) < 5.0 * math.sqrt(expected)

    def test_uniform_dark_stream_is_flat(self):
        rng = np.random.default_rng(11)
        counts = rng.poisson(0.5, size=100_000)
        stream = stream_from_counts(counts, rng)
        hist = histogram_arrivals(stream, 1e-6)
        mean = hist.counts.mean()
        assert np.all(np.abs(hist.counts - mean) < 5.0 * math.sqrt(mean))

    @pytest.mark.parametrize(
        "bw, t_coll",
        [(312, 20_000), (1, 40_000)],
        ids=["width-not-dividing-t-coll", "more-bins-than-a-window"],
    )
    def test_exact_across_windows_against_one_bincount(self, bw, t_coll):
        # delays of exactly 0 and on and beside every multiple of the width, scattered
        # over three windows and a partial one; 312 ns does not divide 20 us, and
        # 40,000 bins of 1 ns outnumber the clicks of a _CHUNK window
        n = 3 * max(_CHUNK, -(-t_coll // bw)) + 5
        multiples = np.arange(0, t_coll, bw)
        edges = np.concatenate(([t_coll - 1], multiples, multiples[1:] - 1, multiples + 1))
        edges = edges[edges < t_coll]
        rng = np.random.default_rng(8)
        delays = np.concatenate((np.resize(edges, n // 2), rng.integers(0, t_coll, n - n // 2)))
        delays = rng.permutation(delays)
        stream = make_stream(np.arange(n), 1000 + delays, n_shots=n, t_coll=t_coll * 1e-9)
        hist = histogram_arrivals(stream, bw * 1e-9)
        expected = np.bincount(np.maximum(-(-delays // bw) - 1, 0), minlength=-(-t_coll // bw))
        assert np.array_equal(hist.counts, expected)

    def test_rejects_bad_bin_width(self):
        with pytest.raises(InvalidParameterError):
            histogram_arrivals(make_stream([], []), 0.0)
        with pytest.raises(InvalidParameterError):
            histogram_arrivals(make_stream([], []), 0.4e-9)

    @pytest.mark.parametrize("bin_width", [math.inf, 1e300, 2**48 * 1e-9])
    def test_rejects_bin_width_of_2_to_48_ns_or_more(self, bin_width):
        with pytest.raises(InvalidParameterError, match="below 2\\*\\*48 ns"):
            histogram_arrivals(make_stream([2], [2000]), bin_width)

    def test_bin_width_just_below_2_to_48_ns_is_one_bin(self):
        hist = histogram_arrivals(make_stream([2], [2000]), (2**48 - 1) * 1e-9)
        assert hist.counts.tolist() == [1.0]


class TestPulsedG2:
    def test_one_click_per_shot_is_perfectly_antibunched(self):
        n = 500
        stream = make_stream(np.arange(n), np.full(n, 5000), n_shots=n)
        hist = pulsed_g2(stream, 10)
        assert hist.g2_zero == 0.0
        side = hist.g2[np.abs(hist.offsets) >= 1]
        assert np.all(side == 1.0)

    def test_poissonian_counts_normalize_to_one_everywhere(self):
        rng = np.random.default_rng(21)
        counts = rng.poisson(0.6, size=1_000_000)
        stream = stream_from_counts(counts, rng)
        hist = pulsed_g2(stream, 30)
        assert np.all(np.abs(hist.g2 - 1.0) < 0.02)

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(33)
        counts = rng.poisson(0.4, size=2000)
        hist = pulsed_g2(stream_from_counts(counts, rng), 15)
        assert np.array_equal(hist.coincidences, hist.coincidences[::-1])
        assert np.array_equal(hist.g2, hist.g2[::-1])

    def test_side_peak_mean_within_shot_noise(self):
        rng = np.random.default_rng(44)
        counts = rng.poisson(0.5, size=400_000)
        hist = pulsed_g2(stream_from_counts(counts, rng), 30)
        side = hist.g2[np.abs(hist.offsets) >= 1]
        n_pairs = hist.coincidences[np.abs(hist.offsets) >= 1].sum()
        assert abs(side.mean() - 1.0) < 3.0 / math.sqrt(n_pairs)

    def test_too_few_clicks_flagged_empty(self):
        hist = pulsed_g2(make_stream([0], [2000]), 5)
        assert hist.is_empty
        assert np.all(np.isnan(hist.g2))

    def test_offset_bounds_checked(self):
        stream = make_stream([0, 1], [2000, 2000], n_shots=10)
        with pytest.raises(InvalidParameterError):
            pulsed_g2(stream, 0)
        with pytest.raises(InvalidParameterError):
            pulsed_g2(stream, 10)

    def test_edge_correction_weights(self):
        stream = make_stream([0, 9], [2000, 2000], n_shots=10)
        hist = pulsed_g2(stream, 9)
        assert hist.shot_pairs[hist.offsets == 9] == 1
        assert hist.shot_pairs[hist.offsets == 0] == 10

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**31),
        n_shots=st.integers(4, 60),
        mean=st.floats(0.1, 2.0),
        k=st.integers(1, 3),
    )
    def test_symmetry_property(self, seed, n_shots, mean, k):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(mean, size=n_shots)
        hist = pulsed_g2(stream_from_counts(counts, rng), min(k, n_shots - 1))
        assert np.array_equal(hist.coincidences, hist.coincidences[::-1])

    def test_g2_zero_sigma_matches_the_seed_to_seed_scatter(self):
        # the zero bin holds each same-shot pair twice, so its sigma carries sqrt(2)
        g2, sigma = [], []
        for seed in range(1, 101):
            config = scenarios.background_g2_config(seed=seed, n_shots=50_000)
            hist = pulsed_g2(run_lifetime(config), 10)
            g2.append(hist.g2_zero)
            sigma.append(hist.g2_zero_sigma())
        assert 0.8 <= np.std(g2, ddof=1) / np.mean(sigma) <= 1.25

    def test_zero_offset_counts_ordered_pairs_exactly(self):
        rng = np.random.default_rng(55)
        counts = rng.poisson(3.0, size=10_000)
        hist = pulsed_g2(stream_from_counts(counts, rng), 2)
        assert hist.coincidences[2] == int(np.sum(counts * (counts - 1)))

    @pytest.mark.parametrize("exact_bound", [2**53, 0], ids=["float64", "int64"])
    @pytest.mark.parametrize("k", [1, 30, _G2_WINDOW + 5])
    def test_every_offset_matches_per_shot_dots_across_window_seams(
        self, monkeypatch, k, exact_bound
    ):
        monkeypatch.setattr(ersim.analysis, "_FLOAT64_EXACT", exact_bound)
        rng = np.random.default_rng(k)
        counts = seam_counts(k, rng)
        hist = pulsed_g2(stream_from_counts(counts, rng), k)
        expected = brute_force_pairs(counts, k)
        assert np.array_equal(hist.coincidences[k:], expected)
        assert np.array_equal(hist.coincidences[: k + 1], expected[::-1])

    def test_decreasing_shot_column_is_rejected(self):
        # no such stream can be made, so pulsed_g2 never sees one; [0, 2**17, 5]
        # decreases across a pulsed_g2 window seam
        for shots in ([0, 3, 2, 9], [0, 2**17, 5], [4, 0]):
            with pytest.raises(StreamInvariantError, match="not sorted by shot index"):
                make_stream(shots, [2000] * len(shots), n_shots=2**18)


class TestPulsedG2AtTheOffsetBound:
    def test_every_offset_matches_per_shot_dots(self):
        # the widest histogram the CLI allows: 7 clicks over 2**23 shots at K = 2**22
        k, n_shots = 2**22, 2**23
        shots = np.array([0, 0, 1, 5, 1000, 2**22, 2**23 - 1])
        hist = pulsed_g2(make_stream(shots, np.full(len(shots), 2000), n_shots=n_shots), k)
        expected = brute_force_pairs(np.bincount(shots, minlength=n_shots), k)
        assert np.array_equal(hist.coincidences[k:], expected)
        assert np.array_equal(hist.coincidences[: k + 1], expected[::-1])


class TestHistogramRecord:
    def setup_method(self):
        stream = make_stream([0, 0, 2, 3, 7], [2000, 3000, 2500, 4000, 1500], n_shots=10)
        self.hist = pulsed_g2(stream, 3)

    @pytest.mark.parametrize("column", ["coincidences", "offsets", "shot_pairs", "g2"])
    def test_column_cannot_be_written(self, column):
        with pytest.raises(ValueError, match="read-only"):
            getattr(self.hist, column)[0] = 0

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CorrelationHistogram)])
    def test_field_cannot_be_reassigned(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.hist, field, getattr(self.hist, field))

    def test_columns_are_derived_once(self):
        for column in ("offsets", "shot_pairs", "g2"):
            assert getattr(self.hist, column) is getattr(self.hist, column)
        assert self.hist.offsets.tolist() == [-3, -2, -1, 0, 1, 2, 3]
        assert self.hist.shot_pairs.tolist() == [7, 8, 9, 10, 9, 8, 7]

    def test_empty_histogram_g2_is_read_only_nan(self):
        hist = pulsed_g2(make_stream([4], [2000], n_shots=10), 2)
        assert hist.is_empty and np.all(np.isnan(hist.g2))
        with pytest.raises(ValueError, match="read-only"):
            hist.g2[0] = 1.0

    def test_adopted_array_is_frozen_in_place(self):
        counts = np.array([1, 4, 1], dtype=np.int64)
        hist = CorrelationHistogram(counts, 10, 60e-6, n_clicks=2)
        assert hist.coincidences is counts
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 9

    @pytest.mark.parametrize("n_shots", [1, 0, -5])
    def test_shot_count_must_exceed_the_largest_offset(self, n_shots):
        # every offset then has a shot pair, so a nonempty g2 is finite
        with pytest.raises(InvalidParameterError, match="n_shots must exceed the largest offset"):
            CorrelationHistogram([1, 4, 1], n_shots, 60e-6, n_clicks=2)

    def test_histogram_from_a_view_does_not_follow_its_source(self):
        source = np.array([1, 4, 1, 7], dtype=np.int64)
        hist = CorrelationHistogram(source[:3], 10, 60e-6, n_clicks=2)
        source[0] = 9
        assert hist.coincidences.tolist() == [1, 4, 1]
        assert hist.g2[0] == hist.g2[2]


class TestMemoryBounds:
    """tracemalloc peaks on about 2e6 records, or on a few clicks over 2**40 shots."""

    N_RECORDS = 2_000_000
    MiB = 2**20

    def test_pulsed_g2_holds_one_count_per_shot(self):
        stream = scenarios.paired_stream(self.N_RECORDS)
        n_shots = stream.sequence.n_shots
        hist, peak = scenarios.traced_peak(pulsed_g2, stream, 30)
        counts = np.bincount(stream.shot_indices)
        assert hist.coincidences[30] == int(np.sum(counts * (counts - 1)))
        assert peak <= 8 * n_shots + self.MiB

    def test_histogram_holds_one_chunk_of_indices(self):
        stream = scenarios.paired_stream(self.N_RECORDS)
        hist, peak = scenarios.traced_peak(histogram_arrivals, stream, 312e-9)
        assert hist.counts.sum() == self.N_RECORDS
        assert peak <= 8 * _CHUNK + self.MiB

    def test_pulsed_g2_memory_does_not_grow_with_the_shot_count(self):
        k, n_shots = 30, 2**40
        shots = np.array([0, 1, 5, 2**20, 2**39, n_shots - 2, n_shots - 1])
        stream = make_stream(shots, np.full(len(shots), 2000), n_shots=n_shots)
        hist, peak = scenarios.traced_peak(pulsed_g2, stream, k)
        expected = np.zeros(k + 1, dtype=np.int64)
        expected[[1, 4, 5]] = [2, 1, 1]   # (0, 1) and the last two shots; (1, 5); (0, 5)
        assert np.array_equal(hist.coincidences[k:], expected)
        assert peak <= self.MiB + 16 * (_G2_WINDOW + k)


class TestDarkCountFloor:
    def test_no_dark_counts_no_floor(self):
        assert dark_count_floor(0.5, 0.0, 20e-6, 1000) == 0.0

    def test_matches_monte_carlo_dark_stream(self):
        rate = 12_500.0  # 0.25 clicks per 20 us window
        cfg = scenarios.lifetime_config(seed=61, n_shots=1_000_000, p_max=0.0, dark_rate=rate)
        stream = run_lifetime(cfg)
        hist = pulsed_g2(stream, 30)
        predicted = dark_count_floor(0.0, rate, cfg.sequence.t_coll, cfg.sequence.n_shots)
        side = hist.coincidences[np.abs(hist.offsets) >= 1]
        assert np.mean(side) == pytest.approx(predicted, rel=0.05)
        assert hist.coincidences[hist.offsets == 0][0] == pytest.approx(predicted, rel=0.05)

    def test_floor_value_is_offset_independent(self):
        a = dark_count_floor(0.3, 1000.0, 20e-6, 5000)
        assert a == 5000 * (2 * 0.3 * 0.02 + 0.02**2)

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            dark_count_floor(-0.1, 0.0, 1.0, 1)


class TestBackgroundCorrection:
    def test_reference_value_pair(self):
        corrected = background_corrected_g2(0.29, 0.861)
        assert corrected == pytest.approx(0.042, abs=5e-4)
        assert corrected == pytest.approx(0.04, abs=0.03)

    def test_unity_signal_fraction_is_identity(self):
        for g in (0.0, 0.29, 1.0, 2.4):
            assert background_corrected_g2(g, 1.0) == g

    def test_pure_background_limit(self):
        for rho in (0.2, 0.5, 0.861, 1.0):
            assert background_corrected_g2(1.0 - rho**2, rho) == 0.0

    def test_clamped_at_zero(self):
        assert background_corrected_g2(0.0, 0.5) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            background_corrected_g2(0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            background_corrected_g2(0.5, 1.2)
        with pytest.raises(InvalidParameterError):
            background_corrected_g2(-0.1, 0.5)

    @given(g=st.floats(0.0, 10.0), rho=st.floats(0.01, 1.0))
    def test_mixture_identity(self, g, rho):
        raw = (1.0 - rho**2) + rho**2 * g
        assert background_corrected_g2(raw, rho) == pytest.approx(g, rel=1e-9, abs=1e-9)

    @given(
        g1=st.floats(0.0, 5.0),
        g2=st.floats(0.0, 5.0),
        rho=st.floats(0.01, 1.0),
    )
    def test_monotone_in_raw_value(self, g1, g2, rho):
        lo, hi = sorted((g1, g2))
        assert background_corrected_g2(lo, rho) <= background_corrected_g2(hi, rho)


class TestSpectralDiffusionMap:
    grid = 195.6e12 + np.linspace(-400e6, 400e6, 81)

    def spectrum(self, center_offset=0.0, fwhm=173.6e6, amplitude=200.0, label=""):
        y = gaussian_peak(self.grid, (195.6e12 + center_offset, fwhm, amplitude, 1.0))
        return Spectrum(self.grid, y, acquisition_time=10.0, label=label)

    def test_identical_scans_average_to_single_scan(self):
        scans = [self.spectrum(label="a"), self.spectrum(label="b")]
        result = spectral_diffusion_map(scans)
        # the mean of two equal scans is that scan, so its fit is the scan's fit
        assert result.average_fit == fit_gaussian(scans[0])
        assert result.average_fwhm == pytest.approx(result.converged_fwhm[0], rel=1e-9)

    def test_drifting_centers_broaden_average(self):
        rng = np.random.default_rng(17)
        offsets = np.cumsum(rng.normal(0.0, 40e6, size=10))
        scans = [self.spectrum(center_offset=o, label=str(i)) for i, o in enumerate(offsets)]
        result = spectral_diffusion_map(scans)
        assert result.average_fwhm > result.converged_fwhm.mean()

    def test_converged_widths_leave_out_a_flat_scan(self):
        # the flat scan's degenerate fit holds its starting guess, span / 4 = 200 MHz;
        # averaged in, the single-scan mean would read 182.4 MHz
        scans = [self.spectrum(), self.spectrum(), Spectrum(self.grid, np.zeros(len(self.grid)))]
        result = spectral_diffusion_map(scans)
        assert [f.status for f in result.per_scan_fits] == ["ok", "ok", "degenerate"]
        assert result.per_scan_fits[2].value("fwhm") == pytest.approx(200e6)
        assert len(result.converged_fwhm) == 2
        assert float(np.mean(result.converged_fwhm)) == pytest.approx(173.6e6, rel=1e-9)

    def test_mismatched_grids_rejected(self):
        other = Spectrum(self.grid + 1e6, self.spectrum().counts)
        with pytest.raises(InvalidParameterError):
            spectral_diffusion_map([self.spectrum(), other])

    def test_needs_two_scans(self):
        with pytest.raises(InvalidParameterError):
            spectral_diffusion_map([self.spectrum()])

    def test_matrix_shape(self, tmp_path):
        # the scans-by-frequencies matrix is the report's diffusion_map.csv
        scans = [self.spectrum(), self.spectrum(50e6)]
        result = spectral_diffusion_map(scans)
        assert len(result.per_scan_fits) == 2
        for i, scan in enumerate(scans):
            write_spectrum_csv(scan, tmp_path / f"scan_{i:03d}.csv")
        generate_report(tmp_path, tmp_path / "report")
        _, header, rows = _read_table(tmp_path / "report" / "diffusion_map.csv")
        assert header == ["frequency_hz", "scan_0_counts", "scan_1_counts"]
        assert len(rows) == len(self.grid)

    @staticmethod
    def second_moment_width(spectrum):
        """Standard deviation over frequency of the counts above the baseline of 1."""
        x = spectrum.frequencies - 195.6e12
        w = spectrum.counts - 1.0
        mean = np.sum(w * x) / np.sum(w)
        return math.sqrt(np.sum(w * (x - mean) ** 2) / np.sum(w))

    # Fitted FWHMs of the average are not bounded below by the narrowest scan:
    # a single Gaussian fitted to a bimodal average locks onto the stronger peak.
    @settings(max_examples=20)
    @example(offsets=[113355912.0, 113360625.0, -71435042.0], fwhms=[120e6] * 3)
    @example(offsets=[113e6, 113e6, -120e6], fwhms=[120e6] * 3)
    @given(
        offsets=st.lists(st.floats(-120e6, 120e6), min_size=2, max_size=6),
        fwhms=st.lists(st.floats(120e6, 260e6), min_size=2, max_size=6),
    )
    def test_average_at_least_narrowest_scan(self, offsets, fwhms):
        n = min(len(offsets), len(fwhms))
        scans = [
            self.spectrum(center_offset=offsets[i], fwhm=fwhms[i], label=str(i))
            for i in range(n)
        ]
        if n < 2:
            return
        result = spectral_diffusion_map(scans)
        # every scan is an exact Gaussian, so its fit returns its parameters
        assert result.converged_fwhm == pytest.approx(fwhms[:n], rel=1e-9)
        centers = [f.value("center") - 195.6e12 for f in result.per_scan_fits]
        assert centers == pytest.approx(offsets[:n], abs=1.0)
        assert result.average_fit.converged
        average = Spectrum(self.grid, np.mean([s.counts for s in scans], axis=0))
        np.testing.assert_equal(
            dataclasses.astuple(result.average_fit), dataclasses.astuple(fit_gaussian(average))
        )
        # law of total variance: the average is at least as wide as its narrowest scan
        narrowest = min(self.second_moment_width(s) for s in scans)
        assert self.second_moment_width(average) >= narrowest * (1.0 - 1e-9)


class TestPurcellReport:
    def test_measured_lifetime_pair(self):
        p, sigma = purcell_report(fit_summary(2.43e-6, 0.13e-6), fit_summary(1.12e-3, 0.18e-3))
        assert abs(p - 460.0) <= 1.0
        expected_sigma = (p + 1.0) * math.sqrt((0.13 / 2.43) ** 2 + (0.18 / 1.12) ** 2)
        assert sigma == pytest.approx(expected_sigma, rel=1e-12)
        assert sigma == pytest.approx(77.0, abs=2.0)

    def test_equal_lifetimes_give_zero(self):
        p, _ = purcell_report(fit_summary(5e-6, 1e-7), fit_summary(5e-6, 1e-7))
        assert p == 0.0

    def test_requires_convergence(self):
        with pytest.raises(InvalidParameterError):
            purcell_report(fit_summary(1e-6, 1e-7, converged=False), fit_summary(1e-3, 1e-4))

    def test_requires_positive_lifetimes(self):
        with pytest.raises(InvalidParameterError):
            purcell_report(fit_summary(-1e-6, 1e-7), fit_summary(1e-3, 1e-4))
