import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import scenarios
from ersim import engine
from ersim.analysis import histogram_arrivals, pulsed_g2, spectrum_from_scan
from ersim.config import parse_config_file
from ersim.diffusion import generate_trajectory
from ersim.engine import (
    BLOCK_SHOTS,
    STREAM_LAYOUT,
    ClickStream,
    ExperimentConfig,
    NEmitters,
    Poissonian,
    PulseSequence,
    SingleEmitter,
    config_digest,
    run_lifetime,
    run_scan_session,
    validate_click_stream,
)
from ersim.errors import InvalidParameterError, StreamInvariantError
from ersim.fitting import fit_exponential, fit_gaussian, fit_lorentzian
from ersim.physics import DetectorModel
from ersim.rng import block_stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def with_shots(config, n_shots, **detector):
    """``config`` with another shot count and, optionally, other detector fields."""
    return dataclasses.replace(
        config,
        sequence=dataclasses.replace(config.sequence, n_shots=n_shots),
        detector=dataclasses.replace(config.detector, **detector),
    )


def expected_clicks_per_shot(config):
    """Analytic detection probability for a resonant shot (oracle formula)."""
    total = 0.0
    for em in config.resolved_emitters():
        p = config.cavity.p_peak
        gamma = em.gamma_0 * (1.0 + p)
        capture = 1.0 - math.exp(-config.sequence.t_coll * gamma)
        beta = p / (p + 1.0)
        total += em.p_max * beta * config.detector.efficiency * capture
    return total


class TestPulseSequence:
    def test_validates_window_fits_period(self):
        with pytest.raises(InvalidParameterError):
            PulseSequence(t_pulse=70e-6, t_coll=20e-6, t_rep=60e-6, n_shots=1)

    def test_validates_positive(self):
        with pytest.raises(InvalidParameterError):
            PulseSequence(t_pulse=0.0, t_coll=1e-6, t_rep=1e-5, n_shots=1)
        with pytest.raises(InvalidParameterError):
            PulseSequence(t_pulse=1e-6, t_coll=1e-6, t_rep=1e-5, n_shots=0)

    def test_nanosecond_values(self):
        seq = PulseSequence(**scenarios.PULSE_TIMING, n_shots=5)
        assert (seq.t_pulse_ns, seq.t_coll_ns, seq.t_rep_ns) == (1000, 20000, 60000)


class TestExperimentConfig:
    def test_grid_must_increase(self):
        with pytest.raises(InvalidParameterError):
            scenarios.lifetime_config().__class__(
                emitter=scenarios.emitter(),
                cavity=scenarios.cavity(),
                detector=DetectorModel(),
                sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=1),
                laser_frequency=(2.0e14, 1.0e14),
            )

    def test_emitter_count_must_match_source(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(
                emitter=(scenarios.emitter(), scenarios.emitter()),
                cavity=scenarios.cavity(),
                detector=DetectorModel(),
                sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=1),
                laser_frequency=scenarios.NU0,
                source=NEmitters(3),
            )

    def test_single_emitter_replicated_for_n_emitters(self):
        cfg = scenarios.g2_config(NEmitters(4), n_shots=1)
        assert len(cfg.resolved_emitters()) == 4

    def test_digest_tracks_fields(self):
        a = scenarios.lifetime_config(seed=1, n_shots=10)
        b = scenarios.lifetime_config(seed=2, n_shots=10)
        assert config_digest(a) == config_digest(a)
        assert config_digest(a) != config_digest(b)


class TestSampleShot:
    def test_switched_off_emitter_and_no_darks_gives_no_clicks(self):
        cfg = scenarios.lifetime_config(n_shots=1000)
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.0),
            cavity=cfg.cavity,
            detector=cfg.detector,
            sequence=cfg.sequence,
            laser_frequency=cfg.laser_frequency,
            master_seed=cfg.master_seed,
        )
        assert len(run_lifetime(cfg)) == 0

    def test_mean_clicks_matches_bernoulli_oracle(self):
        cfg = scenarios.lifetime_config(seed=101, n_shots=1_000_000, p_max=0.35)
        stream = run_lifetime(cfg)
        mean = len(stream) / cfg.sequence.n_shots
        assert mean == pytest.approx(expected_clicks_per_shot(cfg), rel=0.02)
        # with unit efficiency, near-unity branching and t_coll >> T1 the mean
        # click rate is the bare excitation probability
        assert mean == pytest.approx(0.35, rel=0.02)

    def test_dark_only_rate_matches_poisson_oracle(self):
        rate = 5000.0
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.0),
            cavity=scenarios.cavity(),
            detector=DetectorModel(dark_rate=rate),
            sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=1_000_000),
            laser_frequency=scenarios.NU0,
            master_seed=55,
        )
        stream = run_lifetime(cfg)
        expected = rate * cfg.sequence.t_coll
        assert len(stream) / cfg.sequence.n_shots == pytest.approx(expected, rel=0.02)

    def test_counts_within_three_sigma_of_bernoulli_plus_dark(self):
        cfg = scenarios.lifetime_config(seed=77, n_shots=100_000, p_max=0.6)
        cfg = ExperimentConfig(
            emitter=cfg.emitter,
            cavity=cfg.cavity,
            detector=DetectorModel(efficiency=0.7, dark_rate=2000.0),
            sequence=cfg.sequence,
            laser_frequency=cfg.laser_frequency,
            master_seed=cfg.master_seed,
        )
        stream = run_lifetime(cfg)
        p_signal = expected_clicks_per_shot(cfg)
        dark_mean = cfg.detector.dark_rate * cfg.sequence.t_coll
        n = cfg.sequence.n_shots
        sigma = math.sqrt((p_signal * (1 - p_signal) + dark_mean) / n)
        assert abs(len(stream) / n - (p_signal + dark_mean)) < 3 * sigma

    def test_g2_background_clicks_per_shot_match_analytic(self):
        cfg = parse_config_file(CONFIGS / "g2_background.ini")
        cfg = with_shots(cfg, 200_000)
        laser = cfg.single_frequency()
        kappa = cfg.cavity.nu_cav / cfg.cavity.q_factor
        probs = []
        for em in cfg.resolved_emitters():
            # written out by hand, independent of the physics functions the engine samples through
            p = cfg.cavity.p_peak / (1.0 + (2.0 * (em.nu_ion_0 - cfg.cavity.nu_cav) / kappa) ** 2)
            capture = 1.0 - math.exp(-cfg.sequence.t_coll * em.gamma_0 * (1.0 + p))
            half = 0.5 * em.gamma_h
            excitation = em.p_max * half**2 / (half**2 + (laser - em.nu_ion_0) ** 2)
            probs.append(excitation * p / (p + 1.0) * cfg.detector.efficiency * capture)
        dark_mean = cfg.detector.dark_rate * cfg.sequence.t_coll
        n = cfg.sequence.n_shots
        expected = sum(probs) + dark_mean
        sigma = math.sqrt((sum(p * (1 - p) for p in probs) + dark_mean) / n)
        assert abs(len(run_lifetime(cfg)) / n - expected) < 4 * sigma


class TestRunLifetime:
    def test_zero_excitation_gives_empty_stream(self):
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.0),
            cavity=scenarios.cavity(),
            detector=DetectorModel(),
            sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=5000),
            laser_frequency=scenarios.NU0,
            master_seed=4,
        )
        assert len(run_lifetime(cfg)) == 0

    def test_emission_delays_pass_ks_against_exponential(self):
        t1 = scenarios.T1_ENHANCED
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=1.0),
            cavity=scenarios.cavity(),
            detector=DetectorModel(),
            sequence=PulseSequence(t_pulse=1e-6, t_coll=73e-6, t_rep=80e-6, n_shots=100_000),
            laser_frequency=scenarios.NU0,
            master_seed=13,
        )
        stream = run_lifetime(cfg)
        delays = (stream.times_ns - stream.sequence.t_pulse_ns) * 1e-9
        assert len(delays) > 90_000
        gamma = scenarios.GAMMA_0 * (1.0 + scenarios.P_PEAK)
        result = scipy.stats.kstest(delays, "expon", args=(0.0, 1.0 / gamma))
        assert result.pvalue > 0.01
        assert abs(np.mean(delays) - t1) / t1 < 0.02

    def test_window_too_long_for_block_sort_rejected(self):
        seq = PulseSequence(t_pulse=1e-6, t_coll=6e5, t_rep=7e5, n_shots=1)
        cfg = dataclasses.replace(scenarios.lifetime_config(n_shots=1), sequence=seq)
        with pytest.raises(InvalidParameterError):
            run_lifetime(cfg)

    def test_streams_validate(self):
        for enhanced in (True, False):
            cfg = scenarios.lifetime_config(seed=6, n_shots=20_000, enhanced=enhanced)
            stream = run_lifetime(cfg)
            validate_click_stream(stream, cfg.detector.dead_time)


class TestCavityDetuning:
    """Emitter half a cavity linewidth from the mode with p_peak = 2, so P = 1.

    The cavity FWHM is 195.6 THz / 48900 = 4 GHz and the emitter sits 2 GHz
    above it: P = 2 / (1 + (2 * 2 GHz / 4 GHz)^2) = 1 exactly.  The expected
    values are written out by hand, not computed by ersim.physics, which the
    engine samples through.  With gamma_0 = 1e5/s the decay rate is
    gamma_0 (1 + P) = 2e5/s (t1 = 5 us) and half the emission is routed into
    the cavity channel.
    """

    def run(self):
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.5, nu=195.602e12, gamma_0=1e5),
            cavity=scenarios.cavity(nu=195.6e12, q=48900.0, p_peak=2.0),
            detector=DetectorModel(),
            sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=200_000),
            laser_frequency=195.602e12,
            master_seed=31,
        )
        return run_lifetime(cfg)

    def test_fitted_lifetime_is_half_the_bare_lifetime(self):
        fit = fit_exponential(histogram_arrivals(self.run(), 0.25e-6))
        assert fit.converged
        assert fit.sigma("t1") < 0.02 * 5e-6
        assert abs(fit.value("t1") - 5e-6) < 4 * fit.sigma("t1")

    def test_clicks_per_shot_match_half_branching(self):
        n = 200_000
        # p_max * P/(P+1) * (1 - exp(-t_coll / t1)), t_coll = 20 us, t1 = 5 us
        expected = 0.5 * 0.5 * (1.0 - math.exp(-4.0))
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(len(self.run()) / n - expected) < 4 * sigma


class TestDeterminism:
    def test_repeat_runs_identical(self):
        cfg = with_shots(
            scenarios.background_g2_config(seed=42),
            3 * BLOCK_SHOTS + 5,
            dark_rate=1e5,
            dead_time=200e-9,
        )
        a = run_lifetime(cfg)
        b = run_lifetime(cfg)
        assert a.shot_indices.tobytes() == b.shot_indices.tobytes()
        assert a.times_ns.tobytes() == b.times_ns.tobytes()
        assert a.metadata == b.metadata

    def test_block_sampled_alone_matches_run(self):
        # dark counts, multi-click shots and dead time; the last block is partial
        n = 3 * BLOCK_SHOTS + 5
        for base in (
            scenarios.background_g2_config(seed=9),
            scenarios.g2_config(Poissonian(2.0), seed=9),
        ):
            cfg = with_shots(base, n, dark_rate=1e5, dead_time=200e-9)
            full = run_lifetime(cfg)
            laser = cfg.single_frequency()
            for first in range(0, n, BLOCK_SHOTS):
                size = min(BLOCK_SHOTS, n - first)
                # static emitters: the run's diffusion offsets are all zero
                offsets = [np.zeros(size) for _ in cfg.resolved_emitters()]
                rng = block_stream(cfg.master_seed, first)
                shots, times = engine._sample_block(cfg, laser, offsets, size, rng)
                rows = (full.shot_indices >= first) & (full.shot_indices < first + size)
                assert len(shots) > 0
                assert np.array_equal(shots, full.shot_indices[rows] - first)
                assert np.array_equal(times, full.times_ns[rows])

    def test_scan_session_never_reuses_a_block_key(self, monkeypatch):
        firsts = []

        def recording(master_seed, first_shot):
            firsts.append(first_shot)
            return block_stream(master_seed, first_shot)

        monkeypatch.setattr(engine, "block_stream", recording)
        n = BLOCK_SHOTS + 7
        cfg = scenarios.linewidth_session_config(repeats=3, n_shots=n, points=4)
        run_scan_session(cfg)
        # 3 scans x 4 points, two blocks per point, shots counted globally
        assert firsts == [c * n + o for c in range(12) for o in (0, BLOCK_SHOTS)]

    def test_lifetime_is_first_point_of_session(self, monkeypatch):
        n = BLOCK_SHOTS + 7
        cfg = dataclasses.replace(
            scenarios.linewidth_session_config(repeats=3, n_shots=n, points=4),
            laser_frequency=scenarios.NU0,
        )
        assert not cfg.resolved_emitters()[0].diffusion.is_static
        session = run_scan_session(cfg)[0].points[0].stream
        firsts = []

        def recording(master_seed, first_shot):
            firsts.append(first_shot)
            return block_stream(master_seed, first_shot)

        steps = []

        def trajectory(state, n_steps, *args):
            steps.append(n_steps)
            return generate_trajectory(state, n_steps, *args)

        monkeypatch.setattr(engine, "block_stream", recording)
        monkeypatch.setattr(engine, "generate_trajectory", trajectory)
        stream = run_lifetime(cfg)
        assert firsts == [0, BLOCK_SHOTS]
        # one trajectory over the n shots per emitter, and no dwell step first
        assert steps == [n] * len(cfg.resolved_emitters())
        assert stream.shot_indices.tobytes() == session.shot_indices.tobytes()
        assert stream.times_ns.tobytes() == session.times_ns.tobytes()
        assert stream.metadata == session.metadata

    def test_metadata_carries_digest(self):
        cfg = scenarios.lifetime_config(seed=3, n_shots=10)
        stream = run_lifetime(cfg)
        assert stream.metadata["config_digest"] == config_digest(cfg)
        assert stream.metadata["stream_layout"] == STREAM_LAYOUT


class TestDeadTime:
    def test_dead_time_enforced_in_stream(self):
        dead = 500e-9
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.0),
            cavity=scenarios.cavity(),
            detector=DetectorModel(dark_rate=300_000.0, dead_time=dead),
            sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=20_000),
            laser_frequency=scenarios.NU0,
            master_seed=8,
        )
        stream = run_lifetime(cfg)
        validate_click_stream(stream, dead)
        same = np.diff(stream.shot_indices) == 0
        gaps = np.diff(stream.times_ns)[same]
        assert len(gaps) > 100
        assert gaps.min() >= 500

    def test_matches_sequential_greedy_filter(self):
        # dead time draws no randomness, so the run without it gives the
        # clicks before the filter
        dead_ns = 500
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.5),
            cavity=scenarios.cavity(),
            detector=DetectorModel(dark_rate=300_000.0),
            sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=2 * BLOCK_SHOTS + 3),
            laser_frequency=scenarios.NU0,
            master_seed=8,
        )
        raw = run_lifetime(cfg)
        filtered = run_lifetime(with_shots(cfg, cfg.sequence.n_shots, dead_time=dead_ns * 1e-9))
        expected = []
        for shot, t in zip(raw.shot_indices.tolist(), raw.times_ns.tolist()):
            if expected and expected[-1][0] == shot and t - expected[-1][1] < dead_ns:
                continue
            expected.append((shot, t))
        got = list(zip(filtered.shot_indices.tolist(), filtered.times_ns.tolist()))
        assert len(expected) < len(raw)
        assert got == expected

    def test_validator_flags_dead_time_violation(self):
        seq = PulseSequence(**scenarios.PULSE_TIMING, n_shots=10)
        stream = ClickStream([1, 1], [2000, 2100], seq)
        validate_click_stream(stream)  # fine without dead time
        with pytest.raises(StreamInvariantError):
            validate_click_stream(stream, dead_time=200e-9)


class TestValidator:
    def setup_method(self):
        self.seq = PulseSequence(**scenarios.PULSE_TIMING, n_shots=100)

    def test_accepts_empty(self):
        validate_click_stream(ClickStream([], [], self.seq))

    def test_rejects_click_during_pulse(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream([0], [999], self.seq))

    def test_rejects_click_after_window(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream([0], [21_000], self.seq))

    def test_rejects_unsorted_shots(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream([5, 4], [2000, 2000], self.seq))

    def test_rejects_unsorted_times(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream([5, 5], [3000, 2000], self.seq))

    def test_rejects_shot_out_of_range(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream([100], [2000], self.seq))


class TestValidatorWindows:
    """The validator's 2**20-pair windows overlap by one record."""

    N = 2**20 + 3

    def columns(self):
        stream = scenarios.paired_stream(self.N)
        return stream.shot_indices.copy(), stream.times_ns.copy(), stream.sequence

    def test_valid_stream_accepted(self):
        validate_click_stream(scenarios.paired_stream(self.N), dead_time=500e-9)

    def test_shot_break_across_the_window_boundary_rejected(self):
        shots, times, seq = self.columns()
        shots[2**20 - 1] += 1   # shot k + 1 before shot k
        with pytest.raises(StreamInvariantError, match="not sorted by shot"):
            validate_click_stream(ClickStream(shots, times, seq))

    def test_time_break_across_the_window_boundary_rejected(self):
        shots, times, seq = self.columns()
        assert shots[2**20 - 1] == shots[2**20]
        times[[2**20 - 1, 2**20]] = times[[2**20, 2**20 - 1]]
        with pytest.raises(StreamInvariantError, match="not sorted by time"):
            validate_click_stream(ClickStream(shots, times, seq))

    def test_dead_time_across_the_window_boundary_rejected(self):
        shots, times, seq = self.columns()
        times[2**20] = times[2**20 - 1] + 100   # every other pair is 500 ns apart
        validate_click_stream(ClickStream(shots, times, seq), dead_time=100e-9)
        with pytest.raises(StreamInvariantError, match="dead time"):
            validate_click_stream(ClickStream(shots, times, seq), dead_time=200e-9)

    def test_shot_break_reported_before_an_earlier_time_break(self):
        shots, times, seq = self.columns()
        times[[1, 2]] = times[[2, 1]]   # in the first window
        shots[2**20 - 1] += 1           # a window later, through the overlap
        with pytest.raises(StreamInvariantError, match="not sorted by shot"):
            validate_click_stream(ClickStream(shots, times, seq))

    def test_tag_past_the_window_in_the_final_record_rejected(self):
        shots, times, seq = self.columns()
        times[-1] = 21_000
        with pytest.raises(StreamInvariantError, match="after the collection window"):
            validate_click_stream(ClickStream(shots, times, seq))


class TestPleScan:
    def test_static_lorentzian_linewidth_recovered(self):
        gamma_h = 50e6
        grid = tuple(scenarios.NU0 + np.linspace(-125e6, 125e6, 41))
        cfg = ExperimentConfig(
            emitter=scenarios.emitter(p_max=0.8, gamma_h=gamma_h),
            cavity=scenarios.cavity(),
            detector=DetectorModel(),
            sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=800),
            laser_frequency=grid,
            master_seed=17,
        )
        (scan,) = run_scan_session(cfg)
        fit = fit_lorentzian(spectrum_from_scan(scan))
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(gamma_h, rel=0.05)

    def test_counts_match_stream_lengths(self):
        cfg = scenarios.linewidth_session_config(repeats=1, n_shots=200, points=7)
        (scan,) = run_scan_session(cfg)
        for point in scan.points:
            assert point.counts == len(point.stream)
            validate_click_stream(point.stream)

    def test_calibrated_fast_jitter_gives_gaussian_line(self):
        cfg = scenarios.linewidth_session_config(
            repeats=1, n_shots=6000, sigma_slow_rate=0.0
        )
        (scan,) = run_scan_session(cfg)
        fit = fit_gaussian(spectrum_from_scan(scan))
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(173.6e6, rel=0.05)

    def test_slow_walk_broadens_time_average(self):
        cfg = scenarios.linewidth_session_config(
            seed=31,
            repeats=6,
            n_shots=2500,
            points=31,
            span=700e6,
        )
        scans = run_scan_session(cfg)
        fits = [fit_gaussian(spectrum_from_scan(s)) for s in scans]
        singles = np.array([f.value("fwhm") for f in fits])
        average = np.mean([spectrum_from_scan(s).counts for s in scans], axis=0)
        from ersim.records import Spectrum

        avg_fit = fit_gaussian(Spectrum(scans[0].frequencies, average))
        assert avg_fit.value("fwhm") > singles.mean()

    def test_diffusion_state_persists_across_scans(self):
        cfg = scenarios.linewidth_session_config(repeats=3, n_shots=50, points=5)
        scans = run_scan_session(cfg)
        walls = [s.diffusion_states[0].wall_time for s in scans]
        assert walls[0] > 0
        assert walls[1] > walls[0]
        assert walls[2] > walls[1]
        # dwell gaps included: total session time spans hours
        assert walls[-1] > 2 * 3600.0

    def test_scan_requires_grid(self):
        cfg = scenarios.lifetime_config(n_shots=10)
        (scan,) = run_scan_session(cfg)  # single frequency = one-point grid
        assert len(scan.points) == 1


class TestRunG2:
    def test_single_emitter_antibunched(self):
        cfg = scenarios.g2_config(SingleEmitter(), seed=201, n_shots=200_000)
        hist = pulsed_g2(run_lifetime(cfg), 30)
        assert hist.g2_at(0) < 0.05

    def test_two_emitters_half(self):
        cfg = scenarios.g2_config(NEmitters(2), seed=202, n_shots=200_000)
        hist = pulsed_g2(run_lifetime(cfg), 30)
        assert hist.g2_at(0) == pytest.approx(0.5, abs=0.05)

    def test_poissonian_flat(self):
        cfg = scenarios.g2_config(Poissonian(0.8), seed=203, n_shots=200_000)
        hist = pulsed_g2(run_lifetime(cfg), 30)
        assert np.all(np.abs(hist.g2 - 1.0) < 0.02)

    def test_poissonian_ignores_emitter_physics(self):
        cfg = scenarios.g2_config(Poissonian(0.5), seed=204, n_shots=50_000)
        stream = run_lifetime(cfg)
        assert len(stream) / cfg.sequence.n_shots == pytest.approx(0.5, rel=0.03)
        validate_click_stream(stream)


    def test_poissonian_with_darks_and_dead_time_validates(self):
        cfg = with_shots(
            scenarios.g2_config(Poissonian(2.0), seed=205),
            2 * BLOCK_SHOTS + 1,
            efficiency=0.6,
            dark_rate=5e4,
            dead_time=300e-9,
        )
        stream = run_lifetime(cfg)
        validate_click_stream(stream, cfg.detector.dead_time)
        assert np.any(np.diff(stream.shot_indices) == 0)


@settings(max_examples=25)
@given(
    n_shots=st.integers(1, 50),
    seed=st.integers(0, 2**32),
    dark_rate=st.sampled_from([0.0, 1e4, 1e5]),
)
def test_any_small_run_satisfies_stream_invariants(n_shots, seed, dark_rate):
    cfg = ExperimentConfig(
        emitter=scenarios.emitter(p_max=0.9),
        cavity=scenarios.cavity(),
        detector=DetectorModel(dark_rate=dark_rate, dead_time=100e-9),
        sequence=PulseSequence(**scenarios.PULSE_TIMING, n_shots=n_shots),
        laser_frequency=scenarios.NU0,
        master_seed=seed,
    )
    stream = run_lifetime(cfg)
    validate_click_stream(stream, cfg.detector.dead_time)
