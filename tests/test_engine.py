import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import scenarios
from oracles import clicks_per_shot, enhanced_lifetime
from ersim import engine
from ersim.analysis import histogram_arrivals, pulsed_g2, spectrum_from_scan
from ersim.config import config_digest, parse_config_file
from ersim.diffusion import DiffusionState, generate_trajectory
from ersim.engine import (
    _CHUNK,
    BLOCK_SHOTS,
    CLICK_BUDGET,
    ClickStream,
    ExperimentConfig,
    PulseSequence,
    run_lifetime,
    run_scan_session,
    validate_click_stream,
)
from ersim.errors import InvalidParameterError, StreamInvariantError
from ersim.fitting import fit_exponential, fit_gaussian, fit_lorentzian
from ersim.physics import CavityModel, DetectorModel
from ersim.rng import block_stream

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def with_shots(config, n_shots, **detector):
    """``config`` with another shot count and, optionally, other detector fields."""
    return dataclasses.replace(
        config,
        sequence=dataclasses.replace(config.sequence, n_shots=n_shots),
        detector=dataclasses.replace(config.detector, **detector),
    )


def at_line(config):
    """``config`` with its laser on the emitter's line."""
    return dataclasses.replace(config, laser_frequency=(config.emitters[0].nu_ion_0,))


def flat_blocks(segments):
    """``_segments`` output as the (grid point, first shot, shots) of each block in shot order."""
    return [(g, first, size) for points, first, size in segments for g in points]


def greedy_segments(config):
    """Reference grouping: blocks in shot order, each appended to the open segment
    while it holds at most ``BLOCK_SHOTS`` shots and ``CLICK_BUDGET`` expected clicks."""
    n_per, per_shot = config.sequence.n_shots, engine._clicks_per_shot(config)
    segment, shots = [], 0
    for g in range(len(config.laser_frequency)):
        for first in range(0, n_per, BLOCK_SHOTS):
            size = min(BLOCK_SHOTS, n_per - first)
            total = shots + size
            if segment and (total > BLOCK_SHOTS or total * per_shot > CLICK_BUDGET):
                yield segment
                segment, total = [], size
            segment.append((g, first, size))
            shots = total
    yield segment


@st.composite
def binding_budgets(draw):
    """(n_shots, points, Poissonian rate) with the rate up to the largest block's budget,
    so that the click budget, not only ``BLOCK_SHOTS``, bounds a segment."""
    n_shots = draw(st.integers(1, 3 * BLOCK_SHOTS + 5))
    top = CLICK_BUDGET / min(n_shots, BLOCK_SHOTS)
    # exact budget fractions put a segment's expected clicks on the budget itself
    exact = st.integers(1, BLOCK_SHOTS).map(lambda k: CLICK_BUDGET / (k * n_shots))
    rate = draw(st.one_of(st.floats(0, top), exact))
    return n_shots, draw(st.integers(1, 64)), rate


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
        seq = scenarios.lifetime_config().sequence
        assert (seq.t_pulse_ns, seq.t_coll_ns, seq.t_rep_ns) == (1000, 20000, 60000)

    def test_window_must_fit_in_nanoseconds(self):
        with pytest.raises(InvalidParameterError, match="repetition period"):
            PulseSequence(t_pulse=2e-9, t_coll=2e-9, t_rep=3e-9, n_shots=1)
        # 1e-6 + 20e-6 > 21e-6 in floats, but 1000 + 20000 == 21000 ns
        assert PulseSequence(1e-6, 20e-6, 21e-6, 1).t_rep_ns == 21_000

    def test_collection_window_of_at_least_one_nanosecond(self):
        with pytest.raises(InvalidParameterError, match="1 ns"):
            PulseSequence(t_pulse=1e-6, t_coll=0.0, t_rep=60e-6, n_shots=1)
        with pytest.raises(InvalidParameterError, match="1 ns"):
            PulseSequence(t_pulse=-1e-6, t_coll=1e-6, t_rep=60e-6, n_shots=1)

    @pytest.mark.parametrize(
        "times",
        [
            (1e-6, 0.6e-9, 60e-6),
            (1.6e-9, 1.6e-9, 3.2e-9),
            (1e-6, 20e-6, 60.0004e-6),
            (math.nan, 1e-6, 1e-5),
            (1e-6, 20e-6, (2**48 - 1.5) / 1e9),   # near the bound the tolerance stays tight
        ],
    )
    def test_times_must_be_whole_nanoseconds(self, times):
        with pytest.raises(InvalidParameterError, match="whole number of nanoseconds"):
            PulseSequence(*times, n_shots=1)

    def test_times_below_two_to_the_48_nanoseconds(self):
        assert PulseSequence(1e-6, 20e-6, (2**48 - 1) / 1e9, 1).t_rep_ns == 2**48 - 1
        with pytest.raises(InvalidParameterError, match=r"t_rep must be below 2\*\*48 ns"):
            PulseSequence(1e-6, 20e-6, 2**48 / 1e9, 1)


class TestExperimentConfig:
    def test_grid_must_increase(self):
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(scenarios.lifetime_config(), laser_frequency=(2.0e14, 1.0e14))

    def test_emitter_count_must_match_source(self):
        # Poissonian photons come only from a source with no emitters
        cfg = scenarios.g2_config(poisson_rate=0.5)
        with pytest.raises(InvalidParameterError, match="requires no emitters"):
            dataclasses.replace(cfg, emitters=scenarios.lifetime_config().emitters)
        with pytest.raises(InvalidParameterError, match="must be >= 0"):
            dataclasses.replace(cfg, poisson_rate_per_shot=-1.0)

    @pytest.mark.parametrize("n_shots", [1, BLOCK_SHOTS, 10 * BLOCK_SHOTS])
    def test_click_budget_bounds_the_largest_block(self, n_shots):
        # the largest block has min(n_shots, BLOCK_SHOTS) shots
        rate = CLICK_BUDGET / min(n_shots, BLOCK_SHOTS)
        cfg = scenarios.g2_config(poisson_rate=rate, n_shots=n_shots)
        with pytest.raises(InvalidParameterError, match="click budget"):
            dataclasses.replace(cfg, poisson_rate_per_shot=np.nextafter(rate, np.inf))

    def test_click_budget_counts_emitters_and_dark_counts(self):
        cfg = scenarios.g2_config(n_shots=BLOCK_SHOTS)
        per_shot = CLICK_BUDGET // BLOCK_SHOTS   # one click per emitter per shot at most
        dataclasses.replace(cfg, emitters=cfg.emitters * per_shot)
        with pytest.raises(InvalidParameterError, match="click budget"):
            dataclasses.replace(cfg, emitters=cfg.emitters * (per_shot + 1))
        t_coll = cfg.sequence.t_coll
        scenarios.override(cfg, dark_rate=(per_shot - 2) / t_coll)
        with pytest.raises(InvalidParameterError, match="click budget"):
            scenarios.override(cfg, dark_rate=per_shot / t_coll)

    @pytest.mark.parametrize(
        "n_shots, blocks_per_segment",
        [(1000, [16, 16, 9]), (6000, [2] * 20 + [1]), (BLOCK_SHOTS + 7, [1] * 82)],
    )
    def test_segments_group_whole_blocks_in_shot_order(self, n_shots, blocks_per_segment):
        # the 41 points of the shipped session; a segment holds at most BLOCK_SHOTS shots
        cfg = scenarios.linewidth_session_config(n_shots=n_shots)
        segments = list(engine._segments(cfg))
        blocks = [
            (g, first, min(BLOCK_SHOTS, n_shots - first))
            for g in range(len(cfg.laser_frequency))
            for first in range(0, n_shots, BLOCK_SHOTS)
        ]
        assert flat_blocks(segments) == blocks
        assert [len(points) for points, _, _ in segments] == blocks_per_segment

    def test_segments_keep_the_click_budget(self):
        # 2**21 clicks expected per shot: two 1-shot blocks fill the budget
        cfg = dataclasses.replace(
            scenarios.g2_config(poisson_rate=2.0**21, n_shots=1),
            laser_frequency=tuple(195.6e12 + 1e6 * np.arange(41)),
        )
        segments = list(engine._segments(cfg))
        assert [len(points) for points, _, _ in segments] == [2] * 20 + [1]
        assert flat_blocks(segments) == [(g, 0, 1) for g in range(41)]

    @settings(max_examples=300, deadline=None)
    @given(binding_budgets())
    def test_segments_match_the_greedy_grouping(self, case):
        n_shots, points, rate = case
        cfg = dataclasses.replace(
            scenarios.g2_config(poisson_rate=rate, n_shots=n_shots),
            laser_frequency=tuple(195.6e12 + 1e6 * np.arange(points)),
        )
        segments = [flat_blocks([segment]) for segment in engine._segments(cfg)]
        assert segments == list(greedy_segments(cfg))

    def test_fields_are_stored_as_tuples(self):
        cfg = scenarios.lifetime_config()
        cfg = dataclasses.replace(
            cfg, emitters=list(cfg.emitters), laser_frequency=np.array([1e14, 2e14])
        )
        assert cfg.emitters == scenarios.lifetime_config().emitters
        assert cfg.laser_frequency == (1e14, 2e14)
        assert type(cfg.laser_frequency[0]) is float

    @pytest.mark.parametrize("field", ["emitters", "laser_frequency"])
    def test_bare_value_is_rejected(self, field):
        cfg = scenarios.lifetime_config()
        with pytest.raises(TypeError, match="not iterable"):
            dataclasses.replace(cfg, **{field: getattr(cfg, field)[0]})

    @pytest.mark.parametrize("field", ["laser_frequency"])
    def test_empty_tuple_is_rejected(self, field):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            dataclasses.replace(scenarios.lifetime_config(), **{field: ()})

    def test_no_emitters_is_the_poissonian_source(self):
        cfg = dataclasses.replace(scenarios.lifetime_config(n_shots=1000), emitters=())
        assert cfg.poisson_rate_per_shot == 0.0
        assert len(run_lifetime(cfg)) == 0
        photons = dataclasses.replace(cfg, poisson_rate_per_shot=1.0)
        assert len(run_lifetime(photons)) > 0

    def test_single_emitter_replicated_for_n_emitters(self):
        # each copy in the tuple is sampled as an emitter of its own
        one = scenarios.g2_config(seed=5, n_shots=20_000)
        four = scenarios.g2_config(4, seed=5, n_shots=20_000)
        assert four.emitters == one.emitters * 4
        mean = len(run_lifetime(four)) / four.sequence.n_shots
        assert mean == pytest.approx(4 * sum(clicks_per_shot(one, one.single_frequency())), rel=0.03)

    def test_digest_tracks_fields(self):
        a = scenarios.lifetime_config(seed=1, n_shots=10)
        b = scenarios.lifetime_config(seed=2, n_shots=10)
        assert config_digest(a) == config_digest(a)
        assert config_digest(a) != config_digest(b)


class TestSampleShot:
    def test_switched_off_emitter_and_no_darks_gives_no_clicks(self):
        cfg = scenarios.lifetime_config(n_shots=1000, p_max=0.0)
        assert len(run_lifetime(cfg)) == 0

    def test_mean_clicks_matches_bernoulli_oracle(self):
        cfg = scenarios.lifetime_config(seed=101, n_shots=1_000_000, p_max=0.35)
        stream = run_lifetime(cfg)
        mean = len(stream) / cfg.sequence.n_shots
        assert mean == pytest.approx(sum(clicks_per_shot(cfg, cfg.single_frequency())), rel=0.02)
        # with unit efficiency, near-unity branching and t_coll >> T1 the mean
        # click rate is the bare excitation probability
        assert mean == pytest.approx(0.35, rel=0.02)

    def test_dark_only_rate_matches_poisson_oracle(self):
        rate = 5000.0
        cfg = scenarios.lifetime_config(seed=55, n_shots=1_000_000, p_max=0.0, dark_rate=rate)
        stream = run_lifetime(cfg)
        expected = rate * cfg.sequence.t_coll
        assert len(stream) / cfg.sequence.n_shots == pytest.approx(expected, rel=0.02)

    def test_counts_within_three_sigma_of_bernoulli_plus_dark(self):
        cfg = scenarios.lifetime_config(seed=77, n_shots=100_000, p_max=0.6)
        cfg = ExperimentConfig(
            emitters=cfg.emitters,
            cavity=cfg.cavity,
            detector=DetectorModel(efficiency=0.7, dark_rate=2000.0),
            sequence=cfg.sequence,
            laser_frequency=cfg.laser_frequency,
            master_seed=cfg.master_seed,
        )
        stream = run_lifetime(cfg)
        p_signal = sum(clicks_per_shot(cfg, cfg.single_frequency()))
        dark_mean = cfg.detector.dark_rate * cfg.sequence.t_coll
        n = cfg.sequence.n_shots
        sigma = math.sqrt((p_signal * (1 - p_signal) + dark_mean) / n)
        assert abs(len(stream) / n - (p_signal + dark_mean)) < 3 * sigma

    def test_g2_background_clicks_per_shot_match_analytic(self):
        cfg = parse_config_file(CONFIGS / "g2_background.ini")
        cfg = with_shots(cfg, 200_000)
        probs = clicks_per_shot(cfg, cfg.single_frequency())
        dark_mean = cfg.detector.dark_rate * cfg.sequence.t_coll
        n = cfg.sequence.n_shots
        expected = sum(probs) + dark_mean
        sigma = math.sqrt((sum(p * (1 - p) for p in probs) + dark_mean) / n)
        assert abs(len(run_lifetime(cfg)) / n - expected) < 4 * sigma


class TestRunLifetime:
    def test_zero_excitation_gives_empty_stream(self):
        cfg = scenarios.lifetime_config(seed=4, n_shots=5000, p_max=0.0)
        assert len(run_lifetime(cfg)) == 0

    def test_emission_delays_pass_ks_against_exponential(self):
        cfg = dataclasses.replace(
            scenarios.lifetime_config(seed=13, p_max=1.0),
            sequence=PulseSequence(t_pulse=1e-6, t_coll=73e-6, t_rep=80e-6, n_shots=100_000),
        )
        stream = run_lifetime(cfg)
        delays = (stream.times_ns - stream.sequence.t_pulse_ns) * 1e-9
        assert len(delays) > 90_000
        t1 = enhanced_lifetime(cfg.emitters[0].gamma_0, cfg.cavity.p_peak)
        result = scipy.stats.kstest(delays, "expon", args=(0.0, t1))
        assert result.pvalue > 0.01
        assert abs(np.mean(delays) - t1) / t1 < 0.02

    def test_window_too_long_for_block_sort_rejected(self):
        with pytest.raises(InvalidParameterError, match=r"2\*\*48"):
            PulseSequence(t_pulse=1e-6, t_coll=6e5, t_rep=7e5, n_shots=1)

    def test_longest_window_sorts_without_overflow(self):
        # a full block whose shot times reach 2**48 ns: its sort key stays in int64
        seq = PulseSequence(1e-6, (2**48 - 2001) * 1e-9, (2**48 - 1) * 1e-9, BLOCK_SHOTS)
        assert seq.t_rep_ns == 2**48 - 1
        cfg = dataclasses.replace(scenarios.lifetime_config(seed=7, dark_rate=2e-5), sequence=seq)
        stream = run_lifetime(cfg)
        assert stream.shot_indices[-1] > BLOCK_SHOTS - 10
        assert stream.times_ns.max() > 2**47

    def test_streams_validate(self):
        for enhanced in (True, False):
            cfg = scenarios.lifetime_config(seed=6, n_shots=20_000, enhanced=enhanced)
            stream = run_lifetime(cfg)
            validate_click_stream(stream, cfg.detector.dead_time)

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda n: at_line(scenarios.linewidth_session_config(scan_repeats=1, n_shots=n)),
            lambda n: scenarios.background_g2_config(n_shots=n),
        ],
        ids=["diffusing", "two-emitter"],
    )
    def test_peak_memory_is_the_stream_plus_one_block(self, make_config):
        # tracemalloc peak on 2e5 shots: the stream's blocks and their
        # concatenation, plus one block's offsets and draws, whatever n_shots
        stream, peak = scenarios.traced_peak(run_lifetime, make_config(200_000))
        assert peak <= 2 * 16 * len(stream) + 128 * BLOCK_SHOTS


class TestCavityDetuning:
    """Emitter half a cavity linewidth from the mode with p_peak = 2, so P = 1.

    The cavity FWHM is 195.6 THz / 48900 = 4 GHz and the emitter sits 2 GHz
    above it: P = 2 / (1 + (2 * 2 GHz / 4 GHz)^2) = 1 exactly.  The expected
    values are written out by hand or taken from the oracles, not computed by
    ersim.physics, which the engine samples through.  With gamma_0 = 1e5/s
    the decay rate is gamma_0 (1 + P) = 2e5/s (t1 = 5 us) and half the
    emission is routed into the cavity channel.
    """

    def config(self):
        cfg = scenarios.lifetime_config(seed=31, n_shots=200_000, p_max=0.5)
        return dataclasses.replace(
            cfg,
            emitters=(dataclasses.replace(cfg.emitters[0], nu_ion_0=195.602e12, gamma_0=1e5),),
            cavity=CavityModel(nu_cav=195.6e12, q_factor=48900.0, p_peak=2.0),
            laser_frequency=(195.602e12,),
        )

    def run(self):
        return run_lifetime(self.config())

    def test_fitted_lifetime_is_half_the_bare_lifetime(self):
        fit = fit_exponential(histogram_arrivals(self.run(), 0.25e-6))
        assert fit.converged
        assert fit.sigma("t1") < 0.02 * 5e-6
        assert abs(fit.value("t1") - 5e-6) < 4 * fit.sigma("t1")

    def test_clicks_per_shot_match_half_branching(self):
        cfg = self.config()
        n = cfg.sequence.n_shots
        # p_max * P/(P+1) * (1 - exp(-t_coll / t1)) = 0.5 * 0.5 * (1 - exp(-4))
        expected = sum(clicks_per_shot(cfg, cfg.single_frequency()))
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

    def test_block_sampled_alone_matches_run(self):
        # dark counts, multi-click shots and dead time; the last block is partial
        n = 3 * BLOCK_SHOTS + 5
        for base in (
            scenarios.background_g2_config(seed=9),
            scenarios.g2_config(poisson_rate=2.0, seed=9),
        ):
            cfg = with_shots(base, n, dark_rate=1e5, dead_time=200e-9)
            full = run_lifetime(cfg)
            laser = cfg.single_frequency()
            for first in range(0, n, BLOCK_SHOTS):
                size = min(BLOCK_SHOTS, n - first)
                # static emitters: the run's diffusion offsets are all zero
                offsets = [np.zeros(size) for _ in cfg.emitters]
                rng = block_stream(cfg.master_seed, first)
                (records,) = engine._sample_segment(cfg, [laser], first, size, offsets, [rng])
                shots, times = records.T
                rows = (full.shot_indices >= first) & (full.shot_indices < first + size)
                assert len(shots) > 0
                assert np.array_equal(shots, full.shot_indices[rows])
                assert np.array_equal(times, full.times_ns[rows])

    def test_points_of_a_segment_match_their_blocks_sampled_alone(self):
        # 5 points x 6000 shots: segments of two, two and one point cross the
        # grid; static emitters, dark counts, multi-click shots and dead time
        n, points = 6000, 5
        base = scenarios.background_g2_config(seed=23)
        base = with_shots(base, n, dark_rate=1e5, dead_time=200e-9)
        grid = tuple(base.emitters[0].nu_ion_0 + np.linspace(-10e6, 10e6, points))
        cfg = dataclasses.replace(base, laser_frequency=grid, scan_repeats=2)
        assert [list(points) for points, _, _ in engine._segments(cfg)] == [[0, 1], [2, 3], [4]]
        for repeat, scan in enumerate(run_scan_session(cfg)):
            for g, point in enumerate(scan.points):
                offsets = [np.zeros(n) for _ in cfg.emitters]
                rng = block_stream(cfg.master_seed, (repeat * points + g) * n)
                (alone,) = engine._sample_segment(cfg, [grid[g]], 0, n, offsets, [rng])
                assert len(alone) > n
                assert np.array_equal(point.stream.records, alone)

    def test_scan_session_never_reuses_a_block_key(self, monkeypatch):
        firsts = []

        def recording(master_seed, first_shot, rng=None):
            firsts.append(first_shot)
            return block_stream(master_seed, first_shot, rng)

        monkeypatch.setattr(engine, "block_stream", recording)
        n = BLOCK_SHOTS + 7
        cfg = scenarios.linewidth_session_config(scan_repeats=3, n_shots=n, points=4)
        run_scan_session(cfg)
        # 3 scans x 4 points, two blocks per point, shots counted globally
        assert firsts == [c * n + o for c in range(12) for o in (0, BLOCK_SHOTS)]

    def test_interleaved_runs_match_runs_alone(self, monkeypatch):
        # each run re-keys generators of its own: interleaved, two runs give the
        # records each gives alone, and no generator serves both
        a = scenarios.linewidth_session_config(scan_repeats=3, n_shots=2000, points=9)
        b = scenarios.linewidth_session_config(scan_repeats=3, n_shots=BLOCK_SHOTS + 7, points=3, seed=5)
        widest = [max(len(points) for points, _, _ in engine._segments(c)) for c in (a, b)]
        assert widest[0] > 1 == widest[1]

        def records(scans):
            return [p.stream.records.tobytes() for scan in scans for p in scan.points]

        alone = [records(engine._scans(cfg)) for cfg in (a, b)]
        generators = {a.master_seed: set(), b.master_seed: set()}

        def recording(master_seed, first_shot, rng=None):
            rng = block_stream(master_seed, first_shot, rng)
            generators[master_seed].add(rng)
            return rng

        monkeypatch.setattr(engine, "block_stream", recording)
        together = list(zip(engine._scans(a), engine._scans(b)))
        assert len(together) == 3
        assert [records(run) for run in zip(*together)] == alone
        assert not generators[a.master_seed] & generators[b.master_seed]

    def test_lifetime_is_first_point_of_session(self, monkeypatch):
        n = BLOCK_SHOTS + 7
        cfg = at_line(scenarios.linewidth_session_config(scan_repeats=3, n_shots=n))
        assert not cfg.emitters[0].diffusion.is_static
        session = run_scan_session(cfg)[0].points[0].stream
        firsts = []

        def recording(master_seed, first_shot, rng=None):
            firsts.append(first_shot)
            return block_stream(master_seed, first_shot, rng)

        steps = {}  # emitter's diffusion stream -> n_steps of each call
        dts = set()

        def trajectory(state, n_steps, dt, params, rng):
            steps.setdefault(id(rng), []).append(n_steps)
            dts.add(dt)
            return generate_trajectory(state, n_steps, dt, params, rng)

        monkeypatch.setattr(engine, "block_stream", recording)
        monkeypatch.setattr(engine, "generate_trajectory", trajectory)
        stream = run_lifetime(cfg)
        assert firsts == [0, BLOCK_SHOTS]
        # per emitter one trajectory per block, and no dwell step first
        assert list(steps.values()) == [[BLOCK_SHOTS, 7]] * len(cfg.emitters)
        assert dts == {cfg.sequence.t_rep}
        assert stream.shot_indices.tobytes() == session.shot_indices.tobytes()
        assert stream.times_ns.tobytes() == session.times_ns.tobytes()


class TestDeadTime:
    def test_dead_time_enforced_in_stream(self):
        dead = 500e-9
        base = scenarios.lifetime_config(seed=8, p_max=0.0)
        cfg = with_shots(base, 20_000, dark_rate=300_000.0, dead_time=dead)
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
        cfg = scenarios.lifetime_config(
            seed=8, n_shots=2 * BLOCK_SHOTS + 3, p_max=0.5, dark_rate=300_000.0
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
        seq = scenarios.lifetime_config(n_shots=10).sequence
        stream = ClickStream(np.column_stack(([1, 1], [2000, 2100])), seq)
        validate_click_stream(stream)  # fine without dead time
        with pytest.raises(StreamInvariantError):
            validate_click_stream(stream, dead_time=200e-9)


class TestValidator:
    def setup_method(self):
        self.seq = scenarios.lifetime_config(n_shots=100).sequence

    def test_accepts_empty(self):
        validate_click_stream(ClickStream(np.column_stack(([], [])), self.seq))

    def test_rejects_click_during_pulse(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream(np.column_stack(([0], [999])), self.seq))

    def test_rejects_click_after_window(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream(np.column_stack(([0], [21_000])), self.seq))

    def test_rejects_unsorted_shots(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream(np.column_stack(([5, 4], [2000, 2000])), self.seq))

    def test_rejects_unsorted_times(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream(np.column_stack(([5, 5], [3000, 2000])), self.seq))

    def test_rejects_shot_out_of_range(self):
        with pytest.raises(StreamInvariantError):
            validate_click_stream(ClickStream(np.column_stack(([100], [2000])), self.seq))

    def test_messages_keep_their_order(self):
        # a shot out of range outranks the late click and the unsorted shots
        with pytest.raises(StreamInvariantError, match="outside"):
            ClickStream(np.column_stack(([5, 100, 4], [2000, 30_000, 2000])), self.seq)
        with pytest.raises(StreamInvariantError, match="after the collection window"):
            ClickStream(np.column_stack(([5, 4, 9], [2000, 30_000, 2000])), self.seq)
        with pytest.raises(StreamInvariantError, match="outside"):
            ClickStream(np.column_stack(([-1, 4], [2000, 2000])), self.seq)


class TestFrozenStream:
    def setup_method(self):
        self.seq = scenarios.lifetime_config(n_shots=100).sequence
        self.records = np.array([[1, 2000], [1, 3000], [7, 2500]])
        self.stream = ClickStream(self.records, self.seq)

    @pytest.mark.parametrize("column", ["records", "shot_indices", "times_ns"])
    def test_column_cannot_be_written(self, column):
        with pytest.raises(ValueError, match="read-only"):
            getattr(self.stream, column)[0] = 0

    @pytest.mark.parametrize("field", ["records", "shot_indices", "times_ns", "sequence"])
    def test_field_cannot_be_reassigned(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.stream, field, getattr(self.stream, field))

    def test_fields_are_records_and_sequence(self):
        assert [f.name for f in dataclasses.fields(ClickStream)] == ["records", "sequence"]

    def test_columns_are_views_of_the_records(self):
        assert self.stream.records.shape == (3, 2) and self.stream.records.dtype == np.int64
        assert self.stream.records.flags.c_contiguous
        assert np.shares_memory(self.stream.shot_indices, self.stream.records)
        assert np.shares_memory(self.stream.times_ns, self.stream.records)

    def test_adopted_array_is_frozen_in_place(self):
        assert self.stream.records is self.records
        with pytest.raises(ValueError, match="read-only"):
            self.records[0, 0] = 9
        assert self.stream.shot_indices.tolist() == [1, 1, 7]

    @pytest.mark.parametrize(
        "make",
        [
            lambda rows: rows.tolist(),                     # a list
            lambda rows: rows.T.copy().T,                   # a Fortran-ordered array
            lambda rows: rows.astype(np.int32),             # another dtype
            lambda rows: np.vstack([rows, rows])[:3],       # a view of another array
        ],
    )
    def test_stream_from_a_copy_does_not_follow_its_source(self, make):
        source = make(self.records.copy())
        stream = ClickStream(source, self.seq)
        if isinstance(source, list):
            source[0][0] = 9
        else:
            assert source.flags.writeable
            source[0, 0] = 9
        assert stream.shot_indices.tolist() == [1, 1, 7]

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (0,)])
    def test_records_must_be_rows_of_two(self, shape):
        with pytest.raises(InvalidParameterError, match=r"\(n, 2\)"):
            ClickStream(np.ones(shape, dtype=np.int64), self.seq)


class TestValidatorWindows:
    """The validator's windows of ``_CHUNK`` pairs overlap by one record."""

    N = _CHUNK + 3

    def columns(self):
        stream = scenarios.paired_stream(self.N)
        return stream.shot_indices.copy(), stream.times_ns.copy(), stream.sequence

    def test_valid_stream_accepted(self):
        validate_click_stream(scenarios.paired_stream(self.N), dead_time=500e-9)

    def test_shot_break_across_the_window_boundary_rejected(self):
        shots, times, seq = self.columns()
        shots[_CHUNK - 1] += 1   # shot k + 1 before shot k
        with pytest.raises(StreamInvariantError, match="not sorted by shot"):
            validate_click_stream(ClickStream(np.column_stack((shots, times)), seq))

    def test_time_break_across_the_window_boundary_rejected(self):
        shots, times, seq = self.columns()
        assert shots[_CHUNK - 1] == shots[_CHUNK]
        times[[_CHUNK - 1, _CHUNK]] = times[[_CHUNK, _CHUNK - 1]]
        with pytest.raises(StreamInvariantError, match="not sorted by time"):
            validate_click_stream(ClickStream(np.column_stack((shots, times)), seq))

    def test_dead_time_across_the_window_boundary_rejected(self):
        shots, times, seq = self.columns()
        times[_CHUNK] = times[_CHUNK - 1] + 100   # every other pair is 500 ns apart
        stream = ClickStream(np.column_stack((shots, times)), seq)
        validate_click_stream(stream, dead_time=100e-9)
        with pytest.raises(StreamInvariantError, match="dead time"):
            validate_click_stream(stream, dead_time=200e-9)

    def test_shot_break_reported_before_an_earlier_time_break(self):
        shots, times, seq = self.columns()
        times[[1, 2]] = times[[2, 1]]   # in the first window
        shots[_CHUNK - 1] += 1          # a window later, through the overlap
        with pytest.raises(StreamInvariantError, match="not sorted by shot"):
            validate_click_stream(ClickStream(np.column_stack((shots, times)), seq))

    def test_late_tag_a_window_after_a_shot_break_reported_first(self):
        shots, times, seq = self.columns()
        shots[[0, 1]] = shots[[1, 0]]   # shot 1 before shot 0, in the first window
        times[-1] = 21_000              # after the collection window, in the last
        with pytest.raises(StreamInvariantError, match="after the collection window"):
            ClickStream(np.column_stack((shots, times)), seq)

    def test_tag_past_the_window_in_the_final_record_rejected(self):
        shots, times, seq = self.columns()
        times[-1] = 21_000
        with pytest.raises(StreamInvariantError, match="after the collection window"):
            validate_click_stream(ClickStream(np.column_stack((shots, times)), seq))


class TestPleScan:
    def test_static_lorentzian_linewidth_recovered(self):
        gamma_h = 50e6
        cfg = scenarios.lifetime_config(seed=17, n_shots=800, p_max=0.8)
        cfg = dataclasses.replace(
            cfg,
            emitters=(dataclasses.replace(cfg.emitters[0], gamma_h=gamma_h),),
            laser_frequency=tuple(cfg.single_frequency() + np.linspace(-125e6, 125e6, 41)),
        )
        (scan,) = run_scan_session(cfg)
        fit = fit_lorentzian(spectrum_from_scan(scan))
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(gamma_h, rel=0.05)

    def test_counts_match_stream_lengths(self):
        cfg = scenarios.linewidth_session_config(scan_repeats=1, n_shots=200, points=7)
        (scan,) = run_scan_session(cfg)
        for point in scan.points:
            assert point.counts == len(point.stream)
            validate_click_stream(point.stream)

    def test_calibrated_fast_jitter_gives_gaussian_line(self):
        base = scenarios.linewidth_session_config(scan_repeats=1)
        cfg = scenarios.override(
            base, diffusion=dataclasses.replace(base.emitters[0].diffusion, sigma_slow_rate=0.0)
        )
        (scan,) = run_scan_session(cfg)
        fit = fit_gaussian(spectrum_from_scan(scan))
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(173.6e6, rel=0.05)

    def test_slow_walk_broadens_time_average(self):
        cfg = scenarios.linewidth_session_config(
            seed=31, scan_repeats=6, n_shots=2500, points=31, span=700e6
        )
        spectra = [spectrum_from_scan(s) for s in run_scan_session(cfg)]
        singles = np.array([fit_gaussian(s).value("fwhm") for s in spectra])
        average = np.mean([s.counts for s in spectra], axis=0)
        from ersim.records import Spectrum

        avg_fit = fit_gaussian(Spectrum(spectra[0].frequencies, average))
        assert avg_fit.value("fwhm") > singles.mean()

    def test_diffusion_state_persists_across_scans(self, monkeypatch):
        cfg = scenarios.linewidth_session_config(scan_repeats=3, n_shots=50, points=5)
        calls = []  # (n_steps, dt, incoming state, final state) of each trajectory, in order

        def trajectory(state, n_steps, dt, params, rng):
            path = generate_trajectory(state, n_steps, dt, params, rng)
            calls.append((n_steps, dt, state, path.final))
            return path

        monkeypatch.setattr(engine, "generate_trajectory", trajectory)
        run_scan_session(cfg)
        # per scan one t_rep trajectory per segment, here all 5 x 50 shots of the
        # scan; one scan_dwell step before each later scan
        t_rep, dwell = cfg.sequence.t_rep, cfg.scan_dwell
        scan = [(250, t_rep)]
        assert [call[:2] for call in calls] == scan + [(1, dwell)] + scan + [(1, dwell)] + scan
        # each trajectory starts from the state the one before it left
        assert calls[0][2] == DiffusionState()
        for before, after in zip(calls, calls[1:]):
            assert after[2] is before[3]

    def test_scan_requires_grid(self):
        cfg = scenarios.lifetime_config(n_shots=10)
        (scan,) = run_scan_session(cfg)  # single frequency = one-point grid
        assert len(scan.points) == 1


class TestRunG2:
    def test_single_emitter_antibunched(self):
        cfg = scenarios.g2_config(seed=201, n_shots=200_000)
        hist = pulsed_g2(run_lifetime(cfg), 30)
        assert hist.g2_zero < 0.05

    def test_two_emitters_half(self):
        cfg = scenarios.g2_config(2, seed=202, n_shots=200_000)
        hist = pulsed_g2(run_lifetime(cfg), 30)
        assert hist.g2_zero == pytest.approx(0.5, abs=0.05)

    def test_poissonian_flat(self):
        cfg = scenarios.g2_config(poisson_rate=0.8, seed=203, n_shots=200_000)
        hist = pulsed_g2(run_lifetime(cfg), 30)
        assert np.all(np.abs(hist.g2 - 1.0) < 0.02)

    def test_poissonian_ignores_emitter_physics(self):
        cfg = scenarios.g2_config(poisson_rate=0.5, seed=204, n_shots=50_000)
        stream = run_lifetime(cfg)
        assert len(stream) / cfg.sequence.n_shots == pytest.approx(0.5, rel=0.03)
        validate_click_stream(stream)


    def test_poissonian_with_darks_and_dead_time_validates(self):
        cfg = with_shots(
            scenarios.g2_config(poisson_rate=2.0, seed=205),
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
    base = scenarios.lifetime_config(seed=seed, p_max=0.9)
    cfg = with_shots(base, n_shots, dark_rate=dark_rate, dead_time=100e-9)
    stream = run_lifetime(cfg)
    validate_click_stream(stream, cfg.detector.dead_time)
