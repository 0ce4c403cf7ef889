import hashlib
import textwrap
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ersim.config import parse_config, parse_config_file, serialize_config
from ersim.engine import ExperimentConfig, PulseSequence, config_digest
from ersim.errors import ConfigError
from ersim.physics import CavityModel, DetectorModel, EmitterModel, SpectralDiffusionParams


def doc(text):
    return textwrap.dedent(text).strip() + "\n"


class TestDefaults:
    def test_empty_document_gives_full_defaults(self):
        cfg = parse_config("")
        assert len(cfg.emitters) == 1
        assert cfg.poisson_rate_per_shot == 0.0
        assert cfg.master_seed == 0
        assert cfg.sequence.n_shots == 10_000
        assert cfg.laser_frequency == (cfg.emitters[0].nu_ion_0,)

    def test_minimal_document(self):
        cfg = parse_config(doc("""
            [seed]
            master_seed = 77
        """))
        assert cfg.master_seed == 77
        assert cfg.detector.efficiency == 1.0

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config(doc("""
            # leading comment
            [sequence]
            ; alt comment
            n_shots = 42
        """))
        assert cfg.sequence.n_shots == 42


class TestSequences:
    def test_standard_timing_accepted(self):
        cfg = parse_config(doc("""
            [sequence]
            t_pulse_us = 1.0
            t_rep_us = 60
            t_coll_us = 20
        """))
        assert cfg.sequence.t_pulse_ns == 1000
        assert cfg.sequence.t_coll_ns == 20_000
        assert cfg.sequence.t_rep_ns == 60_000

    def test_pulse_longer_than_period_rejected(self):
        with pytest.raises(ConfigError, match="repetition"):
            parse_config(doc("""
                [sequence]
                t_pulse_us = 70
                t_rep_us = 60
            """))


class TestDiagnostics:
    def test_unknown_key_reports_line_and_hint(self):
        with pytest.raises(ConfigError) as info:
            parse_config("[sequence]\nt_pulse_ms = 1\n")
        assert "line 2" in str(info.value)
        assert "t_pulse" in str(info.value)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[lazer]\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("[seed]\nmaster_seed = 1\nmaster_seed = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config("[seed]\n[seed]\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("master_seed = 1\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config("[detector]\nefficiency = high\n")

    def test_alias_conflict(self):
        with pytest.raises(ConfigError, match="same quantity"):
            parse_config("[sequence]\nt_pulse_us = 1\nt_pulse_s = 1e-6\n")

    def test_unparseable_line(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[seed]\nwhat is this\n")

    def test_invariant_violation_carries_section(self):
        with pytest.raises(ConfigError, match=r"\[detector\]"):
            parse_config("[detector]\nefficiency = 1.5\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sequence]\nn_shots = 1e3\n",
             "line 2: [sequence] value for 'n_shots' is not an integer: '1e3'"),
            ("# seed\n[seed]\nmaster_seed = 1.5\n",
             "line 3: [seed] value for 'master_seed' is not an integer: '1.5'"),
            ("[source]\nkind = n_emitters\n", "[source] n_emitters requires n >= 1"),
            ("[source]\nkind = single\nn = 1\n",
             "line 3: [source] 'n' is only valid for kind = n_emitters"),
            ("[scan]\ncenter_thz = 195.6\nspan_mhz = -10\npoints = 5\n",
             "line 3: [scan] scan span must be > 0"),
            ("[scan]\ngrid_hz = 1e14, abc\n",
             "line 2: [scan] grid_hz must be a comma-separated list of numbers"),
            ("[emitter.x]\n", "[emitter.x] unknown section 'emitter.x'; did you mean 'emitter'?"),
            ("[source]\nkind = poissonian\nrate_per_shot = -1\n",
             "poisson_rate_per_shot must be >= 0"),
            ("[emitter.2]\n[source]\nkind = poissonian\n",
             "[emitter.2] a poissonian source has no emitters"),
        ],
        ids=["float_n_shots", "float_master_seed", "n_emitters_without_n", "n_with_single",
             "negative_span", "bad_grid_entry", "bad_emitter_suffix", "negative_rate",
             "poissonian_with_emitter"],
    )
    def test_message(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message


class TestScanForms:
    def test_single_frequency(self):
        cfg = parse_config("[scan]\nfrequency_thz = 195.2\n")
        assert cfg.laser_frequency == (195.2e12,)

    def test_window_form(self):
        cfg = parse_config(doc("""
            [scan]
            center_thz = 195.6
            span_mhz = 800
            points = 41
        """))
        grid = cfg.laser_frequency
        assert len(grid) == 41
        assert grid[0] == pytest.approx(195.6e12 - 400e6)
        assert grid[-1] == pytest.approx(195.6e12 + 400e6)

    def test_explicit_grid(self):
        cfg = parse_config("[scan]\ngrid_hz = 1e14, 1.1e14, 1.2e14\n")
        assert cfg.laser_frequency == (1e14, 1.1e14, 1.2e14)

    def test_mixed_forms_rejected(self):
        with pytest.raises(ConfigError, match="only one of"):
            parse_config("[scan]\nfrequency_thz = 195\ngrid_hz = 1, 2\n")

    def test_incomplete_window(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config("[scan]\ncenter_thz = 195.6\npoints = 5\n")

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            parse_config("[scan]\ngrid_hz = 2e14, 1e14\n")

    def test_too_few_points(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config("[scan]\ncenter_thz = 1\nspan_mhz = 10\npoints = 1\n")

    def test_repeats_and_dwell(self):
        cfg = parse_config("[scan]\nrepeats = 4\ndwell_s = 120.0\n")
        assert cfg.scan_repeats == 4
        assert cfg.scan_dwell == 120.0


class TestSources:
    def test_poissonian(self):
        cfg = parse_config("[source]\nkind = poissonian\nrate_per_shot = 0.4\n")
        assert cfg.emitters == ()
        assert cfg.poisson_rate_per_shot == 0.4
        # no [emitter]: the laser defaults to the [emitter] default frequency
        assert cfg.laser_frequency == (195.6e12,)

    def test_n_emitters_replicates_base(self):
        cfg = parse_config("[emitter]\np_max = 0.25\n[source]\nkind = n_emitters\nn = 3\n")
        assert len(cfg.emitters) == 3
        assert all(em.p_max == 0.25 for em in cfg.emitters)

    def test_numbered_emitter_sections(self):
        cfg = parse_config(doc("""
            [emitter]
            p_max = 0.25
            [emitter.2]
            p_max = 0.005
            [source]
            kind = n_emitters
            n = 2
        """))
        ems = cfg.emitters
        assert ems[0].p_max == 0.25
        assert ems[1].p_max == 0.005

    @pytest.mark.parametrize(
        "text, same",
        [
            ("[emitter]\np_max = 0.25\n[source]\nkind = n_emitters\nn = 2\n",
             "[emitter]\np_max = 0.25\n[emitter.2]\np_max = 0.25\n[source]\nkind = n_emitters\nn = 2\n"),
            ("[source]\nkind = n_emitters\nn = 1\n", "[source]\nkind = single\n"),
        ],
        ids=["replicated_or_numbered", "one_of_n_or_single"],
    )
    def test_one_experiment_is_one_config(self, text, same):
        assert parse_config(text) == parse_config(same)
        assert config_digest(parse_config(text)) == config_digest(parse_config(same))

    def test_numbered_sections_require_matching_n(self):
        with pytest.raises(ConfigError, match="expected emitter sections"):
            parse_config(doc("""
                [emitter.2]
                p_max = 0.1
                [source]
                kind = n_emitters
                n = 3
            """))

    def test_numbered_sections_in_numeric_order(self):
        sections = [f"[emitter.{i}]\np_max = {i / 100!r}\n" for i in range(12, 1, -1)]
        cfg = parse_config("".join(sections) + "[source]\nkind = n_emitters\nn = 12\n")
        assert [em.p_max for em in cfg.emitters] == [0.5] + [i / 100 for i in range(2, 13)]

    @pytest.mark.parametrize(
        "names",
        [["emitter.02"], ["emitter.1"], ["emitter.2", "emitter.4"], ["emitter.2", "emitter.02"]],
        ids=["leading_zero", "one", "gap", "duplicate_number"],
    )
    def test_numbered_sections_must_be_2_to_n(self, names):
        text = "".join(f"[{name}]\n" for name in names)
        with pytest.raises(ConfigError, match="expected emitter sections"):
            parse_config(text + f"[source]\nkind = n_emitters\nn = {len(names) + 1}\n")

    def test_numbered_sections_require_n_emitters_kind(self):
        with pytest.raises(ConfigError, match="n_emitters"):
            parse_config("[emitter.2]\np_max = 0.1\n")

    def test_rate_key_requires_poissonian(self):
        with pytest.raises(ConfigError, match="rate_per_shot"):
            parse_config("[source]\nkind = single\nrate_per_shot = 1\n")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown source kind"):
            parse_config("[source]\nkind = laser\n")


CORPUS = [
    "",
    "[seed]\nmaster_seed = 123456789\n",
    doc("""
        [emitter]
        nu_ion_thz = 195.58
        gamma0_per_s = 892.857
        gamma_h_mhz = 12
        p_max = 0.8
        sigma_fast_mhz = 70.5
        tau_fast_s = 0.001
        sigma_slow_rate_mhz2_per_s = 0.33
        [cavity]
        nu_cav_thz = 195.58
        q_factor = 41400
        p_peak = 460
        [detector]
        efficiency = 0.9
        dark_rate_per_s = 2000
        dead_time_ns = 50
        [sequence]
        t_pulse_us = 1.0
        t_coll_us = 20
        t_rep_us = 60
        n_shots = 1000
        [scan]
        center_thz = 195.58
        span_mhz = 820
        points = 41
        repeats = 25
        dwell_s = 509.6
        [seed]
        master_seed = 20260809
        [source]
        kind = single
    """),
    doc("""
        [emitter]
        p_max = 0.25
        [emitter.2]
        p_max = 0.0052
        [source]
        kind = n_emitters
        n = 2
    """),
    "[source]\nkind = poissonian\nrate_per_shot = 0.8\n",
]


class TestIdempotence:
    @pytest.mark.parametrize("text", CORPUS, ids=range(len(CORPUS)))
    def test_parse_serialize_parse_fixed_point(self, text):
        first = parse_config(text)
        rendered = serialize_config(first)
        second = parse_config(rendered)
        assert second == first
        assert serialize_config(second) == rendered

    @given(
        nus=st.lists(st.floats(1e12, 1e15), min_size=0, max_size=12),
        gamma0=st.floats(1e-2, 1e7),
        gamma_h=st.floats(1e3, 1e10),
        p_max=st.floats(0.0, 1.0),
        sigma_fast=st.floats(0.0, 1e9),
        tau=st.floats(0.0, 10.0),
        rate=st.floats(0.0, 1e13),
        photons=st.floats(0.0, 200.0),
        grid=st.lists(st.floats(1e12, 1e15), min_size=1, max_size=5, unique=True).map(sorted),
        eff=st.floats(0.0, 1.0),
        dark=st.floats(0.0, 1e6),
        seed=st.integers(0, 2**64 - 1),
        n_shots=st.integers(1, 10**7),
    )
    def test_serialize_parse_roundtrip_random_configs(
        self, nus, gamma0, gamma_h, p_max, sigma_fast, tau, rate, photons, grid, eff, dark, seed,
        n_shots,
    ):
        # 0 to 12 emitters; with none, the Poissonian source at `photons` per shot
        diffusion = SpectralDiffusionParams(sigma_fast, tau, rate)
        config = ExperimentConfig(
            emitters=[EmitterModel(nu, gamma0, gamma_h, p_max, diffusion) for nu in nus],
            cavity=CavityModel(grid[0], 4.1e4, 460.0),
            detector=DetectorModel(eff, dark, 0.0),
            sequence=PulseSequence(1e-6, 20e-6, 60e-6, n_shots),
            laser_frequency=grid,
            master_seed=seed,
            poisson_rate_per_shot=0.0 if nus else photons,
        )
        assert parse_config(serialize_config(config)) == config

    def test_one_point_grid_is_the_fixed_laser(self):
        fixed = parse_config("[scan]\nfrequency_hz = 1.956e14\n")
        grid = parse_config("[scan]\ngrid_hz = 1.956e14\n")
        assert grid == fixed
        assert config_digest(grid) == config_digest(fixed)
        assert "frequency_hz = 195600000000000.0" in serialize_config(grid)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# SHA-256 of serialize_config(parse_config_file(p)) for each shipped config.
CANONICAL_SHA256 = {
    "g2_background.ini": "ef2b03eaf77c4292f923c02190c20d948899a2f237106786f088fa6bdadd567d",
    "g2_single.ini": "4ca67117f33879b3a88e74128ee9a8ba80b262d7fef93b18bed3481c5cf4b194",
    "lifetime_cavity.ini": "4648f51d7fba42302c857e92aa35eb7d4d3e824474145a5d25ea97c28a6e9b4a",
    "lifetime_reference.ini": "6f1431a73fad233598e13a74d69dbafbdc0ae88062b357bafe41b86fff5af7f5",
    "ple_session.ini": "bdeb400e1e4d32b394652f5fa51e5287b050e14afc2588f319414717a44c8aa0",
}


@pytest.mark.parametrize("name", sorted(CANONICAL_SHA256))
def test_canonical_text_is_pinned(name):
    """The canonical text is the run provenance: run_config.ini holds it and
    config_digest hashes it into every stream's metadata.  A failing digest
    here means every config digest and every run_config.ini changes; such a
    change must be announced (README section Determinism) and the digests
    above updated with it.
    """
    text = serialize_config(parse_config_file(CONFIG_DIR / name))
    assert hashlib.sha256(text.encode()).hexdigest() == CANONICAL_SHA256[name]


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.ini")) == sorted(CANONICAL_SHA256)
