import hashlib
import math
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenarios
from ersim.cli import EXIT_CONFIG, EXIT_IO, EXIT_NOT_CONVERGED, EXIT_OK, main
from ersim.analysis import pulsed_g2
from ersim.config import parse_config, serialize_config
from ersim.engine import ClickStream, PulseSequence, config_digest
from ersim.reporting import (
    generate_report,
    read_fit_csv,
    write_correlation_csv,
    write_decay_histogram_csv,
    write_fit_csv,
    write_spectrum_csv,
    _read_table,
)
from ersim.records import DecayHistogram, Spectrum
from ersim.fitting import FitParameter, FitResult, gaussian_peak
from ersim.streamfile import write_clickstream


def doc(text):
    return textwrap.dedent(text).strip() + "\n"


LIFETIME_CAVITY = doc("""
    [emitter]
    nu_ion_thz = 195.6
    gamma0_per_s = 892.857142857143
    p_max = 0.8
    [cavity]
    nu_cav_thz = 195.6
    q_factor = 41400
    p_peak = 460
    [sequence]
    t_pulse_us = 1.0
    t_coll_us = 20
    t_rep_us = 60
    n_shots = 40000
    [seed]
    master_seed = 21
""")

LIFETIME_REFERENCE = doc("""
    [emitter]
    nu_ion_thz = 195.6
    gamma0_per_s = 89.2857142857143
    p_max = 0.8
    [cavity]
    nu_cav_thz = 195.6
    q_factor = 41400
    p_peak = 9
    [sequence]
    t_pulse_us = 1.0
    t_coll_us = 6000
    t_rep_us = 8000
    n_shots = 40000
    [seed]
    master_seed = 22
""")

G2_CONFIG = doc("""
    [emitter]
    p_max = 0.4
    [sequence]
    n_shots = 50000
    [seed]
    master_seed = 5
""")


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path):
        cfg = tmp_path / "g2.ini"
        cfg.write_text(G2_CONFIG)
        assert main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        assert sha(tmp_path / "a" / "clicks.ertt") == sha(tmp_path / "b" / "clicks.ertt")
        assert sha(tmp_path / "a" / "run_config.ini") == sha(tmp_path / "b" / "run_config.ini")

    def test_config_digest_hashes_run_config(self, tmp_path):
        cfg = tmp_path / "g2.ini"
        cfg.write_text(G2_CONFIG)
        out = tmp_path / "a"
        assert main(["simulate", "g2", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        config = parse_config(G2_CONFIG)
        assert config_digest(config) == sha(out / "run_config.ini")[:16]
        assert config_digest(parse_config(serialize_config(config))) == config_digest(config)

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = tmp_path / "g2.ini"
        cfg.write_text(G2_CONFIG)
        main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "c"), "--seed", "99"])
        assert sha(tmp_path / "a" / "clicks.ertt") != sha(tmp_path / "c" / "clicks.ertt")
        assert "master_seed = 99" in (tmp_path / "c" / "run_config.ini").read_text()

    def test_ple_requires_grid(self, tmp_path):
        cfg = tmp_path / "single.ini"
        cfg.write_text(G2_CONFIG)
        assert main(["simulate", "ple", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o" / "run_config.ini").exists()

    @pytest.mark.parametrize("experiment", ["lifetime", "g2"])
    def test_single_frequency_experiment_rejects_grid(self, tmp_path, experiment):
        cfg = str(CONFIGS / "ple_session.ini")
        assert main(["simulate", experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o" / "run_config.ini").exists()

    def test_ple_writes_scan_files(self, tmp_path):
        cfg = tmp_path / "ple.ini"
        cfg.write_text(doc("""
            [emitter]
            p_max = 0.8
            gamma_h_mhz = 50
            [sequence]
            n_shots = 300
            [scan]
            center_thz = 195.6
            span_mhz = 250
            points = 21
            repeats = 2
        """))
        out = tmp_path / "scan"
        assert main(["simulate", "ple", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert (out / "scan_000.csv").exists() and (out / "scan_001.csv").exists()

    def test_scan_files_sort_in_numeric_order(self, tmp_path):
        cfg = tmp_path / "ple.ini"
        cfg.write_text("[sequence]\nn_shots = 1\n[scan]\ngrid_hz = 1e14, 2e14\nrepeats = 1001\n")
        out = tmp_path / "scan"
        assert main(["simulate", "ple", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        names = [p.name for p in sorted(out.glob("scan_*.csv"))]  # the order report reads them in
        assert names == [f"scan_{i:04d}.csv" for i in range(1001)]

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["simulate", "g2", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_invalid_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sequence]\nt_pulse_us = 70\nt_rep_us = 60\n")
        code = main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("experiment", ["g2", "ple"])
    @pytest.mark.parametrize(
        "timing",
        [
            "t_pulse_s = 1.6e-9\nt_coll_s = 1.6e-9\nt_rep_s = 3.2e-9\n",
            "t_coll_s = 0.4e-9\n",
            "t_rep_s = 60.0004e-6\n",
            "t_coll_s = 6e5\nt_rep_s = 7e5\n",
            "t_rep_s = 281474.976710656\n",
        ],
        ids=[
            "window_past_period_in_ns",
            "empty_window_in_ns",
            "fractional_ns_period",
            "window_of_a_week",
            "period_of_2_48_ns",
        ],
    )
    def test_window_that_breaks_in_nanoseconds_is_config_error(
        self, tmp_path, capsys, experiment, timing
    ):
        # each fits in seconds, but the stream header holds whole nanoseconds below 2**48
        scan = "[scan]\ncenter_thz = 195.6\nspan_mhz = 250\npoints = 3\n"
        cfg = tmp_path / "ns.ini"
        cfg.write_text("[sequence]\nn_shots = 100\n" + timing + (scan if experiment == "ple" else ""))
        code = main(["simulate", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "configuration error: [sequence]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "timing",
        [
            "t_pulse_us = 1\nt_coll_us = 2\nt_rep_us = 3\n",
            "t_pulse_s = 1e-6\nt_coll_s = 20e-6\nt_rep_s = 21e-6\n",
        ],
        ids=["microseconds", "seconds"],
    )
    def test_window_that_fills_the_period_round_trips(self, tmp_path, timing):
        # whole nanoseconds that fill the period, though the sum differs in float seconds
        cfg = tmp_path / "full.ini"
        cfg.write_text("[sequence]\nn_shots = 500\n" + timing + "[detector]\ndark_rate_per_s = 1e5\n")
        out = tmp_path / "o"
        assert main(["simulate", "g2", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        g2 = ["g2", "--in", str(out / "clicks.ertt"), "--max-offset", "2", "--out", str(out / "g2.csv")]
        assert main(g2) == EXIT_OK

    @pytest.mark.parametrize(
        "text",
        [
            "[source]\nkind = poissonian\nrate_per_shot = 9e90\n",
            "[detector]\ndark_rate_per_s = 9e90\n",
        ],
        ids=["rate_per_shot", "dark_rate_per_s"],
    )
    def test_poisson_mean_beyond_the_sampler_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "huge.ini"
        cfg.write_text("[sequence]\nn_shots = 100\n" + text)
        code = main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "click budget" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rate_beyond_the_click_budget_exits_before_sampling(self, tmp_path, capsys):
        # 2e8 dark clicks per shot: a block would ask for tens of GiB
        cfg = tmp_path / "bright.ini"
        cfg.write_text("[detector]\ndark_rate_per_s = 1e13\n")
        out = tmp_path / "o"
        args = ["simulate", "g2", "--config", str(cfg), "--out", str(out)]
        code, peak = scenarios.traced_peak(main, args)
        assert code == EXIT_CONFIG
        assert "click budget" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2**20

    def test_poissonian_source_with_an_emitter_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "mixed.ini"
        cfg.write_text("[emitter]\np_max = 0.3\n[source]\nkind = poissonian\nrate_per_shot = 0.5\n")
        code = main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "[emitter] a poissonian source has no emitters" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "experiment, text, message",
        [
            ("ple", "[scan]\ngrid_hz = -1e6, 0, 1e6\n", "laser frequencies must be > 0"),
            ("g2", "[cavity]\nnu_cav_hz = 1e-300\nq_factor = 1e300\n", "nu_cav / q_factor must be > 0"),
            ("g2", "[sequence]\nn_shots = 4611686018427387905\n", "n_shots must lie in [1, 2**62]"),
        ],
        ids=["nonpositive_laser_grid", "cavity_linewidth_underflow", "shots_beyond_2_62"],
    )
    def test_bound_of_a_model_type_is_config_error(self, tmp_path, capsys, experiment, text, message):
        # each bound is checked when its type is made, so the run never starts
        cfg = tmp_path / "bound.ini"
        cfg.write_text(text)
        code = main(["simulate", experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[sequence]\nn_shots = 1000\nt_rep_s = inf\n",
            "[sequence]\nn_shots = 1000\n[detector]\ndark_rate_per_s = inf\n",
        ],
        ids=["t_rep_s", "dark_rate_per_s"],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, text):
        cfg = tmp_path / "inf.ini"
        cfg.write_text(text)
        code = main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG == 2


class TestFit:
    def test_gaussian_fit_roundtrip(self, tmp_path):
        x = 195.6e12 + np.linspace(-400e6, 400e6, 81)
        y = gaussian_peak(x, (195.6e12, 173.6e6, 200.0, 1.0))
        write_spectrum_csv(Spectrum(x, y, label="line"), tmp_path / "spec.csv")
        out = tmp_path / "fit.csv"
        assert main(["fit", "gaussian", "--in", str(tmp_path / "spec.csv"), "--out", str(out)]) == EXIT_OK
        fit = read_fit_csv(out)
        assert fit.converged
        assert fit.value("fwhm") == pytest.approx(173.6e6, rel=1e-3)

    def test_flat_histogram_exits_nonconverged(self, tmp_path):
        edges = np.linspace(0.0, 20e-6, 33)
        hist = DecayHistogram(edges, np.full(32, 4.0), total_shots=10)
        write_decay_histogram_csv(hist, tmp_path / "h.csv")
        code = main(["fit", "exponential", "--in", str(tmp_path / "h.csv"), "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_NOT_CONVERGED
        assert read_fit_csv(tmp_path / "f.csv").status == "degenerate"

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["fit", "gaussian", "--in", str(tmp_path / "no.csv"), "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_IO

    def test_header_only_histogram_is_config_error(self, tmp_path, capsys):
        (tmp_path / "h.csv").write_text("bin_left_s,bin_right_s,counts\n")
        code = main(["fit", "exponential", "--in", str(tmp_path / "h.csv"), "--out", str(tmp_path / "f.csv")])
        assert code == EXIT_CONFIG
        assert "h.csv" in capsys.readouterr().err

    def test_non_numeric_cell_is_config_error(self, tmp_path, capsys):
        x = 195.6e12 + np.linspace(-400e6, 400e6, 81)
        y = gaussian_peak(x, (195.6e12, 173.6e6, 200.0, 1.0))
        write_spectrum_csv(Spectrum(x, y), tmp_path / "spec.csv")
        lines = (tmp_path / "spec.csv").read_text().splitlines()
        for cell in ("abc", "inf", "-inf", "nan"):
            lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + cell
            (tmp_path / "spec.csv").write_text("\n".join(lines) + "\n")
            code = main(["fit", "gaussian", "--in", str(tmp_path / "spec.csv"), "--out", str(tmp_path / "f.csv")])
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "spec.csv" in err and "counts" in err


FIT_STATUSES = {"ok", "max_iterations", "stalled", "singular", "degenerate"}


def fit_cli(workdir, model, x, counts):
    """Run ``ersim fit`` on counts over grid x with warnings raised as errors.

    A peak model reads x as a spectrum's frequencies, ``exponential`` as the
    left bin edges of a decay histogram.  Returns (exit code, fit CSV path).
    """
    x = [float(v) for v in x]
    if model == "exponential":
        step = x[1] - x[0]
        rows = [f"{left!r},{left + step!r},{c}" for left, c in zip(x, counts)]
        header = "bin_left_s,bin_right_s,counts"
    else:
        rows = [f"{v!r},{c}" for v, c in zip(x, counts)]
        header = "frequency_hz,counts"
    data, out = Path(workdir) / "in.csv", Path(workdir) / "fit.csv"
    data.write_text("\n".join([header, *rows]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", model, "--in", str(data), "--out", str(out)])
    return code, out


def check_fit_output(code, out):
    assert out.is_file()
    fit = read_fit_csv(out)
    assert fit.status in FIT_STATUSES
    assert code == (EXIT_OK if fit.status == "ok" else EXIT_NOT_CONVERGED)
    if fit.status != "ok":
        assert all(math.isnan(p.sigma) for p in fit.parameters)
    return fit


class TestFitDomain:
    """Every ``ersim fit`` input ends in exit 0, 2 or 4 with finite values."""

    @pytest.mark.parametrize(
        "model, x, counts",
        [
            ("gaussian", np.linspace(1, 2, 7), [2, 4, 3, 1, 6, 2, 2]),
            ("lorentzian", np.linspace(1, 2, 7), [2, 4, 3, 1, 6, 2, 2]),
            ("gaussian", np.arange(5) * 0.001, [0, 1, 0, 1, 0]),
            ("lorentzian", np.arange(5) * 1e-9, [0, 0, 202186, 0, 202025]),
            (
                "gaussian",
                (566 + np.arange(17)) * 4.7082136816722245e-08,
                [429489, 660561, 259697, 722605, 515214, 673829, 583465, 819238, 44880,
                 808279, 894306, 850376, 152138, 417503, 755953, 115778, 550891],
            ),
            (
                "lorentzian",
                (56 + np.arange(15)) * 29778802.965527292,
                [754866, 359352, 438211, 321603, 15170, 938518, 576652, 285261, 302423,
                 10627, 193166, 923831, 495986, 277391, 504874],
            ),
        ],
        ids=["gaussian-width-underflow", "lorentzian-width-underflow",
             "gaussian-width-overflow", "lorentzian-fourth-power-overflow",
             "gaussian-center-overflow", "lorentzian-singular-covariance"],
    )
    def test_fit_stays_in_float_range(self, tmp_path, model, x, counts):
        code, out = fit_cli(tmp_path, model, x, counts)
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        fit = check_fit_output(code, out)
        assert all(math.isfinite(p.value) for p in fit.parameters)
        assert fit.value("fwhm") > 0

    @pytest.mark.parametrize("model", ["gaussian", "lorentzian", "exponential"])
    @pytest.mark.parametrize("peak", [9e75, 1e160])
    def test_huge_counts_converge_or_are_config_errors(self, tmp_path, capsys, model, peak):
        # no fit can start on a count beyond exp(175), the bound on a non-log parameter
        if model == "exponential":
            x = np.arange(21) * 1e-6
            counts = peak * np.exp(-x / 5e-6) + 1.0
        else:
            x = 1.956e14 + np.linspace(-1e9, 1e9, 21)
            counts = peak * np.exp(-(((x - 1.956e14) / 3e8) ** 2)) + 1.0
        code, out = fit_cli(tmp_path, model, x, counts)
        if peak < math.exp(175):
            assert code == EXIT_OK
            check_fit_output(code, out)
        else:
            assert code == EXIT_CONFIG and not out.exists()
            assert "counts must be below exp(175)" in capsys.readouterr().err

    @settings(max_examples=150)
    @given(
        model=st.sampled_from(["lorentzian", "gaussian", "exponential"]),
        n=st.integers(5, 40),
        log_step=st.floats(-9.0, 12.0),
        start=st.integers(0, 1000),
        shape=st.sampled_from(["random", "flat", "spike", "dip"]),
        data=st.data(),
    )
    def test_any_small_table_ends_in_a_documented_exit(
        self, model, n, log_step, start, shape, data
    ):
        count = st.integers(0, 10**6)
        if shape == "random":
            counts = data.draw(st.lists(count, min_size=n, max_size=n))
        else:
            base = data.draw(count)
            counts = [base] * n
            if shape != "flat":
                extreme = st.integers(base, 10**6) if shape == "spike" else st.integers(0, base)
                counts[data.draw(st.integers(0, n - 1))] = data.draw(extreme)
        step = 10.0**log_step
        with tempfile.TemporaryDirectory() as workdir:
            code, out = fit_cli(workdir, model, (start + np.arange(n)) * step, counts)
            if model == "exponential" and np.count_nonzero(counts) < 4:
                assert code == EXIT_CONFIG
                return
            assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
            fit = check_fit_output(code, out)
        if fit.status == "ok":
            assert all(math.isfinite(p.value) for p in fit.parameters)
            assert fit.value("t1" if model == "exponential" else "fwhm") > 0


class TestG2Command:
    def make_stream(self, tmp_path):
        cfg = tmp_path / "g2.ini"
        cfg.write_text(G2_CONFIG)
        out = tmp_path / "run"
        main(["simulate", "g2", "--config", str(cfg), "--out", str(out)])
        return out / "clicks.ertt"

    def test_rho_one_corrected_equals_raw(self, tmp_path):
        stream = self.make_stream(tmp_path)
        out = tmp_path / "corr.csv"
        assert main(["g2", "--in", str(stream), "--max-offset", "10", "--rho", "1.0", "--out", str(out)]) == EXIT_OK
        _, header, rows = _read_table(out)
        g2_col = header.index("g2")
        corrected_col = header.index("g2_corrected")
        for row in rows:
            assert row[corrected_col] == row[g2_col]

    def test_correlation_table_contents(self, tmp_path):
        stream = self.make_stream(tmp_path)
        out = tmp_path / "corr.csv"
        main(["g2", "--in", str(stream), "--max-offset", "5", "--rho", "0.9", "--out", str(out)])
        _, header, rows = _read_table(out)
        offsets = [int(r[header.index("offset_shots")]) for r in rows]
        assert offsets == list(range(-5, 6))
        zero = rows[5]
        assert float(zero[header.index("g2")]) < 0.05

    @pytest.mark.parametrize("rho", ["-1", "5"])
    def test_rho_outside_unit_interval_is_config_error(self, tmp_path, capsys, rho):
        # two clicks in 200 shots: no side coincidences, so no corrected g2 is computed
        sparse = tmp_path / "sparse.ertt"
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 200)
        write_clickstream(ClickStream(np.column_stack(([3, 150], [2000, 9000])), seq), sparse)
        out = tmp_path / "c.csv"
        code = main(["g2", "--in", str(sparse), "--max-offset", "5", "--rho", rho, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "rho" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_stream_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.ertt"
        bad.write_bytes(b"XXXX" + bytes(40))
        code = main(["g2", "--in", str(bad), "--max-offset", "5", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_IO

    def test_click_after_collection_window_is_io_error(self, tmp_path):
        late = tmp_path / "late.ertt"
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 4)
        write_clickstream(ClickStream(np.column_stack(([0, 3], [2000, 9000])), seq), late)
        data = bytearray(late.read_bytes())
        data[62:70] = (30_000).to_bytes(8, "little")  # time field of record 1
        late.write_bytes(bytes(data))
        code = main(["g2", "--in", str(late), "--max-offset", "2", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "t_rep_ns, exit_code", [(2**48 - 1, EXIT_OK), (2**48, EXIT_IO)], ids=["below", "at"]
    )
    def test_period_at_the_header_bound(self, tmp_path, t_rep_ns, exit_code):
        path = tmp_path / "long.ertt"
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 4)
        write_clickstream(ClickStream(np.column_stack(([0, 3], [2000, 9000])), seq), path)
        data = bytearray(path.read_bytes())
        data[6:14] = t_rep_ns.to_bytes(8, "little")  # t_rep field of the header
        path.write_bytes(bytes(data))
        code = main(["g2", "--in", str(path), "--max-offset", "2", "--out", str(tmp_path / "c.csv")])
        assert code == exit_code

    def test_far_shot_count_gives_exact_zeros(self, tmp_path, capsys):
        # a valid stream with its second click at shot 2**61: pulsed_g2 visits
        # only the occupied shots, so the shot count costs nothing
        far = tmp_path / "far.ertt"
        n_shots = 2**61 + 1
        seq = PulseSequence(1e-6, 20e-6, 60e-6, n_shots)
        write_clickstream(ClickStream(np.column_stack(([0, 2**61], [2000, 9000])), seq), far)
        out = tmp_path / "c.csv"
        code = main(["g2", "--in", str(far), "--max-offset", "5", "--out", str(out)])
        assert code == EXIT_OK
        assert "too few clicks" in capsys.readouterr().err
        _, header, rows = _read_table(out)
        column = {name: [int(r[header.index(name)]) for r in rows]
                  for name in ("offset_shots", "coincidences", "shot_pairs")}
        assert column["offset_shots"] == list(range(-5, 6))
        assert column["coincidences"] == [0] * 11
        assert column["shot_pairs"] == [n_shots - abs(d) for d in range(-5, 6)]

    @settings(max_examples=300, deadline=None)
    @given(
        mutations=st.lists(
            st.one_of(
                st.builds(  # rewrite a header field: magic, version, t_rep, t_pulse, t_coll, count
                    lambda field, v: (
                        "put", field[0], (v % 256 ** field[1]).to_bytes(field[1], "little")
                    ),
                    st.sampled_from([(0, 4), (4, 2), (6, 8), (14, 8), (22, 8), (30, 8)]),
                    st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1)),
                ),
                st.builds(  # flip bits in one byte of a record's time
                    lambda record, byte, mask: ("xor", 46 + 16 * record + byte, mask),
                    st.integers(0, 4), st.integers(0, 7), st.integers(1, 255),
                ),
                st.builds(  # rewrite a record's shot index
                    lambda record, shot: ("put", 38 + 16 * record, shot.to_bytes(8, "little")),
                    st.integers(0, 4),
                    st.one_of(
                        st.integers(0, 2**20 - 1),
                        st.integers(2**20, 2**62 - 1),
                        st.integers(2**62, 2**64 - 1),  # beyond the reader's range
                    ),
                ),
                st.tuples(st.just("truncate"), st.integers(0, 38 + 16 * 5 - 1), st.none()),
                st.tuples(st.just("append"), st.none(), st.binary(min_size=1, max_size=40)),
            ),
            min_size=1,
            max_size=3,
        ),
        max_offset=st.integers(1, 8),
    )
    @example(mutations=[("put", 38 + 16 * 4, (2**60).to_bytes(8, "little"))], max_offset=5)
    def test_mutated_stream_ends_in_a_documented_exit(self, mutations, max_offset):
        seq = PulseSequence(1e-6, 20e-6, 60e-6, 10)
        stream = ClickStream(
            np.column_stack(([0, 2, 2, 5, 9], [1500, 3000, 3600, 20_000, 7000])), seq
        )
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "m.ertt"
            write_clickstream(stream, path)
            data = bytearray(path.read_bytes())
            for kind, at, value in mutations:
                if kind == "put" and at + len(value) <= len(data):
                    data[at : at + len(value)] = value
                elif kind == "xor" and at < len(data):
                    data[at] ^= value
                elif kind == "truncate":
                    del data[at:]
                elif kind == "append":
                    data += value
            path.write_bytes(bytes(data))
            out = Path(workdir) / "c.csv"
            code = main(["g2", "--in", str(path), "--max-offset", str(max_offset), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO)


class TestReport:
    def test_full_pipeline_reproduces_purcell_factor(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        for name, text in (("cavity", LIFETIME_CAVITY), ("reference", LIFETIME_REFERENCE)):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(text)
            out = tmp_path / name
            assert main(["simulate", "lifetime", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            assert main([
                "fit", "exponential",
                "--in", str(out / "decay_histogram.csv"),
                "--out", str(work / f"fit_exponential_{name}.csv"),
            ]) == EXIT_OK
        report_dir = tmp_path / "report"
        assert main(["report", "--in", str(work), "--out", str(report_dir)]) == EXIT_OK
        summary = dict(
            line.split(" = ")
            for line in (report_dir / "summary.txt").read_text().splitlines()
        )
        p = float(summary["purcell_factor"])
        assert p == pytest.approx(460.0, rel=0.10)
        assert "radiative_linewidth_khz" in summary
        assert float(summary["radiative_linewidth_khz"]) == pytest.approx(65.5, rel=0.10)

    def test_report_deterministic(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        x = 195.6e12 + np.linspace(-400e6, 400e6, 81)
        for i, off in enumerate((0.0, 60e6)):
            y = gaussian_peak(x, (195.6e12 + off, 173.6e6, 200.0, 1.0))
            write_spectrum_csv(Spectrum(x, y, label=f"scan {i}"), work / f"scan_{i:03d}.csv")
        a = tmp_path / "ra"
        b = tmp_path / "rb"
        assert main(["report", "--in", str(work), "--out", str(a)]) == EXIT_OK
        assert main(["report", "--in", str(work), "--out", str(b)]) == EXIT_OK
        assert sha(a / "summary.txt") == sha(b / "summary.txt")
        assert sha(a / "diffusion_map.csv") == sha(b / "diffusion_map.csv")
        summary = (a / "summary.txt").read_text()
        assert "time_averaged_fwhm_mhz" in summary

    def test_missing_directory_is_io_error(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "none"), "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_non_numeric_fit_cell_is_config_error(self, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        (work / "fit_exponential_a.csv").write_text(
            "t1_s,t1_s_sigma,rss,iterations,converged,status\nabc,1e-07,1.0,5,true,converged\n"
        )
        assert main(["report", "--in", str(work), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "fit_exponential_a.csv" in capsys.readouterr().err

    def test_g2_table_without_g2_columns_is_config_error(self, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        (work / "g2.csv").write_text("offset_shots,delay_s\n0,0.0\n")
        assert main(["report", "--in", str(work), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "g2.csv" in capsys.readouterr().err


# Emitter 2 GHz above a cavity of FWHM kappa = 195.6 THz / 48900 = 4 GHz, so
# every output depends on the Purcell roll-off, P = p_peak / 2.
DETUNED_G2 = doc("""
    [emitter]
    nu_ion_hz = 195602000000000
    gamma0_per_s = 892.857142857143
    p_max = 0.4
    [cavity]
    nu_cav_thz = 195.6
    q_factor = 48900
    p_peak = 460
    [detector]
    dark_rate_per_s = 20000
    dead_time_ns = 200
    [sequence]
    n_shots = 49157
    [seed]
    master_seed = 7
""")

DIFFUSING_PLE = doc("""
    [emitter]
    gamma_h_mhz = 100
    p_max = 1.0
    sigma_fast_mhz = 70
    tau_fast_s = 0.001
    sigma_slow_rate_mhz2_per_s = 0.3
    [cavity]
    nu_cav_thz = 195.6
    q_factor = 41400
    p_peak = 460
    [sequence]
    n_shots = 200
    [scan]
    center_thz = 195.6
    span_mhz = 400
    points = 5
    repeats = 2
    dwell_s = 10
    [seed]
    master_seed = 11
""")


class TestLayoutDigests:
    """Stream layout 2 pinned byte for byte.

    A failing digest means the bytes of simulated outputs changed for the same
    config and seed: a stream-layout change, which must be announced with a
    new ``STREAM_LAYOUT`` (README, Determinism) and never slip in with a
    refactor.  The digests were taken with NumPy 2.4; a NumPy release that
    changes the draws of its Generator methods also changes them.
    """

    def test_detuned_g2_stream(self, tmp_path):
        cfg = tmp_path / "g2.ini"
        cfg.write_text(DETUNED_G2)  # 3 * 2**14 + 5 shots: three full blocks, one partial
        assert main(["simulate", "g2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert sha(tmp_path / "o" / "clicks.ertt") == (
            "8ad68148c295293b7c4cba6306c6a5098d1d94a5fd264bf872df2f6e7ddb9485"
        )

    def test_diffusing_ple_scans(self, tmp_path):
        cfg = tmp_path / "ple.ini"
        cfg.write_text(DIFFUSING_PLE)
        assert main(["simulate", "ple", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert {name: sha(tmp_path / "o" / name) for name in ("scan_000.csv", "scan_001.csv")} == {
            "scan_000.csv": "f506200b6adf12a0cdfae889fcc79b7080e3ca772384ce98daad30fa0931b1e6",
            "scan_001.csv": "346b961b83e01f4a6f6b07aa838a7ac90d0fba5fb5fe1db1536bfd5923afb131",
        }


class TestTableDigests:
    """Every kind of CSV table pinned byte for byte.

    The inputs are built by hand and no cell holds a fitted value: a fit goes
    through BLAS products whose last bit may differ between CPUs.  A failing
    digest means the rendering of a table changed for the same values.
    """

    SEQ = PulseSequence(1e-6, 20e-6, 60e-6, 10)
    NAN = float("nan")

    def test_labelled_spectrum(self, tmp_path):
        x = 195.6e12 + np.linspace(-200e6, 200e6, 5)
        write_spectrum_csv(
            Spectrum(x, [3, 7, 12.5, 6, 2], acquisition_time=0.25, label="scan 0"), tmp_path / "s.csv"
        )
        assert sha(tmp_path / "s.csv") == (
            "7d46f3ab443048817dcfeab7b91fb7f26e5d3a998133cd1fa5393b31b4c13068"
        )

    def test_decay_histogram(self, tmp_path):
        edges = np.linspace(0.0, 20e-6, 6)
        write_decay_histogram_csv(DecayHistogram(edges, [40, 22, 11, 6, 3], 1000), tmp_path / "d.csv")
        assert sha(tmp_path / "d.csv") == (
            "8b3c8ba34a78934d8bc312f266acc2da9c300ac190163979101df8e9c9beb089"
        )

    def test_correlation(self, tmp_path):
        stream = ClickStream(
            np.column_stack(([0, 0, 2, 3, 7], [2000, 3000, 2500, 4000, 1500])), self.SEQ
        )
        write_correlation_csv(pulsed_g2(stream, 3), tmp_path / "c.csv", rho=0.8)
        assert sha(tmp_path / "c.csv") == (
            "ea2d73a051925c4336905b50fda653d8ceb8d17d8e08ebd8fa504f016fd38be7"
        )

    def test_empty_correlation(self, tmp_path):
        stream = ClickStream(np.column_stack(([4], [2000])), self.SEQ)
        write_correlation_csv(pulsed_g2(stream, 2), tmp_path / "c.csv")
        assert sha(tmp_path / "c.csv") == (
            "b716d64d09deb77ee41c210254108dee5f7a8042aa799f5538ec0f88b6c66a93"
        )

    def test_lorentzian_fit_with_q_factor(self, tmp_path):
        names = ("center", "fwhm", "amplitude", "baseline", "q_factor")
        values = (195.59e12, 4.724e9, -0.8, 1.0, 41404.7)
        sigmas = (1.5e6, 2.1e7, 0.003, 0.001, 183.9)
        fit = FitResult(tuple(map(FitParameter, names, values, sigmas)), 0.0123, 9, True, "ok")
        write_fit_csv(fit, tmp_path / "f.csv", kind="lorentzian")
        assert sha(tmp_path / "f.csv") == (
            "19eb0754005b208c53a14bfdc8a1ca8be4b8d72e481c0c4d954720a3296d12fa"
        )

    def test_unconverged_fit(self, tmp_path):
        names = ("amplitude", "t1", "baseline")
        params = tuple(FitParameter(n, v, self.NAN) for n, v in zip(names, (120.0, 2.2e-6, 4.0)))
        write_fit_csv(FitResult(params, 55.5, 200, False, "max_iterations"), tmp_path / "f.csv")
        assert sha(tmp_path / "f.csv") == (
            "31092e66d9ce66ba0875db06a3ebe58ab79671a1f2ec9128dfaf699198df78e8"
        )

    def test_report_diffusion_map(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        x = 195.6e12 + np.linspace(-300e6, 300e6, 7)
        for i, counts in enumerate(([1, 2, 6, 14, 5, 2, 1], [1, 1, 3, 9, 15, 4, 2], [2, 5, 13, 7, 3, 1, 1])):
            write_spectrum_csv(Spectrum(x, counts, label=f"scan {i}"), work / f"scan_{i:03d}.csv")
        generate_report(work, tmp_path / "report")
        assert sha(tmp_path / "report" / "diffusion_map.csv") == (
            "ca3835c0177d0d6bb9a16e7867116e4ec5d6d45e84c0b413525adc140db85610"
        )
