"""The three benchmark workloads: input set-up, the timed steps, and the checks.

Each workload class takes the repository root and the workload seed.  ``setup``
writes the inputs into a fresh directory; ``run`` is the timed region and
returns the number of experiment shots it simulated or analysed; ``check``
returns the list of failed correctness checks (empty when every output is
right); ``reference_kernel`` is the kernel of reference.py that resembles the
timed work.  Checks use the acceptance tolerances, never byte comparisons of
simulated output, so a change of the random-stream layout passes unchanged.

Only surface that outlives the planned deletions is used: CLI subcommands
without ``--workers`` and public names imported by ``ersim/__init__.py`` or
``ersim/cli.py``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import struct
from pathlib import Path

import numpy as np

import ersim
import ersim.cli
import ersim.reporting
import reference

G2_SHOTS = 300_000          # one fixed-frequency stream, ~3 s of sampling
PLE_SHOTS_PER_POINT = 1000  # 25 scans x 41 points kept; 6000 at full size
MAX_OFFSET = 30
RHO = 0.861


def cli(*argv) -> tuple[int, str]:
    """Run ``ersim <argv>`` in this process; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = ersim.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def read_table(path) -> list:
    """Rows of an ersim CSV export as dicts, skipping ``#`` comment lines."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_summary(path) -> dict:
    pairs = (ln.split(" = ", 1) for ln in Path(path).read_text().splitlines() if " = " in ln)
    return {k: v for k, v in pairs}


def within(value, target, rel) -> bool:
    return math.isfinite(value) and abs(value - target) <= rel * target


class Workload:
    def __init__(self, repo: Path, seed: int):
        self.repo = repo
        self.seed = seed
        self.codes = []          # (step, exit code, output) of every CLI call

    def call(self, *argv):
        code, output = cli(*argv)
        self.codes.append((argv[0], code, output))

    def cli_failures(self) -> list:
        return [f"ersim {s} exited {c}: {o.strip()[-200:]}" for s, c, o in self.codes if c != 0]

    def config_from(self, name: str, n_shots: int):
        """A configs/ file with the shot count replaced, as a canonical INI file."""
        config = ersim.parse_config_file(self.repo / "configs" / name)
        return dataclasses.replace(
            config, sequence=dataclasses.replace(config.sequence, n_shots=n_shots)
        )


class G2Stream(Workload):
    """``simulate g2`` on a two-emitter plus dark-count stream, then ``ersim g2``."""

    reference_kernel = staticmethod(reference.python_kernel)  # the per-shot sampler dominates

    def setup(self, work: Path):
        self.config = self.config_from("g2_background.ini", G2_SHOTS)
        self.ini = work / "g2.ini"
        self.ini.write_text(ersim.serialize_config(self.config))
        self.out = work / "run"

    def run(self) -> int:
        self.call("simulate", "g2", "--config", self.ini, "--out", self.out, "--seed", self.seed)
        self.call("g2", "--in", self.out / "clicks.ertt", "--max-offset", MAX_OFFSET,
                  "--rho", RHO, "--out", self.out / "g2.csv")
        return self.config.sequence.n_shots

    def check(self) -> list:
        failures = self.cli_failures()
        if failures:
            return failures
        zero = next(r for r in read_table(self.out / "g2.csv") if r["offset_shots"] == "0")
        raw, corrected = float(zero["g2"]), float(zero["g2_corrected"])
        if not abs(raw - 0.29) <= 0.03:
            failures.append(f"raw g2(0) {raw} outside 0.29 +- 0.03")
        if not abs(corrected - 0.04) <= 0.03:
            failures.append(f"corrected g2(0) {corrected} outside 0.04 +- 0.03")
        try:
            stream = ersim.read_clickstream(self.out / "clicks.ertt")
            ersim.validate_click_stream(stream, dead_time=self.config.detector.dead_time)
        except ersim.ErsimError as exc:
            failures.append(f"stream invalid: {exc}")
        return failures


class PleSession(Workload):
    """``simulate ple`` over 25 scans x 41 points, one ``fit gaussian`` per scan, ``report``."""

    reference_kernel = staticmethod(reference.python_kernel)  # the per-shot sampler dominates

    def setup(self, work: Path):
        self.config = self.config_from("ple_session.ini", PLE_SHOTS_PER_POINT)
        self.ini = work / "ple.ini"
        self.ini.write_text(ersim.serialize_config(self.config))
        self.out = work / "run"

    def run(self) -> int:
        self.call("simulate", "ple", "--config", self.ini, "--out", self.out, "--seed", self.seed)
        for scan in sorted(self.out.glob("scan_*.csv")):
            self.call("fit", "gaussian", "--in", scan,
                      "--out", self.out / scan.name.replace("scan_", "fit_gaussian_"))
        self.call("report", "--in", self.out, "--out", self.out / "report")
        c = self.config
        return c.scan_repeats * len(c.laser_frequency) * c.sequence.n_shots

    def check(self) -> list:
        failures = self.cli_failures()  # a fit that does not converge exits 4
        if failures:
            return failures
        fits = sorted(self.out.glob("fit_gaussian_*.csv"))
        if len(fits) != self.config.scan_repeats:
            return [f"{len(fits)} scan fits for {self.config.scan_repeats} scans"]
        single = float(np.mean([float(read_table(f)[0]["fwhm_hz"]) for f in fits])) / 1e6
        summary = read_summary(self.out / "report" / "summary.txt")
        averaged = float(summary.get("time_averaged_fwhm_mhz", "nan"))
        if not within(single, 173.6, 0.05):
            failures.append(f"mean single-scan FWHM {single} MHz outside 173.6 +- 5%")
        if not within(float(summary.get("single_scan_fwhm_mhz_mean", "nan")), single, 1e-9):
            failures.append("report single-scan mean disagrees with the scan fits")
        # 209.4 MHz +- 15% holds only for the calibration seed's slow-walk path;
        # for any seed the average must be broader than one scan and not above
        # the band (see README.md).
        if not (single < averaged <= 1.15 * 209.4):
            failures.append(f"time-averaged FWHM {averaged} MHz not in ({single}, {1.15 * 209.4}]")
        return failures


# --- analysis-replay -------------------------------------------------------

ERTT_HEADER = struct.Struct("<4sHQQQQ")   # documented ERTT v1 header
T_PULSE_NS, T_COLL_NS, T_REP_NS = 1_000, 20_000, 60_000
REPLAY_SHOTS = 10_000_000                 # ~2e7 clicks: a ~305 MiB file, ~3x the 105 MiB L3
CLICKS_PER_SHOT = 2.0
BACKGROUND_FRACTION = 0.02
T1_CAVITY = 2.4295e-6                     # enhanced lifetime, 1/(gamma0 (1 + 460))
T1_REFERENCE = 1.12e-3
SCAN_FWHM = 173.6e6
CAVITY_Q = 41400.0
NU0 = 195.6e12


def lifetime_bin_ns(t_coll_ns: int) -> int:
    return max(1, round(t_coll_ns / 64))


def write_replay_stream(path: Path, rng, n_shots: int, chunk: int = 1 << 20):
    """Write an ERTT v1 stream of Poisson clicks per shot with exponential delays.

    Per-shot counts are drawn as they fall: the last shots may be empty, in
    which case the reader under-counts the shots (the format has no shot
    count).  Returns the sha256 of the records (see ``records_sha256``) and
    the per-offset coincidence reference for -MAX_OFFSET..MAX_OFFSET.
    """
    counts = rng.poisson(CLICKS_PER_SHOT, n_shots).astype(np.int64)
    total = int(counts.sum())
    # reference coincidences straight from the drawn counts
    reference = np.zeros(2 * MAX_OFFSET + 1, dtype=np.int64)
    reference[MAX_OFFSET] = int(np.sum(counts * (counts - 1)))
    for d in range(1, MAX_OFFSET + 1):
        reference[MAX_OFFSET + d] = reference[MAX_OFFSET - d] = int(np.dot(counts[:-d], counts[d:]))
    tau_ns = T1_CAVITY * 1e9
    truncation = -math.expm1(-T_COLL_NS / tau_ns)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        fh.write(ERTT_HEADER.pack(b"ERTT", 1, T_REP_NS, T_PULSE_NS, T_COLL_NS, total))
        for lo in range(0, n_shots, chunk):
            c = counts[lo : lo + chunk]
            n = int(c.sum())
            shots = np.repeat(np.arange(lo, lo + len(c), dtype=np.int64), c)
            u = rng.random(n)
            background = rng.random(n) < BACKGROUND_FRACTION
            delay = np.where(background, u * T_COLL_NS, -tau_ns * np.log1p(-u * truncation))
            delay = np.minimum(delay.astype(np.int64), T_COLL_NS - 1)
            key = np.sort(shots * T_COLL_NS + delay)          # order by (shot, time)
            records = np.empty((n, 2), dtype="<u8")
            records[:, 0] = key // T_COLL_NS
            records[:, 1] = key % T_COLL_NS + T_PULSE_NS
            data = records.tobytes()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest(), reference


def records_sha256(stream, chunk: int = 1 << 20) -> str:
    """sha256 of a stream's (shot index, time) pairs as little-endian uint64.

    The same bytes as the records write_replay_stream wrote, whatever file
    format version the stream was read from.
    """
    digest = hashlib.sha256()
    for lo in range(0, len(stream), chunk):
        pairs = np.column_stack(
            [stream.shot_indices[lo : lo + chunk], stream.times_ns[lo : lo + chunk]]
        )
        digest.update(pairs.astype("<u8").tobytes())
    return digest.hexdigest()


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def decay_histogram(rng, t1: float, t_coll: float, clicks: int):
    bins = 64
    edges = np.arange(bins + 1) * (t_coll / bins)
    shape = -np.diff(np.exp(-edges / t1))
    mean = clicks * (0.98 * shape / shape.sum() + 0.02 / bins)
    return ersim.DecayHistogram(edges, rng.poisson(mean).astype(float), total_shots=clicks)


class AnalysisReplay(Workload):
    """Analysis of recorded data: no simulation, a large stream plus CSV tables."""

    reference_kernel = staticmethod(reference.numpy_kernel)  # stream I/O and numpy passes dominate

    def setup(self, work: Path):
        rng = np.random.default_rng(self.seed)
        self.data = work / "data"
        self.data.mkdir()
        self.stream_path = self.data / "clicks.ertt"
        self.records_sha256, self.reference = write_replay_stream(
            self.stream_path, rng, REPLAY_SHOTS
        )
        w = ersim.reporting
        w.write_decay_histogram_csv(
            decay_histogram(rng, T1_CAVITY, 20e-6, 200_000), self.data / "decay_cavity.csv"
        )
        w.write_decay_histogram_csv(
            decay_histogram(rng, T1_REFERENCE, 6e-3, 200_000), self.data / "decay_reference.csv"
        )
        grid = NU0 + np.linspace(-410e6, 410e6, 41)
        sigma = SCAN_FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        for i in range(25):
            center = NU0 + rng.normal(0.0, 20e6)
            mean = 5.0 + 2000.0 * np.exp(-0.5 * ((grid - center) / sigma) ** 2)
            w.write_spectrum_csv(
                ersim.Spectrum(grid, rng.poisson(mean).astype(float), 1.0, f"scan {i}"),
                self.data / f"scan_{i:03d}.csv",
            )
        fwhm = NU0 / CAVITY_Q
        cav_grid = NU0 + np.linspace(-3 * fwhm, 3 * fwhm, 121)
        mean = 50.0 + 5000.0 / (1.0 + (2.0 * (cav_grid - NU0) / fwhm) ** 2)
        w.write_spectrum_csv(
            ersim.Spectrum(cav_grid, rng.poisson(mean).astype(float), 1.0, "cavity"),
            self.data / "cavity.csv",
        )

    def run(self) -> int:
        d = self.data
        self.call("g2", "--in", self.stream_path, "--max-offset", MAX_OFFSET, "--out", d / "g2.csv")
        stream = ersim.read_clickstream(self.stream_path)
        ersim.write_clickstream(stream, d / "roundtrip.ertt")
        hist = ersim.histogram_arrivals(stream, lifetime_bin_ns(T_COLL_NS) * 1e-9)
        del stream
        self.stream_fit = ersim.fit_exponential(hist)
        for name in ("cavity", "reference"):
            self.call("fit", "exponential", "--in", d / f"decay_{name}.csv",
                      "--out", d / f"fit_exponential_{name}.csv")
        for scan in sorted(d.glob("scan_*.csv")):
            self.call("fit", "gaussian", "--in", scan,
                      "--out", d / scan.name.replace("scan_", "fit_gaussian_"))
        self.call("fit", "lorentzian", "--in", d / "cavity.csv", "--out", d / "fit_lorentzian.csv")
        self.call("report", "--in", d, "--out", d / "report")
        return REPLAY_SHOTS

    def check(self) -> list:
        failures = self.cli_failures()
        if failures:
            return failures
        d = self.data
        rows = read_table(d / "g2.csv")
        got = np.array([int(r["coincidences"]) for r in rows], dtype=np.int64)
        if not np.array_equal(got, self.reference):
            failures.append("g2 coincidences differ from the reference built from the drawn counts")
        # round trip, independent of the file format version ersim writes: the
        # records read back are the generated ones, and rewriting is byte-exact
        back = ersim.read_clickstream(d / "roundtrip.ertt")
        seq = back.sequence
        if (seq.t_rep_ns, seq.t_pulse_ns, seq.t_coll_ns) != (T_REP_NS, T_PULSE_NS, T_COLL_NS):
            failures.append("read -> write round trip changed the pulse sequence")
        if records_sha256(back) != self.records_sha256:
            failures.append("read -> write round trip changed the records")
        ersim.write_clickstream(back, d / "rewritten.ertt")
        del back
        if file_sha256(d / "rewritten.ertt") != file_sha256(d / "roundtrip.ertt"):
            failures.append("writing the round-trip stream again is not byte-exact")
        fit = self.stream_fit
        if not (fit.converged and within(fit.value("t1"), T1_CAVITY, 0.05)):
            failures.append(f"stream lifetime fit {fit.value('t1')} s vs {T1_CAVITY} s")
        t1 = {n: float(read_table(d / f"fit_exponential_{n}.csv")[0]["t1_s"])
              for n in ("cavity", "reference")}
        for name, truth in (("cavity", T1_CAVITY), ("reference", T1_REFERENCE)):
            if not within(t1[name], truth, 0.05):
                failures.append(f"{name} lifetime fit {t1[name]} s vs {truth} s")
        fwhm = [float(read_table(f)[0]["fwhm_hz"]) for f in sorted(d.glob("fit_gaussian_*.csv"))]
        if len(fwhm) != 25 or not within(float(np.mean(fwhm)), SCAN_FWHM, 0.05):
            failures.append(f"scan FWHM fits {fwhm[:3]}... vs {SCAN_FWHM} Hz")
        q = float(read_table(d / "fit_lorentzian.csv")[0]["q_factor"])
        if not within(q, CAVITY_Q, 0.02):
            failures.append(f"cavity Q {q} vs {CAVITY_Q}")
        purcell = t1["reference"] / t1["cavity"] - 1.0
        reported = float(read_summary(d / "report" / "summary.txt").get("purcell_factor", "nan"))
        if not within(reported, purcell, 1e-9):
            failures.append(f"report Purcell factor {reported} vs {purcell} from the fits")
        return failures


WORKLOADS = {"g2-stream": G2Stream, "ple-session": PleSession, "analysis-replay": AnalysisReplay}
