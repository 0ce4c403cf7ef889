"""Span tracing of ersim's public functions, installed in one benchmark process.

Each traced call records a span (layer name, start, end, parent span) in memory.
A layer's self time is the time its spans cover minus the time covered by
their direct child spans.  Counters (shots, clicks, fit iterations, bytes) are
read from the arguments and results at the same boundaries.  Nothing under
``src/`` is changed: the wrappers replace the module attributes through which
ersim's own modules call each other, so ``from .engine import run_lifetime``
bindings are traced too.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0


def _engine_counts(result):
    """(shots, clicks, sampler calls) of a run_lifetime or scan-session result."""
    if hasattr(result, "sequence"):
        return result.sequence.n_shots, len(result), 1
    scans = result if isinstance(result, list) else [result]
    points = [p for scan in scans for p in scan.points]
    return (
        sum(p.stream.sequence.n_shots for p in points),
        sum(int(p.counts) for p in points),
        len(points),
    )


def _count_engine(tracer, args, result, outermost):
    if outermost:
        shots, clicks, calls = _engine_counts(result)
        tracer.counts["engine.shots"] += shots
        tracer.counts["engine.clicks"] += clicks
        tracer.counts["engine.calls"] += calls


def _count_diffusion(tracer, args, result, outermost):
    tracer.counts["diffusion.steps"] += len(result.fast) if hasattr(result, "fast") else 1


def _count_read(tracer, args, result, outermost):
    tracer.counts["streamfile.bytes"] += os.path.getsize(args[0])


def _count_write(tracer, args, result, outermost):
    tracer.counts["streamfile.bytes"] += os.path.getsize(args[1])


def _count_fit(tracer, args, result, outermost):
    tracer.counts["fitting.fits"] += 1
    tracer.counts["fitting.iterations"] += result.iterations
    tracer.counts["fitting.converged"] += bool(result.converged)


# (module, public name, layer span, counter, record tracemalloc peak)
TARGETS = (
    ("ersim.cli", "main", "cli", None, False),
    ("ersim.config", "parse_config_file", "config.parse", None, False),
    ("ersim.config", "parse_config", "config.parse", None, False),
    ("ersim.config", "serialize_config", "config.serialize", None, False),
    ("ersim.engine", "run_lifetime", "engine.run", _count_engine, False),
    ("ersim.engine", "run_scan_session", "engine.run", _count_engine, False),
    ("ersim.engine", "run_ple_scan", "engine.run", _count_engine, False),
    ("ersim.engine", "config_digest", "engine.digest", None, False),
    ("ersim.diffusion", "generate_trajectory", "diffusion", _count_diffusion, False),
    ("ersim.diffusion", "evolve_diffusion", "diffusion", _count_diffusion, False),
    ("ersim.streamfile", "read_clickstream", "streamfile.read", _count_read, True),
    ("ersim.streamfile", "write_clickstream", "streamfile.write", _count_write, False),
    ("ersim.analysis", "pulsed_g2", "analysis.pulsed_g2", None, False),
    ("ersim.analysis", "histogram_arrivals", "analysis.histogram", None, False),
    ("ersim.analysis", "spectral_diffusion_map", "analysis.sd_map", None, False),
    ("ersim.fitting", "fit_gaussian", "fitting", _count_fit, False),
    ("ersim.fitting", "fit_lorentzian", "fitting", _count_fit, False),
    ("ersim.fitting", "fit_exponential", "fitting", _count_fit, False),
    ("ersim.reporting", "write_spectrum_csv", "reporting.csv", None, False),
    ("ersim.reporting", "read_spectrum_csv", "reporting.csv", None, False),
    ("ersim.reporting", "write_decay_histogram_csv", "reporting.csv", None, False),
    ("ersim.reporting", "read_decay_histogram_csv", "reporting.csv", None, False),
    ("ersim.reporting", "write_correlation_csv", "reporting.csv", None, False),
    ("ersim.reporting", "write_fit_csv", "reporting.csv", None, False),
    ("ersim.reporting", "generate_report", "reporting.report", None, False),
)

# per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "engine.sample_s": "engine.run",
    "engine.digest_s": "engine.digest",
    "diffusion.trajectory_s": "diffusion",
    "streamfile.read_s": "streamfile.read",
    "streamfile.write_s": "streamfile.write",
    "analysis.pulsed_g2_s": "analysis.pulsed_g2",
    "analysis.histogram_s": "analysis.histogram",
    "analysis.sd_map_s": "analysis.sd_map",
    "fitting.fit_s": "fitting",
    "config.parse_s": "config.parse",
    "config.serialize_s": "config.serialize",
    "reporting.csv_s": "reporting.csv",
    "reporting.report_s": "reporting.report",
    "cli.self_s": "cli",
}


class Tracer:
    """Span recorder; records only while ``active`` (the timed region)."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self.read_peak_bytes = 0
        self.active = False
        self._stack = []

    def wrap(self, name, fn, counter, record_peak):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append([name, time.perf_counter(), 0.0, parent])
            tracer._stack.append(index)
            if record_peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if record_peak:
                    tracer.read_peak_bytes = max(
                        tracer.read_peak_bytes, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
                tracer.spans[index][2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                outermost = parent is None or tracer.spans[parent][0] != name
                counter(tracer, args, result, outermost)
            return result

        return traced

    def install(self):
        """Replace every ersim module binding of each target with its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ersim"]
        for module_name, attr, name, counter, record_peak in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original, counter, record_peak)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def self_times(self) -> dict:
        totals = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        for _, start, end, parent in self.spans:
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        self_time = self.self_times()
        c = self.counts
        m = {metric: self_time.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
        m["engine.shots"] = c["engine.shots"]
        m["engine.clicks"] = c["engine.clicks"]
        m["engine.calls"] = c["engine.calls"]
        m["engine.shots_per_s"] = (
            c["engine.shots"] / m["engine.sample_s"] if m["engine.sample_s"] > 0 else 0.0
        )
        m["diffusion.steps"] = c["diffusion.steps"]
        m["streamfile.bytes"] = c["streamfile.bytes"]
        m["streamfile.read_peak_mib"] = self.read_peak_bytes / MIB
        m["fitting.fits"] = c["fitting.fits"]
        m["fitting.iterations"] = c["fitting.iterations"]
        m["fitting.converged_frac"] = (
            c["fitting.converged"] / c["fitting.fits"] if c["fitting.fits"] else 0.0
        )
        return m

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
