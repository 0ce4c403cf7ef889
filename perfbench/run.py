"""ersim benchmark: one workload, repeated for a fixed time, one JSON result line.

    python3 perfbench/run.py --workload {g2-stream,ple-session,analysis-replay} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ersim is imported from its ``src/``.  Each
workload run is a fresh process (op.py) so that its peak memory is its own.
Runs repeat until ``--seconds`` have passed (at least MIN_RUNS of them), in a
closed loop: the next run starts when the previous one has ended.  Every run
gets the same inputs, made from ``--seed``.

--trace 0 reports the end-to-end metrics as medians over the runs:
wall_nominal_s, shots_per_nominal_s, peak_rss_mib and setup_s.  The CPU speed
of a shared host drifts by up to a factor of two within minutes, so each run
also times a fixed reference kernel (reference.py) and the gated times are
scaled to its nominal speed: time * reference.NOMINAL_S / reference_s.  The
raw wall_s, shots_per_s and setup_raw_s are printed beside them.
--trace 1 alternates traced and untraced runs and reports per-layer medians
over the traced ones, plus the tracing overhead (median traced minus median
untraced wall_nominal_s); the spans of every traced run are written to
.perfbench_out/.  The last line of standard output is the result; lines
before it give the machine and code facts, each metric's median, maximum and
sample count, and failed_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
MIN_RUNS = 3
MIN_TRACED_RUNS = 4
RUN_TIMEOUT_S = 150
# printed beside the end-to-end metrics, not gated: raw times follow the host's drift
RAW_UNITS = {"wall_s": "s", "shots_per_s": "1/s", "setup_raw_s": "s", "reference_s": "s"}


def facts() -> dict:
    """Machine and code facts recorded with every result."""
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (REPO / "src").rglob("*.py")
    )
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": os.cpu_count(),
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "workers": 1,
    }


def run_once(workload: str, seed: int, work: Path, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "op.py"), "--repo", str(REPO), "--workload", workload,
           "--seed", str(seed), "--work", str(work)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"run exceeded {RUN_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"op.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    return json.loads(lines[-1])


def main() -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (REPO / "src" / "ersim" / "__init__.py").is_file():
        print(f"no ersim sources under {REPO / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    work = REPO / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runs = []
    try:
        start = time.perf_counter()
        least = MIN_TRACED_RUNS if trace else MIN_RUNS
        last = 0.0
        # stop when the next run would end, on average, past --seconds
        while len(runs) < least or time.perf_counter() - start + last / 2 < args.seconds:
            traced = trace and len(runs) % 2 == 0
            began = time.perf_counter()
            result = run_once(args.workload, args.seed, work, traced)
            last = time.perf_counter() - began
            result["traced"] = traced
            runs.append(result)
            if result["failures"]:
                print(f"run {len(runs)} failed: {result['failures']}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # fails while another invocation still uses it

    ok = [r for r in runs if not r["failures"]]
    failed = len(runs) - len(ok)
    samples = {}
    for r in ok:
        if r["traced"]:
            continue
        scale = reference.NOMINAL_S / r["reference_s"]
        for name, value in (
            ("wall_nominal_s", r["wall_s"] * scale),
            ("shots_per_nominal_s", r["shots"] / (r["wall_s"] * scale)),
            ("peak_rss_mib", r["peak_rss_mib"]),
            ("setup_s", r["setup_s"] * scale),
            ("wall_s", r["wall_s"]),
            ("shots_per_s", r["shots"] / r["wall_s"]),
            ("setup_raw_s", r["setup_s"]),
            ("reference_s", r["reference_s"]),
        ):
            samples.setdefault(name, []).append(value)

    print(json.dumps({"facts": facts(), "workload": args.workload, "seed": args.seed}))
    for name, values in samples.items():
        print(f"{args.workload} {name}: median {statistics.median(values)!r} "
              f"max {max(values)!r} {units.get(name, RAW_UNITS.get(name))} over n={len(values)}")
    print(f"{args.workload} failed_frac: {failed / len(runs)!r} ({failed}/{len(runs)} runs)")

    if trace:
        traced = [r for r in ok if r["traced"]]
        layers = {}
        if traced and samples:
            for name in traced[0]["layers"]:
                layers[name] = statistics.median(r["layers"][name] for r in traced)
            layers["trace.overhead_s"] = statistics.median(
                r["wall_s"] * reference.NOMINAL_S / r["reference_s"] for r in traced
            ) - statistics.median(samples["wall_nominal_s"])
        out = REPO / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans_file = out / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps([r.get("spans", []) for r in runs if r["traced"]]))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
            for m in bench["end_to_end"]
            if m["name"] in samples
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
