"""Run the benchmark over several seeds and summarise every metric per workload.

    python3 perfbench/sweep.py [--trace] [--out FILE]

Runs ``perfbench/run.py`` once per seed 1-10 on every workload of
BENCHMARK.json, with its ``run_seconds``, and prints, for every end-to-end
metric of every workload, the median over runs, the quartiles, the quartile
spread as a share of the median next to the metric's bound, and failed_frac;
the lines run.py printed before each result (raw wall_s among them) are kept
in the ``--out`` file.  With ``--trace`` the per-layer metrics of one traced
run per workload (seed 1) are printed too.  ``--out`` writes everything, with
the machine facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=REPO, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}

    for workload in (w["name"] for w in bench["workloads"]):
        results, printed = [], {}
        for seed in SEEDS:
            result, notes = run(workload, seed, bench["run_seconds"], 0)
            results.append(result)
            printed[seed] = notes[1:]
            report.setdefault("facts", json.loads(notes[0])["facts"])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"runs={result['attempted']} failed={result['failed']} {values}", flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"failed_frac": failed / attempted, "attempted": attempted, "metrics": {},
                 "printed": printed}
        print(f"{workload} failed_frac: {failed / attempted} ({failed}/{attempted} runs)")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {
                "unit": spec["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": spec["bound"], "values": values,
            }
            print(f"{workload} {name}: median {median:.6g} {spec['unit']} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.3f} (bound {spec['bound']}) "
                  f"n={len(values)} runs")
        if args.trace:
            traced, notes = run(workload, SEEDS[0], bench["run_seconds"], 1)
            entry["layers"] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, v in traced["metrics"].items():
                print(f"{workload} {name}: {v['value']:.6g} {v['unit']}")
        report["workloads"][workload] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
