#!/usr/bin/env python3
"""Run the full measurement pipeline through the CLI and print the headlines.

Simulates both lifetime measurements, the background-limited autocorrelation
and the repeated-PLE session from the configs/ directory, fits everything,
and assembles the report bundle.  It takes a few seconds.

Usage: python3 scripts/reproduce_results.py [--out DIR]
"""

import argparse
import sys
from pathlib import Path

from ersim.cli import main as ersim

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(argv):
    print(f"$ ersim {' '.join(argv)}")
    code = ersim(argv)
    if code != 0:
        sys.exit(f"command failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/reproduction")
    args = parser.parse_args()
    out = Path(args.out)
    work = out / "analysis"
    work.mkdir(parents=True, exist_ok=True)

    for name in ("lifetime_cavity", "lifetime_reference"):
        run([
            "simulate", "lifetime",
            "--config", str(CONFIGS / f"{name}.ini"),
            "--out", str(out / name),
        ])
        run([
            "fit", "exponential",
            "--in", str(out / name / "decay_histogram.csv"),
            "--out", str(work / f"fit_exponential_{name}.csv"),
        ])

    run([
        "simulate", "g2",
        "--config", str(CONFIGS / "g2_background.ini"),
        "--out", str(out / "g2_background"),
    ])
    run([
        "g2",
        "--in", str(out / "g2_background" / "clicks.ertt"),
        "--max-offset", "30",
        "--rho", "0.861",
        "--out", str(work / "g2_background.csv"),
    ])

    run([
        "simulate", "ple",
        "--config", str(CONFIGS / "ple_session.ini"),
        "--out", str(work),
    ])

    run(["report", "--in", str(work), "--out", str(out / "report")])
    print(f"\nreport bundle written to {out / 'report'}")
    print((out / "report" / "summary.txt").read_text())


if __name__ == "__main__":
    main()
