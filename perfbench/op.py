"""One workload run in a fresh process; prints one JSON line.

    python3 perfbench/op.py --repo DIR --workload NAME --seed N --work DIR [--trace]

Set-up (import of ersim, input generation, temp-dir creation) is timed as
``setup_s``; the workload's steps are timed as ``wall_s``, with the
workload's reference kernel (reference.py) timed just before and just after
them (``reference_s``); then the outputs are checked.  ``peak_rss_mib`` is
this process's peak resident set, so every run gets a process of its own.
With ``--trace`` the public functions of ersim are wrapped (see spans.py) and
per-layer metrics plus the spans are returned.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repo", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    repo = Path(args.repo)

    t0 = time.perf_counter()
    sys.path.insert(0, str(repo / "src"))
    import workloads  # imports ersim, numpy and scipy

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work))
    result = {"failures": []}
    try:
        workload = workloads.WORKLOADS[args.workload](repo, args.seed)
        workload.setup(work)
        result["setup_s"] = time.perf_counter() - t0
        reference_s = workload.reference_kernel()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            tracer.active = True
        t1 = time.perf_counter()
        shots = workload.run()
        result["wall_s"] = time.perf_counter() - t1
        if tracer is not None:
            tracer.active = False
            result["layers"] = tracer.layer_metrics()
            result["spans"] = tracer.span_records()
        result["reference_s"] = (reference_s + workload.reference_kernel()) / 2
        result["shots"] = shots
        result["failures"] = workload.check()
    except Exception:  # any crash is a failed operation, reported to the parent
        result["failures"].append(traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
