"""One benchmark sample, run in a fresh process by ``run.py``.

Imports fuzzcoh, builds the workload's input from the seed, makes the
one timed call and writes a JSON record to ``--out``: set-up and run
times, peak RSS, the result rows, the artifact digest, library
versions and, with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, workers


def tree_sha256(path: Path) -> str:
    """Digest of every file's relative path and bytes, in sorted path order."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(f.relative_to(path if path.is_dir() else path.parent).as_posix().encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def run_sample(args) -> dict:
    import fuzzcoh

    workload = WORKLOADS[args.workload]
    params = workload.params(args.size)
    tmp = Path(args.tmp)
    tracer = None
    if args.trace:
        import multiprocessing

        from tracing import Tracer, analyse, install

        if workers(params) > 1 and multiprocessing.get_start_method() != "fork":
            raise RuntimeError("tracing pool workers needs the fork start method: "
                               "workers started otherwise do not inherit the wrappers")

        tracer = Tracer(tmp / "spans", run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
        install(tracer)
    call = workload.setup(params, args.seed, tmp)
    if tracer is not None:
        call = tracer.wrap(workload.root, call)

    started = time.perf_counter()
    result = call()
    run_s = time.perf_counter() - started

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "setup_s": started - args.spawned_at,
        "run_s": run_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "rows": workload.rows(result, tmp),
        "sha256": tree_sha256(tmp / workload.artifacts),
        "versions": versions(),
        "library": str(Path(fuzzcoh.__file__).resolve().parent),
    }
    if tracer is not None:
        metrics, report = analyse(tracer.collect(), workload.root, workers(params))
        record["layers"] = {name: value for name, (value, _) in metrics.items()}
        record["units"] = {name: unit for name, (_, unit) in metrics.items()}
        record["trace_report"] = report
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tmp", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--out", required=True, help="where to write the JSON record")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.perf_counter() just before starting this process")
    args = parser.parse_args()
    try:
        record = run_sample(args)
    except Exception:
        record = {"error": traceback.format_exc()}
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 1 if "error" in record else 0


if __name__ == "__main__":
    sys.exit(main())
