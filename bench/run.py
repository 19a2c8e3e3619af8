"""fuzzcoh benchmark: one workload, timed in fresh child processes.

    python3 bench/run.py --workload study-cauchy --seed 1 --seconds 45 --trace 0

Runs samples of the workload one after another (a closed loop with one
caller), each in a fresh child process, until ``--seconds`` would be
exceeded by one more sample.  With ``--trace 0`` it reports the
end-to-end metrics (medians over samples); with ``--trace 1`` it
alternates untraced and traced samples and reports the per-layer
metrics of the traced ones.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every result row (one (band, pair) job, or one (m, estimator) curve
point) of every sample is checked against the stored reference for the
seed in ``bench/references``, or, for a seed without one, against the
first sample's rows; samples must also write byte-identical artifacts.
``error_rate`` = ``failed`` / ``attempted`` over those rows.  References
exist for seeds 0-12 and 1001: tune on ``BUILD_SEED`` and confirm a
claim on ``HELD_OUT_SEED`` too.  ``--write-reference`` stores the first
sample's rows as the reference for the seed.

Inputs and outputs live in a temporary directory under ``.bench_tmp/``
in the checkout, removed after each sample.  ``--size tiny`` and
``--reference-file`` exist for the self-test (``bench/selftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import ABS_TOL, WORKLOADS, workers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

DEADLINE_S = 170.0  # every invocation must end within 180 s
# Tune on the build seed; claim gains on the held-out one as well.
BUILD_SEED, HELD_OUT_SEED = 1, 1001
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "fuzzcoh").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _cpu() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo"))
                  .splitlines() if line.startswith("model name")), None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {"model": model, "nproc": len(os.sched_getaffinity(0)), **caches}


def environment(workload, params: dict, seed: int, blas_threads: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "cpu": _cpu(),
        "blas_threads": blas_threads,
        "workload": workload.name,
        "seed": seed,
        "params": params,
    }


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def run_child(args, traced: bool, env: dict, time_left: float) -> dict:
    """One sample in a fresh process group; its temporary tree is removed after."""
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    out = tmp / "sample.json"
    cmd = [sys.executable, str(BENCH / "sample.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(traced)),
           "--tmp", str(tmp), "--out", str(out)]
    try:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=max(time_left, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            output, _ = proc.communicate()
            return {"error": f"sample exceeded the {DEADLINE_S:.0f} s limit",
                    "wall_s": time.perf_counter() - spawned_at}
        wall = time.perf_counter() - spawned_at
        try:
            record = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            record = {"error": f"exit code {proc.returncode}: "
                               f"{output.decode(errors='replace')[-2000:]}"}
        record["wall_s"] = wall
        record["traced"] = traced
        return record
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def collect(args, env: dict) -> list[dict]:
    """Samples until one more would overrun ``--seconds`` (or the hard limit)."""
    started = time.perf_counter()
    minimum = 2 if args.trace else 1
    samples: list[dict] = []
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        time_left = started + DEADLINE_S - time.perf_counter()
        samples.append(run_child(args, traced, env, time_left))
        longest = max(s["wall_s"] for s in samples)
        elapsed = time.perf_counter() - started
        if len(samples) >= minimum and elapsed + longest > args.seconds:
            break
        if elapsed + longest > DEADLINE_S:
            break
    return samples


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def row_matches(row: dict, ref: dict) -> bool:
    if row["exact"] != ref["exact"] or row["approx"].keys() != ref["approx"].keys():
        return False
    for key, want in ref["approx"].items():
        got = row["approx"][key]
        if (got is None) != (want is None):
            return False
        if want is not None and not abs(got - want) <= ABS_TOL:
            return False
    return True


def failed_rows(rows: list[dict], ref_rows: list[dict]) -> int:
    """Reference rows that the sample misses or gets wrong, plus rows it adds."""
    got = {r["key"]: r for r in rows}
    failed = sum(r["key"] not in got or not row_matches(got[r["key"]], r) for r in ref_rows)
    return failed + len(got.keys() - {r["key"] for r in ref_rows})


def load_reference(path: Path, seed: int) -> dict | None:
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def write_reference(path: Path, args, params: dict, sample: dict) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {
        "workload": args.workload, "size": args.size, "params": params, "abs_tol": ABS_TOL,
        "build_seed": BUILD_SEED, "held_out_seed": HELD_OUT_SEED,
        "source_sha256": _source_sha256(), "seeds": {}}
    data["seeds"][str(args.seed)] = {"rows": sample["rows"], "sha256": sample["sha256"]}
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def check(samples: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """(rows attempted, rows failed, notes) over every sample; at least one succeeded.

    With a stored reference each row is compared with it; without one,
    with the first sample's rows.  Discrete fields must be equal,
    continuous ones within ``ABS_TOL``.  A sample that raised fails every
    row of its call.  Samples must also write byte-identical artifacts.
    """
    ok = [s for s in samples if "error" not in s]
    ref_rows = reference["rows"] if reference else ok[0]["rows"]
    attempted = failed = 0
    notes = []
    for s in samples:
        attempted += len(ref_rows)
        if "error" in s:
            failed += len(ref_rows)
            continue
        failed += failed_rows(s["rows"], ref_rows)
    digests = {s["sha256"] for s in ok}
    if len(digests) > 1:
        notes.append(f"artifact trees differ across samples: {sorted(digests)}")
        failed = attempted
    if reference is None:
        notes.append("no stored reference for this seed: rows checked for agreement "
                     "across samples only")
    elif digests and digests != {reference["sha256"]}:
        notes.append("artifact sha256 differs from the stored reference "
                     "(rows still checked field by field)")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _supported_percentile(n: int) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    return f"p{int(100 * (1 - 10 / n))}" if n > 10 else "none (needs more than 10 samples)"


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in untraced), "s"),
        "run_s": (statistics.median(s["run_s"] for s in untraced), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in untraced), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], error_rate: float) -> dict:
    # median_low picks a measured value, so counts stay whole numbers
    units = traced[0]["units"]
    metrics = {name: (statistics.median_low(s["layers"][name] for s in traced), unit)
               for name, unit in units.items()}
    metrics["pipeline.tracing_overhead_s"] = (
        statistics.median(s["run_s"] for s in traced)
        - statistics.median(s["run_s"] for s in untraced), "s")
    metrics["error_rate"] = (error_rate, "ratio")
    return metrics


def print_trace_report(traced: list[dict], metrics: dict) -> None:
    report = traced[0]["trace_report"]
    run_s = report["run_s"]
    print(f"traced run_s {run_s:.3f} s (first traced sample). Each layer (a name without a dot) "
          "sums its functions; share = busy / run_s, and pool workers' busy time adds up "
          "across processes, so a share can exceed 100%")
    print(f"  {'layer or function':36s} {'calls':>7s} {'busy_s':>9s} {'self_s':>9s} {'share':>7s} "
          f"{'p50_ms':>9s} {'p90_ms':>9s}")
    for name, row in report["spans"].items():
        print(f"  {name:36s} {row['calls']:7d} {row['busy_s']:9.3f} {row['self_s']:9.3f} "
              f"{row['busy_s'] / run_s:7.1%} {row['p50_ms']:9.2f} {row['p90_ms']:9.2f}")
    counts = ", ".join(f"{name}={value:g}" for name, (value, unit) in metrics.items()
                       if unit in ("count", "bytes"))
    print(f"  counts (traced samples): {counts}")
    print(f"  span coverage of run_s: {metrics['pipeline.span_coverage'][0]:.1%}; "
          f"tracing overhead: {metrics['pipeline.tracing_overhead_s'][0]:+.3f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--reference-file", type=Path, default=None)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fuzzcoh" / "__init__.py").is_file():
        print(f"error: no fuzzcoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    params = workload.params(args.size)
    ref_path = args.reference_file or BENCH / "references" / f"{args.workload}.json"
    if args.size != "full" and args.reference_file is None:
        ref_path = None  # stored references are for the measured size only

    # pool workers x BLAS threads <= nproc
    nproc = len(os.sched_getaffinity(0))
    blas_threads = max(1, nproc // workers(params))
    env = dict(os.environ)
    env.update({var: str(blas_threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    samples = collect(args, env)
    ok = [s for s in samples if "error" not in s]
    for s in samples:
        if "error" in s:
            print(f"sample failed: {s['error']}", file=sys.stderr)
    if not ok:
        print("error: every sample failed", file=sys.stderr)
        return 1
    expected = ROOT / "src" / "fuzzcoh"
    if any(Path(s["library"]) != expected for s in ok):
        print(f"error: fuzzcoh was not imported from {expected}", file=sys.stderr)
        return 1
    if args.write_reference:
        write_reference(ref_path, args, params, ok[0])
        print(f"stored reference for seed {args.seed} in {ref_path}")

    reference = load_reference(ref_path, args.seed) if ref_path else None
    attempted, failed, notes = check(samples, reference)
    error_rate = failed / attempted
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no successful sample of the needed kind", file=sys.stderr)
        return 1

    env_record = environment(workload, params, args.seed, blas_threads)
    env_record.update(ok[0]["versions"])
    print(f"workload {workload.name}, seed {args.seed}, size {args.size}: "
          f"{len(samples)} samples ({len(untraced)} untraced, {len(traced)} traced), "
          "closed loop with one caller, each sample in a fresh process")
    for s in samples:
        if "error" not in s:
            print(f"  sample {'traced  ' if s['traced'] else 'untraced'} setup_s "
                  f"{s['setup_s']:.4f} run_s {s['run_s']:.4f} peak_rss_mb {s['peak_rss_mb']:.1f}")
    e2e = end_to_end(untraced)
    n = len(untraced)
    runs = sorted(s["run_s"] for s in untraced)
    print(f"setup_s {e2e['setup_s'][0]:.4f} s  (median of {n}; process start to the timed call)")
    print(f"run_s {e2e['run_s'][0]:.4f} s  (median of {n}, range {runs[0]:.4f}-{runs[-1]:.4f}; "
          f"highest supported percentile: {_supported_percentile(n)})")
    print(f"peak_rss_mb {e2e['peak_rss_mb'][0]:.1f} MB  (median over samples of the largest "
          "per-process peak, pool workers included; not a sum over concurrent workers)")
    print(f"error_rate {error_rate:.4f} ratio  ({failed} of {attempted} result rows failed; "
          f"reference: {'stored seed ' + str(args.seed) if reference else 'none'})")
    print(f"artifact sha256 {ok[0]['sha256']}")
    for note in notes:
        print(f"note: {note}")
    if args.trace:
        metrics = per_layer(untraced, traced, error_rate)
        print_trace_report(traced, metrics)
    else:
        metrics = e2e
    print("env " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
