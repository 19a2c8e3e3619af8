"""Spans around fuzzcoh's public calls, and the per-layer metrics made from them.

``install`` replaces public functions at the names their callers look
up (module globals of ``fuzzcoh.pipeline``, ``fuzzcoh.canonical`` and
``fuzzcoh.clustering``, and the ``DEPENDENCE_FNS`` table) with wrappers
that record one span per call: name, start, end, parent span, process
and run id, plus the counts read off the call's arguments and result.
No library code changes.

Spans stay in memory.  A forked pool worker inherits the wrappers and
the open parent span; it appends its spans to ``spans-<pid>.jsonl``
whenever its outermost span ends, and the sampling process merges those
files after the run.  ``time.perf_counter`` reads CLOCK_MONOTONIC on
Linux, which all processes share, so worker spans line up with the
parent's.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import tracemalloc
from pathlib import Path


class Tracer:
    def __init__(self, span_dir: Path, run_id: str):
        self.span_dir = Path(span_dir)
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._main_pid = self._pid = os.getpid()
        self._base_depth = 0
        self._count = 0

    def wrap(self, name: str, fn, count=None, track_alloc: bool = False):
        """``fn`` recording a span per call; ``count(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                # forked worker: drop the parent's spans, keep its open span as parent
                self._pid = os.getpid()
                self.spans = []
                self._base_depth = len(self._stack)
            self._count += 1
            span = {"id": f"{self._pid}-{self._count}", "name": name, "pid": self._pid,
                    "run": self.run_id, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            if track_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._finish(span, track_alloc, failed=True)
                raise
            self._finish(span, track_alloc, failed=False)
            if count is not None:
                span.update(count(args, kwargs, result))
            self._record(span)
            return result

        return traced

    def _finish(self, span: dict, track_alloc: bool, failed: bool) -> None:
        if track_alloc:
            span["peak_alloc"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        span["end"] = time.perf_counter()
        span["failed"] = failed
        self._stack.pop()
        if failed:
            self._record(span)

    def _record(self, span: dict) -> None:
        self.spans.append(span)
        if self._pid != self._main_pid and len(self._stack) == self._base_depth:
            self.span_dir.mkdir(parents=True, exist_ok=True)
            with open(self.span_dir / f"spans-{self._pid}.jsonl", "a", encoding="utf-8") as fh:
                for s in self.spans:
                    fh.write(json.dumps(s) + "\n")
            self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus every span file the pool workers wrote."""
        spans = list(self.spans)
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        return spans


def _blocks(args, kwargs, result):
    return {"blocks": len(result.blocks)}


def _cells(args, kwargs, result):
    return {"cells": sum(b.n_samples * b.n_channels for b in result.blocks)}


def _excluded(args, kwargs, result):
    return {"excluded": len(result.excluded)}


def _fcm(args, kwargs, result):
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _grid(args, kwargs, result):
    return {"cells_failed": sum(c.error is not None for c in result[0].cells)}


def _repaired(args, kwargs, result):
    import numpy as np

    return {"repaired": not np.array_equal(result, args[0])}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name, count, track allocations)
_PATCHES = (
    ("pipeline", "gen_dataset", "simulate.gen_dataset", _blocks, False),
    ("pipeline", "load_csv", "mts.load_csv", _cells, False),
    ("pipeline", "select_regions", "mts.select_regions", None, False),
    ("pipeline", "filter_dataset", "bands.filter_dataset", _blocks, False),
    ("pipeline", "extract_features", "canonical.extract_features", _excluded, False),
    ("pipeline", "fcm_fit", "clustering.fcm_fit", _fcm, False),
    ("pipeline", "fsi", "clustering.fsi", None, False),
    ("pipeline", "grid_search", "clustering.grid_search", _grid, False),
    ("pipeline", "assign", "evaluation.assign", None, False),
    ("pipeline", "rand_index", "evaluation.rand_index", None, False),
    ("pipeline", "simulation_accuracy", "evaluation.simulation_accuracy", None, False),
    ("pipeline", "write_json", "pipeline.write_json", _bytes, False),
    ("pipeline", "write_features_csv", "pipeline.write_features_csv", _bytes, False),
    ("pipeline", "write_memberships_csv", "pipeline.write_memberships_csv", _bytes, False),
    # one (band, pair) job; the pool pickles it by this name
    ("pipeline", "_run_job", "pipeline.job", None, False),
    ("canonical", "solve_canonical", "canonical.solve_canonical", None, False),
    ("canonical", "repair_psd", "dependence.repair_psd", _repaired, False),
    ("clustering", "fcm_fit", "clustering.fcm_fit", _fcm, False),
    ("clustering", "fsi", "clustering.fsi", None, False),
)


def install(tracer: Tracer) -> None:
    """Wrap the public calls in place, for the rest of the process's life."""
    from fuzzcoh import canonical, clustering, pipeline

    modules = {"pipeline": pipeline, "canonical": canonical, "clustering": clustering}
    for mod, attr, name, count, alloc in _PATCHES:
        module = modules[mod]
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count, alloc))
    table = pipeline.DEPENDENCE_FNS
    table["kendall"] = tracer.wrap("dependence.kendall", table["kendall"], track_alloc=True)
    table["pearson"] = tracer.wrap("pearson.pearson", table["pearson"])


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def _busy(spans: list[dict]) -> float:
    """Time at least one of the spans ran, summed over processes."""
    by_pid: dict = {}
    for s in spans:
        by_pid.setdefault(s["pid"], []).append((s["start"], s["end"]))
    return sum(_union(iv) for iv in by_pid.values())


def _pct(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def analyse(spans: list[dict], root_name: str, workers: int) -> tuple[dict, dict]:
    """Per-layer metrics and the per-function rows of the traced-run report."""
    (root,) = [s for s in spans if s["name"] == root_name]
    run_s = root["end"] - root["start"]
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_time(span):
        inner = [(max(c["start"], span["start"]), min(c["end"], span["end"]))
                 for c in children.get(span["id"], [])]
        return (span["end"] - span["start"]) - _union([iv for iv in inner if iv[1] > iv[0]])

    named: dict = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def of(*names):
        return [s for n in names for s in named.get(n, [])]

    def durations_ms(name):
        return [1e3 * (s["end"] - s["start"]) for s in named.get(name, [])]

    def total(name, key):
        return sum(s.get(key, 0) for s in named.get(name, []))

    inside = [(max(s["start"], root["start"]), min(s["end"], root["end"]))
              for s in spans if s is not root]
    fcm = named.get("clustering.fcm_fit", [])
    kendall = named.get("dependence.kendall", [])
    jobs = named.get("pipeline.job", [])
    job_time = sum(s["end"] - s["start"] for s in jobs) if jobs else run_s
    writes = ("pipeline.write_json", "pipeline.write_features_csv",
              "pipeline.write_memberships_csv")
    metrics = {
        "simulate.busy_s": (_busy(of("simulate.gen_dataset")), "s"),
        "simulate.blocks": (total("simulate.gen_dataset", "blocks"), "count"),
        "mts.load_busy_s": (_busy(of("mts.load_csv")), "s"),
        "mts.cells_parsed": (total("mts.load_csv", "cells"), "count"),
        "mts.select_busy_s": (_busy(of("mts.select_regions")), "s"),
        "bands.busy_s": (_busy(of("bands.filter_dataset")), "s"),
        "bands.blocks_filtered": (total("bands.filter_dataset", "blocks"), "count"),
        "dependence.kendall_busy_s": (_busy(kendall), "s"),
        "dependence.kendall_calls": (len(kendall), "count"),
        "dependence.kendall_block_ms_p50": (_pct(durations_ms("dependence.kendall"), 50), "ms"),
        "dependence.kendall_block_ms_p90": (_pct(durations_ms("dependence.kendall"), 90), "ms"),
        "dependence.kendall_peak_alloc_mb": (
            max((s["peak_alloc"] for s in kendall), default=0) / 2**20, "MB"),
        "dependence.psd_repairs": (total("dependence.repair_psd", "repaired"), "count"),
        "pearson.busy_s": (_busy(of("pearson.pearson")), "s"),
        "pearson.calls": (len(named.get("pearson.pearson", [])), "count"),
        "canonical.solve_busy_s": (_busy(of("canonical.solve_canonical")), "s"),
        "canonical.solve_calls": (len(named.get("canonical.solve_canonical", [])), "count"),
        "canonical.extract_self_s": (
            sum(self_time(s) for s in of("canonical.extract_features")), "s"),
        "canonical.excluded_blocks": (total("canonical.extract_features", "excluded"), "count"),
        "clustering.fcm_busy_s": (_busy(fcm), "s"),
        "clustering.fcm_calls": (len(fcm), "count"),
        "clustering.fcm_ms_p50": (_pct(durations_ms("clustering.fcm_fit"), 50), "ms"),
        "clustering.fcm_ms_p90": (_pct(durations_ms("clustering.fcm_fit"), 90), "ms"),
        "clustering.fcm_iterations": (total("clustering.fcm_fit", "iterations"), "count"),
        "clustering.fcm_converged_frac": (
            sum(s["converged"] for s in fcm) / len(fcm) if fcm else 0.0, "ratio"),
        "clustering.fsi_busy_s": (_busy(of("clustering.fsi")), "s"),
        "clustering.fsi_calls": (len(named.get("clustering.fsi", [])), "count"),
        "clustering.grid_self_s": (sum(self_time(s) for s in of("clustering.grid_search")), "s"),
        "clustering.grid_cells_failed": (total("clustering.grid_search", "cells_failed"), "count"),
        "evaluation.busy_s": (_busy(of("evaluation.simulation_accuracy", "evaluation.assign",
                                         "evaluation.rand_index")), "s"),
        "pipeline.self_s": (sum(self_time(s) for s in of(root_name, "pipeline.job")), "s"),
        "pipeline.write_busy_s": (_busy(of(*writes)), "s"),
        "pipeline.bytes_written": (sum(total(n, "bytes") for n in writes), "bytes"),
        "pipeline.jobs": (len(jobs), "count"),
        "pipeline.parallel_eff": (job_time / (workers * run_s), "ratio"),
        "pipeline.span_coverage": (_union([iv for iv in inside if iv[1] > iv[0]]) / run_s,
                                   "ratio"),
    }
    groups = dict(named)
    for s in spans:
        groups.setdefault(s["name"].split(".")[0], []).append(s)
    report = {}
    for name, group in sorted(groups.items()):
        ms = [1e3 * (s["end"] - s["start"]) for s in group]
        report[name] = {
            "calls": len(group),
            "busy_s": _busy(group),
            "self_s": sum(self_time(s) for s in group),
            "p50_ms": _pct(ms, 50),
            "p90_ms": _pct(ms, 90),
        }
    return metrics, {"run_s": run_s, "spans": report}
