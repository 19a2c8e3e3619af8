"""End-to-end pipeline: simulate/load, filter, features, cluster, score.

Each (band, region-pair) combination is one job; jobs are independent
and merge in job order, so results do not depend on scheduling.  All
randomness flows from the config seed and file outputs are byte-stable
across reruns.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bands import DEFAULT_BANDS, BandSpec, design_bandpass, filter_dataset
from .canonical import FeatureSet, extract_features
from .clustering import (
    DEFAULT_M_GRID,
    FuzzyPartition,
    ValidityReport,
    fcm_fit,
    fsi,
    grid_search,
)
from .dependence import dependence_set
from .evaluation import SWITCHING, assign, rand_index, simulation_accuracy
from .exceptions import ConfigError
from .mts import MtsDataset, RegionMap, format_float, load_csv, save_csv, select_regions
from .pearson import pearson_dependence_set
from .simulate import SimConfig, gen_dataset

__all__ = [
    "PipelineConfig",
    "run_pipeline",
    "reproduce_sim",
    "RAW_BAND",
    "write_features_csv",
    "read_features_csv",
    "write_memberships_csv",
    "read_memberships_csv",
]

RAW_BAND = "raw"

DEPENDENCE_FNS = {
    "kendall": dependence_set,
    "pearson": pearson_dependence_set,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run settings; see README for the JSON schema."""

    seed: int
    output_dir: str
    csv: Optional[str] = None
    metadata: Optional[str] = None
    sim: Optional[dict] = None
    sample_rate_hz: Optional[float] = None
    block_length: Optional[int] = None
    groups: Optional[tuple[int, int]] = None
    bands: tuple[str, ...] = (RAW_BAND,)
    band_table: Optional[dict] = None
    filter_order: int = 4
    regions: Optional[dict] = None
    pairs: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    max_lag: int = 5
    n_clusters: Optional[int] = 2
    fuzziness: Optional[float] = 2.0
    c_grid: Optional[tuple[int, ...]] = None
    m_grid: Optional[tuple[float, ...]] = None
    threshold: float = 0.7
    dependence: str = "kendall"
    n_restarts: int = 10
    jobs: int = 1
    skip_degenerate: bool = False
    strict: bool = True
    dump_dependence: bool = False

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is mandatory (no wall-clock seeding)")
        if (self.csv is None) == (self.sim is None):
            raise ConfigError("exactly one input source required: 'csv' or 'sim'")
        if self.csv is not None and not Path(self.csv).exists():
            raise ConfigError(f"input file not found: {self.csv}")
        if self.metadata is not None and not Path(self.metadata).exists():
            raise ConfigError(f"metadata file not found: {self.metadata}")
        if self.dependence not in DEPENDENCE_FNS:
            raise ConfigError(
                f"dependence must be one of {sorted(DEPENDENCE_FNS)}, got {self.dependence!r}"
            )
        if not self.bands:
            raise ConfigError("at least one band required")
        if self.c_grid is not None and not self.c_grid:
            raise ConfigError("c_grid must be non-empty when given")
        if self.m_grid is not None and not self.m_grid:
            raise ConfigError("m_grid must be non-empty when given")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        object.__setattr__(self, "bands", tuple(self.bands))
        object.__setattr__(
            self, "pairs", tuple((str(a), str(b)) for a, b in (self.pairs or ()))
        )
        if self.c_grid is not None:
            object.__setattr__(self, "c_grid", tuple(int(c) for c in self.c_grid))
        if self.m_grid is not None:
            object.__setattr__(self, "m_grid", tuple(float(m) for m in self.m_grid))
        if self.groups is not None:
            object.__setattr__(self, "groups", (int(self.groups[0]), int(self.groups[1])))
        # band names must resolve at validation time
        table = dict(DEFAULT_BANDS)
        if self.band_table:
            table.update({k: tuple(v) for k, v in self.band_table.items()})
        for name in self.bands:
            if name != RAW_BAND and name not in table:
                raise ConfigError(f"unknown band {name!r}; known: {sorted(table) + [RAW_BAND]}")
        if self.regions is not None and not self.pairs:
            raise ConfigError("regions given without any region pairs")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad pipeline config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def resolve_band(self, name: str, sample_rate_hz: float) -> Optional[BandSpec]:
        if name == RAW_BAND:
            return None
        table = dict(DEFAULT_BANDS)
        if self.band_table:
            table.update({k: tuple(v) for k, v in self.band_table.items()})
        low, high = table[name]
        return BandSpec(name=name, low_hz=float(low), high_hz=float(high),
                        sample_rate_hz=sample_rate_hz)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_features_csv(path, feature_set: FeatureSet, band_name: str) -> None:
    n_dim = feature_set.d_matrix.shape[1] if len(feature_set) else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["block_id", "band", "best_lag", "g_value"]
            + [f"d_{i + 1}" for i in range(n_dim)]
        )
        for idx, feat in zip(feature_set.block_indices, feature_set.features):
            writer.writerow(
                [idx, band_name, feat.best_lag, format_float(feat.g_value)]
                + [format_float(v) for v in feat.d]
            )


def read_features_csv(path) -> tuple[np.ndarray, list[int]]:
    """Feature matrix and block ids from a features.csv file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d_cols = [i for i, h in enumerate(header) if h.startswith("d_")]
        rows, ids = [], []
        for line in reader:
            ids.append(int(line[0]))
            rows.append([float(line[i]) for i in d_cols])
    if not rows:
        raise ConfigError(f"{path}: no feature rows")
    return np.asarray(rows), ids


def write_memberships_csv(path, partition: FuzzyPartition, block_ids: Sequence[int]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["block_id"] + [f"e_{c + 1}" for c in range(partition.n_clusters)]
        )
        for idx, row in zip(block_ids, partition.memberships):
            writer.writerow([idx] + [format_float(v) for v in row])


def read_memberships_csv(path) -> tuple[np.ndarray, list[int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows, ids = [], []
        for line in reader:
            ids.append(int(line[0]))
            rows.append([float(v) for v in line[1:]])
    if not rows:
        raise ConfigError(f"{path}: no membership rows")
    return np.asarray(rows), ids


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def load_input(config: PipelineConfig) -> MtsDataset:
    if config.sim is not None:
        sim_dict = dict(config.sim)
        sim_dict.setdefault("seed", config.seed)
        return gen_dataset(SimConfig.from_dict(sim_dict))
    groups = config.groups
    if groups is None:
        if not config.pairs:
            raise ConfigError("CSV input needs groups=(p, q) or regions with pairs")
        # provisional split; region selection re-partitions per job
        with open(config.csv, newline="", encoding="utf-8") as fh:
            n_cols = len(next(csv.reader(fh)))
        groups = (1, n_cols - 1)
    return load_csv(
        config.csv,
        sample_rate_hz=config.sample_rate_hz,
        block_length=config.block_length,
        groups=groups,
        metadata_path=config.metadata,
        strict=config.strict,
    )


def _cluster_and_validate(
    features: np.ndarray, config: PipelineConfig
) -> tuple[FuzzyPartition, ValidityReport]:
    if config.c_grid is not None or config.m_grid is not None:
        c_values = config.c_grid or (config.n_clusters,)
        m_values = config.m_grid or (config.fuzziness,)
        report, part = grid_search(
            features, c_values=c_values, m_values=m_values,
            seed=config.seed, n_restarts=config.n_restarts,
        )
        return part, report
    part = fcm_fit(
        features, config.n_clusters, config.fuzziness,
        seed=config.seed, n_restarts=config.n_restarts,
    )
    return part, fsi(features, part)


def _evaluate(
    partition: FuzzyPartition,
    labels: Optional[Sequence[Optional[int]]],
    block_ids: Sequence[int],
    threshold: float,
    simulated: bool = False,
) -> dict:
    """Evaluation payload; protocol depends on the available truth."""
    thr_report = assign(partition, rule="threshold", threshold=threshold)
    max_report = assign(partition, rule="max")
    payload: dict = {
        "rule": "threshold",
        "threshold": threshold,
        "fuzzy_fraction": thr_report.fuzzy_fraction,
        "accuracy": None,
        "rand_index": None,
        "per_block": [
            {
                "block": int(b),
                "assignment": "FUZZY" if a is None else int(a),
                "max_membership": float(m),
            }
            for b, a, m in zip(
                block_ids, thr_report.assignments, partition.memberships.max(axis=1)
            )
        ],
    }
    if labels is None:
        return payload
    truth = np.array([labels[i] for i in block_ids])
    if any(v is None for v in truth):
        return payload
    truth = truth.astype(int)
    if (simulated or SWITCHING in truth) and partition.n_clusters == 2:
        report = simulation_accuracy(partition, truth, threshold=threshold)
        payload.update(
            accuracy=report.accuracy,
            rand_index=report.rand_index_pure,
            rand_index_all=report.rand_index_all,
            n_switching=report.n_switching,
            n_switching_correct=report.n_switching_correct,
            protocol="simulation-threshold",
        )
    else:
        # labeled recordings: maximum-membership rule against the labels
        hard = max_report.hard_labels(fuzzy_label=-1)
        payload.update(
            rand_index=rand_index(hard, truth),
            protocol="max-membership",
        )
    return payload


def _connectivity_summary(
    partition: FuzzyPartition,
    feature_set: FeatureSet,
    dataset: MtsDataset,
    band_name: str,
    pair_name: str,
) -> dict:
    names = dataset.channel_names or tuple(
        f"ch{i}" for i in range(dataset.p + dataset.q)
    )
    p = dataset.p
    clusters = []
    for c, center in enumerate(partition.centers):
        clusters.append(
            {
                "cluster": c,
                "x_weights": {names[i]: float(center[i]) for i in range(p)},
                "y_weights": {names[p + i]: float(center[p + i]) for i in range(len(center) - p)},
            }
        )
    lags = [f.best_lag for f in feature_set.features]
    gs = [f.g_value for f in feature_set.features]
    return {
        "band": band_name,
        "pair": pair_name,
        "clusters": clusters,
        "mean_g_value": float(np.mean(gs)) if gs else None,
        "best_lag_histogram": {str(l): int(n) for l, n in
                               zip(*np.unique(lags, return_counts=True))} if lags else {},
    }


@dataclass(frozen=True)
class JobResult:
    band: str
    pair_name: str
    feature_set: FeatureSet
    partition: FuzzyPartition
    validity: ValidityReport
    evaluation: dict
    connectivity: dict
    dependence_dump: Optional[list] = None


def _run_job(args) -> JobResult:
    dataset, band_name, pair, config = args
    if pair is not None:
        region_map = RegionMap(regions=config.regions)
        dataset = select_regions(dataset, region_map, pair)
    band = config.resolve_band(band_name, dataset.sample_rate_hz)
    if band is not None:
        design = design_bandpass(band, order=config.filter_order)
        dataset = filter_dataset(dataset, design)
    dep_fn = DEPENDENCE_FNS[config.dependence]
    dep_sets = []  # one per block in call order, kept for the dump

    def keep_dep_set(block, max_lag):
        dep_sets.append(dep_fn(block, max_lag))
        return dep_sets[-1]

    feature_set = extract_features(
        dataset, max_lag=config.max_lag,
        dependence_fn=keep_dep_set if config.dump_dependence else dep_fn,
        skip_degenerate=config.skip_degenerate,
    )
    features = feature_set.d_matrix
    partition, validity = _cluster_and_validate(features, config)
    labels = dataset.labels
    evaluation = _evaluate(
        partition, labels, feature_set.block_indices, config.threshold,
        simulated=config.sim is not None,
    )
    pair_name = "all" if pair is None else f"{pair[0]}--{pair[1]}"
    connectivity = _connectivity_summary(partition, feature_set, dataset, band_name, pair_name)
    dump = None
    if config.dump_dependence:
        dump = [dep_sets[i].to_json_dict(i) for i in feature_set.block_indices]
    return JobResult(
        band=band_name, pair_name=pair_name, feature_set=feature_set,
        partition=partition, validity=validity, evaluation=evaluation,
        connectivity=connectivity, dependence_dump=dump,
    )


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every (band, pair) job and write the artifact tree.

    Per job: features.csv, memberships.csv, centers.json, fsi_grid.json,
    evaluation.json, connectivity_summary.json under
    ``<output_dir>/<band>__<pair>/``; a top-level summary.json and
    summary.csv mirror the per-run table (band, pair, RI, m, fuzzy %).
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_input(config)

    pairs: list[Optional[tuple[str, str]]] = list(config.pairs) or [None]
    units = [(dataset, band, pair, config) for band in config.bands for pair in pairs]
    if config.jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_run_job, units))  # ordered by job key
    else:
        results = [_run_job(u) for u in units]

    summary_rows = []
    for res in results:
        job_dir = out_dir / f"{res.band}__{res.pair_name}"
        job_dir.mkdir(parents=True, exist_ok=True)
        write_features_csv(job_dir / "features.csv", res.feature_set, res.band)
        write_memberships_csv(
            job_dir / "memberships.csv", res.partition, res.feature_set.block_indices
        )
        write_json(job_dir / "centers.json", {
            "centers": res.partition.centers,
            "fuzziness": res.partition.fuzziness,
            "n_clusters": res.partition.n_clusters,
            "converged": res.partition.converged,
            "iterations": res.partition.iterations,
            "objective": res.partition.objective,
        })
        write_json(job_dir / "fsi_grid.json", {
            "cells": [
                {"C": c.n_clusters, "m": c.fuzziness, "FSI": c.fsi, "error": c.error}
                for c in res.validity.cells
            ],
            "selected": {"C": res.validity.selected[0], "m": res.validity.selected[1]},
        })
        write_json(job_dir / "evaluation.json", res.evaluation)
        write_json(job_dir / "connectivity_summary.json", res.connectivity)
        if res.dependence_dump is not None:
            write_json(job_dir / "dependence.json", res.dependence_dump)
        if res.feature_set.excluded:
            write_json(job_dir / "excluded_blocks.json", [
                {"block": b, "reason": r} for b, r in res.feature_set.excluded
            ])
        summary_rows.append({
            "band": res.band,
            "pair": res.pair_name,
            "dependence": config.dependence,
            "C": res.partition.n_clusters,
            "m": res.partition.fuzziness,
            "fsi": res.validity.cells[0].fsi if len(res.validity.cells) == 1
                   else res.validity.fsi_value(*res.validity.selected),
            "rand_index": res.evaluation.get("rand_index"),
            "accuracy": res.evaluation.get("accuracy"),
            "fuzzy_series_pct": 100.0 * res.evaluation["fuzzy_fraction"],
            "n_blocks": len(res.feature_set),
            "n_excluded": len(res.feature_set.excluded),
        })

    summary = {"seed": config.seed, "dependence": config.dependence, "runs": summary_rows}
    write_json(out_dir / "summary.json", summary)
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        cols = ["band", "pair", "dependence", "C", "m", "fsi",
                "rand_index", "accuracy", "fuzzy_series_pct", "n_blocks", "n_excluded"]
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in summary_rows:
            writer.writerow([
                "" if row[c] is None else
                (format_float(row[c]) if isinstance(row[c], float) else row[c])
                for c in cols
            ])
    return summary


# ---------------------------------------------------------------------------
# simulation study
# ---------------------------------------------------------------------------

EXAMPLE_NOISE = {1: "normal", 2: "student_t3", 3: "student_t1"}


def reproduce_sim(
    example: int,
    scale: float = 1.0,
    n_reps: int = 100,
    m_values: Sequence[float] = DEFAULT_M_GRID,
    estimators: Sequence[str] = ("kendall", "pearson"),
    seed: int = 0,
    out_csv=None,
    sim_overrides: Optional[dict] = None,
) -> list[dict]:
    """Replicated accuracy-versus-fuzziness curves for both estimators.

    Runs ``n_reps`` independent replications of the chosen noise example
    at B = round(300 * scale) on the raw series (the study protocol
    applies no band filtering), scoring each fit with the threshold
    protocol.  Returns one row per (m, estimator) with the mean and
    standard deviation of accuracy and of the pure-subset pair score.
    """
    if example not in EXAMPLE_NOISE:
        raise ConfigError(f"example must be 1, 2 or 3, got {example}")
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must lie in (0, 1], got {scale}")
    if n_reps < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n_reps}")
    for est in estimators:
        if est not in DEPENDENCE_FNS:
            raise ConfigError(f"unknown estimator {est!r}")

    n_blocks = max(5, round(300 * scale))
    acc: dict = {(m, est): [] for m in m_values for est in estimators}
    ri: dict = {(m, est): [] for m in m_values for est in estimators}
    flag: dict = {(m, est): [] for m in m_values for est in estimators}

    for rep in range(n_reps):
        rep_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
        overrides = dict(sim_overrides or {})
        overrides.update(
            seed=rep_seed, n_blocks=n_blocks, noise_family=EXAMPLE_NOISE[example]
        )
        sim = SimConfig.from_dict(overrides)
        dataset = gen_dataset(sim)
        kinds = np.array([b.label for b in dataset.blocks], dtype=int)
        for est in estimators:
            fs = extract_features(dataset, max_lag=5, dependence_fn=DEPENDENCE_FNS[est])
            features = fs.d_matrix
            for m in m_values:
                part = fcm_fit(features, 2, m, seed=rep_seed)
                report = simulation_accuracy(part, kinds)
                acc[(m, est)].append(report.accuracy)
                ri[(m, est)].append(report.rand_index_pure)
                sw = report.n_switching
                flag[(m, est)].append(
                    report.n_switching_correct / sw if sw else 0.0
                )

    rows = []
    for m in m_values:
        for est in estimators:
            a = np.array(acc[(m, est)])
            r = np.array(ri[(m, est)])
            f = np.array(flag[(m, est)])
            rows.append({
                "example": example,
                "noise_family": EXAMPLE_NOISE[example],
                "estimator": est,
                "m": m,
                "n_reps": n_reps,
                "n_blocks": n_blocks,
                "mean_accuracy": float(a.mean()),
                "sd_accuracy": float(a.std(ddof=1)) if n_reps > 1 else 0.0,
                "mean_rand_index": float(r.mean()),
                "sd_rand_index": float(r.std(ddof=1)) if n_reps > 1 else 0.0,
                "mean_fuzzy_flag_rate": float(f.mean()),
            })

    if out_csv is not None:
        cols = list(rows[0].keys())
        with open(out_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in rows:
                writer.writerow([
                    format_float(row[c]) if isinstance(row[c], float) else row[c]
                    for c in cols
                ])
    return rows


def simulate_to_files(sim: SimConfig, data_csv, truth_json) -> MtsDataset:
    """Generate a dataset and write the data CSV plus the truth JSON."""
    from .simulate import write_truth

    dataset = gen_dataset(sim)
    save_csv(dataset, data_csv)
    write_truth(truth_json, sim, dataset)
    return dataset
