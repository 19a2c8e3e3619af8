"""End-to-end pipeline: simulate/load, filter, features, cluster, score.

Each (band, region-pair) combination is one job that writes its own
directory; jobs are independent and their summary rows merge in job
order, so results do not depend on scheduling.  All randomness flows
from the config seed and file outputs are byte-stable across reruns.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bands import RAW_BAND, band_edges, default_band, design_bandpass, filter_dataset
from .canonical import FeatureSet, extract_features
from .clustering import (
    DEFAULT_M_GRID,
    FuzzyPartition,
    ValidityReport,
    check_cluster_count,
    check_distance_budget,
    check_fuzziness,
    check_grid,
    check_n_clusters,
    fcm_fit_batch,
    grid_search,
)
# not called here; bench/tracing.py patches pipeline.fcm_fit and pipeline.fsi
from .clustering import fcm_fit, fsi  # noqa: F401
from .dependence import sine_tau_matrices
from .evaluation import SWITCHING, assign, rand_index, simulation_accuracy
from .exceptions import ConfigError, DataError, NumericError
from .mts import (
    JsonConfig,
    MtsDataset,
    RegionMap,
    check_fields,
    check_groups,
    load_csv,
    read_block_table,
    save_csv,
    select_regions,
    write_json,
    write_table,
)
from .pearson import pearson_matrices
from .simulate import SimConfig, gen_dataset, truth_payload

__all__ = [
    "PipelineConfig",
    "run_pipeline",
    "reproduce_sim",
    "RAW_BAND",
    "evaluate_partition",
    "centers_payload",
    "fsi_grid_payload",
    "dependence_payload",
    "write_features_csv",
    "read_features_csv",
    "write_memberships_csv",
    "read_memberships_csv",
]

DEPENDENCE_FNS = {
    "kendall": sine_tau_matrices,
    "pearson": pearson_matrices,
}


@dataclass(frozen=True)
class PipelineConfig(JsonConfig):
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
    band_table: Optional[dict[str, tuple[float, float]]] = None
    filter_order: int = 4
    regions: Optional[dict[str, tuple[str, ...]]] = None
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
    dump_dependence: bool = False

    def __post_init__(self):
        if self.seed is None:
            raise ConfigError("a seed is mandatory (no wall-clock seeding)")
        check_fields(self)
        for key, low in (("seed", 0), ("jobs", 1), ("n_restarts", 1)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if (self.csv is None) == (self.sim is None):
            raise ConfigError("exactly one input source required: 'csv' or 'sim'")
        if self.sim is not None:  # a simulated run takes these from its sim block
            for key in ("metadata", "sample_rate_hz", "block_length", "groups"):
                if getattr(self, key) is not None:
                    raise ConfigError(f"{key} applies to CSV input only, not to 'sim'")
        if self.groups is not None:
            check_groups(self.groups)
        if self.csv is not None and not Path(self.csv).exists():
            raise ConfigError(f"input file not found: {self.csv}")
        if self.metadata is not None and not Path(self.metadata).exists():
            raise ConfigError(f"metadata file not found: {self.metadata}")
        if self.sim is not None:  # a bad sim block fails here, before any input is read
            _sim_config(self)
        if self.dependence not in DEPENDENCE_FNS:
            raise ConfigError(
                f"dependence must be one of {sorted(DEPENDENCE_FNS)}, got {self.dependence!r}"
            )
        if not self.bands:
            raise ConfigError("at least one band required")
        for key, grid in (("n_clusters", "c_grid"), ("fuzziness", "m_grid")):
            if getattr(self, key) is None and getattr(self, grid) is None:
                raise ConfigError(f"{key} is null and no {grid} replaces it")
        c_values, m_values = _grid(self)
        check_grid("c_grid", c_values, check_n_clusters)
        check_grid("m_grid", m_values, check_fuzziness)
        max_c = max(c_values)
        if not 1.0 / max_c < self.threshold < 1.0:  # no C of the run could use it
            raise ConfigError(f"threshold must lie in (1/C, 1) = ({1.0 / max_c:.3f}, 1) "
                              f"for the largest C = {max_c}, got {self.threshold}")
        for name in self.bands:  # band names must resolve at validation time
            band_edges(name, self.band_table)
        for key in ("bands", "pairs"):  # each job writes its own directory
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{key} lists {repeated[0]!r} more than once")
        if (self.regions is None) != (not self.pairs):
            raise ConfigError("regions and region pairs must be given together")
        if self.pairs:  # unknown or repeated regions fail here, before any input is read
            RegionMap(regions=self.regions, pairs=self.pairs)
        elif self.csv is not None and self.groups is None:
            raise ConfigError("CSV input needs groups=(p, q) or regions with pairs")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_rows_csv(path, rows: Sequence[dict]) -> None:
    """The first row's keys as header, then one line per row."""
    cols = list(rows[0])
    write_table(path, cols, ([row[c] for c in cols] for row in rows))


def centers_payload(partition: FuzzyPartition) -> dict:
    """The centers.json payload of a fitted partition."""
    return {
        "centers": partition.centers,
        "fuzziness": partition.fuzziness,
        "n_clusters": partition.n_clusters,
        "converged": partition.converged,
        "iterations": partition.iterations,
        "objective": partition.objective,
    }


def fsi_grid_payload(report: ValidityReport) -> dict:
    """The fsi_grid.json payload: every (C, m) cell and the selection."""
    return {
        "cells": [
            {"C": c.n_clusters, "m": c.fuzziness, "FSI": c.fsi, "error": c.error}
            for c in report.cells
        ],
        "selected": {"C": report.selected[0], "m": report.selected[1]},
    }


def dependence_payload(feature_set: FeatureSet) -> list:
    """The dependence.json payload: every kept block's matrices at lags -L..L."""
    max_lag = feature_set.lags.shape[1] - 1
    return [
        {
            "block": i,
            "max_lag": max_lag,
            "matrices": {str(l): (lags[l] if l >= 0 else lags[-l].T).tolist()
                         for l in range(-max_lag, max_lag + 1)},
            "degenerate_channels": [],  # a block with one is never kept
        }
        for i, lags in zip(feature_set.block_indices, feature_set.lags)
    ]


def write_features_csv(path, feature_set: FeatureSet, band_name: str) -> None:
    d = feature_set.d_matrix
    n_dim = d.shape[1] if len(d) else 0
    write_table(
        path,
        ["block_id", "band", "best_lag", "g_value"] + [f"d_{i + 1}" for i in range(n_dim)],
        ([idx, band_name, lag, g, *row] for idx, lag, g, row in zip(
            feature_set.block_indices, feature_set.best_lag.tolist(),
            feature_set.g_value.tolist(), d)),
    )


def read_features_csv(path) -> tuple[np.ndarray, list[int]]:
    """Feature matrix and block ids from a features.csv file."""
    return read_block_table(path, "d_")


def write_memberships_csv(path, partition: FuzzyPartition, block_ids: Sequence[int]) -> None:
    write_table(
        path,
        ["block_id"] + [f"e_{c + 1}" for c in range(partition.n_clusters)],
        ([idx, *row] for idx, row in zip(block_ids, partition.memberships)),
    )


def read_memberships_csv(path) -> tuple[np.ndarray, list[int]]:
    """Membership matrix and block ids from a memberships.csv file.

    Each row's entries must lie in [0, 1] and sum to 1 within 1e-10;
    the first row that does not is a ``DataError`` naming it.
    """
    e, ids = read_block_table(path, "e_")
    bad = (e.min(axis=1) < 0.0) | (e.max(axis=1) > 1.0) | (np.abs(e.sum(axis=1) - 1.0) > 1e-10)
    if bad.any():
        r = int(bad.argmax())
        raise DataError(f"{path}: row {r + 1}: memberships must lie in [0, 1] and sum to 1 "
                        f"within 1e-10, got {e[r].tolist()}")
    return e, ids


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def require_blocks(dataset: MtsDataset, source) -> MtsDataset:
    """The dataset, unless it is a single block: clustering needs at least two."""
    if dataset.n_blocks == 1:
        raise ConfigError(
            f"{source} gives 1 block of {dataset.n_samples} samples; clustering "
            "needs at least 2: set block_length (config, sidecar or --block-length)"
        )
    return dataset


def _sim_config(config: PipelineConfig) -> SimConfig:
    """The run's ``sim`` block as a SimConfig; its seed defaults to the run seed."""
    return SimConfig.from_dict({"seed": config.seed, **config.sim})


def load_input(config: PipelineConfig) -> MtsDataset:
    if config.sim is not None:
        return gen_dataset(_sim_config(config))
    return require_blocks(load_csv(
        config.csv,
        sample_rate_hz=config.sample_rate_hz,
        block_length=config.block_length,
        groups=config.groups,
        metadata_path=config.metadata,
    ), config.csv)


def _grid(config: PipelineConfig) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """The run's C and m values; a single (C, m) is a one-cell grid."""
    return (config.c_grid if config.c_grid is not None else (config.n_clusters,),
            config.m_grid if config.m_grid is not None else (config.fuzziness,))


def evaluate_partition(
    memberships: np.ndarray,
    labels: Optional[Sequence[Optional[int]]],
    block_ids: Sequence[int],
    threshold: float,
    simulated: bool = False,
) -> dict:
    """The evaluation.json payload of (B, C) memberships; the protocol depends on the truth.

    Every payload holds the threshold-rule assignments.  With labels for
    every block, two-cluster memberships of simulated data (or of any
    truth with switching blocks) is scored by the 0.7-cutoff simulation
    protocol; otherwise the maximum-membership rule is scored against
    the labels.  ``labels`` is indexed by the block ids.
    """
    thr_report = assign(memberships, rule="threshold", threshold=threshold)
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
                block_ids, thr_report.assignments, memberships.max(axis=1)
            )
        ],
    }
    if labels is None:
        return payload
    truth = np.array([labels[i] for i in block_ids])
    if any(v is None for v in truth):
        return payload
    truth = truth.astype(int)
    if (simulated or SWITCHING in truth) and memberships.shape[1] == 2:
        report = simulation_accuracy(memberships, truth, threshold=threshold)
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
        hard = assign(memberships, rule="max").hard_labels(fuzzy_label=-1)
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
    names, p = dataset.channel_names, dataset.p
    clusters = [
        {
            "cluster": c,
            "x_weights": {names[i]: float(w) for i, w in enumerate(center[:p])},
            "y_weights": {names[p + i]: float(w) for i, w in enumerate(center[p:])},
        }
        for c, center in enumerate(partition.centers)
    ]
    return {
        "band": band_name,
        "pair": pair_name,
        "clusters": clusters,
        "mean_g_value": float(np.mean(feature_set.g_value)) if len(feature_set) else None,
        "best_lag_histogram": {str(l): int(n) for l, n in
                               zip(*np.unique(feature_set.best_lag, return_counts=True))},
    }


def _pair_name(pair: Optional[tuple[str, str]]) -> str:
    return "all" if pair is None else f"{pair[0]}--{pair[1]}"


def _run_job(args) -> dict:
    """One (pair's dataset, band, filter design or None, pair) job.

    Writes ``<band>__<pair>/`` and returns the job's summary row.
    """
    dataset, band_name, design, pair, config = args
    if design is not None:
        dataset = filter_dataset(dataset, design)
    feature_set = extract_features(
        dataset, max_lag=config.max_lag, dependence_fn=DEPENDENCE_FNS[config.dependence],
        skip_degenerate=config.skip_degenerate,
    )
    ids = feature_set.block_indices
    validity, partition = grid_search(feature_set.d_matrix, *_grid(config),
                                      seed=config.seed, n_restarts=config.n_restarts)
    evaluation = evaluate_partition(partition.memberships, dataset.labels, ids,
                                    config.threshold, simulated=config.sim is not None)
    pair_name = _pair_name(pair)
    job_dir = Path(config.output_dir) / f"{band_name}__{pair_name}"
    job_dir.mkdir(parents=True, exist_ok=True)
    write_features_csv(job_dir / "features.csv", feature_set, band_name)
    write_memberships_csv(job_dir / "memberships.csv", partition, ids)
    write_json(job_dir / "centers.json", centers_payload(partition))
    write_json(job_dir / "fsi_grid.json", fsi_grid_payload(validity))
    write_json(job_dir / "evaluation.json", evaluation)
    write_json(job_dir / "connectivity_summary.json", _connectivity_summary(
        partition, feature_set, dataset, band_name, pair_name))
    if config.dump_dependence:
        write_json(job_dir / "dependence.json", dependence_payload(feature_set))
    if feature_set.excluded:
        write_json(job_dir / "excluded_blocks.json", [
            {"block": b, "reason": r} for b, r in feature_set.excluded
        ])
    return {
        "band": band_name,
        "pair": pair_name,
        "dependence": config.dependence,
        "C": partition.n_clusters,
        "m": partition.fuzziness,
        "fsi": validity.fsi_value(*validity.selected),
        "rand_index": evaluation.get("rand_index"),
        "accuracy": evaluation.get("accuracy"),
        "fuzzy_series_pct": 100.0 * evaluation["fuzzy_fraction"],
        "n_blocks": len(feature_set),
        "n_excluded": len(feature_set.excluded),
    }


def run_pipeline(config: PipelineConfig) -> dict:
    """Run every (band, pair) job, then write the run summary.

    Each job writes features.csv, memberships.csv, centers.json,
    fsi_grid.json, evaluation.json and connectivity_summary.json under
    ``<output_dir>/<band>__<pair>/``.  Once every job has succeeded, a
    top-level summary.json and summary.csv hold the per-job rows (band,
    pair, RI, m, fuzzy %) in job order: band-major, pair-minor.  An
    ``output_dir`` holding a ``<x>__<y>/`` directory that is not a job
    of this run is refused before any input is read; nothing is deleted.
    Before the first job, the block count is checked against the smallest
    C and the distance budget, each band's filter is designed once and
    checked against the block length, and each pair's channels are
    selected once; the jobs of a pair share its dataset.
    """
    out_dir = Path(config.output_dir)
    pairs: list[Optional[tuple[str, str]]] = list(config.pairs) or [None]
    jobs = {f"{band}__{_pair_name(pair)}" for band in config.bands for pair in pairs}
    foreign = sorted(p for p in out_dir.glob("?*__?*") if p.is_dir() and p.name not in jobs)
    if foreign:
        raise ConfigError(f"output_dir holds {foreign[0]}, which is not a job of this run")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = load_input(config)
    check_cluster_count(dataset.n_blocks, min(_grid(config)[0]))
    check_distance_budget(dataset.n_blocks)
    designs = dict.fromkeys(config.bands)  # band name -> its filter, None for the raw series
    for name in config.bands:
        band = default_band(name, dataset.sample_rate_hz, config.band_table)
        if band is not None:
            designs[name] = design_bandpass(band, config.filter_order)
            designs[name].check_block_length(dataset.n_samples)
    selected = {pair: dataset if pair is None else
                select_regions(dataset, RegionMap(regions=config.regions), pair)
                for pair in pairs}
    units = [(selected[pair], band, designs[band], pair, config)
             for band in config.bands for pair in pairs]
    if config.jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_run_job, units))  # ordered by job key
    else:
        rows = [_run_job(u) for u in units]

    summary = {"seed": config.seed, "dependence": config.dependence, "runs": rows}
    write_json(out_dir / "summary.json", summary)
    write_rows_csv(out_dir / "summary.csv", rows)
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
    seed: int = 0,
    out_csv=None,
    sim_overrides: Optional[dict] = None,
) -> list[dict]:
    """Replicated accuracy-versus-fuzziness curves for every estimator.

    Runs ``n_reps`` independent replications of the chosen noise example
    at B = round(300 * scale) on the raw series (the study protocol
    applies no band filtering), scoring each fit with the threshold
    protocol.  Returns one row per (m, estimator), estimators in
    ``DEPENDENCE_FNS`` order (Kendall, then Pearson), with the mean and
    standard deviation of accuracy and of the pure-subset pair score.
    """
    if example not in EXAMPLE_NOISE:
        raise ConfigError(f"example must be 1, 2 or 3, got {example}")
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must lie in (0, 1], got {scale}")
    if n_reps < 1:
        raise ConfigError(f"n_reps must be >= 1, got {n_reps}")
    m_values = check_grid("m_values", m_values, check_fuzziness)

    n_blocks = max(5, round(300 * scale))
    scores: dict = {(m, est): [] for m in m_values for est in DEPENDENCE_FNS}
    for rep in range(n_reps):
        rep_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
        overrides = dict(sim_overrides or {})
        overrides.update(seed=rep_seed, n_blocks=n_blocks, noise_family=EXAMPLE_NOISE[example])
        dataset = gen_dataset(SimConfig.from_dict(overrides))
        kinds = np.array(dataset.labels, dtype=int)
        for est, dep_fn in DEPENDENCE_FNS.items():
            features = extract_features(dataset, max_lag=5, dependence_fn=dep_fn).d_matrix
            for m, part in zip(m_values, fcm_fit_batch(features, 2, m_values, seed=rep_seed)):
                if isinstance(part, NumericError):
                    raise part
                report = simulation_accuracy(part.memberships, kinds)
                sw = report.n_switching
                scores[(m, est)].append((report.accuracy, report.rand_index_pure,
                                         report.n_switching_correct / sw if sw else 0.0))

    rows = []
    for m in m_values:
        for est in DEPENDENCE_FNS:
            a, r, f = (np.array(col) for col in zip(*scores[(m, est)]))
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
        write_rows_csv(out_csv, rows)
    return rows


def simulate_to_files(sim: SimConfig, data_csv, truth_json) -> MtsDataset:
    """Generate a dataset and write the data CSV plus the truth JSON."""
    dataset = gen_dataset(sim)
    save_csv(dataset, data_csv)
    write_json(truth_json, truth_payload(sim, dataset))
    return dataset
