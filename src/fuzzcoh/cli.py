"""Command-line front end.

Exit codes: 0 on success, 2 for configuration or input-validation
errors, 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bands import RAW_BAND, default_band, design_bandpass, filter_dataset
from .canonical import extract_features
from .clustering import DEFAULT_C_GRID, DEFAULT_M_GRID, FuzzyPartition, fcm_fit, grid_search
from .exceptions import ConfigError, DataError, NumericError
from .mts import check_labels, load_csv, read_json, save_csv, write_json
from .pipeline import (
    DEPENDENCE_FNS,
    PipelineConfig,
    centers_payload,
    evaluate_partition,
    fsi_grid_payload,
    read_features_csv,
    read_memberships_csv,
    reproduce_sim,
    require_blocks,
    run_pipeline,
    simulate_to_files,
    write_features_csv,
    write_memberships_csv,
)
from .simulate import SimConfig


def _add_io_csv(parser):
    parser.add_argument("--input", required=True, help="input data CSV")
    parser.add_argument("--metadata", help="JSON sidecar with block_length/labels/sample_rate_hz")
    parser.add_argument("--sample-rate", type=float, help="sampling rate in Hz")
    parser.add_argument("--block-length", type=int, help="samples per block")
    parser.add_argument("--groups", type=int, nargs=2, metavar=("P", "Q"),
                        help="channel split: first P columns are X, next Q are Y")


def _load_dataset(args):
    return load_csv(
        args.input,
        sample_rate_hz=args.sample_rate,
        block_length=args.block_length,
        groups=tuple(args.groups) if args.groups else None,
        metadata_path=args.metadata,
    )


def _cmd_simulate(args) -> int:
    if args.config:
        sim = SimConfig.from_dict(read_json(args.config, "simulation config"))
    else:
        sim = SimConfig(
            seed=args.seed,
            n_blocks=args.blocks,
            block_length=args.block_length,
            noise_family=args.noise,
        )
    dataset = simulate_to_files(sim, args.out_data, args.out_truth)
    print(f"wrote {dataset.n_blocks} blocks x {dataset.blocks[0].n_samples} samples "
          f"to {args.out_data}; truth in {args.out_truth}")
    return 0


def _cmd_filter(args) -> int:
    dataset = _load_dataset(args)
    band = default_band(args.band, dataset.sample_rate_hz)
    if band is None:
        raise ConfigError(f"filter needs a named band, got {args.band!r}")
    design = design_bandpass(band, order=args.order)
    filtered = filter_dataset(dataset, design)
    save_csv(filtered, args.output)
    print(f"filtered {dataset.n_blocks} blocks to {band.name} "
          f"[{band.low_hz}, {band.high_hz}) Hz -> {args.output}")
    return 0


def _cmd_features(args) -> int:
    dataset = require_blocks(_load_dataset(args), args.input)
    band = default_band(args.band, dataset.sample_rate_hz)
    if band is not None:
        dataset = filter_dataset(dataset, design_bandpass(band, order=args.order))
    fs = extract_features(
        dataset, max_lag=args.max_lag,
        dependence_fn=DEPENDENCE_FNS[args.dependence],
        skip_degenerate=args.skip_degenerate,
    )
    write_features_csv(args.output, fs, args.band)
    msg = f"wrote {len(fs)} feature rows to {args.output}"
    if fs.excluded:
        msg += f" ({len(fs.excluded)} blocks excluded)"
    print(msg)
    return 0


def _cmd_cluster(args) -> int:
    features, ids = read_features_csv(args.features)
    part = fcm_fit(features, args.clusters, args.fuzziness,
                   seed=args.seed, n_restarts=args.restarts)
    write_memberships_csv(args.out_memberships, part, ids)
    write_json(args.out_centers, centers_payload(part))
    print(f"C={part.n_clusters} m={part.fuzziness} objective={part.objective:.6g} "
          f"converged={part.converged}")
    return 0


def _cmd_validate(args) -> int:
    features, _ = read_features_csv(args.features)
    report, part = grid_search(
        features,
        c_values=args.c_grid or DEFAULT_C_GRID,
        m_values=args.m_grid or DEFAULT_M_GRID,
        seed=args.seed, n_restarts=args.restarts,
    )
    write_json(args.output, fsi_grid_payload(report))
    print(f"selected C={report.selected[0]}, m={report.selected[1]} -> {args.output}")
    return 0


def _read_truth(path, block_ids) -> tuple[list, bool]:
    """Labels indexed by block id, and whether they are simulation kinds.

    A truth object from `simulate` (a 'kinds' list) is simulated; a bare
    label list is a recording.
    """
    truth = read_json(path, "truth file")
    simulated = isinstance(truth, dict)
    labels = truth.get("kinds") if simulated else truth
    if not isinstance(labels, list):
        raise ConfigError(f"{path}: truth must be a label list or an object with a 'kinds' list")
    if len(labels) <= max(block_ids):
        raise ConfigError(f"{path}: {len(labels)} labels, but memberships name block "
                          f"{max(block_ids)}")
    return check_labels(labels, path), simulated


def _cmd_evaluate(args) -> int:
    memberships, ids = read_memberships_csv(args.memberships)
    part = FuzzyPartition(
        memberships=memberships,
        centers=np.zeros((memberships.shape[1], 1)),
        fuzziness=2.0,
        objective_trace=(0.0,),
        iterations=0, converged=True, seed=0,
    )
    labels, simulated = _read_truth(args.truth, ids)
    payload = evaluate_partition(part, labels, ids, args.threshold, simulated=simulated)
    write_json(args.output, payload)
    print(json.dumps({k: v for k, v in payload.items() if k != "per_block"}, sort_keys=True))
    return 0


def _cmd_pipeline(args) -> int:
    config = PipelineConfig.from_file(args.config)
    overrides = {}
    if args.band:
        overrides["bands"] = tuple(args.band)
    if args.pair:
        overrides["pairs"] = tuple(tuple(p.split("--", 1)) for p in args.pair)
    if args.dependence:
        overrides["dependence"] = args.dependence
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.skip_degenerate:
        overrides["skip_degenerate"] = True
    if args.output_dir:
        overrides["output_dir"] = args.output_dir
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    summary = run_pipeline(config)
    for row in summary["runs"]:
        print(f"{row['band']:>8} {row['pair']:>16}  C={row['C']} m={row['m']} "
              f"RI={row['rand_index']} acc={row['accuracy']} "
              f"fuzzy%={row['fuzzy_series_pct']:.2f}")
    return 0


def _cmd_reproduce_sim(args) -> int:
    rows = reproduce_sim(
        example=args.example, scale=args.scale, n_reps=args.reps,
        m_values=args.m_grid or DEFAULT_M_GRID, seed=args.seed,
        out_csv=args.output,
    )
    for row in rows:
        print(f"m={row['m']:<4} {row['estimator']:<8} "
              f"acc={row['mean_accuracy']:.3f}+-{row['sd_accuracy']:.3f} "
              f"RI={row['mean_rand_index']:.3f}")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzcoh",
        description="Frequency-band fuzzy clustering of multivariate time series "
                    "via rank-based canonical coherence features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=300)
    p.add_argument("--block-length", type=int, default=384)
    p.add_argument("--noise", choices=["normal", "student_t3", "student_t1"],
                   default="normal")
    p.add_argument("--out-data", required=True)
    p.add_argument("--out-truth", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("filter", help="band-pass a dataset CSV")
    _add_io_csv(p)
    p.add_argument("--band", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("features", help="extract per-block canonical features")
    _add_io_csv(p)
    p.add_argument("--band", default=RAW_BAND, help="band name or 'raw' (default raw)")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--max-lag", type=int, default=5)
    p.add_argument("--dependence", choices=sorted(DEPENDENCE_FNS), default="kendall")
    p.add_argument("--skip-degenerate", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("cluster", help="fuzzy C-means on a features CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--fuzziness", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--out-memberships", required=True)
    p.add_argument("--out-centers", required=True)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("validate", help="validity-index grid search over (C, m)")
    p.add_argument("--features", required=True)
    p.add_argument("--c-grid", type=int, nargs="+")
    p.add_argument("--m-grid", type=float, nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("evaluate", help="score memberships against truth")
    p.add_argument("--memberships", required=True)
    p.add_argument("--truth", required=True,
                   help="truth JSON from `simulate` (a 'kinds' list) or a bare label list")
    p.add_argument("--threshold", type=float, default=0.7)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--band", action="append", help="override: band name (repeatable)")
    p.add_argument("--pair", action="append",
                   help="override: region pair as 'A--B' (repeatable)")
    p.add_argument("--dependence", choices=sorted(DEPENDENCE_FNS))
    p.add_argument("--threshold", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--skip-degenerate", action="store_true")
    p.add_argument("--output-dir")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("reproduce-sim", help="replicated simulation-study curves")
    p.add_argument("--example", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="block-count scale factor in (0, 1]")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--m-grid", type=float, nargs="+")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_reproduce_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
