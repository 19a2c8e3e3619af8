import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fuzzcoh import ConfigError, PipelineConfig, reproduce_sim, run_pipeline
from fuzzcoh.cli import main
from fuzzcoh.dependence import dependence_set
from fuzzcoh.pipeline import (
    DEPENDENCE_FNS,
    load_input,
    read_features_csv,
    read_memberships_csv,
    write_json,
)

SIM_SMALL = {
    "n_blocks": 16,
    "block_length": 256,
    "proportions": [0.5, 0.5, 0.0],
}


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestPipelineConfig:
    def test_unknown_band_rejected_before_compute(self):
        with pytest.raises(ConfigError, match="unknown band"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, bands=("Omega",))

    def test_requires_one_input(self):
        with pytest.raises(ConfigError):
            PipelineConfig(seed=0, output_dir="x")
        with pytest.raises(ConfigError):
            PipelineConfig(seed=0, output_dir="x", sim={}, csv="also.csv")

    def test_missing_csv_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            PipelineConfig(seed=0, output_dir="x", csv="nope.csv")

    def test_band_table_override(self):
        cfg = PipelineConfig(
            seed=0, output_dir="x", sim=SIM_SMALL,
            bands=("Mid",), band_table={"Mid": [10.0, 20.0]},
        )
        band = cfg.resolve_band("Mid", 128.0)
        assert (band.low_hz, band.high_hz) == (10.0, 20.0)

    def test_regions_without_pairs_rejected(self):
        with pytest.raises(ConfigError, match="pairs"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL,
                           regions={"A": ["X1"], "B": ["Y1"]})


class TestRunPipeline:
    def test_artifacts_written(self, tmp_path):
        cfg = PipelineConfig(
            seed=11, output_dir=str(tmp_path / "run"), sim=SIM_SMALL,
            bands=("raw",), n_clusters=2, fuzziness=1.5, n_restarts=3,
        )
        summary = run_pipeline(cfg)
        job = tmp_path / "run" / "raw__all"
        for name in ("features.csv", "memberships.csv", "centers.json",
                     "fsi_grid.json", "evaluation.json", "connectivity_summary.json"):
            assert (job / name).exists(), name
        assert (tmp_path / "run" / "summary.json").exists()
        assert (tmp_path / "run" / "summary.csv").exists()
        evaluation = json.loads((job / "evaluation.json").read_text())
        assert "accuracy" in evaluation
        assert evaluation["protocol"] == "simulation-threshold"
        assert summary["runs"][0]["band"] == "raw"
        feats, ids = read_features_csv(job / "features.csv")
        assert feats.shape == (16, 8)
        mem, mids = read_memberships_csv(job / "memberships.csv")
        assert mem.shape == (16, 2) and mids == ids

    def test_multiple_bands_make_subdirs(self, tmp_path):
        cfg = PipelineConfig(
            seed=1, output_dir=str(tmp_path / "run"),
            sim={"n_blocks": 6, "block_length": 256, "proportions": [0.5, 0.5, 0.0]},
            bands=("Delta", "Theta", "Alpha", "Beta", "Gamma"),
            n_clusters=2, fuzziness=2.0, n_restarts=2,
        )
        run_pipeline(cfg)
        dirs = {p.name for p in (tmp_path / "run").iterdir() if p.is_dir()}
        assert dirs == {
            "Delta__all", "Theta__all", "Alpha__all", "Beta__all", "Gamma__all"
        }

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            cfg = PipelineConfig(
                seed=3, output_dir=str(tmp_path / sub), sim=SIM_SMALL,
                bands=("raw", "Beta"), n_clusters=2, fuzziness=1.8, n_restarts=2,
            )
            run_pipeline(cfg)
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_region_pair_jobs(self, tmp_path):
        cfg = PipelineConfig(
            seed=5, output_dir=str(tmp_path / "run"),
            sim={"n_blocks": 8, "block_length": 256, "proportions": [0.5, 0.5, 0.0]},
            bands=("raw",),
            regions={"front": ["X1", "X2"], "back": ["Y1", "Y2"], "mid": ["X3", "Y3"]},
            pairs=(("front", "back"), ("front", "mid")),
            n_clusters=2, fuzziness=2.0, n_restarts=2,
        )
        run_pipeline(cfg)
        dirs = {p.name for p in (tmp_path / "run").iterdir() if p.is_dir()}
        assert dirs == {"raw__front--back", "raw__front--mid"}
        conn = json.loads(
            (tmp_path / "run" / "raw__front--back" / "connectivity_summary.json").read_text()
        )
        assert set(conn["clusters"][0]["x_weights"]) == {"X1", "X2"}
        assert set(conn["clusters"][0]["y_weights"]) == {"Y1", "Y2"}

    def test_estimators_share_path_through_filtering(self):
        from fuzzcoh.bands import default_band, design_bandpass, filter_dataset
        from fuzzcoh.pipeline import load_input

        cfg_k = PipelineConfig(seed=7, output_dir="unused", sim=SIM_SMALL,
                               dependence="kendall")
        cfg_p = PipelineConfig(seed=7, output_dir="unused", sim=SIM_SMALL,
                               dependence="pearson")
        ds_k = load_input(cfg_k)
        ds_p = load_input(cfg_p)
        design = design_bandpass(default_band("Beta", 128.0))
        f_k = filter_dataset(ds_k, design)
        f_p = filter_dataset(ds_p, design)
        for a, b in zip(f_k.blocks, f_p.blocks):
            np.testing.assert_array_equal(a.data, b.data)

    def test_grid_mode(self, tmp_path):
        cfg = PipelineConfig(
            seed=2, output_dir=str(tmp_path / "run"), sim=SIM_SMALL,
            bands=("raw",), c_grid=(2, 3), m_grid=(1.5, 2.0), n_restarts=2,
        )
        run_pipeline(cfg)
        grid = json.loads((tmp_path / "run" / "raw__all" / "fsi_grid.json").read_text())
        assert len(grid["cells"]) == 4
        assert set(grid["selected"]) == {"C", "m"}

    def test_parallel_jobs_match_sequential(self, tmp_path):
        for sub, jobs in (("seq", 1), ("par", 3)):
            cfg = PipelineConfig(
                seed=9, output_dir=str(tmp_path / sub),
                sim={"n_blocks": 6, "block_length": 256, "proportions": [0.5, 0.5, 0.0]},
                bands=("raw", "Beta", "Theta"), n_clusters=2, fuzziness=2.0,
                n_restarts=2, jobs=jobs,
            )
            run_pipeline(cfg)
        assert tree_digest(tmp_path / "seq") == tree_digest(tmp_path / "par")

    def test_dependence_dump(self, tmp_path, monkeypatch):
        cfg = PipelineConfig(
            seed=4, output_dir=str(tmp_path / "run"),
            sim={"n_blocks": 3, "block_length": 128, "proportions": [0.5, 0.5, 0.0]},
            bands=("raw",), n_clusters=2, fuzziness=2.0, n_restarts=2,
            dump_dependence=True, max_lag=2,
        )
        calls = []

        def counting(block, max_lag):
            calls.append(block)
            return dependence_set(block, max_lag)

        monkeypatch.setitem(DEPENDENCE_FNS, "kendall", counting)
        run_pipeline(cfg)
        assert len(calls) == 3  # the dump reuses the feature pass, one call per block
        path = tmp_path / "run" / "raw__all" / "dependence.json"
        dump = json.loads(path.read_text())
        assert len(dump) == 3
        assert set(dump[0]["matrices"]) == {"-2", "-1", "0", "1", "2"}
        # same bytes as dumping a fresh dependence set of every block
        blocks = load_input(cfg).blocks
        write_json(tmp_path / "fresh.json",
                   [dependence_set(b, 2).to_json_dict(i) for i, b in enumerate(blocks)])
        assert path.read_bytes() == (tmp_path / "fresh.json").read_bytes()


class TestReproduceSim:
    def test_rows_and_csv(self, tmp_path):
        out = tmp_path / "curves.csv"
        rows = reproduce_sim(
            example=1, scale=0.05, n_reps=2, m_values=(1.5, 2.0),
            seed=0, out_csv=out,
        )
        assert len(rows) == 4  # 2 m-values x 2 estimators
        with open(out) as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == 4
        assert {r["estimator"] for r in table} == {"kendall", "pearson"}
        for r in table:
            assert 0.0 <= float(r["mean_accuracy"]) <= 1.0

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            reproduce_sim(example=4, scale=0.1, n_reps=1)
        with pytest.raises(ConfigError):
            reproduce_sim(example=1, scale=0.0, n_reps=1)


class TestCli:
    def test_simulate_features_cluster_validate_evaluate_chain(self, tmp_path):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        rc = main([
            "simulate", "--seed", "4", "--blocks", "14", "--block-length", "256",
            "--out-data", str(data), "--out-truth", str(truth),
        ])
        assert rc == 0

        feats = tmp_path / "features.csv"
        rc = main([
            "features", "--input", str(data), "--sample-rate", "128",
            "--block-length", "256", "--groups", "4", "4",
            "--output", str(feats),
        ])
        assert rc == 0

        mem = tmp_path / "memberships.csv"
        centers = tmp_path / "centers.json"
        rc = main([
            "cluster", "--features", str(feats), "--clusters", "2",
            "--fuzziness", "1.5", "--seed", "0",
            "--out-memberships", str(mem), "--out-centers", str(centers),
        ])
        assert rc == 0

        grid = tmp_path / "fsi.json"
        rc = main([
            "validate", "--features", str(feats), "--c-grid", "2", "3",
            "--m-grid", "1.5", "2.0", "--seed", "0", "--restarts", "2",
            "--output", str(grid),
        ])
        assert rc == 0
        assert json.loads(grid.read_text())["selected"]["C"] in (2, 3)

        ev = tmp_path / "evaluation.json"
        rc = main([
            "evaluate", "--memberships", str(mem), "--truth", str(truth),
            "--output", str(ev),
        ])
        assert rc == 0
        payload = json.loads(ev.read_text())
        assert "rand_index" in payload

    def test_pipeline_subcommand_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 6,
            "output_dir": str(tmp_path / "out"),
            "sim": SIM_SMALL,
            "bands": ["raw"],
            "fuzziness": 1.5,
            "n_restarts": 2,
        }))
        rc = main(["pipeline", "--config", str(cfg_path), "--dependence", "pearson"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["dependence"] == "pearson"

    def test_filter_roundtrip(self, tmp_path):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        main(["simulate", "--seed", "1", "--blocks", "4", "--block-length", "256",
              "--out-data", str(data), "--out-truth", str(truth)])
        out = tmp_path / "beta.csv"
        rc = main([
            "filter", "--input", str(data), "--sample-rate", "128",
            "--block-length", "256", "--groups", "4", "4",
            "--band", "Beta", "--output", str(out),
        ])
        assert rc == 0 and out.exists()

    def test_reproduce_sim_subcommand(self, tmp_path):
        out = tmp_path / "curves.csv"
        rc = main([
            "reproduce-sim", "--example", "1", "--scale", "0.02", "--reps", "1",
            "--m-grid", "1.5", "--seed", "0", "--output", str(out),
        ])
        assert rc == 0
        with open(out) as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == 2  # one m-value, two estimators

    def test_config_error_exit_code(self, tmp_path):
        rc = main(["pipeline", "--config", str(tmp_path / "missing.json")])
        assert rc == 2

    def test_numeric_error_exit_code(self, tmp_path):
        # a flatlined channel aborts feature extraction without --skip-degenerate
        data = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        table = rng.standard_normal((64, 4))
        table[:, 1] = 7.0
        header = "a,b,c,d"
        np.savetxt(data, table, delimiter=",", header=header, comments="", fmt="%.6f")
        rc = main([
            "features", "--input", str(data), "--sample-rate", "128",
            "--block-length", "32", "--groups", "2", "2",
            "--output", str(tmp_path / "f.csv"),
        ])
        assert rc == 3

    def test_skip_degenerate_flag(self, tmp_path):
        data = tmp_path / "flat.csv"
        rng = np.random.default_rng(0)
        table = rng.standard_normal((96, 4))
        table[:32, 1] = 7.0  # only the first block is degenerate
        np.savetxt(data, table, delimiter=",", header="a,b,c,d", comments="", fmt="%.6f")
        out = tmp_path / "f.csv"
        rc = main([
            "features", "--input", str(data), "--sample-rate", "128",
            "--block-length", "32", "--groups", "2", "2", "--skip-degenerate",
            "--output", str(out),
        ])
        assert rc == 0
        feats, ids = read_features_csv(out)
        assert ids == [1, 2]
