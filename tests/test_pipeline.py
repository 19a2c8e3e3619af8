import csv
import json
import re

import numpy as np
import pytest
from conftest import tree_digest

from fuzzcoh import ConfigError, PipelineConfig, reproduce_sim, run_pipeline
from fuzzcoh.bands import default_band
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
        band = default_band("Mid", 128.0, cfg.band_table)
        assert (band.low_hz, band.high_hz) == (10.0, 20.0)

    def test_regions_without_pairs_rejected(self):
        with pytest.raises(ConfigError, match="pairs"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL,
                           regions={"A": ["X1"], "B": ["Y1"]})

    def test_pairs_without_regions_rejected(self):
        with pytest.raises(ConfigError, match="regions"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, pairs=[["A", "B"]])

    def test_pair_with_unknown_region_rejected(self):
        with pytest.raises(ConfigError, match="unknown region"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL,
                           regions={"A": ["X1"], "B": ["Y1"]}, pairs=[["A", "Z"]])

    def test_null_n_clusters_needs_c_grid(self):
        with pytest.raises(ConfigError, match="n_clusters is null"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, n_clusters=None,
                           m_grid=(1.5, 2.0))
        PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, n_clusters=None, c_grid=(2, 3))

    def test_null_fuzziness_needs_m_grid(self):
        with pytest.raises(ConfigError, match="fuzziness is null"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, fuzziness=None,
                           c_grid=(2, 3))
        PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, fuzziness=None, m_grid=(1.5,))

    @pytest.mark.parametrize("key, values, match", [
        ("bands", ("raw", "Beta", "raw"), "bands lists 'raw' more than once"),
        ("pairs", (("A", "B"), ("B", "A"), ("A", "B")), "pairs lists ('A', 'B') more than once"),
    ])
    def test_repeated_band_or_pair_rejected(self, key, values, match):
        regions = {"A": ["X1"], "B": ["Y1"]}
        with pytest.raises(ConfigError, match=re.escape(match)):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, regions=regions,
                           **{"pairs": [("A", "B")], key: values})

    def test_threshold_checked_against_largest_c(self):
        with pytest.raises(ConfigError, match=r"threshold must lie in \(1/C, 1\)"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, threshold=0.4)
        with pytest.raises(ConfigError, match="threshold"):
            PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, threshold=1.0)
        # a C = 3 cell of the grid accepts 0.4
        PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL, threshold=0.4, c_grid=(2, 3))


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


    def test_one_block_csv_fails_before_dependence(self, tmp_path, monkeypatch):
        data = tmp_path / "rec.csv"
        rng = np.random.default_rng(0)
        np.savetxt(data, rng.standard_normal((256, 4)), delimiter=",", header="a,b,c,d",
                   comments="", fmt="%.6f")
        cfg = PipelineConfig(seed=0, output_dir=str(tmp_path / "run"), csv=str(data),
                             sample_rate_hz=128.0, groups=(2, 2))
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        with pytest.raises(ConfigError, match=r"1 block.*block_length"):
            run_pipeline(cfg)
        assert calls == []

    def test_failed_job_leaves_no_summary(self, tmp_path, monkeypatch):
        from fuzzcoh import NumericError, pipeline

        def failing(dataset, design):
            raise NumericError("filter failed")

        monkeypatch.setattr(pipeline, "filter_dataset", failing)
        cfg = PipelineConfig(seed=1, output_dir=str(tmp_path / "run"), sim=SIM_SMALL,
                             bands=("raw", "Beta"), n_restarts=2)
        with pytest.raises(NumericError, match="filter failed"):
            run_pipeline(cfg)
        # the raw job finished and wrote its directory; the summary needs every job
        assert {p.name for p in (tmp_path / "run").iterdir()} == {"raw__all"}


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

    @pytest.mark.parametrize("regions, pair", [
        (None, "A--B"),                       # pairs without regions
        ({"A": ["X1"], "B": ["Y1"]}, "AB"),   # no '--' separator
    ])
    def test_bad_pair_override_exit_code(self, tmp_path, regions, pair):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                        "sim": SIM_SMALL, "regions": regions,
                                        "pairs": [["A", "B"]] if regions else []}))
        rc = main(["pipeline", "--config", str(cfg_path), "--pair", pair])
        assert rc == 2
        assert not (tmp_path / "out").exists()

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


def write_file(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def assert_one_error_line(capsys, match):
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:"), err
    assert match in err, err


class TestCliInputErrors:
    """Malformed inputs end in exit code 2 and one `error:` line."""

    def test_null_cluster_setting_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                   "sim": SIM_SMALL, "n_clusters": None}))
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert_one_error_line(capsys, "n_clusters is null")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, match", [
        ("block_id,e_1,e_2\n0,0.9,0.1\n1,oops,0.5\n", "non-numeric cell at row 2, column 1"),
        ("block_id,e_1,e_2\n0,0.9,0.1\n1.5,0.2,0.8\n", "bad block id at row 2, column 0"),
        ("block_id,e_1,e_2\n-1,0.9,0.1\n1,0.2,0.8\n", "bad block id at row 1, column 0"),
        ("block_id,e_1,e_2\n0,0.9,0.1\n1,inf,0.8\n", "non-finite value at row 2, column 1"),
        ("block_id,e_1,e_2\n", "no data rows"),
    ])
    def test_malformed_memberships(self, tmp_path, capsys, body, match):
        truth = tmp_path / "truth.json"
        truth.write_text("[0, 1]")
        rc = main(["evaluate", "--memberships", write_file(tmp_path / "m.csv", body),
                   "--truth", str(truth), "--output", str(tmp_path / "ev.json")])
        assert rc == 2
        assert_one_error_line(capsys, match)

    @pytest.mark.parametrize("command", ["cluster", "validate"])
    def test_ragged_features(self, tmp_path, capsys, command):
        body = ("block_id,band,best_lag,g_value,d_1,d_2\n0,raw,1,0.5,0.1,0.2\n"
                "1,raw,1,0.5,0.3\n")
        out = ["--out-memberships", str(tmp_path / "m.csv"), "--out-centers",
               str(tmp_path / "c.json")] if command == "cluster" else [
               "--output", str(tmp_path / "g.json")]
        rc = main([command, "--features", write_file(tmp_path / "f.csv", body), *out])
        assert rc == 2
        assert_one_error_line(capsys, "row 2: expected 6 cells, got 5")

    @pytest.mark.parametrize("truth, match", [
        ({"labels": [0, 1, 0]}, "'kinds' list"),
        ("labels", "'kinds' list"),
        ([0, 1], "2 labels, but memberships name block 2"),
        ([0, 1, 0.5], "integers or null, got 0.5"),
    ])
    def test_malformed_truth(self, tmp_path, capsys, truth, match):
        mem = write_file(tmp_path / "m.csv",
                         "block_id,e_1,e_2\n0,0.9,0.1\n1,0.2,0.8\n2,0.95,0.05\n")
        (tmp_path / "truth.json").write_text(json.dumps(truth))
        rc = main(["evaluate", "--memberships", mem, "--truth", str(tmp_path / "truth.json"),
                   "--output", str(tmp_path / "ev.json")])
        assert rc == 2
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "ev.json").exists()

    def test_one_block_features_fail_before_dependence(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "rec.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((256, 4)), delimiter=",",
                   header="a,b,c,d", comments="", fmt="%.6f")
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        rc = main(["features", "--input", str(data), "--sample-rate", "128",
                   "--groups", "2", "2", "--output", str(tmp_path / "f.csv")])
        assert rc == 2 and calls == []
        assert_one_error_line(capsys, "gives 1 block of 256 samples")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("setting, match", [
        ({"n_restarts": 0}, "n_restarts must be >= 1, got 0"),
        ({"threshold": 1.5}, "threshold must lie in (1/C, 1) = (0.500, 1)"),
        ({"bands": ["raw", "raw"]}, "bands lists 'raw' more than once"),
        ({"max_lag": -1}, "max_lag must lie in [0, 248]"),
        ({"max_lag": 250}, "keep at least 8 aligned samples, got 250"),
    ])
    def test_pipeline_setting_fails_before_dependence(self, tmp_path, capsys, monkeypatch,
                                                      setting, match):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                   "sim": SIM_SMALL, **setting}))
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert calls == []
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("command", ["cluster", "validate"])
    def test_zero_restarts(self, tmp_path, capsys, command):
        body = "block_id,band,best_lag,g_value,d_1,d_2\n" + "".join(
            f"{i},raw,0,0.5,{i % 2}.{i},0.{i}\n" for i in range(6))
        out = ["--out-memberships", str(tmp_path / "m.csv"), "--out-centers",
               str(tmp_path / "c.json")] if command == "cluster" else [
               "--output", str(tmp_path / "g.json")]
        rc = main([command, "--features", write_file(tmp_path / "f.csv", body),
                   "--restarts", "0", *out])
        assert rc == 2
        assert_one_error_line(capsys, "n_restarts must be >= 1, got 0")

    @pytest.mark.parametrize("max_lag, match", [
        ("-1", "max_lag must lie in [0, 24]"),
        ("25", "32-sample blocks keep at least 8 aligned samples, got 25"),
    ])
    def test_features_max_lag_fails_before_dependence(self, tmp_path, capsys, monkeypatch,
                                                      max_lag, match):
        data = tmp_path / "rec.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((96, 4)), delimiter=",",
                   header="a,b,c,d", comments="", fmt="%.6f")
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        rc = main(["features", "--input", str(data), "--sample-rate", "128",
                   "--block-length", "32", "--groups", "2", "2", "--max-lag", max_lag,
                   "--output", str(tmp_path / "f.csv")])
        assert rc == 2 and calls == []
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("labels, match", [
        ([0, 1.5, 1, 2], "labels must be integers or null, got 1.5"),
        ("abcd", "labels must be a list, got 'abcd'"),
        ([0, True, 1, 2], "labels must be integers or null, got True"),
    ])
    def test_malformed_sidecar_labels(self, tmp_path, capsys, labels, match):
        data, meta = self.recording(tmp_path, labels)
        rc = main(["filter", "--input", data, "--metadata", meta, "--groups", "2", "2",
                   "--band", "Beta", "--output", str(tmp_path / "beta.csv")])
        assert rc == 2
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "beta.csv").exists()

    def test_null_sidecar_label_is_unlabelled_block(self, tmp_path):
        from fuzzcoh import load_csv

        data, meta = self.recording(tmp_path, [0, None, 1, 2])
        rc = main(["filter", "--input", data, "--metadata", meta, "--groups", "2", "2",
                   "--band", "Beta", "--output", str(tmp_path / "beta.csv")])
        assert rc == 0 and (tmp_path / "beta.csv").exists()
        assert load_csv(data, groups=(2, 2), metadata_path=meta).labels == (0, None, 1, 2)

    @staticmethod
    def recording(tmp_path, labels):
        data = tmp_path / "rec.csv"
        np.savetxt(data, np.random.default_rng(0).standard_normal((4 * 64, 4)), delimiter=",",
                   header="a,b,c,d", comments="", fmt="%.6f")
        meta = {"block_length": 64, "sample_rate_hz": 128.0, "labels": labels}
        return str(data), write_file(tmp_path / "rec.json", json.dumps(meta))


class TestCrossEntryPoint:
    """The CLI chain writes the same bytes as a pipeline job, file for file."""

    @staticmethod
    def cli_chain(tmp_path, io_args, truth, seed, grid):
        out = tmp_path / "cli"
        out.mkdir()
        assert main(["features", *io_args, "--output", str(out / "features.csv")]) == 0
        assert main([
            "cluster", "--features", str(out / "features.csv"), "--clusters", "2",
            "--fuzziness", "1.5", "--seed", str(seed), "--restarts", "2",
            "--out-memberships", str(out / "memberships.csv"),
            "--out-centers", str(out / "centers.json"),
        ]) == 0
        if grid:
            assert main([
                "validate", "--features", str(out / "features.csv"), "--c-grid", "2", "3",
                "--m-grid", "1.5", "2.0", "--seed", str(seed), "--restarts", "2",
                "--output", str(out / "fsi_grid.json"),
            ]) == 0
        assert main([
            "evaluate", "--memberships", str(out / "memberships.csv"), "--truth", str(truth),
            "--output", str(out / "evaluation.json"),
        ]) == 0
        return out

    @pytest.mark.parametrize("proportions", [[0.4, 0.4, 0.2], [0.5, 0.5, 0.0]])
    def test_simulated_truth(self, tmp_path, proportions):
        sim = {"seed": 12, "n_blocks": 18, "block_length": 256, "proportions": proportions}
        common = dict(seed=3, sim=sim, bands=("raw",), n_restarts=2)
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "fit"), n_clusters=2,
                                    fuzziness=1.5, **common))
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "grid"), c_grid=(2, 3),
                                    m_grid=(1.5, 2.0), **common))
        (tmp_path / "sim.json").write_text(json.dumps(sim))
        data, truth = tmp_path / "data.csv", tmp_path / "truth.json"
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-data", str(data), "--out-truth", str(truth)]) == 0
        out = self.cli_chain(
            tmp_path, ["--input", str(data), "--sample-rate", "128", "--block-length", "256",
                       "--groups", "4", "4"], truth, seed=3, grid=True)
        fit, grid = tmp_path / "fit" / "raw__all", tmp_path / "grid" / "raw__all"
        for name, job in (("features.csv", fit), ("memberships.csv", fit),
                          ("centers.json", fit), ("fsi_grid.json", grid),
                          ("evaluation.json", fit)):
            assert (out / name).read_bytes() == (job / name).read_bytes(), name
        evaluation = json.loads((out / "evaluation.json").read_text())
        assert evaluation["protocol"] == "simulation-threshold"
        assert evaluation["accuracy"] is not None

    def test_bare_label_list_against_csv_run(self, tmp_path):
        from fuzzcoh import SimConfig, gen_dataset, save_csv

        data, meta = tmp_path / "rec.csv", tmp_path / "rec.json"
        dataset = gen_dataset(SimConfig(seed=8, n_blocks=16, block_length=256,
                                        proportions=(0.5, 0.5, 0.0)))
        save_csv(dataset, data, meta)
        run_pipeline(PipelineConfig(
            seed=5, output_dir=str(tmp_path / "run"), csv=str(data), metadata=str(meta),
            groups=(4, 4), n_clusters=2, fuzziness=1.5, n_restarts=2,
        ))
        truth = tmp_path / "labels.json"
        truth.write_text(json.dumps(json.loads(meta.read_text())["labels"]))
        out = self.cli_chain(tmp_path, ["--input", str(data), "--metadata", str(meta),
                                        "--groups", "4", "4"], truth, seed=5, grid=False)
        job = tmp_path / "run" / "raw__all"
        for name in ("features.csv", "memberships.csv", "centers.json", "evaluation.json"):
            assert (out / name).read_bytes() == (job / name).read_bytes(), name
        assert json.loads((out / "evaluation.json").read_text())["protocol"] == "max-membership"
