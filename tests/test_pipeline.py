import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import contracted_set, lag_matrix, tree_digest

from fuzzcoh import (ConfigError, MtsDataset, PipelineConfig, clustering, fcm_fit, pipeline,
                     reproduce_sim, run_pipeline, save_csv)
from fuzzcoh.bands import default_band
from fuzzcoh.cli import main
from fuzzcoh.dependence import sine_tau_matrices
from fuzzcoh.pipeline import (
    DEPENDENCE_FNS,
    evaluate_partition,
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

    @pytest.mark.parametrize("setting, match", [
        ({"metadata": "absent.json"}, "metadata file not found: "),
        ({"bands": []}, "at least one band required"),
        ({"groups": None}, "CSV input needs groups=(p, q) or regions with pairs"),
    ])
    def test_csv_config_checked_when_built(self, tmp_path, setting, match):
        # each check fires before any input is read: the body's bad cell is never parsed
        data = write_file(tmp_path / "rec.csv", "a,b\n1,x\n")
        if "metadata" in setting:
            setting = {"metadata": str(tmp_path / setting["metadata"])}
        raw = {"seed": 0, "output_dir": str(tmp_path / "out"), "csv": data, "groups": [1, 1],
               **setting}
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}"):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("groups", [[2, 0], [0, 2], [-1, 3]])
    def test_groups_with_an_empty_side_refused_when_built(self, tmp_path, groups):
        data = write_file(tmp_path / "rec.csv", "a,b\n1,x\n")
        match = f"groups ({groups[0]},{groups[1]}) need at least one channel on each side"
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            PipelineConfig.from_dict({"seed": 0, "output_dir": str(tmp_path / "out"),
                                      "csv": data, "groups": groups})

    @pytest.mark.parametrize("setting, key", [
        ({"metadata": "rec.json"}, "metadata"),
        ({"sample_rate_hz": 3.0}, "sample_rate_hz"),
        ({"block_length": 17}, "block_length"),
        ({"groups": [2, 6]}, "groups"),
        ({"groups": [2, 6], "block_length": 17, "sample_rate_hz": 3.0}, "sample_rate_hz"),
    ])
    def test_sim_refuses_csv_keys(self, tmp_path, setting, key):
        if "metadata" in setting:  # an existing sidecar is refused too
            setting = {"metadata": write_file(tmp_path / setting["metadata"], "{}")}
        with pytest.raises(ConfigError, match=f"^{key} applies to CSV input only, not to 'sim'$"):
            PipelineConfig.from_dict({"seed": 1, "output_dir": "o", "sim": {"n_blocks": 8},
                                      **setting})

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


    @pytest.mark.parametrize("setting, match", [
        ({"seed": "7"}, "seed must be int, got '7'"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"skip_degenerate": "no"}, "skip_degenerate must be bool, got 'no'"),
        ({"jobs": 1.5}, "jobs must be int, got 1.5"),
        ({"jobs": True}, "jobs must be int, got True"),
        ({"c_grid": "23"}, "c_grid must be a list, got '23'"),
        ({"c_grid": [2, 3.0]}, "c_grid[1] must be int, got 3.0"),
        ({"max_lag": 2.5}, "max_lag must be int, got 2.5"),
        ({"n_clusters": 2.5}, "n_clusters must be int, got 2.5"),
        ({"n_restarts": 2.0}, "n_restarts must be int, got 2.0"),
        ({"sim": {**SIM_SMALL, "n_blocks": 12.5}}, "n_blocks must be int, got 12.5"),
        ({"sim": {**SIM_SMALL, "seed": -1}}, "seed must be >= 0, got -1"),
        ({"fuzziness": "2"}, "fuzziness must be float, got '2'"),
        ({"output_dir": 5}, "output_dir must be str, got 5"),
        ({"sim": [1, 2]}, "sim must be dict, got [1, 2]"),
        ({"m_grid": "1.5"}, "m_grid must be a list, got '1.5'"),
        ({"filter_order": 2.5}, "filter_order must be int, got 2.5"),
        ({"bands": "Beta"}, "bands must be a list, got 'Beta'"),
        ({"groups": [4]}, "groups must be a list of 2 entries, got [4]"),
        ({"regions": {"A": ["X1"], "B": ["Y1"]}, "pairs": [["A"]]},
         "pairs[0] must be a list of 2 entries, got ['A']"),
        ({"regions": {"A": "X1", "B": ["Y1"]}, "pairs": [["A", "B"]]},
         "regions['A'] must be a list, got 'X1'"),
        ({"bands": ["Beta"], "band_table": {"Beta": "ab"}},
         "band_table['Beta'] must be a list of 2 entries, got 'ab'"),
        ({"bands": ["Beta"], "band_table": {"Beta": [12, "30"]}},
         "band_table['Beta'][1] must be float, got '30'"),
    ])
    def test_wrong_type_rejected_when_built(self, tmp_path, setting, match):
        raw = {"seed": 0, "output_dir": str(tmp_path / "out"), "sim": SIM_SMALL, **setting}
        with pytest.raises(ConfigError, match=re.escape(match)):
            PipelineConfig(**raw)
        with pytest.raises(ConfigError, match=re.escape(match)):
            PipelineConfig.from_dict(raw)
        assert not (tmp_path / "out").exists()

    def test_fields_normalised(self, tmp_path):
        cfg = PipelineConfig.from_dict({
            "seed": np.int64(3), "output_dir": "x", "sim": SIM_SMALL, "bands": ["raw"],
            "c_grid": [np.int64(2), 3], "m_grid": [2, 1.5], "fuzziness": 2,
            "regions": {"A": ["X1"], "B": ["Y1"]}, "pairs": [["A", "B"]],
        })
        assert (cfg.bands, cfg.pairs) == (("raw",), (("A", "B"),))
        data = write_file(tmp_path / "rec.csv", "a,b\n1,2\n")
        csv_cfg = PipelineConfig.from_dict({"seed": 3, "output_dir": "x", "csv": data,
                                            "groups": [np.int64(1), 1]})
        assert csv_cfg.groups == (1, 1) and [type(g) for g in csv_cfg.groups] == [int, int]
        assert [type(c) for c in cfg.c_grid] == [int, int]
        assert [type(m) for m in cfg.m_grid] == [float, float] and cfg.m_grid == (2.0, 1.5)
        assert cfg.regions == {"A": ("X1",), "B": ("Y1",)}
        assert type(cfg.fuzziness) is int  # scalars are stored as given

    def test_replaced_seed_reseeds_the_simulation(self):
        cfg = PipelineConfig(seed=0, output_dir="x", sim=SIM_SMALL)
        first, second = load_input(cfg), load_input(replace(cfg, seed=9))
        assert not np.array_equal(first.blocks[0].data, second.blocks[0].data)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            replace(cfg, seed=-1)


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

    @pytest.mark.parametrize("dependence", ["kendall", "pearson"])
    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_channel_scaled_by_a_power_of_two(self, tmp_path, dependence, k):
        # scaling a channel by 2**k is exact in binary floating point, and the ranks, the
        # filter and both estimators are scale-free, so no artifact may change a bit
        from fuzzcoh import SimConfig, gen_dataset

        dataset = gen_dataset(SimConfig.from_dict({"seed": 2, **SIM_SMALL}))
        scaled = dataset.data.copy()
        scaled[:, :, 2] = np.ldexp(scaled[:, :, 2], k)
        for name, data in (("one", dataset.data), ("scaled", scaled)):
            save_csv(replace(dataset, data=data), tmp_path / f"{name}.csv")
            run_pipeline(PipelineConfig(
                seed=1, output_dir=str(tmp_path / name), csv=str(tmp_path / f"{name}.csv"),
                sample_rate_hz=128.0, block_length=256, groups=(4, 4), bands=("raw", "Beta"),
                dependence=dependence, n_restarts=2))
        assert tree_digest(tmp_path / "scaled") == tree_digest(tmp_path / "one")

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

    def test_csv_region_pairs_match_sim_run(self, tmp_path):
        # without groups, a CSV run has no X/Y split until each pair chooses one:
        # the jobs match those of the same data simulated in the run
        from fuzzcoh import SimConfig, gen_dataset, save_csv

        sim = {"seed": 5, "n_blocks": 8, "block_length": 256, "proportions": [0.5, 0.5, 0.0]}
        common = dict(seed=5, n_clusters=2, fuzziness=2.0, n_restarts=2, pairs=(
            ("front", "back"), ("front", "mid")), regions={
            "front": ["X1", "X2"], "back": ["Y1", "Y2"], "mid": ["X3", "Y3"]})
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "sim"), sim=sim, **common))
        save_csv(gen_dataset(SimConfig.from_dict(sim)), tmp_path / "rec.csv")
        run_pipeline(PipelineConfig(output_dir=str(tmp_path / "csv"), csv=str(tmp_path / "rec.csv"),
                                    sample_rate_hz=128.0, block_length=256, jobs=2, **common))
        for job in ("raw__front--back", "raw__front--mid"):
            for name in ("features.csv", "memberships.csv", "centers.json", "fsi_grid.json",
                         "connectivity_summary.json"):
                sim_bytes = (tmp_path / "sim" / job / name).read_bytes()
                assert (tmp_path / "csv" / job / name).read_bytes() == sim_bytes, (job, name)

    def test_two_pair_run_peak_under_three_times_the_data(self, tmp_path):
        # jobs 1, so every stage runs in this process: the recording, then the two
        # pairs' datasets without it, then a Beta job's filter (3.1x its pair's
        # data) set the peak, 2.6x the recording
        from fuzzcoh import SimConfig, gen_dataset

        recording = gen_dataset(SimConfig(seed=3, n_blocks=60, block_length=384))
        save_csv(recording, tmp_path / "rec.csv")
        cfg = PipelineConfig(
            seed=1, output_dir=str(tmp_path / "run"), csv=str(tmp_path / "rec.csv"),
            sample_rate_hz=128.0, block_length=384, bands=("raw", "Beta"),
            regions={"a": ["X1", "X2"], "b": ["Y1", "Y2"], "c": ["X3", "Y3"]},
            pairs=(("a", "b"), ("a", "c")), dependence="pearson", n_clusters=2, fuzziness=1.5,
            n_restarts=2)
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * recording.data.nbytes

    def test_skip_degenerate_run_reports_excluded_blocks(self, tmp_path):
        table = np.random.default_rng(0).standard_normal((8 * 32, 4))
        table[32:64, 1] = 7.0  # block 1 has a constant channel
        data = tmp_path / "flat.csv"
        np.savetxt(data, table, delimiter=",", header="a,b,c,d", comments="", fmt="%.6f")
        cfg = PipelineConfig(seed=0, output_dir=str(tmp_path / "run"), csv=str(data),
                             sample_rate_hz=128.0, block_length=32, groups=(2, 2), max_lag=2,
                             n_restarts=2, skip_degenerate=True)
        summary = run_pipeline(cfg)
        job = tmp_path / "run" / "raw__all"
        assert json.loads((job / "excluded_blocks.json").read_text()) == [
            {"block": 1, "reason": "constant channel(s): b"}]
        assert read_features_csv(job / "features.csv")[1] == [0, 2, 3, 4, 5, 6, 7]
        assert (summary["runs"][0]["n_blocks"], summary["runs"][0]["n_excluded"]) == (7, 1)
        # exclusions that leave no more blocks than the smallest C fail in the grid, as a
        # config fault naming B and C
        np.savetxt(data, table[:96], delimiter=",", header="a,b,c,d", comments="", fmt="%.6f")
        with pytest.raises(ConfigError, match="need more objects than clusters: B=2, C=2"):
            run_pipeline(replace(cfg, output_dir=str(tmp_path / "short")))

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

        def counting(stack, max_lag):
            calls.append(stack)
            return sine_tau_matrices(stack, max_lag)

        monkeypatch.setitem(DEPENDENCE_FNS, "kendall", counting)
        run_pipeline(cfg)
        # the dump reuses the feature pass: one call for the job, on all 3 blocks
        assert [len(stack) for stack in calls] == [3]
        path = tmp_path / "run" / "raw__all" / "dependence.json"
        dump = json.loads(path.read_text())
        assert len(dump) == 3
        assert set(dump[0]["matrices"]) == {"-2", "-1", "0", "1", "2"}
        # same bytes as dumping every block's freshly estimated, contracted matrices
        fresh = []
        for i, data in enumerate(load_input(cfg).data):
            lags = contracted_set(data, 2, p=4)
            fresh.append({"block": i, "max_lag": 2,
                          "matrices": {str(l): lag_matrix(lags, l).tolist() for l in range(-2, 3)},
                          "degenerate_channels": []})
        write_json(tmp_path / "fresh.json", fresh)
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

    def test_output_dir_with_another_runs_job_refused(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        both = PipelineConfig(seed=1, output_dir=str(out), sim=SIM_SMALL,
                              bands=("raw", "Beta"), n_restarts=2)
        run_pipeline(both)
        before = tree_digest(out)
        run_pipeline(both)  # a rerun of the same jobs owns every directory
        assert tree_digest(out) == before
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        with pytest.raises(ConfigError, match=r"Beta__all, which is not a job of this run"):
            run_pipeline(replace(both, bands=("raw",)))
        assert calls == []
        assert tree_digest(out) == before

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

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with every scipy import made to fail,
        # the package imports and runs a raw and a band-filtered job; the run
        # also never imports numpy.ma, which costs about 14 ms per process
        script = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fuzzcoh import PipelineConfig, run_pipeline
run_pipeline(PipelineConfig(seed=3, output_dir={str(tmp_path / "run")!r},
                            sim={SIM_SMALL!r}, bands=("raw", "Beta"), n_restarts=2))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
print("numpy.ma" in sys.modules)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["['scipy']", "False"]  # scipy only blocked; no numpy.ma
        assert {p.name for p in (tmp_path / "run").iterdir()} == {
            "raw__all", "Beta__all", "summary.json", "summary.csv"}


    def test_unnamed_channels_are_ch_i_everywhere(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((4, 64, 3))
        data[1, :, 2] = 1.0
        ds = MtsDataset(data=data, p=2, sample_rate_hz=128.0)
        cfg = PipelineConfig(seed=0, output_dir=str(tmp_path), sim=SIM_SMALL, max_lag=2,
                             skip_degenerate=True)
        pipeline._run_job((ds, "raw", None, None, cfg))
        job = tmp_path / "raw__all"
        assert json.loads((job / "excluded_blocks.json").read_text()) == [
            {"block": 1, "reason": "constant channel(s): ch2"}]
        cluster = json.loads((job / "connectivity_summary.json").read_text())["clusters"][0]
        assert (list(cluster["x_weights"]), list(cluster["y_weights"])) == (["ch0", "ch1"], ["ch2"])
        save_csv(ds, tmp_path / "data.csv")
        assert (tmp_path / "data.csv").read_text().splitlines()[0] == "ch0,ch1,ch2"


@pytest.mark.parametrize("labels", [None, (0, 1, None), (None, None, 2, 1)])
def test_truth_with_an_unlabelled_block_is_not_scored(labels):
    e = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
    payload = evaluate_partition(e, labels, [0, 1, 2], 0.7, simulated=True)
    assert payload["accuracy"] is None and payload["rand_index"] is None
    assert "protocol" not in payload and "n_switching" not in payload
    assert [b["assignment"] for b in payload["per_block"]] == [0, 1, "FUZZY"]
    assert payload["fuzzy_fraction"] == 1 / 3


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

    @pytest.mark.parametrize("kwargs, match", [
        ({"example": 4}, "example must be 1, 2 or 3, got 4"),
        ({"scale": 1.5}, "scale must lie in (0, 1], got 1.5"),
        ({"n_reps": 0}, "n_reps must be >= 1, got 0"),
    ])
    def test_bad_arg_named(self, monkeypatch, kwargs, match):
        monkeypatch.setattr(pipeline, "gen_dataset", lambda sim: pytest.fail("simulated"))
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            reproduce_sim(**{"example": 1, "scale": 0.05, "n_reps": 2, **kwargs})

    @pytest.mark.parametrize("m_values, match", [
        ((), "m_values is empty"),
        ((1.5, 2.0, 1.5), "m_values lists 1.5 more than once"),
        ((2.0, 0.9), "fuzziness must exceed 1, got 0.9"),
    ])
    def test_bad_m_grid_fails_before_simulation(self, monkeypatch, m_values, match):
        calls = []
        monkeypatch.setattr(pipeline, "gen_dataset", lambda sim: calls.append(sim))
        with pytest.raises(ConfigError, match=re.escape(match)):
            reproduce_sim(example=1, scale=0.05, n_reps=2, m_values=m_values)
        assert calls == []

    def test_m_batch_equals_one_fit_per_m(self, monkeypatch):
        m_values = (1.2, 2.0, 2.5)
        rows = reproduce_sim(example=3, scale=0.05, n_reps=2, m_values=m_values, seed=3)
        batches = []

        def one_fit_per_m(features, n_clusters, fuzziness_values, seed):
            batches.append(len(fuzziness_values))
            return [fcm_fit(features, n_clusters, m, seed=seed) for m in fuzziness_values]

        monkeypatch.setattr(pipeline, "fcm_fit_batch", one_fit_per_m)
        assert reproduce_sim(example=3, scale=0.05, n_reps=2, m_values=m_values,
                             seed=3) == rows
        assert batches == [3] * 4  # one batch per (replication, estimator)


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
        rc = main(["validate", "--features", str(feats), "--output", str(grid)])
        assert rc == 0
        assert len(json.loads(grid.read_text())["cells"]) == 30  # the default 5 x 6 grid

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
        rc = main(["pipeline", "--config", str(cfg_path), "--dependence", "pearson",
                   "--band", "raw", "--band", "Beta", "--jobs", "2"])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["dependence"] == "pearson"
        assert [row["band"] for row in summary["runs"]] == ["raw", "Beta"]

    def test_filter_roundtrip(self, tmp_path):
        data = tmp_path / "data.csv"
        truth = tmp_path / "truth.json"
        main(["simulate", "--seed", "1", "--blocks", "4", "--block-length", "256",
              "--out-data", str(data), "--out-truth", str(truth)])
        out = tmp_path / "beta.csv"
        rc = main([
            "filter", "--input", str(data), "--sample-rate", "128",
            "--block-length", "256", "--band", "Beta", "--output", str(out),
        ])
        assert rc == 0 and out.exists()
        # features of the filtered CSV are those of `features --band Beta` but for the band
        rows = {}
        for name, source in (("filtered", [str(out)]), ("band", [str(data), "--band", "Beta"])):
            feats = tmp_path / f"{name}.csv"
            assert main(["features", "--input", *source, "--sample-rate", "128",
                         "--block-length", "256", "--groups", "4", "4",
                         "--output", str(feats)]) == 0
            with open(feats, newline="") as fh:
                rows[name] = [row[:1] + row[2:] for row in csv.reader(fh)]
        assert len(rows["band"]) == 5 and rows["filtered"] == rows["band"]

    def test_features_needs_groups_before_the_body(self, tmp_path, capsys):
        data = write_file(tmp_path / "bad.csv", "a,b\n1,x\n3,4\n")
        with pytest.raises(SystemExit) as info:
            main(["features", "--input", data, "--sample-rate", "1", "--block-length", "2",
                  "--output", str(tmp_path / "f.csv")])
        assert info.value.code == 2
        assert "the following arguments are required: --groups" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_features_groups_with_an_empty_side_before_the_body(self, tmp_path, capsys):
        data = write_file(tmp_path / "bad.csv", "a,b,c\n1,x,3\n")
        rc = main(["features", "--input", data, "--sample-rate", "1", "--groups", "-1", "4",
                   "--output", str(tmp_path / "f.csv")])
        assert rc == 2
        assert_one_error_line(capsys, "groups (-1,4) need at least one channel on each side")
        assert not (tmp_path / "f.csv").exists()

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

    def test_reproduce_sim_repeated_m(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        rc = main(["reproduce-sim", "--example", "3", "--scale", "0.05", "--reps", "2",
                   "--m-grid", "1.5", "1.5", "--output", str(out)])
        assert rc == 2
        assert_one_error_line(capsys, "m_values lists 1.5 more than once")
        assert not out.exists()

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
        # one flat block: the first at 7.0, or the middle one at 0.1, whose inexact mean
        # leaves tiny nonzero centred values; the flag drops only it, without it exit 3
        data = tmp_path / "flat.csv"
        out = tmp_path / "f.csv"
        args = ["features", "--input", str(data), "--sample-rate", "128",
                "--block-length", "32", "--groups", "2", "2", "--output", str(out)]
        for rows, channel, value, kept in ((slice(0, 32), 1, 7.0, [1, 2]),
                                           (slice(32, 64), 2, 0.1, [0, 2])):
            table = np.random.default_rng(0).standard_normal((96, 4))
            table[rows, channel] = value
            np.savetxt(data, table, delimiter=",", header="a,b,c,d", comments="", fmt="%.6f")
            for dependence in ("kendall", "pearson"):
                assert main([*args, "--dependence", dependence, "--skip-degenerate"]) == 0
                assert read_features_csv(out)[1] == kept
            assert main(args) == 3


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
        ("block_id,e_1,e_2\n0,0.9,0.1\n1,0.9,0.3\n",
         "row 2: memberships must lie in [0, 1] and sum to 1 within 1e-10, got [0.9, 0.3]"),
        ("block_id,e_1,e_2\n0,-0.1,1.1\n1,0.2,0.8\n",
         "row 1: memberships must lie in [0, 1] and sum to 1 within 1e-10, got [-0.1, 1.1]"),
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
        ({"seed": "7"}, "seed must be int, got '7'"),
        ({"sim": {**SIM_SMALL, "noise": "normal"}}, "unexpected keyword argument 'noise'"),
        ({"fuzziness": 1.0}, "fuzziness must exceed 1, got 1.0"),
        ({"m_grid": [1.0, 2.0]}, "fuzziness must exceed 1, got 1.0"),
        ({"c_grid": [1, 2]}, "need at least 2 clusters, got C = 1"),
        ({"m_grid": [2.0, float("nan")]}, "fuzziness must exceed 1, got nan"),
        ({"fuzziness": float("inf")}, "fuzziness must be finite, got inf"),  # JSON Infinity
        ({"m_grid": [2.0, float("inf")]}, "fuzziness must be finite, got inf"),
        ({"c_grid": [2, 2]}, "c_grid lists 2 more than once"),
        ({"m_grid": [1.5, 1.5]}, "m_grid lists 1.5 more than once"),
        ({"m_grid": []}, "m_grid is empty"),
        # resolved against the data's rate before the raw job runs
        ({"sim": {**SIM_SMALL, "sample_rate_hz": 64.0, "target_freqs": [2.0, 6.0, 10.0, 20.0]},
          "bands": ["raw", "Gamma"]}, "band 'Gamma' needs 0 <= low < high < Nyquist (32.0 Hz)"),
        # checked against the data before the first pair's and the raw band's jobs run
        ({"regions": {"a": ["X1"], "b": ["Y1"], "c": ["Q9"]}, "pairs": [["a", "b"], ["a", "c"]]},
         "channels named in regions but absent from dataset: ['Q9']"),
        ({"sim": {**SIM_SMALL, "block_length": 20}, "bands": ["raw", "Beta"]},
         "block too short to filter: 20 samples, need at least 27"),
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
        assert not list((tmp_path / "out").glob("*"))  # no job directory, no summary

    @pytest.mark.parametrize("setting", [{"n_clusters": 7}, {"c_grid": [7, 8]}])
    def test_more_clusters_than_blocks(self, tmp_path, capsys, monkeypatch, setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                   "sim": {**SIM_SMALL, "n_blocks": 6}, **setting}))
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert calls == []  # the block count alone rules the job out
        assert_one_error_line(capsys, "need more objects than clusters: B=6, C=7")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_every_block_excluded(self, tmp_path, capsys):
        table = np.random.default_rng(0).standard_normal((3 * 32, 4))
        table[:, 1] = 7.0  # every block has a constant channel
        data = tmp_path / "flat.csv"
        np.savetxt(data, table, delimiter=",", header="a,b,c,d", comments="", fmt="%.6f")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                   "csv": str(data), "sample_rate_hz": 128.0,
                                   "block_length": 32, "groups": [2, 2], "max_lag": 2,
                                   "skip_degenerate": True}))
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert_one_error_line(capsys, "need more objects than clusters: B=0, C=2")
        assert not (tmp_path / "out" / "summary.json").exists()
        assert not list((tmp_path / "out").glob("*__*"))  # nor a job directory
        out = tmp_path / "f.csv"
        assert main(["features", "--input", str(data), "--sample-rate", "128",
                     "--block-length", "32", "--groups", "2", "2", "--max-lag", "2",
                     "--skip-degenerate", "--output", str(out)]) == 0
        assert out.read_bytes() == b"block_id,band,best_lag,g_value\r\n"

    def test_distance_budget_fails_before_dependence(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                   "sim": {**SIM_SMALL, "n_blocks": 9}}))
        calls = []
        monkeypatch.setitem(DEPENDENCE_FNS, "kendall",
                            lambda block, max_lag: calls.append(block))
        monkeypatch.setattr(clustering, "DIST_BUDGET_BYTES", 8 * 8 * 8)  # B <= 8
        assert main(["pipeline", "--config", str(cfg)]) == 2
        assert calls == []  # B alone rules the job out
        assert_one_error_line(capsys, "B=9 objects need a 648-byte distance matrix for the "
                                      "validity index, over its limit of 512 bytes (B <= 8)")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_validate_more_clusters_than_rows(self, tmp_path, capsys):
        body = "block_id,band,best_lag,g_value,d_1,d_2\n" + "".join(
            f"{i},raw,0,0.5,{i % 2}.{i},0.{i}\n" for i in range(6))
        rc = main(["validate", "--features", write_file(tmp_path / "f.csv", body),
                   "--c-grid", "7", "8", "--output", str(tmp_path / "g.json")])
        assert rc == 2  # the pipeline's check and message, not "every grid cell failed"
        assert_one_error_line(capsys, "need more objects than clusters: B=6, C=7")
        assert not (tmp_path / "g.json").exists()

    def test_cluster_infinite_fuzziness(self, tmp_path, capsys):
        body = "block_id,band,best_lag,g_value,d_1,d_2\n" + "".join(
            f"{i},raw,0,0.5,{i % 2}.{i},0.{i}\n" for i in range(6))
        rc = main(["cluster", "--features", write_file(tmp_path / "f.csv", body),
                   "--fuzziness", "inf", "--out-memberships", str(tmp_path / "m.csv"),
                   "--out-centers", str(tmp_path / "c.json")])
        assert rc == 2
        assert_one_error_line(capsys, "fuzziness must be finite, got inf")

    @pytest.mark.parametrize("flags, match", [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--band", "Beta", "--band", "Beta"], "bands lists 'Beta' more than once"),
    ])
    def test_overrides_pass_the_config_checks(self, tmp_path, capsys, flags, match):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "out"),
                                   "sim": SIM_SMALL}))
        assert main(["pipeline", "--config", str(cfg), *flags]) == 2
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg = write_file(tmp_path / "cfg.json", "[1, 2]")
        assert main(["pipeline", "--config", cfg, "--seed", "1"]) == 2
        assert_one_error_line(capsys, "a pipeline config must be a JSON object")

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
        rc = main(["filter", "--input", data, "--metadata", meta,
                   "--band", "Beta", "--output", str(tmp_path / "beta.csv")])
        assert rc == 2
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "beta.csv").exists()

    @pytest.mark.parametrize("sidecar, match", [
        ({"block_length": 64.5}, "rec.json: block_length must be int, got 64.5"),
        ({"block_length": "64"}, "rec.json: block_length must be int, got '64'"),
        ({"block_length": True}, "rec.json: block_length must be int, got True"),
        ({"sample_rate_hz": "128"}, "rec.json: sample_rate_hz must be float, got '128'"),
        ({"sample_rate_hz": True}, "rec.json: sample_rate_hz must be float, got True"),
        ([64, 128.0], "rec.json: the sidecar must be dict, got [64, 128.0]"),
    ])
    def test_mistyped_sidecar(self, tmp_path, capsys, sidecar, match):
        data, meta = self.recording(tmp_path, [0, 1, 1, 2])
        if isinstance(sidecar, dict):
            sidecar = {**json.loads(Path(meta).read_text(encoding="utf-8")), **sidecar}
        write_file(Path(meta), json.dumps(sidecar))
        rc = main(["filter", "--input", data, "--metadata", meta,
                   "--band", "Beta", "--output", str(tmp_path / "beta.csv")])
        assert rc == 2
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "beta.csv").exists()

    def test_null_sidecar_label_is_unlabelled_block(self, tmp_path):
        from fuzzcoh import load_csv

        data, meta = self.recording(tmp_path, [0, None, 1, 2])
        rc = main(["filter", "--input", data, "--metadata", meta,
                   "--band", "Beta", "--output", str(tmp_path / "beta.csv")])
        assert rc == 0 and (tmp_path / "beta.csv").exists()
        assert load_csv(data, metadata_path=meta).labels == (0, None, 1, 2)

    @pytest.mark.parametrize("body, match", [
        (b"a\xb5V,b,c,d\n1,2,3,4\n5,6,7,8\n", "rec.csv: line 1 is not UTF-8 text"),
        (b"a,b,c,d\n" + b"1,2,3,4\n" * 30000 + b"5,\xb5,7,8\n",
         "rec.csv: line 30002 is not UTF-8 text"),
        (None, "rec.csv: not a file"),
        (b"a,b,c,d\n1,2,3,4\n\n5,x,7,8\n", "rec.csv: non-numeric cell at row 3, column 1"),
        (b"a,b,c,d\n1,2,3,4\n5,6,7,8,9\n", "rec.csv: row 2: expected 4 cells, got 5"),
    ], ids=["Latin-1 header", "Latin-1 deep in the body", "a directory",
            "a bad cell after a blank line", "a long row"])
    def test_unreadable_data_csv(self, tmp_path, capsys, body, match):
        data = tmp_path / "rec.csv"
        if body is None:
            data.mkdir()
        else:
            data.write_bytes(body)
        rc = main(["features", "--input", str(data), "--sample-rate", "128", "--block-length",
                   "2", "--groups", "2", "2", "--output", str(tmp_path / "f.csv")])
        assert rc == 2
        assert_one_error_line(capsys, match)
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("which", ["config", "sidecar", "truth"])
    @pytest.mark.parametrize("bad", ["not UTF-8", "a directory"])
    def test_unreadable_json(self, tmp_path, capsys, which, bad):
        data, meta = self.recording(tmp_path, [0, 1, 1, 2])
        path = tmp_path / f"{which}.json"
        if bad == "a directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"seed": 1, "note": "\xb5"}')
        out = tmp_path / "out"
        argv = {
            "config": ["pipeline", "--config", str(path)],
            "sidecar": ["filter", "--input", data, "--metadata", str(path), "--band", "Beta",
                        "--output", str(out)],
            "truth": ["evaluate", "--memberships",
                      write_file(tmp_path / "m.csv", "block_id,e_1,e_2\n0,0.9,0.1\n"),
                      "--truth", str(path), "--output", str(out)],
        }[which]
        assert main(argv) == 2
        assert_one_error_line(capsys, f"{path}: " + (
            "not a file" if bad == "a directory" else
            "invalid JSON: 'utf-8' codec can't decode byte 0xb5 in position 21"))
        assert not out.exists()

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

    def test_band_features_against_csv_run(self, tmp_path):
        from fuzzcoh import SimConfig, gen_dataset, save_csv

        data = tmp_path / "rec.csv"
        save_csv(gen_dataset(SimConfig(seed=8, n_blocks=6, block_length=256)), data)
        run_pipeline(PipelineConfig(seed=5, output_dir=str(tmp_path / "run"), csv=str(data),
                                    sample_rate_hz=128.0, block_length=256, groups=(4, 4),
                                    bands=("Beta",), n_restarts=2))
        out = tmp_path / "features.csv"
        assert main(["features", "--input", str(data), "--sample-rate", "128",
                     "--block-length", "256", "--groups", "4", "4", "--band", "Beta",
                     "--output", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "run" / "Beta__all" / "features.csv").read_bytes()
        assert "Beta" in out.read_text().splitlines()[1]

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
