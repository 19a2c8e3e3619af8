import json
import re

import numpy as np
import pytest
from scipy import signal

from fuzzcoh import ConfigError, SimConfig, contaminate, gen_ar2, gen_dataset, save_csv
from fuzzcoh.dependence import kendall_tau
from fuzzcoh.mts import write_json
from fuzzcoh.simulate import (
    _gen_blocks,
    apportion,
    ar2_coefficients,
    default_mixing,
    switching_indicator,
    truth_payload,
)


class TestAr2:
    def test_deterministic(self):
        a = gen_ar2(512, 10.0, seed=5)
        b = gen_ar2(512, 10.0, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_standardized(self):
        x = gen_ar2(2048, 6.0, seed=0)
        assert x.mean() == pytest.approx(0.0, abs=1e-12)
        assert x.std() == pytest.approx(1.0, abs=1e-12)

    def test_spectral_peak_near_target(self):
        # single realization: periodogram argmax within 1 Hz of the target
        x = gen_ar2(4096, 10.0, damping=1.05, seed=1)
        freqs, power = signal.periodogram(x, fs=128.0)
        assert abs(freqs[np.argmax(power)] - 10.0) <= 1.0

    def test_heavy_damping_near_white(self):
        # coefficients shrink toward zero as damping grows
        phi1, phi2 = ar2_coefficients(20.0, 40.0, 128.0)
        assert abs(phi1) < 0.06 and abs(phi2) < 0.001
        x = gen_ar2(4096, 20.0, damping=40.0, seed=2)
        rho1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho1) <= 0.05

    def test_stationary_for_any_damping(self):
        for damping in (1.01, 1.05, 2.0, 100.0):
            _, phi2 = ar2_coefficients(10.0, damping, 128.0)
            assert -1.0 < phi2 < 0.0

    @pytest.mark.parametrize("length, freq, damping, burn_in", [
        (384, 2.0, 1.05, 500), (64, 40.0, 1.01, 0), (2, 20.0, 3.0, 7), (1000, 31.9, 40.0, 50),
    ])
    def test_equals_lfilter(self, length, freq, damping, burn_in):
        # oracle: scipy's direct-form filter over the same innovations
        phi1, phi2 = ar2_coefficients(freq, damping, 128.0)
        eps = np.random.default_rng(length).standard_normal(length + burn_in)
        series = signal.lfilter([1.0], [1.0, -phi1, -phi2], eps)[burn_in:]
        expected = (series - series.mean()) / series.std()
        x = gen_ar2(length, freq, damping, seed=length, burn_in=burn_in)
        np.testing.assert_array_equal(x, expected)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            gen_ar2(100, 70.0, sample_rate_hz=128.0, seed=0)  # above Nyquist
        with pytest.raises(ConfigError):
            gen_ar2(100, 10.0, damping=0.9, seed=0)


class TestIndicator:
    def test_iid_occupancy_tight(self):
        rng = np.random.default_rng(0)
        fracs = [
            np.mean(switching_indicator(384, rng, 0.5, 0.5) == 0) for _ in range(50)
        ]
        assert all(0.3 < f < 0.7 for f in fracs)
        assert np.mean(fracs) == pytest.approx(0.5, abs=0.02)

    def test_markov_rate_and_occupancy(self):
        rng = np.random.default_rng(1)
        runs = [switching_indicator(384, rng, 0.5, 1 / 64) for _ in range(300)]
        switches = np.mean([np.abs(np.diff(d)).sum() / (len(d) - 1) for d in runs])
        occupancy = np.mean([np.mean(d == 0) for d in runs])
        assert switches == pytest.approx(1 / 64, rel=0.2)
        assert occupancy == pytest.approx(0.5, abs=0.05)

    def test_asymmetric_occupancy(self):
        rng = np.random.default_rng(2)
        d = switching_indicator(50_000, rng, 0.75, 0.2)
        assert np.mean(d == 0) == pytest.approx(0.75, abs=0.02)


class TestMixing:
    def test_group_swap_structure(self):
        rng = np.random.default_rng(0)
        a0, a1 = default_mixing(4, 4, 5, rng)
        np.testing.assert_array_equal(a1[:4], a0[4:])
        np.testing.assert_array_equal(a1[4:], a0[:4])

    def test_row_norms_equal_signal_gain(self):
        rng = np.random.default_rng(1)
        a0, a1 = default_mixing(4, 4, 5, rng, signal_gain=3.0)
        np.testing.assert_allclose(np.linalg.norm(a0, axis=1), 3.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(a1, axis=1), 3.0, atol=1e-12)

    def test_dominant_latent_assignment(self):
        rng = np.random.default_rng(2)
        a0, _ = default_mixing(4, 4, 5, rng, gain=3.0)
        # X rows dominated by latent 1 (6 Hz), Y rows by latent 3 (20 Hz)
        assert np.all(a0[:4, 1] == a0[:4].max(axis=1))
        assert np.all(a0[4:, 3] == a0[4:].max(axis=1))

    def test_uneven_groups_recycled(self):
        rng = np.random.default_rng(3)
        a0, a1 = default_mixing(3, 5, 5, rng)
        assert a0.shape == (8, 5) and a1.shape == (8, 5)


def block_of_kind(config, kind, seed_key):
    """One block's (T, m) samples of the given kind, drawn from the stream of ``seed_key``."""
    return _gen_blocks(config, [kind], [seed_key]).data[0]


class TestGenBlock:
    def test_pure_block_exact_reconstruction(self):
        cfg = SimConfig(seed=9, n_blocks=4, block_length=96)
        block = block_of_kind(cfg, 0, (9, 7, 0))
        # replay the stream: latents first, then the noise draw
        from fuzzcoh.simulate import _mixing_for

        a0, _ = _mixing_for(cfg)
        rng = np.random.default_rng([9, 7, 0])
        latents = np.column_stack([
            gen_ar2(96, f, cfg.damping, cfg.sample_rate_hz, rng=rng, burn_in=cfg.burn_in)
            for f in cfg.target_freqs
        ])
        clean = latents @ a0.T
        noise = block - clean
        np.testing.assert_allclose(noise, rng.standard_normal(noise.shape), atol=1e-12)

    def test_determinism(self):
        cfg = SimConfig(seed=1, n_blocks=2, block_length=64)
        a = block_of_kind(cfg, 2, (1, 7, 0))
        b = block_of_kind(cfg, 2, (1, 7, 0))
        np.testing.assert_array_equal(a, b)

    def test_fuzzy_occupancy_in_range(self):
        cfg = SimConfig(seed=3, n_blocks=2, block_length=384)
        # occupancy is checked through the indicator distribution directly
        rng = np.random.default_rng(0)
        frac = np.mean(
            switching_indicator(384, rng, cfg.fuzzy_switch_prob, cfg.fuzzy_switch_rate) == 0
        )
        assert 0.3 < frac < 0.7

    def test_cauchy_noise_has_extreme_values(self):
        cfg = SimConfig(seed=4, n_blocks=2, block_length=384, noise_family="student_t1")
        hits = 0
        for b in range(20):
            block = block_of_kind(cfg, 0, (4, 7, b))
            hits += np.abs(block).max() > 50.0
        assert hits >= 18  # heavy tails: extreme values in nearly every block

    def test_mixing_shape_validation(self):
        with pytest.raises(ConfigError, match="shape"):
            SimConfig(seed=0, mixing_a0=np.ones((3, 5)), mixing_a1=np.ones((3, 5)))


class TestSimConfig:
    @pytest.mark.parametrize("setting, match", [
        ({"n_blocks": 12.5}, "n_blocks must be int, got 12.5"),
        ({"seed": "7"}, "seed must be int, got '7'"),
        ({"seed": True}, "seed must be int, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"burn_in": -5}, "burn_in must be >= 0, got -5"),
        ({"damping": "1.1"}, "damping must be float, got '1.1'"),
        ({"noise_family": 3}, "noise_family must be str, got 3"),
        ({"target_freqs": 10.0}, "target_freqs must be a list, got 10.0"),
        ({"target_freqs": [2.0, "6"]}, "target_freqs[1] must be float, got '6'"),
        ({"target_freqs": [2.0, 6.0, 10.0]}, "target_freqs needs 4 or more entries"),
        ({"target_freqs": [], "mixing_a0": [[]] * 8, "mixing_a1": [[]] * 8},
         "target_freqs needs 1 or more entries"),
        ({"proportions": [0.5, 0.5]}, "proportions must be a list of 3 entries"),
        ({"mixing_a0": [["a"]], "mixing_a1": [["b"]]}, "mixing_a0 must be a numeric matrix"),
        ({"mixing_a0": [["1.5"] * 5] * 8, "mixing_a1": [[1.5] * 5] * 8},
         "mixing_a0 must be a numeric matrix"),
        ({"mixing_a0": [[1.5] * 5] * 8, "mixing_a1": [[True] * 5] * 8},
         "mixing_a1 must be a numeric matrix"),
        ({"damping": 1.0}, "damping must exceed 1 for stationarity, got 1.0"),
        ({"noise_family": "cauchy"}, "noise_family must be one of ('normal', 'student_t3', "
                                     "'student_t1'), got 'cauchy'"),
        ({"proportions": [0.5, 0.5, 0.5]}, "proportions must sum to 1, got (0.5, 0.5, 0.5)"),
        ({"proportions": [1.5, -0.5, 0.0]},
         "proportions must be non-negative, got (1.5, -0.5, 0.0)"),
        ({"fuzzy_switch_prob": 1.0}, "fuzzy_switch_prob must lie in (0, 1), got 1.0"),
        ({"fuzzy_switch_rate": 0.6}, "fuzzy_switch_rate must lie in (0, 0.5], got 0.6"),
        ({"target_freqs": [2.0, 6.0, 10.0, 64.0]}, "target frequency 64.0 Hz outside (0, Nyquist)"),
        ({"n_blocks": 0}, "need n_blocks >= 1 and block_length >= 2"),
        ({"block_length": 1}, "need n_blocks >= 1 and block_length >= 2"),
        ({"n_y": 0}, "need n_x >= 1 and n_y >= 1"),
        ({"mixing_a0": [[1.5] * 5] * 8}, "give both mixing matrices or neither"),
        ({"mixing_a0": [[1.5] * 5] * 7, "mixing_a1": [[1.5] * 5] * 7},
         "mixing_a0 has shape (7, 5), expected (8, 5)"),
    ])
    def test_bad_field_rejected_when_built(self, setting, match):
        raw = {"seed": 0, "n_blocks": 4, "block_length": 64, **setting}
        with pytest.raises(ConfigError, match=re.escape(match)):
            SimConfig(**raw)
        with pytest.raises(ConfigError, match=re.escape(match)):
            SimConfig.from_dict(raw)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unexpected keyword argument 'noise'"):
            SimConfig.from_dict({"seed": 0, "noise": "normal"})

    def test_fields_normalised(self):
        a0, a1 = default_mixing(4, 4, 5, np.random.default_rng(0))
        cfg = SimConfig.from_dict({"seed": np.int64(2), "sample_rate_hz": 128,
                                   "target_freqs": [2, 6, 10, 20, 40], "proportions": [1, 0, 0],
                                   "mixing_a0": a0.tolist(), "mixing_a1": a1})
        assert cfg.target_freqs == (2.0, 6.0, 10.0, 20.0, 40.0)
        assert all(type(v) is float for v in cfg.target_freqs + cfg.proportions)
        assert type(cfg.sample_rate_hz) is int  # scalars are stored as given
        for a in (cfg.mixing_a0, cfg.mixing_a1):
            assert a.dtype == np.float64 and not a.flags.writeable
        np.testing.assert_array_equal(cfg.mixing_a0, a0)

    @pytest.mark.parametrize("mixing", [False, True])
    def test_truth_echo_rebuilds_the_config(self, tmp_path, mixing):
        matrices = default_mixing(4, 4, 5, np.random.default_rng(0)) if mixing else (None, None)
        cfg = SimConfig(seed=3, n_blocks=4, block_length=64, noise_family="student_t3",
                        mixing_a0=matrices[0], mixing_a1=matrices[1])
        dataset = gen_dataset(cfg)
        write_json(tmp_path / "truth.json", truth_payload(cfg, dataset))
        echo = json.loads((tmp_path / "truth.json").read_text())["config"]
        assert ("mixing_a0" in echo) == ("mixing_a1" in echo) == mixing
        again = gen_dataset(SimConfig.from_dict(echo))
        for a, b in zip(dataset.blocks, again.blocks):
            np.testing.assert_array_equal(a.data, b.data)


class TestGenDataset:
    def test_default_dimensions(self):
        cfg = SimConfig(seed=0)
        ds = gen_dataset(cfg)
        total = sum(b.n_samples for b in ds.blocks)
        assert total == 115_200
        assert ds.blocks[0].n_channels == 8
        assert ds.n_blocks == 300

    @pytest.mark.parametrize("noise_family, switch_rate", [("normal", 0.5), ("student_t1", 0.1)])
    def test_blocks_equal_per_block_lfilter_construction(self, noise_family, switch_rate):
        # oracle: each block built alone from its stream, one lfilter call per latent
        from fuzzcoh.simulate import _mixing_for

        cfg = SimConfig(seed=6, n_blocks=10, block_length=80, noise_family=noise_family,
                        fuzzy_switch_rate=switch_rate, burn_in=40)
        a0, a1 = _mixing_for(cfg)
        ds = gen_dataset(cfg)
        for b, (block, label) in enumerate(zip(ds.blocks, ds.labels)):
            rng = np.random.default_rng([6, 7, b])
            columns = []
            for f in cfg.target_freqs:
                phi1, phi2 = ar2_coefficients(f, cfg.damping, cfg.sample_rate_hz)
                series = signal.lfilter([1.0], [1.0, -phi1, -phi2],
                                        rng.standard_normal(80 + 40))[40:]
                columns.append((series - series.mean()) / series.std())
            latents = np.column_stack(columns)
            if label == 2:
                d = switching_indicator(80, rng, cfg.fuzzy_switch_prob, switch_rate)
                mixed = np.where(d[:, None, None] == 1, a1[None], a0[None])
                clean = np.einsum("tmr,tr->tm", mixed, latents)
            else:
                clean = latents @ (a1 if label else a0).T
            noise = (rng.standard_normal(clean.shape) if noise_family == "normal"
                     else rng.standard_t(1, size=clean.shape))
            np.testing.assert_array_equal(block.data, clean + noise)

    def test_apportionment(self):
        assert apportion(60, (0.4, 0.4, 0.2)) == [24, 24, 12]
        assert apportion(10, (1.0, 0.0, 0.0)) == [10, 0, 0]
        assert sum(apportion(7, (0.5, 0.3, 0.2))) == 7

    def test_all_pure_dataset(self):
        cfg = SimConfig(seed=2, n_blocks=10, block_length=64, proportions=(1.0, 0.0, 0.0))
        ds = gen_dataset(cfg)
        assert all(label == 0 for label in ds.labels)

    def test_byte_identical_export(self, tmp_path):
        cfg = SimConfig(seed=5, n_blocks=6, block_length=64)
        for name in ("a.csv", "b.csv"):
            save_csv(gen_dataset(cfg), tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_latents_mutually_independent(self):
        # max |cross-tau| between distinct latent series stays near zero
        cfg = SimConfig(seed=6, n_blocks=1, block_length=64)
        rng = np.random.default_rng(0)
        series = [
            gen_ar2(4096, f, cfg.damping, cfg.sample_rate_hz, rng=rng)
            for f in cfg.target_freqs
        ]
        worst = max(
            abs(kendall_tau(series[i], series[j]))
            for i in range(5) for j in range(i + 1, 5)
        )
        assert worst <= 0.1

    def test_classes_distinguishable_in_feature_space(self):
        from fuzzcoh import extract_features

        cfg = SimConfig(seed=7, n_blocks=20, block_length=384,
                        proportions=(0.5, 0.5, 0.0))
        ds = gen_dataset(cfg)
        kinds = np.array(ds.labels)
        feats = extract_features(ds, max_lag=5).d_matrix
        c0, c1 = feats[kinds == 0].mean(0), feats[kinds == 1].mean(0)
        inter = np.linalg.norm(c0 - c1)
        intra = 0.5 * (
            np.linalg.norm(feats[kinds == 0] - c0, axis=1).mean()
            + np.linalg.norm(feats[kinds == 1] - c1, axis=1).mean()
        )
        assert inter > intra


class TestContaminate:
    def make(self):
        cfg = SimConfig(seed=8, n_blocks=4, block_length=64)
        return gen_dataset(cfg)

    def test_zero_scale_identity(self):
        ds = self.make()
        out = contaminate(ds, ["X1"], scale=0.0, seed=1)
        for a, b in zip(ds.blocks, out.blocks):
            np.testing.assert_array_equal(a.data, b.data)

    def test_only_selected_channels_change(self):
        ds = self.make()
        chans = ["X1", "X3", "Y2"]
        out = contaminate(ds, chans, scale=0.1, seed=1)
        names = ds.channel_names
        touched = [names.index(c) for c in chans]
        for a, b in zip(ds.blocks, out.blocks):
            for c in range(a.n_channels):
                if c in touched:
                    assert np.any(a.data[:, c] != b.data[:, c])
                else:
                    np.testing.assert_array_equal(a.data[:, c], b.data[:, c])

    def test_deterministic(self):
        ds = self.make()
        a = contaminate(ds, ["Y1"], scale=0.1, seed=3)
        b = contaminate(ds, ["Y1"], scale=0.1, seed=3)
        for x, y in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(x.data, y.data)

    def test_errors(self):
        ds = self.make()
        with pytest.raises(ConfigError):
            contaminate(ds, [], seed=0)
        with pytest.raises(ConfigError):
            contaminate(ds, ["nope"], seed=0)
