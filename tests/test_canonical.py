import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import grid_oracle_best_g, lag_matrix, reference_solve_canonical

from fuzzcoh import (
    ConfigError,
    DataError,
    DegenerateBlockError,
    MtsDataset,
    NumericError,
    extract_features,
    pearson_matrices,
    sine_tau_matrices,
    solve_canonical,
)
from fuzzcoh import SimConfig, canonical, design_bandpass, filter_dataset, gen_dataset
from fuzzcoh.bands import default_band
from fuzzcoh.cli import main
from fuzzcoh.dependence import needs_psd_repair, repair_psd


def scalar_dep(xy0, xy1, yx1=0.1):
    """p=q=1 lag matrices with chosen cross entries at lags 0 and 1."""
    m0 = np.array([[1.0, xy0], [xy0, 1.0]])
    m1 = np.array([[0.05, xy1], [yx1, 0.05]])
    return np.stack([m0, m1])


def stationary_var_instance(p, q, max_lag, seed):
    """Valid lagged correlation structure from a stable VAR(1) process.

    Autocovariances of a stationary process embed in a PSD augmented
    matrix, so whitened canonical values stay at most 1.
    """
    rng = np.random.default_rng(seed)
    m = p + q
    a = rng.standard_normal((m, m))
    a *= 0.7 / max(abs(np.linalg.eigvals(a)))
    sla = pytest.importorskip("scipy.linalg")  # the oracle: skips without scipy
    cov0 = sla.solve_discrete_lyapunov(a, np.eye(m))
    cov0 = (cov0 + cov0.T) / 2
    scale = 1.0 / np.sqrt(np.diag(cov0))
    mats = []
    cov = cov0
    r0 = np.clip(cov0 * np.outer(scale, scale), -1.0, 1.0)
    r0 = np.triu(r0) + np.triu(r0, 1).T  # bitwise symmetric
    np.fill_diagonal(r0, 1.0)
    mats.append(r0)
    for lag in range(1, max_lag + 1):
        cov = a @ cov  # Gamma(lag) = A Gamma(lag-1); entry = cov(Z_t, Z_{t+lag})
        mats.append(np.clip((cov * np.outer(scale, scale)).T, -1.0, 1.0))
    return np.stack(mats)


def d_of(u, v):
    return np.abs(np.concatenate([u, v]))


def _breaks(edit):
    """Valid p=q=2 lag matrices at lags 0 and 1, then ``edit`` applied."""
    lags = np.stack([np.eye(4), np.full((4, 4), 0.2)])
    edit(lags)
    return lags


class TestSolveCanonical:
    @pytest.mark.parametrize("lags, p, message", [
        (np.eye(4), 2, "lags has shape (4, 4), expected (L+1, m, m)"),
        (np.zeros((0, 4, 4)), 2, "lags has shape (0, 4, 4), expected (L+1, m, m)"),
        (np.zeros((2, 4, 3)), 2, "lags has shape (2, 4, 3), expected (L+1, m, m)"),
        (_breaks(lambda a: None), 0, "need 1 <= p < m = 4, got p=0"),
        (_breaks(lambda a: None), 4, "need 1 <= p < m = 4, got p=4"),
        (_breaks(lambda a: a.__setitem__((1, 0, 3), -1.5)), 2,
         "dependence entries outside [-1, 1]"),
        (_breaks(lambda a: a.__setitem__((0, 0, 1), 0.3)), 2, "lag-0 matrix must be symmetric"),
        (_breaks(lambda a: a.__setitem__((0, 2, 2), 0.9)), 2,
         "lag-0 matrix must have unit diagonal"),
        (_breaks(lambda a: a.__setitem__((0, [0, 1], [1, 0]), np.nan)), 2,
         "dependence entries outside [-1, 1]"),
        (_breaks(lambda a: a.__setitem__((1, 0, 3), np.nan)), 2,
         "dependence entries outside [-1, 1]"),
    ], ids=["not 3-D", "no lags", "not square", "p = 0", "p = m", "entry past 1",
            "asymmetric lag 0", "lag-0 diagonal not 1", "NaN at lag 0", "NaN at lag 1"])
    def test_input_checked(self, lags, p, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            solve_canonical(lags, p)
        assert solve_canonical(_breaks(lambda a: None), 2)[2] > 0  # the unedited matrices solve

    def test_scalar_case(self):
        u, v, g, lag = solve_canonical(scalar_dep(0.2, 0.7), 1)
        assert lag == 1
        assert g == pytest.approx(0.49, abs=1e-12)
        np.testing.assert_allclose(u, [1.0])
        np.testing.assert_allclose(v, [1.0])
        np.testing.assert_allclose(d_of(u, v), [1.0, 1.0])

    def test_zero_cross_documented_rule(self):
        u, v, g, lag = solve_canonical(scalar_dep(0.0, 0.0, yx1=0.0), 1)
        assert g == 0.0
        assert lag == 0
        np.testing.assert_allclose(d_of(u, v), [1.0, 1.0])

    def test_grid_oracle_dominated(self):
        for seed in range(25):
            lags = stationary_var_instance(2, 2, 1, seed)
            g = solve_canonical(lags, 2)[2]
            crosses = [lag_matrix(lags, lag)[:2, 2:] for lag in (-1, 0, 1)]
            oracle = grid_oracle_best_g(lags[0, :2, :2], lags[0, 2:, 2:], crosses)
            assert g >= oracle - 1e-6
            assert g <= 1.0 + 1e-8

    def test_constraint_residuals(self):
        from fuzzcoh import repair_psd

        for seed in range(10):
            lags = stationary_var_instance(3, 2, 2, seed)
            u, v, _, _ = solve_canonical(lags, 3)
            p0 = repair_psd(lags[0])
            ru = abs(u @ p0[:3, :3] @ u - 1.0)
            rv = abs(v @ p0[3:, 3:] @ v - 1.0)
            assert ru <= 1e-8 and rv <= 1e-8

    def test_sign_convention_and_d_invariance(self):
        lags = stationary_var_instance(2, 2, 1, 3)
        u, v, g, _ = solve_canonical(lags, 2)
        assert u[np.argmax(np.abs(u))] > 0
        # flipping every cross matrix flips (u, v) jointly; d is unchanged
        flipped = -lags
        m0 = lags[0].copy()
        m0[:2, 2:] *= -1
        m0[2:, :2] *= -1
        flipped[0] = m0
        u2, v2, g2, _ = solve_canonical(flipped, 2)
        assert g2 == pytest.approx(g, abs=1e-12)
        np.testing.assert_allclose(d_of(u2, v2), d_of(u, v), atol=1e-9)

    def test_deterministic(self):
        lags = stationary_var_instance(2, 2, 2, 11)
        au, av, ag, alag = solve_canonical(lags, 2)
        bu, bv, bg, blag = solve_canonical(lags, 2)
        np.testing.assert_array_equal(au, bu)
        np.testing.assert_array_equal(av, bv)
        assert ag == bg and alag == blag

    def test_lag_tiebreak_prefers_zero_then_positive(self):
        m0 = np.eye(2)
        m0[0, 1] = m0[1, 0] = 0.5
        m1 = np.array([[0.0, 0.5], [0.0, 0.0]])
        # identical 0.5 cross at lags 0 and +1: lag 0 wins
        assert solve_canonical(np.stack([m0, m1]), 1)[3] == 0


class TestExtractFeatures:
    def make_dataset(self, n_blocks=3, T=64, seed=0, flatline_block=None):
        data = np.random.default_rng(seed).standard_normal((n_blocks, T, 8))
        if flatline_block is not None:
            data[flatline_block, :, 2] = 0.0
        return MtsDataset(data=data, p=4, sample_rate_hz=128.0)

    def test_feature_dimensions(self):
        ds = self.make_dataset(n_blocks=5)
        fs = extract_features(ds, max_lag=3)
        assert fs.d_matrix.shape == (5, 8)
        assert fs.block_indices == (0, 1, 2, 3, 4)
        assert np.all(fs.d_matrix >= 0)

    def test_singleton_dataset(self):
        fs = extract_features(self.make_dataset(n_blocks=1), max_lag=2)
        assert len(fs) == 1

    def test_flatline_raises_without_skip(self):
        ds = self.make_dataset(n_blocks=4, flatline_block=2)
        with pytest.raises(DegenerateBlockError, match="block 2"):
            extract_features(ds, max_lag=2)

    @pytest.mark.parametrize("error", [DataError, NumericError])
    def test_estimator_error_named_with_its_class(self, error):
        # a DataError (exit 2) must not come back as a NumericError (exit 3)
        message = "16777216 samples exceed the Kendall kernel's limit of 2**24 - 1"
        ds = self.make_dataset(n_blocks=3)
        calls = []

        def fails_on_block_1(data, max_lag):
            calls.append(data)
            if (data == ds.data[1]).all(axis=(1, 2)).any():
                raise error(message)
            return sine_tau_matrices(data, max_lag)

        with pytest.raises(error) as info:
            extract_features(ds, max_lag=2, dependence_fn=fails_on_block_1)
        assert type(info.value) is error
        assert str(info.value) == f"block 1: {message}"
        # the stack fails, then blocks 0 and 1 are re-run alone, each a stack of one
        assert calls[0] is ds.data and [c.shape for c in calls[1:]] == [(1, 64, 8)] * 2
        np.testing.assert_array_equal(np.concatenate(calls[1:]), ds.data[:2])

    @pytest.mark.parametrize("band", ["raw", "Beta"])
    @pytest.mark.parametrize("estimator", [sine_tau_matrices, pearson_matrices])
    def test_block_permutation_permutes_the_rows(self, estimator, band):
        # every row is its block's own: permuting the blocks permutes the rows bit for bit
        # (FCM is not invariant under a permutation of its rows, so the check stops here)
        ds = gen_dataset(SimConfig(seed=3, n_blocks=12, block_length=256))
        order = np.random.default_rng(1).permutation(ds.n_blocks)
        shuffled = replace(ds, data=ds.data[order], labels=None)
        if band != "raw":
            design = design_bandpass(default_band(band, ds.sample_rate_hz))
            ds, shuffled = filter_dataset(ds, design), filter_dataset(shuffled, design)
        rows = extract_features(ds, max_lag=5, dependence_fn=estimator)
        permuted = extract_features(shuffled, max_lag=5, dependence_fn=estimator)
        assert permuted.block_indices == rows.block_indices
        for name in ("d_matrix", "g_value", "best_lag", "lags"):
            assert getattr(permuted, name).tobytes() == getattr(rows, name)[order].tobytes(), name

    @pytest.mark.parametrize("estimator", [sine_tau_matrices, pearson_matrices])
    def test_flat_blocks_found_before_any_estimate(self, estimator):
        # 0.1 repeated has an inexact float mean, so its centred values are tiny
        # but nonzero; the block is still found flat from its samples
        data = np.random.default_rng(6).standard_cauchy((5, 37, 4))
        data[2, :, 1] = 0.1
        ds = MtsDataset(data=data, p=2, sample_rate_hz=1.0)
        calls = []

        def counting(stack, max_lag):
            calls.append(stack)
            return estimator(stack, max_lag)

        with pytest.raises(DegenerateBlockError, match=r"^block 2: constant channel\(s\): ch1$"):
            extract_features(ds, max_lag=2, dependence_fn=counting)
        assert calls == []
        fs = extract_features(ds, max_lag=2, dependence_fn=counting, skip_degenerate=True)
        assert len(calls) == 1 and fs.block_indices == (0, 1, 3, 4)
        np.testing.assert_array_equal(calls[0], data[[0, 1, 3, 4]])
        assert fs.excluded == ((2, "constant channel(s): ch1"),)

    def test_estimator_result_shape_checked(self):
        ds = self.make_dataset(n_blocks=3)
        with pytest.raises(DataError, match=re.escape(
                "lags has shape (8, 8), expected (3, 3, 8, 8)")):
            extract_features(ds, max_lag=2, dependence_fn=lambda data, max_lag: np.eye(8))
        # one block's matrices for the whole stack would broadcast if assigned
        with pytest.raises(DataError, match=re.escape(
                "lags has shape (3, 8, 8), expected (3, 3, 8, 8)")):
            extract_features(ds, max_lag=2,
                             dependence_fn=lambda data, max_lag: sine_tau_matrices(data[0], max_lag))

    def test_out_of_range_entry_names_its_block(self):
        def too_large_in_block_1(data, max_lag):
            lags = sine_tau_matrices(data, max_lag)
            lags[1, 1, 0, 5] = 1.5
            return lags

        with pytest.raises(DataError, match=re.escape(
                "block 1: dependence entries outside [-1, 1]")):
            extract_features(self.make_dataset(n_blocks=3), max_lag=2,
                             dependence_fn=too_large_in_block_1)

    @pytest.mark.parametrize("lag", [0, 1])
    def test_nan_entry_names_its_block(self, lag):
        def nan_in_block_1(data, max_lag):
            lags = sine_tau_matrices(data, max_lag)
            lags[1, lag, 0, 5] = np.nan
            return lags

        with pytest.raises(DataError, match=re.escape(
                "block 1: dependence entries outside [-1, 1]")):
            extract_features(self.make_dataset(n_blocks=3), max_lag=2,
                             dependence_fn=nan_in_block_1)

    def test_unsplit_dataset_rejected(self):
        ds = replace(self.make_dataset(), p=None)
        with pytest.raises(ConfigError, match="the dataset has no X/Y split"):
            extract_features(ds, max_lag=2)

    def test_flatline_excluded_with_skip(self):
        ds = self.make_dataset(n_blocks=4, flatline_block=2)
        fs = extract_features(ds, max_lag=2, skip_degenerate=True)
        assert len(fs) == 3
        assert fs.block_indices == (0, 1, 3)
        assert fs.excluded[0][0] == 2
        assert "constant" in fs.excluded[0][1]

    def test_monotone_invariance_end_to_end(self):
        ds = self.make_dataset(n_blocks=2, seed=9)
        fs1 = extract_features(ds, max_lag=2)
        fs2 = extract_features(replace(ds, data=np.arctan(ds.data) * 3.0 + 1.5), max_lag=2)
        np.testing.assert_array_equal(fs1.d_matrix, fs2.d_matrix)


def needs_repair_dep(p, q, max_lag, seed):
    """Lag matrices whose lag-0 matrix is indefinite (three strong, inconsistent correlations)."""
    rng = np.random.default_rng(seed)
    m = p + q
    lags = np.clip(rng.uniform(-0.4, 0.4, (max_lag + 1, m, m)), -1.0, 1.0)
    m0 = np.eye(m)
    m0[0, 1] = m0[1, 0] = 0.95
    m0[0, m - 1] = m0[m - 1, 0] = 0.95
    m0[1, m - 1] = m0[m - 1, 1] = -0.95
    lags[0] = m0
    assert np.linalg.eigvalsh(lags[0]).min() < 0
    return lags


def zero_cross_dep(p, q, max_lag):
    lags = np.zeros((max_lag + 1, p + q, p + q))
    lags[0] = np.eye(p + q)
    lags[0, :p, :p] = lags[0, p:, p:] = 0.3
    np.fill_diagonal(lags[0], 1.0)
    return lags


def tied_lags_dep(p, q, max_lag, lag, at_zero):
    """Cross matrices equal at lags lag and -lag (and 0 if ``at_zero``): an exact tie."""
    rng = np.random.default_rng(lag)
    lags = np.zeros((max_lag + 1, p + q, p + q))
    cross = rng.uniform(-0.2, 0.2, (p, q))
    lags[0] = np.eye(p + q)
    if at_zero:
        lags[0, :p, p:] = cross
        lags[0, p:, :p] = cross.T
    lags[lag, :p, p:] = cross        # P_XY(lag)
    lags[lag, p:, :p] = cross.T      # P_YX(lag), i.e. P_XY(-lag) transposed
    return lags


def mixed_stack(p, q, max_lag):
    deps = []
    for seed in range(4):
        deps.append(stationary_var_instance(p, q, max_lag, seed))
        if p + q > 2:  # a 2x2 lag-0 matrix with entries in [-1, 1] is PSD already
            deps.append(needs_repair_dep(p, q, max_lag, seed))
    deps.insert(3, zero_cross_dep(p, q, max_lag))
    if max_lag:
        deps.insert(4, tied_lags_dep(p, q, max_lag, 1, at_zero=True))
        deps.append(tied_lags_dep(p, q, max_lag, max_lag, at_zero=False))
    return deps


def dataset_of(n_blocks, p, q, T=32):
    data = np.random.default_rng(0).standard_normal((T, p + q))
    return MtsDataset(data=np.stack([data] * n_blocks), p=p, sample_rate_hz=128.0)


def serve(deps):
    """A dependence function that hands out the given lag matrices in call order, one per block."""
    it = iter(deps)
    return lambda data, max_lag: np.stack([next(it).copy() for _ in data])


def rows(fs):
    """The set's (u, v, g_value, best_lag) per kept block."""
    return zip(fs.u, fs.v, fs.g_value, fs.best_lag, strict=True)


def assert_feature_equal(feat, reference):
    (u, v, g, lag), (ref_u, ref_v, ref_g, ref_lag) = feat, reference
    assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
    assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()
    assert g == ref_g and lag == ref_lag


class TestStackedSolve:
    """The dataset-wide stacked solve against the per-block solve (conftest), bit for bit."""

    @pytest.mark.parametrize("p, q, max_lag", [(2, 2, 3), (3, 2, 2), (1, 1, 1), (4, 4, 5),
                                               (1, 3, 0)])
    def test_mixed_stack_equals_per_block(self, p, q, max_lag):
        deps = mixed_stack(p, q, max_lag)
        fs = extract_features(dataset_of(len(deps), p, q), max_lag=max_lag,
                              dependence_fn=serve(deps))
        assert fs.block_indices == tuple(range(len(deps)))
        for feat, dep in zip(rows(fs), deps, strict=True):
            assert_feature_equal(feat, reference_solve_canonical(dep, p))
            assert_feature_equal(solve_canonical(dep, p), reference_solve_canonical(dep, p))
        np.testing.assert_array_equal(fs.lags, np.stack(deps))
        reference_d = [d_of(*reference_solve_canonical(d, p)[:2]) for d in deps]
        assert fs.d_matrix.tobytes() == np.array(reference_d).tobytes()
        # the stack reaches every special path of the per-block solve
        assert any(reference_solve_canonical(d, p)[2] == 0.0 for d in deps)
        if max_lag:  # ties go to lag 0, then to the positive lag
            assert [fs.best_lag[4], fs.best_lag[-1]] == [0, max_lag]
        assert any(not np.array_equal(canonical.repair_psd(d[0]), d[0])
                   for d in deps) == (p + q > 2)

    def test_degenerate_blocks_skipped_from_the_stack(self):
        deps = mixed_stack(2, 2, 2)
        ds = dataset_of(len(deps) + 2, 2, 2)
        data = ds.data.copy()
        data[[2, 6], :, 3] = 0.5  # flat channel Y2 in blocks 2 and 6
        ds = replace(ds, data=data)
        fs = extract_features(ds, max_lag=2, dependence_fn=serve(deps), skip_degenerate=True)
        assert fs.excluded == ((2, "constant channel(s): ch3"), (6, "constant channel(s): ch3"))
        assert fs.block_indices == tuple(i for i in range(len(deps) + 2) if i not in (2, 6))
        for feat, dep in zip(rows(fs), deps, strict=True):
            assert_feature_equal(feat, reference_solve_canonical(dep, 2))
        with pytest.raises(DegenerateBlockError, match="block 2: constant channel"):
            extract_features(ds, max_lag=2, dependence_fn=serve(deps))

    @pytest.mark.parametrize("estimator", [sine_tau_matrices, pearson_matrices])
    def test_estimated_sets_equal_per_block(self, estimator):
        rng = np.random.default_rng(21)
        ds = MtsDataset(data=rng.standard_cauchy((12, 96, 6)), p=3, sample_rate_hz=1.0)
        fs = extract_features(ds, max_lag=4, dependence_fn=estimator)
        for feat, data in zip(rows(fs), ds.data, strict=True):
            lags = estimator(data, 4)
            lags[0] = (lags[0] + lags[0].T) / 2.0
            np.fill_diagonal(lags[0], 1.0)
            assert_feature_equal(feat, reference_solve_canonical(lags, 3))

    def test_leading_value_squared_with_pow(self):
        c = 0.37796883434360806  # libm pow squares it one ULP above c * c
        assert c ** 2 != c * c
        deps = [scalar_dep(0.1, c), scalar_dep(0.1, -c)]
        fs = extract_features(dataset_of(2, 1, 1), max_lag=1, dependence_fn=serve(deps))
        assert [(g, lag) for _, _, g, lag in rows(fs)] == [(c ** 2, 1), (c ** 2, 1)]

    def test_failed_svd_named_as_per_block(self, monkeypatch):
        # the contract lets only finite entries through, so an SVD that does not
        # converge is simulated: it fails on a matrix with a singular value of 1,
        # which only lag 2 of block 3 has (X1 leads Y1 by two samples, exactly)
        deps = [stationary_var_instance(2, 2, 2, s) for s in range(6)]
        assert max(reference_solve_canonical(d, 2)[2] for d in deps) < 0.99
        deps[3] = np.zeros((3, 4, 4))
        deps[3][0] = np.eye(4)
        deps[3][2, 0, 2] = 1.0
        svd = np.linalg.svd

        def fails_at_one(a, *args, **kwargs):
            if (svd(a, compute_uv=False)[..., 0] > 0.999).any():
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_at_one)
        with pytest.raises(NumericError, match=r"^SVD did not converge$"):
            solve_canonical(deps[3], 2)
        with pytest.raises(NumericError, match=r"^block 3: SVD did not converge$"):
            extract_features(dataset_of(6, 2, 2), max_lag=2, dependence_fn=serve(deps))

    @pytest.mark.parametrize("size", [5, 2], ids=["repair check", "whitening"])
    def test_failed_eigh_is_numeric(self, monkeypatch, tmp_path, capsys, size):
        # eigh fails on block 2's 5 x 5 lag-0 matrix (the PSD repair check) or on its
        # 2 x 2 P_XX(0) (the whitening), alone or within a stack, as a non-convergence would
        deps = [stationary_var_instance(2, 3, 1, s) for s in range(4)]
        eigh = np.linalg.eigh

        def fails_on(target):
            def patched(a, *args, **kwargs):
                if a.shape[-1] == size and (target is None or (a == target).all(axis=(-2, -1)).any()):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return eigh(a, *args, **kwargs)
            return patched

        monkeypatch.setattr(np.linalg, "eigh", fails_on(deps[2][0, :size, :size]))
        with pytest.raises(NumericError, match=r"^Eigenvalues did not converge$"):
            solve_canonical(deps[2], 2)
        with pytest.raises(NumericError, match=r"^block 2: Eigenvalues did not converge$"):
            extract_features(dataset_of(4, 2, 3), max_lag=1, dependence_fn=serve(deps))
        # from the CLI, every eigh of that size failing: exit 3 and one line, no traceback
        monkeypatch.setattr(np.linalg, "eigh", fails_on(None))
        data = tmp_path / "rec.csv"
        np.savetxt(data, np.random.default_rng(3).standard_normal((64, 5)), delimiter=",",
                   header="a,b,c,d,e", comments="")
        out = tmp_path / "f.csv"
        rc = main(["features", "--input", str(data), "--sample-rate", "1", "--block-length",
                   "32", "--groups", "2", "3", "--max-lag", "1", "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 3 and err == "numeric failure: block 0: Eigenvalues did not converge\n"
        assert not out.exists()

    @pytest.mark.parametrize("estimator", [sine_tau_matrices, pearson_matrices])
    @pytest.mark.parametrize("seed", range(6))
    def test_duplicated_channels_whiten_above_the_floor(self, estimator, seed):
        # X2 := X1 and Y2 := Y1 make every lag-0 matrix singular, so every block is
        # repaired; the repair's floor bounds both diagonal blocks by interlacing
        ds = gen_dataset(SimConfig(seed=seed, n_blocks=12, block_length=256))
        data = ds.data.copy()
        data[:, :, 1], data[:, :, ds.p + 1] = data[:, :, 0], data[:, :, ds.p]
        fs = extract_features(replace(ds, data=data), dependence_fn=estimator)
        assert fs.block_indices == tuple(range(12))
        assert needs_psd_repair(fs.lags[:, 0]).all()
        for l0 in fs.lags[:, 0]:
            fixed = repair_psd(l0)
            for sub in (fixed[: ds.p, : ds.p], fixed[ds.p :, ds.p :]):
                assert np.linalg.eigvalsh(sub).min() >= 1e-8 - 1e-12
        assert np.isfinite(fs.d_matrix).all()

    @pytest.mark.parametrize("estimator", [sine_tau_matrices, pearson_matrices])
    def test_duplicated_channel_blocks_repaired(self, estimator):
        # with X2 := X1, the repair of 10 (Kendall) or 14 (Pearson) of these 200 blocks,
        # seed 7's among them, used to stick just under the floor, 9.99999994e-9
        data = np.stack([np.random.default_rng(s).standard_normal((48, 3)) for s in range(200)])
        data[:, :, 1] = data[:, :, 0]
        fs = extract_features(MtsDataset(data=data, p=2, sample_rate_hz=1.0), max_lag=2,
                              dependence_fn=estimator)
        assert fs.block_indices == tuple(range(200))
        assert np.isfinite(fs.d_matrix).all() and np.isfinite(fs.g_value).all()

