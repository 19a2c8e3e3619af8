import numpy as np
import pytest
from conftest import grid_oracle_best_g
from scipy import linalg as sla

from fuzzcoh import (
    DegenerateBlockError,
    LaggedDependenceSet,
    MtsBlock,
    MtsDataset,
    extract_features,
    solve_canonical,
)


def scalar_dep(xy0, xy1, yx1=0.1):
    """p=q=1 dependence set with chosen cross entries at lags 0 and 1."""
    m0 = np.array([[1.0, xy0], [xy0, 1.0]])
    m1 = np.array([[0.05, xy1], [yx1, 0.05]])
    return LaggedDependenceSet(p=1, q=1, lags=np.stack([m0, m1]))


def stationary_var_instance(p, q, max_lag, seed):
    """Valid lagged correlation structure from a stable VAR(1) process.

    Autocovariances of a stationary process embed in a PSD augmented
    matrix, so whitened canonical values stay at most 1.
    """
    rng = np.random.default_rng(seed)
    m = p + q
    a = rng.standard_normal((m, m))
    a *= 0.7 / max(abs(np.linalg.eigvals(a)))
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
    return LaggedDependenceSet(p=p, q=q, lags=np.stack(mats))


class TestSolveCanonical:
    def test_scalar_case(self):
        feat = solve_canonical(scalar_dep(0.2, 0.7))
        assert feat.best_lag == 1
        assert feat.g_value == pytest.approx(0.49, abs=1e-12)
        np.testing.assert_allclose(feat.u, [1.0])
        np.testing.assert_allclose(feat.v, [1.0])
        np.testing.assert_allclose(feat.d, [1.0, 1.0])

    def test_zero_cross_documented_rule(self):
        feat = solve_canonical(scalar_dep(0.0, 0.0, yx1=0.0))
        assert feat.g_value == 0.0
        assert feat.best_lag == 0
        np.testing.assert_allclose(feat.d, [1.0, 1.0])

    def test_grid_oracle_dominated(self):
        for seed in range(25):
            dep = stationary_var_instance(2, 2, 1, seed)
            feat = solve_canonical(dep)
            crosses = [dep.xy(lag) for lag in (-1, 0, 1)]
            oracle = grid_oracle_best_g(dep.xx(0), dep.yy(0), crosses)
            assert feat.g_value >= oracle - 1e-6
            assert feat.g_value <= 1.0 + 1e-8

    def test_constraint_residuals(self):
        from fuzzcoh import repair_psd

        for seed in range(10):
            dep = stationary_var_instance(3, 2, 2, seed)
            feat = solve_canonical(dep)
            p0 = repair_psd(dep.matrix(0))
            ru = abs(feat.u @ p0[:3, :3] @ feat.u - 1.0)
            rv = abs(feat.v @ p0[3:, 3:] @ feat.v - 1.0)
            assert ru <= 1e-8 and rv <= 1e-8

    def test_sign_convention_and_d_invariance(self):
        dep = stationary_var_instance(2, 2, 1, 3)
        feat = solve_canonical(dep)
        assert feat.u[np.argmax(np.abs(feat.u))] > 0
        # flipping every cross matrix flips (u, v) jointly; d is unchanged
        flipped = -dep.lags
        m0 = dep.lags[0].copy()
        m0[:2, 2:] *= -1
        m0[2:, :2] *= -1
        flipped[0] = m0
        feat2 = solve_canonical(
            LaggedDependenceSet(p=2, q=2, lags=flipped)
        )
        assert feat2.g_value == pytest.approx(feat.g_value, abs=1e-12)
        np.testing.assert_allclose(feat2.d, feat.d, atol=1e-9)

    def test_deterministic(self):
        dep = stationary_var_instance(2, 2, 2, 11)
        a = solve_canonical(dep)
        b = solve_canonical(dep)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        assert a.g_value == b.g_value and a.best_lag == b.best_lag

    def test_lag_tiebreak_prefers_zero_then_positive(self):
        m0 = np.eye(2)
        m0[0, 1] = m0[1, 0] = 0.5
        m1 = np.array([[0.0, 0.5], [0.0, 0.0]])
        dep = LaggedDependenceSet(p=1, q=1, lags=np.stack([m0, m1]))
        # identical 0.5 cross at lags 0 and +1: lag 0 wins
        assert solve_canonical(dep).best_lag == 0


class TestExtractFeatures:
    def make_dataset(self, n_blocks=3, T=64, seed=0, flatline_block=None):
        rng = np.random.default_rng(seed)
        blocks = []
        for b in range(n_blocks):
            data = rng.standard_normal((T, 8))
            if b == flatline_block:
                data[:, 2] = 0.0
            blocks.append(MtsBlock(data=data, p=4, q=4, sample_rate_hz=128.0))
        return MtsDataset(blocks=tuple(blocks))

    def test_feature_dimensions(self):
        ds = self.make_dataset(n_blocks=5)
        fs = extract_features(ds, max_lag=3)
        assert fs.d_matrix.shape == (5, 8)
        assert fs.block_indices == (0, 1, 2, 3, 4)
        assert all(np.all(f.d >= 0) for f in fs.features)

    def test_singleton_dataset(self):
        fs = extract_features(self.make_dataset(n_blocks=1), max_lag=2)
        assert len(fs) == 1

    def test_flatline_raises_without_skip(self):
        ds = self.make_dataset(n_blocks=4, flatline_block=2)
        with pytest.raises(DegenerateBlockError, match="block 2"):
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
        warped = [
            b.with_data(np.arctan(b.data) * 3.0 + 1.5) for b in ds.blocks
        ]
        fs2 = extract_features(ds.with_blocks(warped), max_lag=2)
        np.testing.assert_array_equal(fs1.d_matrix, fs2.d_matrix)
