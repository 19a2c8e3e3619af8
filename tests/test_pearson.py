import numpy as np
import pytest

from fuzzcoh import MtsBlock, dependence_set, pearson_dependence_set


def block_from(data, p=None):
    data = np.asarray(data)
    p = p or data.shape[1] // 2
    return MtsBlock(data=data, p=p, q=data.shape[1] - p, sample_rate_hz=128.0)


class TestPearsonSet:
    def test_identical_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        dep = pearson_dependence_set(block_from(np.column_stack([x, x]), p=1), 0)
        assert dep.xy(0)[0, 0] == pytest.approx(1.0)

    def test_known_correlation_recovered(self):
        # sampling oracle: correlated Gaussian pair at rho = 0.8
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4096, 2))
        x = z[:, 0]
        y = 0.8 * z[:, 0] + np.sqrt(1 - 0.64) * z[:, 1]
        dep = pearson_dependence_set(block_from(np.column_stack([x, y]), p=1), 0)
        assert dep.xy(0)[0, 0] == pytest.approx(0.8, abs=0.05)

    def test_matches_sine_tau_on_clean_gaussian(self):
        # the elliptical-model relation ties the two estimators together
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4096, 3))
        mix = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.0]])
        data = z @ np.linalg.cholesky(mix).T
        block = block_from(data, p=2)
        lin = pearson_dependence_set(block, 1)
        rank = dependence_set(block, 1)
        for lag in (-1, 0, 1):
            assert np.abs(lin.matrix(lag) - rank.matrix(lag)).max() <= 0.05

    def test_cauchy_contamination_separates_estimators(self):
        # one contaminated channel: the linear estimator moves, the rank
        # estimator barely does
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4096, 2))
        x = z[:, 0]
        y = 0.8 * z[:, 0] + 0.6 * z[:, 1]
        y_bad = y + 0.1 * rng.standard_t(1, size=4096)
        block = block_from(np.column_stack([x, y_bad]), p=1)
        lin = pearson_dependence_set(block, 0).xy(0)[0, 0]
        rank = dependence_set(block, 0).xy(0)[0, 0]
        assert abs(lin - rank) >= 0.2
        assert abs(rank - 0.8) <= 0.1

    def test_contract_parity_with_rank_set(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((128, 4))
        data[:, 3] = -1.25  # constant channel
        block = block_from(data, p=2)
        dep = pearson_dependence_set(block, 2)
        assert dep.degenerate_channels == (3,)
        assert np.all(np.diag(dep.matrix(0)) == 1.0)
        for lag in (1, 2):
            np.testing.assert_array_equal(dep.matrix(-lag), dep.matrix(lag).T)
        assert np.all(dep.matrix(1)[3, :] == 0.0)

    def test_inexact_constant_channel_zeroed_at_every_lag(self):
        # 0.1 repeated has an inexact float mean, so its centred values are
        # tiny but nonzero; the shared contract still zeroes the channel
        rng = np.random.default_rng(6)
        data = rng.standard_cauchy((37, 4))
        data[:, 1] = 0.1
        for fn in (pearson_dependence_set, dependence_set):
            dep = fn(block_from(data, p=2), 2)
            assert dep.degenerate_channels == (1,)
            for lag in range(-2, 3):
                expected = 1.0 if lag == 0 else 0.0
                mat = dep.matrix(lag)
                assert np.all(np.delete(mat[1], 1) == 0.0)
                assert np.all(np.delete(mat[:, 1], 1) == 0.0)
                assert mat[1, 1] == expected

    def test_lagged_entries(self):
        # y(t) = x(t-1): linear correlation peaks at lag +1
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512)
        block = block_from(np.column_stack([x[1:], x[:-1]]), p=1)
        dep = pearson_dependence_set(block, 2)
        assert dep.xy(1)[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert abs(dep.xy(0)[0, 0]) < 0.2
