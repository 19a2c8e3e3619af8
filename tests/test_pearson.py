import numpy as np
import pytest
from conftest import contracted_set, lag_matrix

from fuzzcoh import pearson_matrices, sine_tau_matrices


class TestPearsonSet:
    def test_identical_channels(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        lags = pearson_matrices(np.column_stack([x, x]), 0)
        assert lags[0, 0, 1] == pytest.approx(1.0)

    def test_known_correlation_recovered(self):
        # sampling oracle: correlated Gaussian pair at rho = 0.8
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4096, 2))
        x = z[:, 0]
        y = 0.8 * z[:, 0] + np.sqrt(1 - 0.64) * z[:, 1]
        lags = pearson_matrices(np.column_stack([x, y]), 0)
        assert lags[0, 0, 1] == pytest.approx(0.8, abs=0.05)

    def test_matches_sine_tau_on_clean_gaussian(self):
        # the elliptical-model relation ties the two estimators together
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4096, 3))
        mix = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.0]])
        data = z @ np.linalg.cholesky(mix).T
        lin = contracted_set(data, 1, p=2, fn=pearson_matrices)
        rank = contracted_set(data, 1, p=2)
        for lag in (-1, 0, 1):
            assert np.abs(lag_matrix(lin, lag) - lag_matrix(rank, lag)).max() <= 0.05

    def test_cauchy_contamination_separates_estimators(self):
        # one contaminated channel: the linear estimator moves, the rank
        # estimator barely does
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4096, 2))
        x = z[:, 0]
        y = 0.8 * z[:, 0] + 0.6 * z[:, 1]
        y_bad = y + 0.1 * rng.standard_t(1, size=4096)
        block = np.column_stack([x, y_bad])
        lin = pearson_matrices(block, 0)[0, 0, 1]
        rank = sine_tau_matrices(block, 0)[0, 0, 1]
        assert abs(lin - rank) >= 0.2
        assert abs(rank - 0.8) <= 0.1

    def test_contract_parity_with_rank_set(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((128, 4))
        for fn in (pearson_matrices, sine_tau_matrices):
            dep = contracted_set(data, 2, p=2, fn=fn)
            assert np.all(np.diag(dep.lags[0]) == 1.0)
            np.testing.assert_array_equal(dep.lags[0], dep.lags[0].T)
            for lag in (1, 2):
                np.testing.assert_array_equal(lag_matrix(dep, -lag), dep.lags[lag].T)

    def test_lagged_entries(self):
        # y(t) = x(t-1): linear correlation peaks at lag +1
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512)
        lags = pearson_matrices(np.column_stack([x[1:], x[:-1]]), 2)
        assert lags[1, 0, 1] == pytest.approx(1.0, abs=1e-9)
        assert abs(lags[0, 0, 1]) < 0.2
