import tracemalloc

import numpy as np
import pytest
from conftest import contracted_set, lag_matrix

from fuzzcoh import load_csv, pearson_matrices, sine_tau_matrices
from fuzzcoh.pearson import _CHUNK_BYTES


def lagged_correlation(data, lag):
    """One (T, m) block's corr(Z_j(t), Z_k(t + lag)) per (j, k), alone: the oracle."""
    n = data.shape[0] - lag
    head = data[:n]
    tail = data[lag:]
    hm = head - head.mean(axis=0)
    tm = tail - tail.mean(axis=0)
    hs = np.sqrt((hm * hm).sum(axis=0))
    ts = np.sqrt((tm * tm).sum(axis=0))
    hs_safe = np.where(hs == 0, 1.0, hs)
    ts_safe = np.where(ts == 0, 1.0, ts)
    corr = (hm / hs_safe).T @ (tm / ts_safe)
    corr[hs == 0, :] = 0.0
    corr[:, ts == 0] = 0.0
    return np.clip(corr, -1.0, 1.0)


def stack_cases():
    """(B, T, m) at one block, one chunk, one chunk + 1 and, while it stays small, 300."""
    for m in (2, 4, 8, 32):
        for T in (37, 384, 2048):
            chunk = max(1, _CHUNK_BYTES // (8 * T * m))
            sizes = {1, chunk, chunk + 1} | ({300} if T * m <= 384 * 8 else set())
            for B in sorted(sizes):
                yield B, T, m


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
            lags = contracted_set(data, 2, p=2, fn=fn)
            assert np.all(np.diag(lags[0]) == 1.0)
            np.testing.assert_array_equal(lags[0], lags[0].T)
            for lag in (1, 2):
                np.testing.assert_array_equal(lag_matrix(lags, -lag), lags[lag].T)

    def test_a_huge_cell_leaves_no_channel_all_zero(self, tmp_path):
        # the square of 1e200 overflows: unless the centred channel is rescaled first,
        # its norm is inf and every correlation of the block's X3 is 0
        table = np.random.default_rng(4).standard_normal((4 * 64, 6))
        table[100, 2] = 1e200
        path = tmp_path / "rec.csv"
        np.savetxt(path, table, delimiter=",", header="X1,X2,X3,Y1,Y2,Y3", comments="")
        lags = pearson_matrices(load_csv(path, sample_rate_hz=128.0, block_length=64).data, 3)
        assert (lags != 0).any(axis=-1).all() and (lags != 0).any(axis=-2).all()

    def test_lagged_entries(self):
        # y(t) = x(t-1): linear correlation peaks at lag +1
        rng = np.random.default_rng(5)
        x = rng.standard_normal(512)
        lags = pearson_matrices(np.column_stack([x[1:], x[:-1]]), 2)
        assert lags[1, 0, 1] == pytest.approx(1.0, abs=1e-9)
        assert abs(lags[0, 0, 1]) < 0.2


class TestPearsonStack:
    """The stack computed time-major in chunks equals the per-block oracle bit for bit."""

    @pytest.mark.parametrize("max_lag", [0, 5])
    @pytest.mark.parametrize("B, T, m", list(stack_cases()))
    def test_equals_per_block(self, B, T, m, max_lag):
        data = np.random.default_rng(B * T + m).standard_cauchy((B, T, m))
        data[0, :, 0] = 3.0  # a constant channel
        data[-1, :, m - 1] = 0.1  # an inexact mean: tiny nonzero centred values
        lags = pearson_matrices(data, max_lag)
        oracle = np.array([[lagged_correlation(block, lag) for lag in range(max_lag + 1)]
                           for block in data])
        assert lags.shape == (B, max_lag + 1, m, m)
        assert lags.tobytes() == oracle.tobytes()

    def test_block_is_a_stack_of_one(self):
        data = np.random.default_rng(7).standard_normal((96, 5))
        assert pearson_matrices(data, 3).tobytes() == pearson_matrices(data[None], 3)[0].tobytes()
        stacked = np.random.default_rng(8).standard_normal((2, 3, 96, 5))
        np.testing.assert_array_equal(pearson_matrices(stacked, 2),
                                      pearson_matrices(stacked.reshape(6, 96, 5), 2).reshape(
                                          2, 3, 3, 5, 5))

    @pytest.mark.parametrize("estimator", [pearson_matrices, sine_tau_matrices])
    def test_empty_stack(self, estimator):
        assert estimator(np.empty((0, 32, 4)), 2).shape == (0, 3, 4, 4)

    @pytest.mark.parametrize("shape", [(300, 384, 8), (40, 2048, 32)])
    def test_working_set_bounded(self, shape):
        data = np.random.default_rng(9).standard_normal(shape)
        tracemalloc.start()
        try:
            lags = pearson_matrices(data, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - lags.nbytes <= 2 * 2**20
