import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import brute_force_tau, brute_force_tau_numerator, contracted_set, lag_matrix

from fuzzcoh import (
    DataError,
    LaggedDependenceSet,
    kendall_tau,
    repair_psd,
    sine_tau_matrices,
    sine_transform,
)
from fuzzcoh import dependence
from fuzzcoh.dependence import concordant_minus_discordant, lagged_tau_matrices


def random_block(T=64, channels=4, seed=0):
    return np.random.default_rng(seed).standard_normal((T, channels))


class TestKendallTau:
    def test_perfect_concordance(self):
        x = np.arange(10.0)
        assert kendall_tau(x, x ** 3 + 2) == 1.0

    def test_perfect_discordance(self):
        x = np.arange(10.0)
        assert kendall_tau(x, -x) == -1.0

    def test_hand_example(self):
        # all six pairs enumerated: 5 concordant, 1 discordant
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 3.0, 2.0, 4.0])
        assert brute_force_tau(x, y) == pytest.approx(4 / 6)
        assert kendall_tau(x, y) == pytest.approx(4 / 6)

    def test_matches_brute_force_exactly_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            if rng.random() < 0.5:
                x = rng.integers(0, 6, n).astype(float)  # heavy ties
                y = rng.integers(0, 6, n).astype(float)
            else:
                x = rng.standard_normal(n)
                y = rng.standard_normal(n)
            assert concordant_minus_discordant(x, y) == brute_force_tau_numerator(x, y)

    def test_constant_series_returns_zero(self):
        assert kendall_tau(np.ones(10), np.arange(10.0)) == 0.0
        assert kendall_tau(np.arange(10.0), np.full(10, 3.0)) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            kendall_tau(np.array([1.0]), np.array([2.0]))


class TestSineTransform:
    def test_fixed_points(self):
        assert sine_transform(0.0) == 0.0
        assert sine_transform(1.0) == 1.0
        assert sine_transform(-1.0) == -1.0

    def test_two_thirds(self):
        # sin(pi/3), cross-checked against the high-precision value
        assert sine_transform(2 / 3) == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DataError):
            sine_transform(1.0001)
        with pytest.raises(DataError):
            sine_transform(-2.0)

    def test_odd_and_monotone(self):
        grid = np.linspace(-1, 1, 41)
        vals = np.array([sine_transform(t) for t in grid])
        assert np.all(np.diff(vals) > 0)
        np.testing.assert_allclose(vals, -vals[::-1], atol=1e-15)


class TestDependenceSet:
    def test_identical_channels_unit_cross(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64)
        lags = sine_tau_matrices(np.column_stack([x, x]), max_lag=0)
        assert lags[0, 0, 1] == pytest.approx(1.0)

    def test_exact_lag_relation(self):
        # y(t) = x(t-1): the cross entry peaks at lag +1 where y(t+1) = x(t)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(129)
        lags = sine_tau_matrices(np.column_stack([x[1:], x[:-1]]), max_lag=2)
        assert lags[1, 0, 1] == pytest.approx(1.0)
        assert lags[0, 0, 1] < 0.9

    def test_white_noise_null_rate(self):
        # per-entry null: |entry| <= 0.15 should hold ~99% of the time at n=384
        exceed = 0
        trials = 200
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            lags = sine_tau_matrices(rng.standard_normal((384, 2)), max_lag=0)
            exceed += abs(lags[0, 0, 1]) > 0.15
        assert exceed / trials <= 0.03

    def test_vectorized_equals_scalar_exactly(self):
        data = random_block(T=48, channels=4, seed=7)
        taus = lagged_tau_matrices(data, 3)
        for lag in range(4):
            n = 48 - lag
            for j in range(4):
                for k in range(4):
                    expected = kendall_tau(data[:n, j], data[lag:, k])
                    assert taus[lag][j, k] == expected

    @pytest.mark.parametrize("rows, cols", [(3, 5), (5, 2)])
    def test_tiled_kernel_matches_oracle_across_tile_edges(self, monkeypatch, rows, cols):
        # small tiles make short series cross many strip, tile and diagonal edges
        monkeypatch.setattr(dependence, "TILE_ROWS", rows)
        monkeypatch.setattr(dependence, "TILE_COLS", cols)
        rng = np.random.default_rng(rows * 10 + cols)
        for T in sorted({2, rows, rows + 1, max(2, cols - 1), cols + 1, rows + cols,
                         4 * (rows + cols) + 1}):
            data = np.column_stack([
                rng.standard_normal(T),
                rng.integers(0, 3, T).astype(float),  # heavy ties
                np.round(2 * rng.standard_normal(T)),
                np.full(T, 0.5),  # constant channel
            ])
            max_lag = min(7, T - 2)  # exceeds cols for the longer series
            taus = lagged_tau_matrices(data, max_lag)
            for lag in range(max_lag + 1):
                n = T - lag
                for j in range(4):
                    for k in range(4):
                        expected = (brute_force_tau_numerator(data[:n, j], data[lag:, k])
                                    / (n * (n - 1) // 2))
                        assert taus[lag][j, k] == expected, (T, lag, j, k)

    def test_tiled_kernel_matches_oracle_at_production_tiles(self):
        # unpatched tiles: three column tiles per early row strip, the last one
        # partial, and lag tails past every tile edge and past the end
        T, max_lag = 2 * dependence.TILE_COLS + 7, 5
        rng = np.random.default_rng(775)
        data = np.column_stack([
            rng.standard_normal(T),
            rng.integers(0, 3, T).astype(float),  # heavy ties
            np.round(2 * rng.standard_normal(T)),
            np.full(T, 0.5),  # constant channel
        ])
        sums = dependence._concordance_sums(data, max_lag)
        for lag in range(max_lag + 1):
            n = T - lag
            for j in range(4):
                for k in range(4):
                    expected = brute_force_tau_numerator(data[:n, j], data[lag:, k])
                    assert sums[lag, j, k] == expected, (lag, j, k)

    def test_kernel_memory_does_not_grow_with_block_length(self):
        # the full (m, T, T) sign tensor would need 1 GiB here
        data = np.random.default_rng(0).standard_normal((4096, 8))
        tracemalloc.start()
        try:
            lagged_tau_matrices(data, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

    def test_kernel_rejects_series_past_exact_range(self):
        # a zero-stride view: the length check runs before any data is read
        data = np.broadcast_to(np.zeros(1), (2**24, 2))
        with pytest.raises(DataError, match="2\\*\\*24"):
            lagged_tau_matrices(data, 0)

    def test_monotone_transform_invariance(self):
        data = random_block(T=96, channels=4, seed=3)
        dep = contracted_set(data, 3, p=2)
        transforms = [np.exp, lambda v: v ** 3, np.arctan, lambda v: 2.5 * v + 7.0]
        for c, fn in enumerate(transforms):
            data[:, c] = fn(data[:, c])
        dep2 = contracted_set(data, 3, p=2)
        for lag in range(-3, 4):
            np.testing.assert_array_equal(lag_matrix(dep, lag), lag_matrix(dep2, lag))

    def test_lag_antisymmetry_bitwise(self):
        dep = contracted_set(random_block(seed=5), 4, p=2)
        for lag in range(1, 5):
            np.testing.assert_array_equal(lag_matrix(dep, -lag), dep.lags[lag].T)

    def test_unit_diagonal_exact(self):
        dep = contracted_set(random_block(seed=6), 2, p=2)
        assert np.all(np.diag(dep.lags[0]) == 1.0)

    @pytest.mark.parametrize("lags", [np.eye(4), np.stack([np.eye(3)] * 2)])
    def test_lags_shape_checked(self, lags):
        with pytest.raises(DataError, match=re.escape("expected (L+1, 4, 4)")):
            LaggedDependenceSet(p=2, q=2, lags=lags)

    def test_tile_buffers_cache_line_aligned(self):
        for n in (1, 5, 16, 17, 100003):
            buf = dependence._aligned_f32(n)
            assert buf.dtype == np.float32 and buf.shape == (n,)
            assert buf.ctypes.data % 64 == 0


class TestRepairPsd:
    def test_identity_unchanged(self):
        np.testing.assert_array_equal(repair_psd(np.eye(4)), np.eye(4))

    def test_psd_input_unchanged(self):
        m = np.array([[1.0, 0.9], [0.9, 1.0]])
        np.testing.assert_array_equal(repair_psd(m), m)

    def test_indefinite_input_repaired(self):
        # matrix with eigenvalues (1.5, 0.6, -0.1) from a fixed rotation
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = (q * np.array([1.5, 0.6, -0.1])) @ q.T
        m = (m + m.T) / 2
        # make the diagonal positive (needed for the rescale step)
        m += np.eye(3) * (abs(min(np.diag(m).min(), 0.0)) + 0.2)
        fixed = repair_psd(m)
        assert np.linalg.eigvalsh(fixed).min() >= 0
        np.testing.assert_allclose(np.diag(fixed), np.diag(m), atol=1e-12)
        # the repair stays close to the minimal-Frobenius eigenvalue clip
        w, v = np.linalg.eigh(m)
        clip_only = (v * np.clip(w, 1e-8, None)) @ v.T
        assert np.linalg.norm(fixed - m) <= np.linalg.norm(clip_only - m) * 1.5 + 1e-6

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        m = (a + a.T) / 2
        m += np.eye(5) * (abs(np.diag(m).min()) + 1.0)
        once = repair_psd(m)
        np.testing.assert_array_equal(repair_psd(once), once)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2 + np.eye(6) * 3
        out = repair_psd(m)
        np.testing.assert_array_equal(out, out.T)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DataError, match="symmetric"):
            repair_psd(m)
