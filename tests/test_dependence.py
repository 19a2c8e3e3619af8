import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import brute_force_tau, brute_force_tau_numerator, contracted_set, lag_matrix

from fuzzcoh import DataError, kendall_tau, repair_psd, sine_tau_matrices
from fuzzcoh import dependence
from fuzzcoh.dependence import lagged_tau_matrices


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
            assert kendall_tau(x, y) == brute_force_tau_numerator(x, y) / (n * (n - 1) // 2)

    def test_constant_series_returns_zero(self):
        for tau in (kendall_tau(np.ones(10), np.arange(10.0)),
                    kendall_tau(np.arange(10.0), np.full(10, 3.0)),
                    kendall_tau([2.0, 2.0], [5.0, 5.0])):
            assert type(tau) is float and tau == 0.0 and math.copysign(1.0, tau) == 1.0

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="need at least 2 observations, got 1"):
            kendall_tau(np.array([1.0]), np.array([2.0]))

    @pytest.mark.parametrize("x, y", [(np.zeros(5), np.zeros(6)),
                                      (np.zeros((5, 2)), np.zeros((5, 2)))])
    def test_shapes_checked(self, x, y):
        with pytest.raises(DataError, match="need two equal-length 1-D series"):
            kendall_tau(x, y)


class TestSineTransform:
    """``sine_tau_matrices`` maps every tau entry through sin(pi * tau / 2)."""

    def test_fixed_points(self):
        # tau of x with y is 0 (three concordant, three discordant pairs), with -x is -1
        x = np.array([1.0, 2.0, 3.0, 4.0])
        lags = sine_tau_matrices(np.column_stack([x, [1.0, 4.0, 3.0, 2.0], -x]), 0)
        assert (lags[0, 0, 0], lags[0, 0, 1], lags[0, 0, 2]) == (1.0, 0.0, -1.0)

    def test_two_thirds(self):
        # tau 4/6 (the hand example), so sin(pi/3), against the high-precision value
        lags = sine_tau_matrices(np.array([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0], [4.0, 4.0]]), 0)
        assert lags[0, 0, 1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_odd_and_monotone(self):
        data = random_block(T=40, channels=6, seed=4)
        taus, vals = lagged_tau_matrices(data, 3).ravel(), sine_tau_matrices(data, 3)
        order = np.argsort(taus)
        steps = np.diff(vals.ravel()[order])
        np.testing.assert_array_equal(steps > 0, np.diff(taus[order]) > 0)
        assert (steps >= 0).all()
        data[:, 0] *= -1  # negates tau between channel 0 and the others, exactly
        np.testing.assert_array_equal(sine_tau_matrices(data, 3)[:, 0, 1:], -vals[:, 0, 1:])

    def test_stack_equals_per_block(self):
        data = np.random.default_rng(5).standard_cauchy((2, 3, 40, 4))
        data[0, 1, :, 2] = 0.5
        lags = sine_tau_matrices(data, 3)
        assert lags.shape == (2, 3, 4, 4, 4)
        for i in np.ndindex(2, 3):
            expected = np.sin(np.pi / 2.0 * lagged_tau_matrices(data[i], 3))
            assert lags[i].tobytes() == expected.tobytes()
            assert sine_tau_matrices(data[i], 3).tobytes() == expected.tobytes()


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

    @staticmethod
    def tied_block(T, rng):
        return np.column_stack([
            rng.standard_normal(T),
            rng.integers(0, 3, T).astype(float),  # heavy ties
            np.round(2 * rng.standard_normal(T)),
            np.full(T, 0.5),  # constant channel
        ])

    def assert_sums_match_oracle(self, data, max_lag):
        T, m = data.shape
        sums = dependence._concordance_sums(data, max_lag)
        for lag in range(max_lag + 1):
            n = T - lag
            for j in range(m):
                for k in range(m):
                    expected = brute_force_tau_numerator(data[:n, j], data[lag:, k])
                    assert sums[lag, j, k] == expected, (T, lag, j, k)

    @pytest.mark.parametrize("rows, cols", [(3, 5), (5, 2), (2, 7)])
    def test_tiled_kernel_matches_oracle_across_tile_edges(self, monkeypatch, rows, cols):
        # small tiles make short series cross many strip and tile edges and t = T - 1;
        # T = 3 * rows + 2 ends on a strip of one row, the longer series have several
        # d-tiles per strip and a max lag past TILE_ROWS
        monkeypatch.setattr(dependence, "TILE_ROWS", rows)
        monkeypatch.setattr(dependence, "TILE_COLS", cols)
        rng = np.random.default_rng(rows * 10 + cols)
        for T in sorted({2, rows, rows + 1, 3 * rows + 2, max(2, cols - 1), cols + 1,
                         rows + cols, 4 * (rows + cols) + 1}):
            self.assert_sums_match_oracle(self.tied_block(T, rng), min(rows + 4, T - 2))

    def test_tiled_kernel_matches_oracle_at_production_tiles(self):
        # unpatched tiles: T - 1 gaps d make three d-tiles in the early row strips, the
        # last one 6 columns wide, and lag tails run past strip edges and past t = T - 1
        T = 2 * dependence.TILE_COLS + 7
        self.assert_sums_match_oracle(self.tied_block(T, np.random.default_rng(775)), 5)

    def test_tiled_kernel_matches_oracle_with_many_channels(self):
        # 11 channels take fewer production tile rows (43) than 8 do
        T, rng = dependence.TILE_COLS + 60, np.random.default_rng(777)
        data = np.column_stack([self.tied_block(T, rng), rng.standard_normal((T, 4)),
                                rng.integers(0, 4, (T, 3)).astype(float)])
        self.assert_sums_match_oracle(data, 3)

    def test_tiled_kernel_matches_oracle_at_the_largest_lag(self):
        # max_lag = T - MIN_ALIGNED, the largest lag a block may have: the sign
        # buffer holds far more tail rows than head rows
        T = dependence.TILE_ROWS + dependence.TILE_COLS + 3
        data = self.tied_block(T, np.random.default_rng(776))[:, :3]
        self.assert_sums_match_oracle(data, T - dependence.MIN_ALIGNED)

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
        lags = contracted_set(data, 3, p=2)
        transforms = [np.exp, lambda v: v ** 3, np.arctan, lambda v: 2.5 * v + 7.0]
        for c, fn in enumerate(transforms):
            data[:, c] = fn(data[:, c])
        lags2 = contracted_set(data, 3, p=2)
        for lag in range(-3, 4):
            np.testing.assert_array_equal(lag_matrix(lags, lag), lag_matrix(lags2, lag))

    def test_lag_antisymmetry_bitwise(self):
        lags = contracted_set(random_block(seed=5), 4, p=2)
        for lag in range(1, 5):
            np.testing.assert_array_equal(lag_matrix(lags, -lag), lags[lag].T)

    def test_unit_diagonal_exact(self):
        lags = contracted_set(random_block(seed=6), 2, p=2)
        assert np.all(np.diag(lags[0]) == 1.0)

    def test_tile_buffers_come_from_the_aligned_allocator(self, monkeypatch):
        made, aligned = [], dependence._aligned_f32

        def spy(n):
            made.append(n)
            return aligned(n)

        monkeypatch.setattr(dependence, "_aligned_f32", spy)
        for m in (3, 8, 12):
            made.clear()
            dependence._concordance_sums(random_block(T=300, channels=m, seed=9), 4)
            assert len(made) == 2  # the sign buffer and the lag-0 head copy
            # the head copy spans the deepest GEMM: m * m * depth stays within
            # OpenBLAS's small-matrix sgemm
            assert m * made[1] <= 10**6

    def test_tile_buffers_cache_line_aligned(self):
        for n in (1, 5, 16, 17, 100003):
            buf = dependence._aligned_f32(n)
            assert buf.dtype == np.float32 and buf.shape == (n,)
            assert buf.ctypes.data % 64 == 0


class TestRepairPsd:
    @pytest.mark.parametrize("matrix, match", [
        (np.ones((2, 3)), "need a square matrix, got shape (2, 3)"),
        (np.ones(3), "need a square matrix, got shape (3,)"),
        ([[1.0, 0.5], [0.2, 1.0]], "matrix is not symmetric within 1e-10"),
        ([[1.0, 0.0], [0.0, 0.0]], "PSD repair requires a strictly positive diagonal"),
        ([[-1.0, 0.0], [0.0, 1.0]], "PSD repair requires a strictly positive diagonal"),
    ])
    def test_bad_input_rejected(self, matrix, match):
        with pytest.raises(DataError, match=f"^{re.escape(match)}$"):
            repair_psd(matrix)

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
