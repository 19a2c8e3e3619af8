import numpy as np
import pytest
from conftest import brute_force_fsi, two_blobs

from fuzzcoh import ConfigError, FuzzyPartition, fcm_fit, fsi, grid_search
from fuzzcoh.clustering import DEFAULT_M_GRID, init_centers


class TestFcmFit:
    def test_hand_derived_membership_update(self):
        # centers 0 and 3, point at 1: squared distances 1 and 4, m=2
        # -> memberships (1/(1+1/4), ...) = (0.8, 0.2)
        features = np.array([[0.0], [3.0], [1.0]])
        init = np.array([[0.0], [3.0]])
        part = fcm_fit(features, 2, 2.0, max_iter=0, init=init)
        np.testing.assert_allclose(part.memberships[2], [0.8, 0.2], atol=1e-12)

    def test_coincidence_rule_crisp(self):
        features = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [5.0, 5.0]])
        init = np.array([[0.0, 0.0], [5.0, 5.0]])
        part = fcm_fit(features, 2, 2.0, max_iter=0, init=init)
        np.testing.assert_array_equal(part.memberships[0], [1.0, 0.0])
        np.testing.assert_array_equal(part.memberships[1], [0.0, 1.0])

    def test_separated_blobs_crisp(self):
        x, _ = two_blobs(20, 8, gap=1.0, sigma=0.01, seed=1)
        part = fcm_fit(x, 2, 1.2, seed=0)
        assert part.memberships.max(axis=1).min() >= 0.99
        assert part.converged

    def test_near_hard_limit(self):
        x, _ = two_blobs(15, 4, gap=2.0, sigma=0.05, seed=2)
        part = fcm_fit(x, 2, 1.01, seed=0)
        assert part.memberships.max(axis=1).min() >= 0.999

    def test_row_sums_and_trace(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            x = rng.standard_normal((rng.integers(8, 40), rng.integers(1, 6)))
            c = int(rng.integers(2, min(5, len(x))))
            m = float(rng.uniform(1.1, 3.0))
            part = fcm_fit(x, c, m, seed=trial, n_restarts=2)
            assert np.abs(part.memberships.sum(axis=1) - 1.0).max() <= 1e-10
            trace = np.array(part.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((25, 3))
        init = init_centers(x, 3, np.random.default_rng(42))
        part = fcm_fit(x, 3, 1.7, init=init)
        perm = rng.permutation(25)
        part_p = fcm_fit(x[perm], 3, 1.7, init=init)
        np.testing.assert_allclose(part_p.memberships, part.memberships[perm], atol=1e-12)

    def test_errors(self):
        x = np.zeros((3, 2))
        with pytest.raises(ConfigError):
            fcm_fit(x, 3, 2.0)  # C >= B
        with pytest.raises(ConfigError):
            fcm_fit(np.zeros((10, 2)), 2, 1.0)  # m <= 1
        bad = np.zeros((10, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ConfigError):
            fcm_fit(bad, 2, 2.0)

    def test_zero_restarts_rejected(self):
        x = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ConfigError, match="n_restarts must be >= 1, got 0"):
            fcm_fit(x, 2, 2.0, n_restarts=0)
        # a run-wide setting: the grid raises instead of recording failed cells
        with pytest.raises(ConfigError, match="n_restarts must be >= 1, got 0"):
            grid_search(x, c_values=(2, 3), m_values=(2.0,), n_restarts=0)

    def test_restart_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        a = fcm_fit(x, 3, 1.8, seed=7)
        b = fcm_fit(x, 3, 1.8, seed=7)
        np.testing.assert_array_equal(a.memberships, b.memberships)
        np.testing.assert_array_equal(a.centers, b.centers)


def crisp_partition(features, labels, n_clusters, m=2.0, eps=1e-6):
    """Near-crisp membership matrix aligned with integer labels."""
    b = len(labels)
    e = np.full((b, n_clusters), eps / (n_clusters - 1))
    e[np.arange(b), labels] = 1.0 - eps
    centers = np.array([features[labels == c].mean(axis=0) for c in range(n_clusters)])
    return FuzzyPartition(
        memberships=e, centers=centers, fuzziness=m,
        objective_trace=(1.0,), iterations=1, converged=True, seed=0,
    )


class TestFsi:
    def test_distant_blobs_high_index(self):
        x, labels = two_blobs(10, 3, gap=50.0, sigma=0.5, seed=0)
        report = fsi(x, crisp_partition(x, labels, 2))
        assert report.cells[0].fsi >= 0.9

    def test_identical_points_zero(self):
        x = np.ones((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        report = fsi(x, crisp_partition(x, labels, 2))
        assert report.cells[0].fsi == 0.0

    def test_uniform_memberships_score_lower(self):
        x, labels = two_blobs(10, 3, gap=20.0, sigma=0.5, seed=1)
        crisp = fsi(x, crisp_partition(x, labels, 2)).cells[0].fsi
        e = np.full((20, 2), 0.5)
        centers = np.array([x.mean(axis=0), x.mean(axis=0) + 0.1])
        uniform = FuzzyPartition(
            memberships=e, centers=centers, fuzziness=2.0,
            objective_trace=(1.0,), iterations=1, converged=True, seed=0,
        )
        assert fsi(x, uniform).cells[0].fsi < crisp

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((15, 2))
        part = fcm_fit(x, 3, 1.5, seed=0, n_restarts=2)
        value = fsi(x, part).cells[0].fsi
        perm = [2, 0, 1]
        swapped = FuzzyPartition(
            memberships=part.memberships[:, perm], centers=part.centers[perm],
            fuzziness=part.fuzziness, objective_trace=part.objective_trace,
            iterations=part.iterations, converged=part.converged, seed=part.seed,
        )
        assert fsi(x, swapped).cells[0].fsi == pytest.approx(value, abs=1e-12)

    def test_in_range(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            x = rng.standard_normal((12, 3))
            part = fcm_fit(x, 2, 2.0, seed=trial, n_restarts=2)
            assert -1.0 <= fsi(x, part).cells[0].fsi <= 1.0

    @staticmethod
    def random_case(rng, kind):
        n, c = int(rng.integers(3, 30)), int(rng.integers(2, 7))
        x = rng.standard_normal((n, int(rng.integers(1, 5))))
        if kind == "tied":
            x = np.round(x)  # many coincident points
        elif kind == "identical":
            x = np.ones_like(x)
        e = rng.dirichlet(np.full(c, rng.choice([0.2, 1.0, 5.0])), size=n)
        if kind in ("crisp", "identical"):
            # one-hot rows over a few clusters, so some clusters stay empty
            e = np.eye(c)[rng.integers(0, max(1, c - 2), n)]
        elif kind == "rounded":
            e = np.round(e, 1)
            e[:, -1] = 1.0 - e[:, :-1].sum(axis=1)
            e = np.where(e[:, -1:] < 0, np.full((n, c), 1.0 / c), e)
        return x, FuzzyPartition(
            memberships=e, centers=np.zeros((c, x.shape[1])),
            fuzziness=float(rng.choice([1.2, 1.5, 2.0, 2.5])),
            objective_trace=(1.0,), iterations=1, converged=True, seed=0,
        )

    @pytest.mark.parametrize("kind", ["dirichlet", "crisp", "rounded", "tied", "identical"])
    def test_equals_brute_force_oracle(self, kind):
        rng = np.random.default_rng(["dirichlet", "crisp", "rounded", "tied",
                                     "identical"].index(kind))
        for _ in range(150):
            x, part = self.random_case(rng, kind)
            assert fsi(x, part).cells[0].fsi == brute_force_fsi(
                x, part.memberships, part.fuzziness)

    def test_equals_brute_force_oracle_on_fits(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            x = rng.standard_normal((int(rng.integers(8, 40)), 3))
            part = fcm_fit(x, int(rng.integers(2, 6)), float(rng.uniform(1.1, 2.6)),
                           seed=trial, n_restarts=2)
            assert fsi(x, part).cells[0].fsi == brute_force_fsi(
                x, part.memberships, part.fuzziness)


class TestGridSearch:
    def test_selects_two_clusters_on_blobs(self):
        x, _ = two_blobs(15, 4, gap=5.0, sigma=0.05, seed=0)
        report, part = grid_search(x, c_values=(2, 3, 4), m_values=(1.5, 2.0), seed=0,
                                   n_restarts=3)
        assert report.selected[0] == 2
        assert part.n_clusters == 2

    def test_single_cell_matches_direct_fit(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        report, part = grid_search(x, c_values=(2,), m_values=(1.8,), seed=3)
        direct = fcm_fit(x, 2, 1.8, seed=3)
        np.testing.assert_array_equal(part.memberships, direct.memberships)
        assert report.cells[0].fsi == pytest.approx(
            fsi(x, direct).cells[0].fsi, abs=1e-15
        )

    def test_failed_cells_recorded(self):
        x, _ = two_blobs(3, 2, gap=5.0, sigma=0.01, seed=0)  # B = 6
        report, _ = grid_search(x, c_values=(2, 6), m_values=(2.0,), seed=0,
                                n_restarts=2)
        errors = [c for c in report.cells if c.error is not None]
        assert len(errors) == 1 and errors[0].n_clusters == 6

    def test_all_failed_raises(self):
        from fuzzcoh import NumericError

        x = np.zeros((4, 2))
        with pytest.raises(NumericError, match="every grid cell failed"):
            grid_search(x, c_values=(5, 6), m_values=(2.0,), seed=0)

    def test_default_m_grid_values(self):
        assert DEFAULT_M_GRID == (1.2, 1.5, 1.8, 2.0, 2.2, 2.5)
