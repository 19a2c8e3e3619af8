import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    reference_init_centers,
    brute_force_fsi,
    pinned_fit,
    reference_fcm_fit,
    reference_fcm_restarts,
    reference_fit_restarts,
    reference_grid_search,
    two_blobs,
)

from fuzzcoh import ConfigError, FuzzyPartition, NumericError, fcm_fit, fsi, grid_search
from fuzzcoh import clustering
from fuzzcoh.clustering import (
    DEFAULT_M_GRID,
    _fit_restarts,
    fcm_fit_batch,
    _lastsum,
    _restart_rng,
    _weight_sums,
    init_centers,
)


class TestFcmFit:
    def test_hand_derived_membership_update(self):
        # centers 0 and 3, point at 1: squared distances 1 and 4, m=2
        # -> memberships (1/(1+1/4), ...) = (0.8, 0.2)
        features = np.array([[0.0], [3.0], [1.0]])
        init = np.array([[0.0], [3.0]])
        part = pinned_fit(features, init, 2.0, max_iter=0)
        np.testing.assert_allclose(part.memberships[2], [0.8, 0.2], atol=1e-12)

    def test_coincidence_rule_crisp(self):
        features = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [5.0, 5.0]])
        init = np.array([[0.0, 0.0], [5.0, 5.0]])
        part = pinned_fit(features, init, 2.0, max_iter=0)
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
        part = pinned_fit(x, init, 1.7)
        perm = rng.permutation(25)
        part_p = pinned_fit(x[perm], init, 1.7)
        np.testing.assert_allclose(part_p.memberships, part.memberships[perm], atol=1e-12)

    def test_errors(self):
        x = np.zeros((3, 2))
        with pytest.raises(ConfigError):
            fcm_fit(x, 3, 2.0)  # C >= B
        with pytest.raises(ConfigError):
            fcm_fit(np.zeros((10, 2)), 2, 1.0)  # m <= 1
        with pytest.raises(ConfigError, match="fuzziness must exceed 1, got nan"):
            fcm_fit(np.zeros((10, 2)), 2, float("nan"))
        with pytest.raises(ConfigError, match="fuzziness must be finite, got inf"):
            fcm_fit(np.zeros((10, 2)), 2, float("inf"))
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

    def test_nan_memberships_rejected(self):
        # the middle row is an infinite squared distance from both centers,
        # so its distance ratios are inf / inf
        x = np.array([[-1e300], [0.0], [1e300]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="drifted from sum 1"):
            pinned_fit(x, np.array([[-1e300], [1e300]]), 2.0)
        e = np.array([[0.5, 0.5], [np.nan, 0.5], [1.0, 0.0]])
        with pytest.raises(NumericError, match="do not sum to 1"):
            FuzzyPartition(memberships=e, centers=np.zeros((2, 1)), fuzziness=2.0,
                           objective_trace=(1.0,), iterations=0, converged=False, seed=0)

    def test_weightless_cluster_rejected(self):
        # 5 distinct values, 9 clusters: a center's weight reaches 0 and its update is 0/0
        x = np.round(np.random.default_rng(5).standard_normal((71, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite centers or objective"):
                fcm_fit(x, 9, 3.0, seed=0, n_restarts=1)
        with pytest.raises(NumericError, match="non-finite centers or objective"):
            FuzzyPartition(memberships=np.full((2, 2), 0.5), centers=np.zeros((2, 1)),
                           fuzziness=2.0, objective_trace=(1.0, np.nan), iterations=1,
                           converged=True, seed=0)

    @pytest.mark.parametrize("seed, weightless", [(0, [0]), (1, [2, 6])])
    def test_weightless_restarts_dropped(self, seed, weightless):
        # only some of the ten restarts lose a cluster's weight: the best finite one wins
        x = np.round(np.random.default_rng(5).standard_normal((71, 1)))
        with np.errstate(divide="ignore", invalid="ignore"):
            references = reference_fcm_restarts(x, 9, 3.0, seed=seed)
        finite = [np.isfinite(r[1]).all() and np.isfinite(r[2]).all() for r in references]
        assert [r for r, ok in enumerate(finite) if not ok] == weightless
        best = None
        for reference, ok in zip(references, finite):
            if ok and (best is None or reference[2][-1] < best[2][-1]):
                best = reference
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            part = fcm_fit(x, 9, 3.0, seed=seed)
        assert_fit_equal((part.memberships, part.centers, part.objective_trace,
                          part.iterations, part.converged), best)


@pytest.mark.parametrize("n", [*range(1, 13), 16, 23, 128, 129])
def test_lastsum_equals_numpy_sum(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((400, n)) * 10.0 ** rng.integers(-12, 12, (400, n))
    a[0] = -0.0
    a[1, 0] = np.inf
    a[2, -1] = np.nan
    a[3, ::2] = -0.0
    for arr in (a, a.reshape(20, 20, n), np.ascontiguousarray(a.T).T):
        assert _lastsum(arr).tobytes() == np.ascontiguousarray(arr).sum(axis=-1).tobytes()


@pytest.mark.parametrize("R, B, C", [(1, 1, 2), (3, 13, 2), (60, 120, 6), (7, 301, 5),
                                     (10, 999, 9)])
def test_weight_sums_equal_per_restart_sums(R, B, C):
    w = np.random.default_rng(B).random((R, B, C)) ** 2.5
    expected = np.stack([w[r].sum(axis=0) for r in range(R)])
    assert _weight_sums(w).tobytes() == expected.tobytes()


def assert_fit_equal(fit, reference):
    """Bitwise equality of a (memberships, centers, trace, iterations, converged) tuple."""
    e, centers, trace, iterations, converged = fit
    assert e.tobytes() == reference[0].tobytes()
    assert centers.tobytes() == reference[1].tobytes()
    assert np.array(trace).tobytes() == np.array(reference[2]).tobytes()
    assert (iterations, converged) == reference[3:]


def batched_restarts(x, c, m, seed, max_iter=300, n_restarts=10):
    centers = np.stack([init_centers(x, c, _restart_rng(seed, c, m, r)) for r in range(n_restarts)])
    return _fit_restarts(x, centers, m, max_iter)


class TestBatchedEqualsPerRestart:
    """The batched fit against each restart's own loop (conftest), bit for bit."""

    def check(self, x, c, m, seed=0, max_iter=300, n_restarts=10):
        fits = batched_restarts(x, c, m, seed, max_iter, n_restarts)
        references = reference_fcm_restarts(x, c, m, seed=seed, max_iter=max_iter,
                                            n_restarts=n_restarts)
        for fit, reference in zip(fits, references, strict=True):
            assert_fit_equal(fit, reference)
        part = fcm_fit(x, c, m, seed=seed, max_iter=max_iter, n_restarts=n_restarts)
        best = reference_fcm_fit(x, c, m, seed=seed, max_iter=max_iter, n_restarts=n_restarts)
        assert_fit_equal((part.memberships, part.centers, part.objective_trace,
                          part.iterations, part.converged), best)
        return references

    def test_restarts_converge_at_different_iterations(self):
        x = np.random.default_rng(11).standard_normal((60, 4))
        references = self.check(x, 4, 1.8, seed=2)
        assert all(r[4] for r in references)
        assert len({r[3] for r in references}) > 3

    def test_max_iter_leaves_some_restarts_unconverged(self):
        x, _ = two_blobs(20, 3, gap=3.0, sigma=0.8, seed=1)
        references = self.check(x, 3, 2.2, seed=5, max_iter=40)  # restarts take 23-57
        assert {r[4] for r in references} == {True, False}
        self.check(x, 3, 2.2, seed=5, max_iter=0)

    def test_coincident_rows(self):
        x = np.round(np.random.default_rng(13).standard_normal((40, 2)))
        self.check(x, 3, 1.5, seed=1)
        self.check(x, 2, 2.5, seed=4, n_restarts=3)

    def test_init(self):
        x = np.random.default_rng(14).standard_normal((30, 3))
        init = x[[0, 5, 9]]
        part = pinned_fit(x, init, 1.7)
        assert_fit_equal((part.memberships, part.centers, part.objective_trace,
                          part.iterations, part.converged),
                         reference_fcm_fit(x, 3, 1.7, init=init))

    def test_eight_or_more_clusters_or_dims(self):
        rng = np.random.default_rng(15)
        self.check(rng.standard_normal((60, 9)), 8, 1.6, seed=3, n_restarts=4)
        self.check(rng.standard_normal((40, 2)), 9, 2.0, seed=3, n_restarts=3)
        self.check(rng.standard_normal((40, 12)), 3, 1.3, seed=3, n_restarts=3)

    def test_random_fits(self):
        rng = np.random.default_rng(16)
        for trial in range(40):
            b = int(rng.integers(8, 50))
            x = rng.standard_normal((b, int(rng.integers(1, 10))))
            c = int(rng.integers(2, min(10, b)))
            self.check(x, c, float(rng.choice([1.05, 1.5, 2.0, 3.0])), seed=trial,
                       max_iter=int(rng.choice([1, 5, 300])),
                       n_restarts=int(rng.integers(1, 8)))

    def test_init_centers_draws(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            x = rng.standard_normal((int(rng.integers(5, 40)), int(rng.integers(1, 9))))
            if trial % 3 == 0:
                x = np.round(x / 2)  # duplicates exercise the uniform fallback
            c = int(rng.integers(2, len(x)))
            a, b = np.random.default_rng(trial), np.random.default_rng(trial)
            assert init_centers(x, c, a).tobytes() == reference_init_centers(x, c, b).tobytes()
            assert a.bit_generator.state == b.bit_generator.state

    def test_grid_report(self):
        x, _ = two_blobs(20, 4, gap=1.5, sigma=0.6, seed=3)
        report, part = grid_search(x, seed=4, n_restarts=4)
        cells, selected = reference_grid_search(x, (2, 3, 4, 5, 6), DEFAULT_M_GRID,
                                                seed=4, n_restarts=4)
        assert [(c.n_clusters, c.fuzziness, c.fsi) for c in report.cells] == cells
        assert report.selected == selected
        best = reference_fcm_fit(x, *selected, seed=4, n_restarts=4)
        assert part.memberships.tobytes() == best[0].tobytes()


def partition_tuple(part):
    return (part.memberships, part.centers, part.objective_trace, part.iterations,
            part.converged)


class TestMBatchEqualsSingleM:
    """Restarts of several m in one batch against the single-m batch (conftest), bit for bit."""

    def check(self, x, c, m_values, seed=0, max_iter=300, n_restarts=4):
        centers = np.stack([init_centers(x, c, _restart_rng(seed, c, m, r))
                            for m in m_values for r in range(n_restarts)])
        fits = _fit_restarts(x, centers, np.repeat(m_values, n_restarts), max_iter)
        for j, m in enumerate(m_values):
            rows = slice(j * n_restarts, (j + 1) * n_restarts)
            with np.errstate(divide="ignore", invalid="ignore"):
                references = reference_fit_restarts(x, centers[rows], m, max_iter)
            for fit, reference in zip(fits[rows], references, strict=True):
                assert (fit is None) == (reference is None)
                if fit is not None:
                    assert_fit_equal(fit, reference)
        return fits

    @pytest.mark.parametrize("m_values", [(1.2, 2.0, 2.5, 3.0), (2.0, 3.0, 1.2, 2.5),
                                          (2.0,), (3.0, 1.2)])
    def test_exponent_rows(self, m_values):
        x = np.random.default_rng(31).standard_normal((50, 4))
        self.check(x, 3, m_values, seed=1)

    def test_unconverged_and_coincident_rows(self):
        x = np.round(np.random.default_rng(32).standard_normal((45, 2)))
        fits = self.check(x, 4, (1.2, 2.0, 2.5, 3.0), seed=2, max_iter=12)
        assert {f[4] for f in fits} == {True, False}

    def test_fcm_fit_batch_equals_fcm_fit(self):
        x, _ = two_blobs(25, 5, gap=1.0, sigma=0.7, seed=4)
        m_values = (1.2, 1.5, 1.8, 2.0, 2.2, 2.5, 3.0)
        batch = fcm_fit_batch(x, 3, m_values, seed=9)
        for m, part in zip(m_values, batch, strict=True):
            single = fcm_fit(x, 3, m, seed=9)
            assert_fit_equal(partition_tuple(part), partition_tuple(single))
            assert part.fuzziness == m

    def test_slab_limit_splits_the_batch_not_the_result(self, monkeypatch):
        x = np.random.default_rng(33).standard_normal((40, 3))
        m_values = (1.2, 2.0, 2.5, 3.0, 1.6)
        whole = fcm_fit_batch(x, 2, m_values, seed=3, n_restarts=5)
        one_m = 8 * 3 * 5 * 2 * 40  # the slab of one m's restarts
        for limit in (one_m - 1, 2 * one_m, 3 * one_m + 1):
            monkeypatch.setattr(clustering, "_SLAB_BYTES", limit)
            for a, b in zip(fcm_fit_batch(x, 2, m_values, seed=3, n_restarts=5), whole):
                assert_fit_equal(partition_tuple(a), partition_tuple(b))

    def test_failures_stay_per_m(self):
        x = np.round(np.random.default_rng(5).standard_normal((71, 1)))
        batch = fcm_fit_batch(x, 9, (2.0, 3.0), seed=0, n_restarts=1)
        assert isinstance(batch[1], NumericError)
        with pytest.raises(NumericError) as single:
            fcm_fit(x, 9, 3.0, seed=0, n_restarts=1)
        assert str(batch[1]) == str(single.value)
        assert_fit_equal(partition_tuple(batch[0]),
                         partition_tuple(fcm_fit(x, 9, 2.0, seed=0, n_restarts=1)))
        with pytest.raises(ConfigError, match="fuzziness must exceed 1, got 0.9"):
            fcm_fit_batch(x, 2, (2.0, 0.9))

    def test_grid_cells_with_failures(self):
        # C = 71 >= B and C = 9 at m = 3.0 (one restart loses a cluster's weight) fail
        x = np.round(np.random.default_rng(5).standard_normal((71, 1)))
        with np.errstate(divide="ignore", invalid="ignore"):
            report, part = grid_search(x, c_values=(71, 2, 9), m_values=(3.0, 2.0), seed=0,
                                       n_restarts=1)
        errors = {(c.n_clusters, c.fuzziness): c.error for c in report.cells if c.error}
        assert errors == {
            (9, 3.0): "non-finite centers or objective in every restart: "
                      "a cluster's weight reached 0",
            (71, 2.0): "need more objects than clusters: B=71, C=71",
            (71, 3.0): "need more objects than clusters: B=71, C=71",
        }
        assert [(c.n_clusters, c.fuzziness) for c in report.cells] == [
            (2, 2.0), (2, 3.0), (9, 2.0), (9, 3.0), (71, 2.0), (71, 3.0)]
        for cell in report.cells:
            if cell.error is None:
                direct = fcm_fit(x, cell.n_clusters, cell.fuzziness, seed=0, n_restarts=1)
                assert cell.fsi == fsi(x, direct)


class TestGridChecks:
    @pytest.mark.parametrize("c_values, m_values, match", [
        ((), (2.0,), "c_values is empty"),
        ((2,), (), "m_values is empty"),
        ((2, 2), (2.0,), "c_values lists 2 more than once"),
        ((2,), (1.5, 2.0, 1.5), "m_values lists 1.5 more than once"),
        ((2,), (2, 2.0), "m_values lists 2.0 more than once"),
        ((1, 2), (2.0,), "need at least 2 clusters, got C = 1"),
        ((2,), (2.0, 0.9), "fuzziness must exceed 1, got 0.9"),
        ((2,), (float("inf"),), "fuzziness must be finite, got inf"),
        ((12, 11), (2.0,), "need more objects than clusters: B=10, C=11"),  # no C fits
    ])
    def test_grid_rejected_before_any_fit(self, monkeypatch, c_values, m_values, match):
        calls = []
        monkeypatch.setattr(clustering, "fcm_fit_batch", lambda *a, **k: calls.append(a))
        x = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(ConfigError, match=re.escape(match)):
            grid_search(x, c_values=c_values, m_values=m_values)
        assert calls == []

    @pytest.mark.parametrize("features, match", [
        (np.full((10, 2), np.nan), "features contain non-finite values"),
        (np.arange(10.0), "features must be 2-D, got shape (10,)"),
    ], ids=["nan", "1-d"])
    def test_features_rejected_before_any_fit(self, monkeypatch, features, match):
        # faults of the whole grid are config faults, not "every grid cell failed"
        calls = []
        monkeypatch.setattr(clustering, "fcm_fit_batch", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=re.escape(match)):
            grid_search(features, c_values=(5, 6), m_values=(2.0,), seed=0)
        assert calls == []


class TestMemoryBounds:
    def test_distances_in_strips_equal_whole(self, monkeypatch):
        rng = np.random.default_rng(34)
        for b, dim in ((57, 3), (130, 8), (41, 11), (9, 1)):
            x = rng.standard_normal((b, dim)) * 10.0 ** rng.integers(-3, 3, (b, dim))
            whole = np.sqrt(np.maximum(
                np.ascontiguousarray((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1), 0.0))
            for strip_rows in (1, 7, b):
                monkeypatch.setattr(clustering, "_STRIP_BYTES", 8 * b * dim * strip_rows)
                assert clustering._pairwise_distances(x).tobytes() == whole.tobytes()

    def test_fsi_peak_at_most_twice_its_distance_matrix(self):
        b = 2000
        rng = np.random.default_rng(35)
        x = rng.standard_normal((b, 8))
        part = FuzzyPartition(memberships=rng.dirichlet(np.ones(2), size=b),
                              centers=np.zeros((2, 8)), fuzziness=1.5, objective_trace=(1.0,),
                              iterations=1, converged=True, seed=0)
        tracemalloc.start()
        try:
            value = fsi(x, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert -1.0 <= value <= 1.0
        assert peak <= 2 * 8 * b * b  # 32 MB of distances, at most as much again

    def test_distance_budget_from_b_alone(self):
        limit = math.isqrt(clustering.DIST_BUDGET_BYTES // 8)
        clustering.check_distance_budget(limit)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"B={limit + 1} objects need a .* over its "
                                                  rf"limit of 1,073,741,824 bytes "
                                                  rf"\(B <= {limit}\)"):
                clustering.check_distance_budget(limit + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
    @pytest.mark.parametrize("n_features, n_members, match", [
        (4, 3, "4 feature rows vs 3 membership rows"),
        (2, 2, "need at least 3 objects, got 2"),
    ])
    def test_bad_input_rejected(self, n_features, n_members, match):
        part = FuzzyPartition(memberships=np.full((n_members, 2), 0.5), centers=np.zeros((2, 2)),
                              fuzziness=2.0, objective_trace=(1.0,), iterations=1,
                              converged=True, seed=0)
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            fsi(np.zeros((n_features, 2)), part)

    def test_distant_blobs_high_index(self):
        x, labels = two_blobs(10, 3, gap=50.0, sigma=0.5, seed=0)
        value = fsi(x, crisp_partition(x, labels, 2))
        assert value >= 0.9

    def test_identical_points_zero(self):
        x = np.ones((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        value = fsi(x, crisp_partition(x, labels, 2))
        assert value == 0.0

    def test_uniform_memberships_score_lower(self):
        x, labels = two_blobs(10, 3, gap=20.0, sigma=0.5, seed=1)
        crisp = fsi(x, crisp_partition(x, labels, 2))
        e = np.full((20, 2), 0.5)
        centers = np.array([x.mean(axis=0), x.mean(axis=0) + 0.1])
        uniform = FuzzyPartition(
            memberships=e, centers=centers, fuzziness=2.0,
            objective_trace=(1.0,), iterations=1, converged=True, seed=0,
        )
        assert fsi(x, uniform) < crisp

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((15, 2))
        part = fcm_fit(x, 3, 1.5, seed=0, n_restarts=2)
        value = fsi(x, part)
        perm = [2, 0, 1]
        swapped = FuzzyPartition(
            memberships=part.memberships[:, perm], centers=part.centers[perm],
            fuzziness=part.fuzziness, objective_trace=part.objective_trace,
            iterations=part.iterations, converged=part.converged, seed=part.seed,
        )
        assert fsi(x, swapped) == pytest.approx(value, abs=1e-12)

    def test_in_range(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            x = rng.standard_normal((12, 3))
            part = fcm_fit(x, 2, 2.0, seed=trial, n_restarts=2)
            assert -1.0 <= fsi(x, part) <= 1.0

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
            assert fsi(x, part) == brute_force_fsi(
                x, part.memberships, part.fuzziness)

    def test_equals_brute_force_oracle_on_fits(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            x = rng.standard_normal((int(rng.integers(8, 40)), 3))
            part = fcm_fit(x, int(rng.integers(2, 6)), float(rng.uniform(1.1, 2.6)),
                           seed=trial, n_restarts=2)
            assert fsi(x, part) == brute_force_fsi(
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
            fsi(x, direct), abs=1e-15
        )

    def test_failed_cells_recorded(self):
        x, _ = two_blobs(3, 2, gap=5.0, sigma=0.01, seed=0)  # B = 6
        report, _ = grid_search(x, c_values=(2, 6), m_values=(2.0,), seed=0,
                                n_restarts=2)
        errors = [c for c in report.cells if c.error is not None]
        assert len(errors) == 1 and errors[0].n_clusters == 6

    def test_weightless_cluster_cell_failed(self):
        x = np.round(np.random.default_rng(5).standard_normal((71, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="every grid cell failed"):
                grid_search(x, c_values=(9,), m_values=(3.0,), seed=0, n_restarts=1)
            report, _ = grid_search(x, c_values=(2, 9), m_values=(3.0,), seed=0, n_restarts=1)
        assert report.selected == (2, 3.0)
        assert report.cells[1].fsi is None
        assert "non-finite centers or objective" in report.cells[1].error
        # with ten restarts, restart 0 alone loses a cluster's weight and the cell fits
        report, part = grid_search(x, c_values=(9,), m_values=(3.0,), seed=0)
        assert report.cells[0].error is None and report.selected == (9, 3.0)
        assert np.isfinite(part.centers).all()

    def test_all_failed_raises(self):
        # the one cell fits, but its only restart loses a cluster's weight
        x = np.round(np.random.default_rng(5).standard_normal((71, 1)))
        with pytest.raises(NumericError, match="every grid cell failed"):
            grid_search(x, c_values=(9,), m_values=(3.0,), seed=0, n_restarts=1)
        # a grid none of whose C fits is a config fault, raised before any fit
        with pytest.raises(ConfigError, match="need more objects than clusters: B=4, C=5"):
            grid_search(np.zeros((4, 2)), c_values=(5, 6), m_values=(2.0,), seed=0)

    def test_default_m_grid_values(self):
        assert DEFAULT_M_GRID == (1.2, 1.5, 1.8, 2.0, 2.2, 2.5)
