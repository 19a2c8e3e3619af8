import re

import numpy as np
import pytest
from conftest import brute_force_rand_index, brute_force_simulation_protocol

from fuzzcoh import (
    ConfigError,
    SWITCHING,
    assign,
    rand_index,
    simulation_accuracy,
)


def as_memberships(e):
    return np.asarray(e, dtype=float)


class TestAssign:
    def test_crisp_above_threshold(self):
        part = as_memberships([[0.95, 0.05]])
        report = assign(part, rule="threshold", threshold=0.7)
        assert report.assignments == (0,)
        assert report.fuzzy_fraction == 0.0

    def test_sub_threshold_is_fuzzy(self):
        part = as_memberships([[0.6, 0.4]])
        report = assign(part, rule="threshold", threshold=0.7)
        assert report.assignments == (None,)
        assert report.fuzzy_fraction == 1.0

    def test_equality_counts_as_fuzzy(self):
        part = as_memberships([[0.7, 0.3]])
        report = assign(part, rule="threshold", threshold=0.7)
        assert report.assignments == (None,)

    def test_max_rule_tie_low_index(self):
        part = as_memberships([[0.5, 0.5]])
        report = assign(part, rule="max")
        assert report.assignments == (0,)

    def test_threshold_domain(self):
        part = as_memberships([[0.5, 0.5]])
        with pytest.raises(ConfigError):
            assign(part, rule="threshold", threshold=0.5)  # = 1/C
        with pytest.raises(ConfigError):
            assign(part, rule="threshold", threshold=1.0)

    def test_threshold_near_one_over_c_matches_max_rule(self):
        rng = np.random.default_rng(0)
        e = rng.dirichlet(np.ones(3), size=40)
        part = as_memberships(e)
        thr = assign(part, rule="threshold", threshold=1 / 3 + 1e-9)
        mx = assign(part, rule="max")
        assert thr.assignments == mx.assignments

    def test_unknown_rule(self):
        with pytest.raises(ConfigError):
            assign(as_memberships([[1.0, 0.0]]), rule="other")


class TestRandIndex:
    def test_identical_partitions(self):
        assert rand_index([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_hand_example(self):
        # brute-force enumeration gives 2 agreements out of 6 pairs
        assert brute_force_rand_index([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(2 / 6)
        assert rand_index([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(2 / 6)

    def test_permutation_invariance_two_objects(self):
        assert rand_index([2, 1], [1, 2]) == 1.0

    def test_matches_brute_force_on_random_partitions(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, 5))
            pred = rng.integers(0, k + 1, n)
            truth = rng.integers(0, k + 1, n)
            assert rand_index(pred, truth) == pytest.approx(
                brute_force_rand_index(pred, truth), abs=1e-15
            )

    def test_permutation_invariance_random(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 4, 30)
        truth = rng.integers(0, 3, 30)
        base = rand_index(pred, truth)
        for _ in range(5):
            relabel = rng.permutation(4)
            assert rand_index(relabel[pred], truth) == base

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            rand_index([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("pred, truth, match", [
        ([1], [1], "need at least 2 objects, got 1"),
        ([], [], "need at least 2 objects, got 0"),
        ([1, 2], [1, 2, 3], "label shapes differ: (2,) vs (3,)"),
        ([[1, 2]], [[1, 2]], "label shapes differ: (1, 2) vs (1, 2)"),
    ])
    def test_bad_labelling_rejected(self, pred, truth, match):
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            rand_index(pred, truth)


class TestSimulationAccuracy:
    def test_perfect_run(self):
        e = [[0.95, 0.05], [0.9, 0.1], [0.1, 0.9], [0.05, 0.95], [0.5, 0.5]]
        kinds = [0, 0, 1, 1, SWITCHING]
        report = simulation_accuracy(as_memberships(e), kinds)
        assert report.accuracy == 1.0
        assert report.rand_index_pure == 1.0
        assert report.n_switching_correct == 1

    def test_label_permutation_handled(self):
        # cluster ids are swapped relative to the truth labels
        e = [[0.1, 0.9], [0.1, 0.9], [0.9, 0.1], [0.9, 0.1]]
        kinds = [0, 0, 1, 1]
        report = simulation_accuracy(as_memberships(e), kinds)
        assert report.accuracy == 1.0
        assert report.label_map == (1, 0)

    def test_crisp_switching_block_counted_wrong(self):
        e = [[0.95, 0.05], [0.05, 0.95], [0.9, 0.1]]
        kinds = [0, 1, SWITCHING]
        report = simulation_accuracy(as_memberships(e), kinds)
        assert report.n_switching_correct == 0
        assert report.accuracy == pytest.approx(2 / 3)

    def test_sub_threshold_pure_block_counted_wrong(self):
        e = [[0.65, 0.35], [0.95, 0.05], [0.05, 0.95]]
        kinds = [0, 0, 1]
        report = simulation_accuracy(as_memberships(e), kinds)
        assert report.accuracy == pytest.approx(2 / 3)
        assert report.fuzzy_fraction == pytest.approx(1 / 3)

    def test_non_binary_partition_rejected(self):
        e = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.4, 0.3, 0.3]]
        with pytest.raises(ConfigError, match="binary"):
            simulation_accuracy(as_memberships(e), [0, 1, 0, SWITCHING])

    @pytest.mark.parametrize("kinds, match", [
        ([0, 1, 0], "3 truth entries for 4 blocks"),
        ([0, 1, 0, 1, 2], "5 truth entries for 4 blocks"),
        ([0, 1, 3, -1], "truth kinds must be 0, 1 or 2, got extra [-1, 3]"),
    ])
    def test_bad_truth_rejected(self, kinds, match):
        e = [[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.5, 0.5]]
        with pytest.raises(ConfigError, match=f"^{re.escape(match)}$"):
            simulation_accuracy(as_memberships(e), kinds)

    def test_rand_variants_reported(self):
        e = [[0.95, 0.05], [0.05, 0.95], [0.52, 0.48], [0.9, 0.1]]
        kinds = [0, 1, SWITCHING, 0]
        report = simulation_accuracy(as_memberships(e), kinds)
        assert 0.0 <= report.rand_index_pure <= 1.0
        assert 0.0 <= report.rand_index_all <= 1.0
        assert report.n_pure == 3 and report.n_switching == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(120):
            n = int(rng.integers(1, 25))
            e0 = rng.choice([rng.uniform(0, 1, n), np.round(rng.uniform(0, 1, n), 1),
                             rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], n)])
            e = np.column_stack([e0, 1.0 - e0])
            kinds = rng.choice([[0, 1, SWITCHING], [0, 1], [SWITCHING], [0]][int(rng.integers(4))],
                               n)
            report = simulation_accuracy(as_memberships(e), kinds)
            oracle = brute_force_simulation_protocol(e, kinds)
            assert {k: getattr(report, k) for k in oracle} == oracle
