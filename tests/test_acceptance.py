"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  Tolerances are stated inline next to each assertion.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    brute_force_rand_index,
    brute_force_tau_numerator,
    grid_oracle_best_g,
    lag_matrix,
    two_blobs,
)
from scipy import signal

from fuzzcoh import (
    PipelineConfig,
    SimConfig,
    contaminate,
    extract_features,
    fcm_fit,
    fsi,
    gen_ar2,
    gen_dataset,
    grid_search,
    kendall_tau,
    rand_index,
    run_pipeline,
    simulation_accuracy,
)
from fuzzcoh.clustering import DEFAULT_M_GRID
from fuzzcoh.dependence import _concordance_sums
from fuzzcoh.pipeline import DEPENDENCE_FNS


def verdict(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>2} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


def desk_scale_config(seed, noise="normal", n_blocks=60):
    return SimConfig(
        seed=seed, n_blocks=n_blocks, block_length=384,
        proportions=(0.4, 0.4, 0.2), noise_family=noise,
    )


def run_desk_scale(seed, noise, m, estimator="kendall", n_blocks=60, features=None):
    """One desk-scale replication; returns (report, features) for reuse."""
    if features is None:
        dataset = gen_dataset(desk_scale_config(seed, noise, n_blocks))
        kinds = np.array(dataset.labels, dtype=int)
        feats = extract_features(
            dataset, max_lag=5, dependence_fn=DEPENDENCE_FNS[estimator]
        ).d_matrix
        features = (feats, kinds)
    feats, kinds = features
    part = fcm_fit(feats, 2, m, seed=seed)
    return simulation_accuracy(part.memberships, kinds), features


def test_criterion_1_kendall_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        if trial % 2 == 0:  # injected ties
            x = rng.integers(0, max(2, n // 4), n).astype(float)
            y = rng.integers(0, max(2, n // 4), n).astype(float)
        else:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        fast = int(_concordance_sums(np.column_stack([x, y]), 0)[0, 0, 1])
        brute = brute_force_tau_numerator(x, y)
        assert fast == brute, f"trial {trial}: {fast} != {brute}"
        assert kendall_tau(x, y) == fast / (n * (n - 1) // 2)
    elapsed = time.perf_counter() - start
    verdict(1, "kendall oracle equivalence", elapsed < 10.0,
            f"1000 series exact, {elapsed:.1f}s < 10s")


def test_criterion_2_canonical_solver_oracle():
    from test_canonical import stationary_var_instance

    from fuzzcoh import repair_psd, solve_canonical

    start = time.perf_counter()
    worst_gap = np.inf
    worst_resid = 0.0
    for seed in range(200):
        lags = stationary_var_instance(2, 2, 1, seed)
        u, v, g, _ = solve_canonical(lags, 2)
        oracle = grid_oracle_best_g(
            lags[0, :2, :2], lags[0, 2:, 2:],
            [lag_matrix(lags, lag)[:2, 2:] for lag in (-1, 0, 1)],
        )
        worst_gap = min(worst_gap, g - oracle)
        p0 = repair_psd(lags[0])
        resid = max(
            abs(u @ p0[:2, :2] @ u - 1.0),
            abs(v @ p0[2:, 2:] @ v - 1.0),
        )
        worst_resid = max(worst_resid, resid)
    elapsed = time.perf_counter() - start
    ok = worst_gap >= -1e-6 and worst_resid <= 1e-8 and elapsed < 30.0
    verdict(2, "canonical solver oracle", ok,
            f"200 instances, min(g - oracle)={worst_gap:.2e} >= -1e-6, "
            f"max residual={worst_resid:.2e} <= 1e-8, {elapsed:.1f}s < 30s")


def test_criterion_3_fcm_contract():
    rng = np.random.default_rng(3003)
    worst_row = 0.0
    worst_step = -np.inf
    for trial in range(500):
        b = int(rng.integers(6, 40))
        dim = int(rng.integers(1, 7))
        c = int(rng.integers(2, min(5, b)))
        m = float(rng.uniform(1.05, 3.0))
        x = rng.standard_normal((b, dim)) * rng.uniform(0.1, 10.0)
        part = fcm_fit(x, c, m, seed=trial, n_restarts=1)
        worst_row = max(worst_row, np.abs(part.memberships.sum(axis=1) - 1.0).max())
        trace = np.array(part.objective_trace)
        if len(trace) > 1:
            worst_step = max(worst_step, float(np.diff(trace).max()))
    ok = worst_row <= 1e-10 and worst_step <= 1e-12
    verdict(3, "FCM contract", ok,
            f"500 fits, max row-sum error={worst_row:.2e} <= 1e-10, "
            f"max objective increase={worst_step:.2e} <= 1e-12")


def test_criterion_4_fsi_sanity():
    from test_clustering import crisp_partition

    x, labels = two_blobs(20, 8, gap=1.0, sigma=0.01, seed=4)  # gap/sigma = 100
    crisp = fsi(x, crisp_partition(x, labels, 2))
    from fuzzcoh import FuzzyPartition

    uniform = FuzzyPartition(
        memberships=np.full((40, 2), 0.5),
        centers=np.vstack([x.mean(axis=0), x.mean(axis=0) + 0.01]),
        fuzziness=2.0, objective_trace=(1.0,), iterations=1, converged=True, seed=0,
    )
    uniform_fsi = fsi(x, uniform)

    selections = []
    for m in DEFAULT_M_GRID:
        report, _ = grid_search(x, m_values=(m,), seed=0, n_restarts=3)
        selections.append(report.selected[0])
    ok = crisp >= 0.9 and crisp > uniform_fsi and all(c == 2 for c in selections)
    verdict(4, "FSI sanity", ok,
            f"crisp FSI={crisp:.3f} >= 0.9, uniform FSI={uniform_fsi:.3f} < crisp, "
            f"grid selections={selections} all C*=2")


def test_criterion_5_rand_index_oracle():
    rng = np.random.default_rng(5005)
    for trial in range(500):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 6))
        pred = rng.integers(0, k + 1, n)
        truth = rng.integers(0, k + 1, n)
        fast = rand_index(pred, truth)
        brute = brute_force_rand_index(pred, truth)
        assert fast == pytest.approx(brute, abs=1e-15), f"trial {trial}"
        relabel = rng.permutation(k + 1)
        assert rand_index(relabel[pred], truth) == fast
    verdict(5, "rand index oracle", True,
            "500 partitions exact vs pair enumeration, permutation invariant")


def test_criterion_6_spectral_fidelity():
    errors = {}
    for target in (2.0, 6.0, 10.0, 20.0, 40.0):
        spectra = []
        for seed in range(10):
            x = gen_ar2(4096, target, damping=1.05, sample_rate_hz=128.0,
                        seed=seed + 600)
            freqs, power = signal.periodogram(x, fs=128.0)
            spectra.append(power)
        mean_power = np.mean(spectra, axis=0)
        errors[target] = float(freqs[np.argmax(mean_power)] - target)
    worst = max(abs(v) for v in errors.values())
    verdict(6, "simulation spectral fidelity", worst <= 1.0,
            f"10-seed averaged periodogram peak errors {errors} (max {worst:.2f} <= 1 Hz)")


def test_criterion_7_desk_scale_example_1():
    start = time.perf_counter()
    acc_15, flag_20 = [], []
    for rep in range(10):
        report_15, features = run_desk_scale(7000 + rep, "normal", 1.5)
        acc_15.append(report_15.accuracy)
        report_20, _ = run_desk_scale(7000 + rep, "normal", 2.0, features=features)
        flag_20.append(report_20.n_switching_correct / report_20.n_switching)
    elapsed = time.perf_counter() - start
    mean_acc = float(np.mean(acc_15))
    mean_flag = float(np.mean(flag_20))
    ok = mean_acc >= 0.85 and mean_flag >= 0.7 and elapsed <= 300.0
    verdict(7, "desk-scale example 1", ok,
            f"B=60 x 10 reps: mean acc@m=1.5 = {mean_acc:.3f} >= 0.85, "
            f"switching flagged@m=2.0 = {mean_flag:.3f} >= 0.7, {elapsed:.0f}s <= 300s")


def test_criterion_8_cauchy_robustness_gap():
    means = {est: {} for est in ("kendall", "pearson")}
    raw_acc = {est: {m: [] for m in DEFAULT_M_GRID} for est in ("kendall", "pearson")}
    for seed in range(10):
        for est in ("kendall", "pearson"):
            features = None
            for m in DEFAULT_M_GRID:
                report, features = run_desk_scale(
                    8000 + seed, "student_t1", m, estimator=est, features=features
                )
                raw_acc[est][m].append(report.accuracy)
    gaps = {}
    for m in DEFAULT_M_GRID:
        means["kendall"][m] = float(np.mean(raw_acc["kendall"][m]))
        means["pearson"][m] = float(np.mean(raw_acc["pearson"][m]))
        gaps[m] = means["kendall"][m] - means["pearson"][m]
    ok = all(g >= 0.1 for g in gaps.values())
    detail = ", ".join(f"m={m}: {gaps[m]:+.3f}" for m in DEFAULT_M_GRID)
    verdict(8, "cauchy robustness gap", ok, f"10 paired seeds, gaps [{detail}] all >= 0.1")


def test_criterion_9_contamination_stability():
    channels = ("X1", "X2", "Y1")  # 3 of 8 channels
    move = {"kendall": [], "pearson": []}
    drop = {"kendall": [], "pearson": []}
    for seed in range(50):
        cfg = desk_scale_config(9000 + seed, "normal", n_blocks=25)
        clean = gen_dataset(cfg)
        dirty = contaminate(clean, channels, scale=0.1, family="student_t1",
                            seed=9000 + seed)
        kinds = np.array(clean.labels, dtype=int)
        for est in ("kendall", "pearson"):
            fn = DEPENDENCE_FNS[est]
            f_clean = extract_features(clean, max_lag=5, dependence_fn=fn).d_matrix
            f_dirty = extract_features(dirty, max_lag=5, dependence_fn=fn).d_matrix
            move[est].append(
                float(np.linalg.norm(f_clean - f_dirty, axis=1).mean())
            )
            acc_clean = simulation_accuracy(
                fcm_fit(f_clean, 2, 1.5, seed=seed).memberships, kinds
            ).accuracy
            acc_dirty = simulation_accuracy(
                fcm_fit(f_dirty, 2, 1.5, seed=seed).memberships, kinds
            ).accuracy
            drop[est].append(acc_clean - acc_dirty)
    move_k = float(np.mean(move["kendall"]))
    move_p = float(np.mean(move["pearson"]))
    drop_k = float(np.mean(drop["kendall"]))
    drop_p = float(np.mean(drop["pearson"]))
    ok = move_k < move_p and drop_k <= drop_p
    verdict(9, "contamination stability", ok,
            f"50 seeds: feature shift kendall={move_k:.4f} < pearson={move_p:.4f}; "
            f"accuracy drop kendall={drop_k:+.4f} <= pearson={drop_p:+.4f}")


def test_criterion_10_full_size_runtime(tmp_path):
    config = PipelineConfig(
        seed=10101, output_dir=str(tmp_path / "full"),
        sim={"n_blocks": 300, "block_length": 384},
        bands=("Theta",), n_clusters=2, fuzziness=1.5,
        max_lag=5, n_restarts=10, jobs=1,
    )
    start = time.perf_counter()
    run_pipeline(config)
    elapsed = time.perf_counter() - start
    verdict(10, "full-size runtime", elapsed <= 300.0,
            f"B=300 one-band pipeline in {elapsed:.0f}s <= 300s")


def test_criterion_11_determinism(tmp_path):
    from conftest import tree_digest

    digests = []
    for sub in ("first", "second"):
        config = PipelineConfig(
            seed=111, output_dir=str(tmp_path / sub),
            sim={"n_blocks": 24, "block_length": 384},
            bands=("raw", "Beta"), n_clusters=2, fuzziness=1.8, n_restarts=5,
        )
        run_pipeline(config)
        digests.append(tree_digest(Path(tmp_path / sub)))
    ok = digests[0] == digests[1]
    verdict(11, "determinism", ok,
            f"{len(digests[0])} artifact files byte-identical across reruns")
