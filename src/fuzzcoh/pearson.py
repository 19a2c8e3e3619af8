"""Non-robust linear-correlation foil for the rank dependence path.

Swaps sine-tau entries for lagged sample Pearson correlations with an
otherwise identical contract, so filtering, the canonical solver,
clustering and evaluation are shared code paths and any performance gap
isolates the dependence estimator.
"""

from __future__ import annotations

import numpy as np

from .dependence import LaggedDependenceSet, build_dependence_set
from .mts import MtsBlock

__all__ = ["pearson_dependence_set"]


def _lagged_correlation(data: np.ndarray, lag: int) -> np.ndarray:
    """corr(Z_j(t), Z_k(t + lag)) over the aligned samples, per (j, k)."""
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


def _correlation_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    return np.stack([_lagged_correlation(data, lag) for lag in range(max_lag + 1)])


def pearson_dependence_set(block: MtsBlock, max_lag: int = 5) -> LaggedDependenceSet:
    """Lagged Pearson analogue of the rank dependence set.

    Same shape, symmetry and degeneracy contract, from the shared
    ``build_dependence_set``; constant channels give zero entries.
    """
    return build_dependence_set(block, max_lag, _correlation_matrices)
