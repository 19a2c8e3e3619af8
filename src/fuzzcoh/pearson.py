"""Non-robust linear-correlation foil for the rank dependence path.

Swaps sine-tau entries for lagged sample Pearson correlations:
``pearson_matrices`` has the signature of ``sine_tau_matrices`` and
``canonical.extract_features`` applies the same contract to both, so
filtering, the canonical solver, clustering and evaluation are shared
code paths and any performance gap isolates the dependence estimator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pearson_matrices"]


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


def pearson_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    """A block's lagged Pearson matrices, shape (L+1, m, m); constant channels give zero entries."""
    return np.stack([_lagged_correlation(data, lag) for lag in range(max_lag + 1)])
