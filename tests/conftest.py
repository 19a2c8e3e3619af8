"""Shared independent oracles used across the test suite.

These implement the slow, literal definitions (all-pairs enumeration,
transfer-function integration, product-grid maximization) against which
the library's fast paths are checked.  They must stay independent of
the code paths they verify.
"""

import hashlib
from pathlib import Path

import numpy as np


def tree_digest(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def brute_force_tau_numerator(x, y) -> int:
    """Sum of sign(dx) * sign(dy) over all unordered index pairs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sx = np.sign(x[:, None] - x[None, :])
    sy = np.sign(y[:, None] - y[None, :])
    return int(np.rint((sx * sy).sum() / 2))


def brute_force_tau(x, y) -> float:
    n = len(x)
    return brute_force_tau_numerator(x, y) / (n * (n - 1) // 2)


def brute_force_rand_index(pred, truth) -> float:
    """Literal pair enumeration of the agreement fraction."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = len(pred)
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            agree += same_p == same_t
    return agree / total


def grid_oracle_best_g(p0_xx, p0_yy, cross_by_lag, n_angle=100):
    """Best squared cross value over a product grid on the constraint ellipses.

    Directions are parameterized through an independently computed
    whitening (scipy sqrtm-free: eigendecomposition done here), angles
    uniform over [0, pi) on each side, and the raw objective
    (u' P_XY(l) v)^2 evaluated at every grid point and lag.
    """
    def inv_sqrt(m):
        w, v = np.linalg.eigh(m)
        return (v / np.sqrt(w)) @ v.T

    wx = inv_sqrt(p0_xx)
    wy = inv_sqrt(p0_yy)
    angles = np.linspace(0.0, np.pi, n_angle, endpoint=False)
    ua = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ wx.T  # (n, 2)
    vb = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ wy.T
    best = 0.0
    for cross in cross_by_lag:
        vals = (ua @ cross @ vb.T) ** 2
        best = max(best, float(vals.max()))
    return best


def two_blobs(n_per, dim, gap, sigma, seed=0):
    """Two spherical Gaussian blobs separated by ``gap`` along axis 0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sigma, size=(n_per, dim))
    b = rng.normal(0.0, sigma, size=(n_per, dim))
    b[:, 0] += gap
    x = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return x, labels
