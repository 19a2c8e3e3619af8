"""Shared independent oracles used across the test suite.

These implement the slow, literal definitions (all-pairs enumeration,
transfer-function integration, product-grid maximization) against which
the library's fast paths are checked.  They must stay independent of
the code paths they verify.
"""

import hashlib
import math
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


def brute_force_fsi(features, memberships, fuzziness) -> float:
    """Fuzzy silhouette index with the silhouette taken object by object.

    The weighted mean distances are the library's; the silhouette of
    every (object, cluster) pair is then evaluated literally: a pair
    whose own mean, or every other mean, is undefined scores 0, as does
    one with max(a, n) == 0.
    """
    x = np.asarray(features, dtype=np.float64)
    e = np.asarray(memberships, dtype=np.float64)
    n, c = e.shape
    dist = np.sqrt(np.maximum(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1), 0.0))
    w = e ** fuzziness
    num = dist @ w
    den = w.sum(axis=0)[None, :] - w
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(den > 0, num / den, np.nan)
    s = np.zeros((n, c))
    for b in range(n):
        for ci in range(c):
            a = avg[b, ci]
            others = [v for k, v in enumerate(avg[b]) if k != ci and not math.isnan(v)]
            if math.isnan(a) or not others:
                continue
            nb = float(min(others))
            top = max(a, nb)
            s[b, ci] = 0.0 if top == 0 else (nb - a) / top
    return float((w * s).sum() / n)


def brute_force_simulation_protocol(memberships, kinds, threshold=0.7) -> dict:
    """The 0.7-cutoff protocol by enumeration of both cluster-to-kind maps.

    A block is assigned to its argmax cluster (lower index on ties) when
    its top membership exceeds the cutoff, else FUZZY.  Pure blocks count
    correct under the map, switching blocks (kind 2) when FUZZY; the
    first map with the most correct blocks wins.  FUZZY is the third
    label of both pair-enumeration Rand indices.
    """
    assigned = []
    for row in np.asarray(memberships, dtype=np.float64).tolist():
        top = max(row)
        assigned.append(row.index(top) if top > threshold else None)
    kinds = [int(k) for k in kinds]
    best = None
    for label_map in ((0, 1), (1, 0)):
        correct = sum(
            (a is None) if k == 2 else (a is not None and label_map[a] == k)
            for a, k in zip(assigned, kinds)
        )
        if best is None or correct > best[0]:
            best = (correct, label_map)
    hard = [2 if a is None else a for a in assigned]
    pure = [i for i, k in enumerate(kinds) if k != 2]
    return {
        "accuracy": best[0] / len(kinds),
        "label_map": best[1],
        "n_pure": len(pure),
        "n_switching": len(kinds) - len(pure),
        "n_switching_correct": sum(a is None for a, k in zip(assigned, kinds) if k == 2),
        "fuzzy_fraction": sum(a is None for a in assigned) / len(kinds),
        "rand_index_all": brute_force_rand_index(hard, kinds) if len(kinds) >= 2 else 1.0,
        "rand_index_pure": (
            brute_force_rand_index([hard[i] for i in pure], [kinds[i] for i in pure])
            if len(pure) >= 2 else 1.0
        ),
    }


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


def reference_init_centers(features, n_clusters, rng):
    """Squared-distance seeding, each draw's distances taken to every chosen center."""
    n = features.shape[0]
    chosen = [int(rng.integers(n))]
    for _ in range(n_clusters - 1):
        d2 = np.min(
            ((features[:, None, :] - features[chosen][None]) ** 2).sum(axis=-1), axis=1
        )
        total = d2.sum()
        if total == 0:
            unused = [i for i in range(n) if i not in chosen]
            chosen.append(unused[int(rng.integers(len(unused)))])
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return features[chosen].astype(np.float64)


def _reference_memberships(features, centers, fuzziness):
    d2 = ((features[:, None, :] - centers[None]) ** 2).sum(axis=-1)  # (B, C)
    coincident = d2 == 0.0
    safe = np.where(coincident, 1.0, d2)
    ratios = safe / safe.min(axis=1, keepdims=True)
    inv = ratios ** (-1.0 / (fuzziness - 1.0))
    e = inv / inv.sum(axis=1, keepdims=True)
    hit = coincident.any(axis=1)
    if hit.any():
        e[hit] = coincident[hit] / coincident[hit].sum(axis=1, keepdims=True)
    if np.abs(e.sum(axis=1) - 1.0).max() > 1e-10:
        raise ValueError("membership rows drifted from sum 1 during an update")
    return e, d2


def _reference_objective(e, d2, fuzziness):
    return float(((e ** fuzziness) * d2).sum())


def reference_fcm_restarts(features, n_clusters, fuzziness, seed=0, max_iter=300,
                           n_restarts=10, init=None):
    """FCM with one restart after another, each restart's loop run on its own.

    Returns every restart's (memberships, centers, objective trace,
    iterations, converged).  A restart whose rows drift raises ValueError.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    restarts = 1 if init is not None else n_restarts
    fits = []
    for r in range(restarts):
        if init is not None:
            centers = np.ascontiguousarray(init, dtype=np.float64).copy()
        else:
            rng = np.random.default_rng([seed, n_clusters, int(round(fuzziness * 1e6)), r])
            centers = reference_init_centers(x, n_clusters, rng)
        e, d2 = _reference_memberships(x, centers, fuzziness)
        trace = [_reference_objective(e, d2, fuzziness)]
        converged = False
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            w = e ** fuzziness
            centers = (w.T @ x) / w.sum(axis=0)[:, None]
            e_new, d2 = _reference_memberships(x, centers, fuzziness)
            trace.append(_reference_objective(e_new, d2, fuzziness))
            delta = np.abs(e_new - e).max()
            e = e_new
            if delta < 1e-6:
                converged = True
                break
        fits.append((e, centers, tuple(trace), iterations, converged))
    return fits


def reference_fcm_fit(features, n_clusters, fuzziness, **kwargs):
    """The best of ``reference_fcm_restarts``: lowest final objective, first on a tie."""
    best = None
    for fit in reference_fcm_restarts(features, n_clusters, fuzziness, **kwargs):
        if best is None or fit[2][-1] < best[2][-1]:
            best = fit
    return best


def pinned_fit(features, init, fuzziness, max_iter=300):
    """One restart of the production FCM loop from pinned initial centers (C, dim)."""
    from fuzzcoh.clustering import _best_restart, _fit_restarts

    x = np.ascontiguousarray(features, dtype=np.float64)
    start = np.asarray(init, dtype=np.float64)
    return _best_restart(_fit_restarts(x, start[None], fuzziness, max_iter), fuzziness, 0)


def reference_grid_search(features, c_values, m_values, seed=0, n_restarts=10):
    """(C, m, FSI) of every cell that fits, in grid order, and the selected (C, m)."""
    cells = []
    best = None
    for c in sorted(c_values):
        for m in sorted(m_values):
            if c >= len(features):
                continue
            e = reference_fcm_fit(features, c, m, seed=seed, n_restarts=n_restarts)[0]
            value = brute_force_fsi(features, e, m)
            cells.append((c, m, value))
            if best is None or value > best[0]:
                best = (value, c, m)
    return cells, best[1:]


def two_blobs(n_per, dim, gap, sigma, seed=0):
    """Two spherical Gaussian blobs separated by ``gap`` along axis 0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sigma, size=(n_per, dim))
    b = rng.normal(0.0, sigma, size=(n_per, dim))
    b[:, 0] += gap
    x = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return x, labels


# ---------------------------------------------------------------------------
# the per-block canonical solve and the single-m restart batch, kept as they
# were before the dataset-wide stack and the m batch replaced them
# ---------------------------------------------------------------------------

def _reference_inv_sqrt_psd(mat, what):
    from fuzzcoh.exceptions import NumericError

    w, v = np.linalg.eigh(mat)
    if w.min() < 1e-10:
        w, v = np.linalg.eigh(mat + 1e-6 * np.eye(mat.shape[0]))
        if w.min() < 1e-10:
            raise NumericError(
                f"{what} remains singular after PSD repair and ridge "
                f"(min eigenvalue {w.min():.3e})"
            )
    return (v * (1.0 / np.sqrt(w))) @ v.T


def lag_matrix(lags, lag):
    """An (L+1, m, m) array's matrix at ``lag``; at a negative lag, the view ``lags[-lag].T``."""
    return lags[lag] if lag >= 0 else lags[-lag].T


def contracted_set(data, max_lag, p, fn=None):
    """One (T, m) block's (L+1, m, m) matrices from ``fn`` (sine-tau by default),
    as ``extract_features`` leaves them after the dependence-set contract."""
    from fuzzcoh import MtsDataset, extract_features, sine_tau_matrices

    dataset = MtsDataset(data=data[None], p=p, sample_rate_hz=128.0)
    return extract_features(dataset, max_lag=max_lag, dependence_fn=fn or sine_tau_matrices).lags[0]


def reference_solve_canonical(lags, p):
    """One block's canonical solution: (u, v, g_value, best_lag), lag by lag."""
    from fuzzcoh.dependence import repair_psd
    from fuzzcoh.exceptions import NumericError

    p0 = repair_psd(lags[0])
    wx = _reference_inv_sqrt_psd(p0[:p, :p], "P_XX(0)")
    wy = _reference_inv_sqrt_psd(p0[p:, p:], "P_YY(0)")
    q = p0.shape[0] - p
    order = [0] + [l for k in range(1, len(lags)) for l in (k, -k)]
    best = None
    for lag in order:
        cross = p0[:p, p:] if lag == 0 else lag_matrix(lags, lag)[:p, p:]
        k = wx @ cross @ wy
        try:
            left, sing, right_t = np.linalg.svd(k)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"SVD failed at lag {lag}: {exc}") from exc
        g = float(sing[0]) ** 2
        if best is None or g > best[0]:
            best = (g, lag, left[:, 0], right_t[0])
    g, lag, a, b = best
    if g == 0.0:
        a = np.zeros(p)
        a[0] = 1.0
        b = np.zeros(q)
        b[0] = 1.0
    u = wx @ a
    v = wy @ b
    if u[np.argmax(np.abs(u))] < 0:
        u = -u
        v = -v
    return u, v, g, lag


def reference_fit_restarts(x, centers, fuzziness, max_iter):
    """R restarts at one m as one batch, every power taken with the scalar m."""
    from fuzzcoh.clustering import _lastsum, _sqdist

    def memberships(centers):
        d2 = _sqdist(x, centers)
        coincident = d2 == 0.0
        any_coincident = coincident.any()
        safe = np.where(coincident, 1.0, d2) if any_coincident else d2
        low = safe[..., 0]
        for k in range(1, safe.shape[-1]):
            low = np.minimum(low, safe[..., k])
        inv = (safe / low[..., None]) ** (-1.0 / (fuzziness - 1.0))
        e = np.divide(inv, _lastsum(inv)[..., None], out=np.empty(inv.shape))
        if any_coincident:
            hit = coincident.any(axis=-1)
            e[hit] = coincident[hit] / coincident[hit].sum(axis=-1, keepdims=True)
        return e, d2

    fits = [None] * len(centers)
    traces = [[] for _ in fits]
    active = np.arange(len(fits))
    e = w = None
    iterations = 0
    while active.size:
        if e is not None:
            iterations += 1
            with np.errstate(invalid="ignore"):
                centers = np.matmul(w.transpose(0, 2, 1), x) / w.sum(axis=1)[:, :, None]
        e_new, d2 = memberships(centers)
        w = e_new ** fuzziness
        rows = len(active)
        for r, value in zip(active.tolist(), (w * d2).reshape(rows, -1).sum(axis=1).tolist()):
            traces[r].append(value)
        drifted = ~(np.abs(_lastsum(e_new) - 1.0).reshape(rows, -1).max(axis=1) <= 1e-10)
        if e is None:
            converged = np.zeros(rows, dtype=bool)
        else:
            converged = np.abs(e_new - e).reshape(rows, -1).max(axis=1) < 1e-6
        e = e_new
        ended = drifted | converged | (iterations >= max_iter)
        if not ended.any():
            continue
        for i in np.flatnonzero(ended & ~drifted).tolist():
            r = int(active[i])
            fits[r] = (e[i].copy(), centers[i].copy(), traces[r], iterations, bool(converged[i]))
        keep = ~ended
        active, e, w, centers = active[keep], e[keep], w[keep], centers[keep]
    return fits
