"""Fuzzy C-means over canonical features, validity index, grid search.

The fit alternates the closed-form center and membership updates of the
weighted squared-distance objective; distances are squared inside the
objective and updates, unsquared inside the silhouette dissimilarities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import ConfigError, NumericError
from .mts import _readonly

__all__ = [
    "FuzzyPartition",
    "ValidityReport",
    "GridCell",
    "fcm_fit",
    "fcm_fit_batch",
    "fsi",
    "grid_search",
    "init_centers",
    "check_grid",
    "check_distance_budget",
    "DIST_BUDGET_BYTES",
    "DEFAULT_C_GRID",
    "DEFAULT_M_GRID",
]

DEFAULT_C_GRID: tuple[int, ...] = (2, 3, 4, 5, 6)
DEFAULT_M_GRID: tuple[float, ...] = (1.2, 1.5, 1.8, 2.0, 2.2, 2.5)

_ROW_SUM_TOL = 1e-10
_TRACE_SLACK = 1e-12
_FIT_TOL = 1e-6  # a fit converges once no membership moves by this much

# numpy's ``array ** scalar`` squares, takes the reciprocal or the square
# root for these exponents instead of calling pow, and rounds differently
# from pow; an exponent array always calls pow.
_SCALAR_FAST = (2.0, -1.0, 0.5)
# An FCM batch holds as many m values as keep its (dim, rows, C, B)
# difference slab within this, and at least one.
_SLAB_BYTES = 32 * 2**20
# The validity index's (B, B) float64 distance matrix may take this much;
# it is built in row strips of at most _STRIP_BYTES of differences.
DIST_BUDGET_BYTES = 2**30
_STRIP_BYTES = 8 * 2**20


@dataclass(frozen=True)
class FuzzyPartition:
    """Memberships, centers and the fit trace of one FCM solution."""

    memberships: np.ndarray  # (B, C)
    centers: np.ndarray      # (C, dim)
    fuzziness: float
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    seed: int

    def __post_init__(self):
        e, c = _readonly(self.memberships), _readonly(self.centers)
        if e.ndim != 2 or c.ndim != 2 or e.shape[1] != c.shape[0]:
            raise ConfigError(
                f"inconsistent shapes: memberships {e.shape}, centers {c.shape}"
            )
        # written so that NaN fails each check
        if not np.abs(e.sum(axis=1) - 1.0).max() <= _ROW_SUM_TOL:
            raise NumericError("membership rows do not sum to 1 within 1e-10")
        if not (e.min() >= 0.0 and e.max() <= 1.0):
            raise NumericError("membership entries outside [0, 1]")
        trace = tuple(float(v) for v in self.objective_trace)
        if not (np.isfinite(c).all() and np.isfinite(trace).all()):
            raise NumericError("non-finite centers or objective: a cluster's weight reached 0")
        for a, b in zip(trace, trace[1:]):
            if b > a + _TRACE_SLACK:
                raise NumericError(f"objective increased: {a} -> {b}")
        object.__setattr__(self, "memberships", e)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "objective_trace", trace)

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True)
class GridCell:
    n_clusters: int
    fuzziness: float
    fsi: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class ValidityReport:
    """Per-(C, m) validity values and the selected cell."""

    cells: tuple[GridCell, ...]
    selected: tuple[int, float]

    def fsi_value(self, n_clusters: int, fuzziness: float) -> Optional[float]:
        for cell in self.cells:
            if cell.n_clusters == n_clusters and cell.fuzziness == fuzziness:
                return cell.fsi
        return None


def _restart_rng(seed: int, n_clusters: int, fuzziness: float, restart: int) -> np.random.Generator:
    # stable cross-platform derivation of one stream per (seed, C, m, restart)
    return np.random.default_rng([seed, n_clusters, int(round(fuzziness * 1e6)), restart])


def _lastsum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of a C-contiguous copy of ``a``, bit for bit.

    numpy sums each contiguous row of n <= 128 entries pairwise: below 8
    it adds them left to right; from 8 it adds every 8th entry into 8
    partial sums, combines them as ((s0 + s1) + (s2 + s3)) + ((s4 + s5)
    + (s6 + s7)) and adds the rest left to right; the row's result is
    +0.0 plus that.  The same adds done one column at a time round the
    same, at a ufunc call per column instead of about 25 ns per row.
    """
    n = a.shape[-1]
    if not 0 < n <= 128:
        return np.ascontiguousarray(a).sum(axis=-1)
    if n < 8:
        total = a[..., 0] + 0.0
        for k in range(1, n):
            total += a[..., k]
        return total
    part = [a[..., j] for j in range(8)]
    for i in range(8, n - n % 8, 8):
        part = [part[j] + a[..., i + j] for j in range(8)]
    total = (part[0] + part[1]) + (part[2] + part[3])
    total += (part[4] + part[5]) + (part[6] + part[7])
    for k in range(n - n % 8, n):
        total += a[..., k]
    total += 0.0
    return total


def init_centers(features: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Sample C distinct data points with squared-distance weighting.

    First center uniform; each next one drawn with probability
    proportional to the squared distance to the nearest chosen center.
    Coincident duplicates fall back to a uniform draw over unused rows.
    """
    n = features.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)
    for _ in range(n_clusters - 1):
        # only the newest center can come nearer; the minimum is exact in any order
        d2 = np.minimum(d2, _lastsum((features - features[chosen[-1]]) ** 2))
        total = d2.sum()
        if total == 0:
            unused = [i for i in range(n) if i not in chosen]
            chosen.append(unused[int(rng.integers(len(unused)))])
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
    return features[chosen].astype(np.float64)


def _sqdist(features, centers):
    """Squared distances (R, B, C) of B rows to R center sets (R, C, dim).

    Laid out (R, C, B) in memory: each dim's squares form one contiguous
    (R, C, B) slab, and the column ops that follow run over contiguous
    rows.
    """
    rows = np.ascontiguousarray(features.T)[:, None, None, :]
    diff = rows - centers.transpose(2, 0, 1)[..., None]
    diff *= diff  # (dim, R, C, B)
    return _lastsum(diff.transpose(1, 3, 2, 0))


def _rowpower(base, exponent, split):
    """``base[r] ** exponent[r]`` for every leading row r of ``base``.

    Rows before ``split`` take one broadcast ``np.power``, which rounds
    each row as ``base[r] ** exponent[r]`` with a scalar exponent does.
    The rows from ``split`` on share one exponent in _SCALAR_FAST and take
    numpy's scalar call, which is not pow for these exponents.
    """
    if split == len(base):
        return np.power(base, exponent[:, None, None])
    if split == 0:
        return base ** float(exponent[0])
    out = np.empty(base.shape)
    np.power(base[:split], exponent[:split, None, None], out=out[:split])
    out[split:] = base[split:] ** float(exponent[split])
    return out


def _memberships_from_centers(features, centers, exponent, split):
    """Memberships and squared distances (R, B, C) for R center sets (R, C, dim).

    Row r's membership exponent is ``exponent[r]`` = -1 / (m - 1), taken
    by ``_rowpower`` with ``split``.  The memberships come out
    C-contiguous: the center update's sums and products then round as
    those of a single restart's (B, C) array.
    """
    d2 = _sqdist(features, centers)
    coincident = d2 == 0.0
    any_coincident = coincident.any()
    safe = np.where(coincident, 1.0, d2) if any_coincident else d2
    # normalize by the row minimum so the negative power cannot overflow
    # even for fuzziness close to 1 (ratios >= 1, powers in (0, 1])
    low = safe[..., 0]
    for k in range(1, safe.shape[-1]):
        low = np.minimum(low, safe[..., k])
    inv = _rowpower(safe / low[..., None], exponent, split)
    e = np.divide(inv, _lastsum(inv)[..., None], out=np.empty(inv.shape))
    if any_coincident:
        # coincidence rule: full membership split among coincident centers
        hit = coincident.any(axis=-1)
        e[hit] = coincident[hit] / coincident[hit].sum(axis=-1, keepdims=True)
    return e, d2


def check_fuzziness(fuzziness: float) -> None:
    """ConfigError unless 1 < fuzziness < inf (NaN fails too)."""
    if not fuzziness > 1.0:
        raise ConfigError(f"fuzziness must exceed 1, got {fuzziness}")
    if fuzziness == np.inf:
        raise ConfigError(f"fuzziness must be finite, got {fuzziness}")


def check_n_clusters(n_clusters: int) -> None:
    """ConfigError unless there are at least 2 clusters."""
    if not n_clusters >= 2:
        raise ConfigError(f"need at least 2 clusters, got C = {n_clusters}")


def check_grid(name: str, values, check_value) -> tuple:
    """``values`` as a tuple, checked before anything is fitted.

    ConfigError naming the grid or the value if the grid is empty,
    lists a value twice or holds one that ``check_value`` rejects.
    """
    values = tuple(values)
    if not values:
        raise ConfigError(f"{name} is empty")
    for i, value in enumerate(values):
        check_value(value)
        if value in values[:i]:
            raise ConfigError(f"{name} lists {value} more than once")
    return values


def check_distance_budget(n_objects: int) -> None:
    """ConfigError if B objects need a distance matrix over DIST_BUDGET_BYTES.

    Computed from B alone, so nothing is allocated to find out.
    """
    need = 8 * n_objects**2
    if need > DIST_BUDGET_BYTES:
        raise ConfigError(
            f"B={n_objects} objects need a {need:,}-byte distance matrix for the validity "
            f"index, over its limit of {DIST_BUDGET_BYTES:,} bytes "
            f"(B <= {math.isqrt(DIST_BUDGET_BYTES // 8)})"
        )


def check_cluster_count(n_objects: int, n_clusters: int) -> None:
    """ConfigError unless there are more objects than clusters."""
    if n_clusters >= n_objects:
        raise ConfigError(f"need more objects than clusters: B={n_objects}, C={n_clusters}")


def _weight_sums(w: np.ndarray) -> np.ndarray:
    """``w.sum(axis=1)`` of (R, B, C) weights, in the same order over B: on a (B, R, C) copy."""
    return w.transpose(1, 0, 2).copy().sum(axis=0)


def _fit_restarts(x, centers, fuzziness, max_iter) -> list:
    """Fit N restarts from initial centers (N, C, dim) as one batch.

    ``fuzziness`` is one m for every restart or one per restart, so the
    restarts of several m values can share a batch.  Each pass moves the
    centers of every restart still running; a restart leaves the batch
    at the pass where it converges, drifts or reaches ``max_iter``, so
    it ends where a fit of its own would.  Returns, per restart,
    (memberships, centers, objective trace, iterations, converged), or
    None for one whose rows drifted.
    """
    m_rows = np.full(len(centers), fuzziness, dtype=np.float64)
    inv_rows = -1.0 / (m_rows - 1.0)
    # Exactness: each row must round as its own fit's ``e ** m`` and
    # ``ratios ** (-1 / (m - 1))`` with a scalar exponent.  A broadcast
    # np.power does for every exponent but those in _SCALAR_FAST; of
    # m > 1 only m = 2.0 has them (2.0 and -1.0), so its rows run last
    # and _rowpower gives them the scalar call.
    fast = np.isin(m_rows, _SCALAR_FAST) | np.isin(inv_rows, _SCALAR_FAST)
    order = np.argsort(fast, kind="stable")
    n_general = len(order) - int(np.count_nonzero(fast))
    centers, m_rows, inv_rows = centers[order], m_rows[order], inv_rows[order]
    fits: list = [None] * len(centers)
    traces: list = [[] for _ in fits]
    active = np.arange(len(fits))
    e = w = None
    iterations = 0
    while active.size:
        split = int(np.searchsorted(active, n_general))
        if e is not None:
            iterations += 1
            # a cluster with no weight gets 0/0 centers, which the partition rejects
            with np.errstate(invalid="ignore"):
                centers = np.matmul(w.transpose(0, 2, 1), x) / _weight_sums(w)[:, :, None]
        e_new, d2 = _memberships_from_centers(x, centers, inv_rows[active], split)
        w = _rowpower(e_new, m_rows[active], split)  # the objective's and next update's weights
        rows = len(active)
        for r, value in zip(active.tolist(), (w * d2).reshape(rows, -1).sum(axis=1).tolist()):
            traces[r].append(value)
        drifted = ~(np.abs(_lastsum(e_new) - 1.0).reshape(rows, -1).max(axis=1) <= _ROW_SUM_TOL)
        if e is None:
            converged = np.zeros(rows, dtype=bool)
        else:
            converged = np.abs(e_new - e).reshape(rows, -1).max(axis=1) < _FIT_TOL
        e = e_new
        ended = drifted | converged | (iterations >= max_iter)
        if not ended.any():
            continue
        for i in np.flatnonzero(ended & ~drifted).tolist():
            r = int(active[i])
            fits[r] = (e[i].copy(), centers[i].copy(), traces[r], iterations, bool(converged[i]))
        keep = ~ended
        active, e, w, centers = active[keep], e[keep], w[keep], centers[keep]
    out: list = [None] * len(fits)
    for fit, r in zip(fits, order.tolist()):
        out[r] = fit
    return out


def _check_fit(features, n_clusters: int, n_restarts: int) -> np.ndarray:
    """The features as C-contiguous float64, once the fit's settings are checked."""
    if n_restarts < 1:
        raise ConfigError(f"n_restarts must be >= 1, got {n_restarts}")
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"features must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError("features contain non-finite values")
    check_n_clusters(n_clusters)
    check_cluster_count(x.shape[0], n_clusters)
    return x


def _best_restart(fits, fuzziness: float, seed: int) -> FuzzyPartition:
    """The finite restart with the lowest final objective, the first on a tie."""
    best: Optional[FuzzyPartition] = None
    for fit in fits:
        if fit is None:
            raise NumericError("membership rows drifted from sum 1 during an update")
        e, fit_centers, trace, iterations, converged = fit
        if not (np.isfinite(fit_centers).all() and np.isfinite(trace).all()):
            continue  # a cluster's weight reached 0: this restart has no partition
        part = FuzzyPartition(
            memberships=e, centers=fit_centers, fuzziness=fuzziness,
            objective_trace=tuple(trace), iterations=iterations,
            converged=converged, seed=seed,
        )
        if best is None or part.objective < best.objective:
            best = part
    if best is None:
        raise NumericError("non-finite centers or objective in every restart: "
                           "a cluster's weight reached 0")
    return best


def fcm_fit_batch(
    features,
    n_clusters: int,
    fuzziness_values: Sequence[float],
    seed: int = 0,
    max_iter: int = 300,
    n_restarts: int = 10,
) -> list:
    """``fcm_fit`` at one C for every m of ``fuzziness_values``, batched over m.

    The restarts of every m run as one (n_m * R, B, C) batch with
    per-row exponents, split into consecutive groups of m values only
    where the (dim, rows, C, B) difference slab would pass 32 MB (never
    below one m per batch).  Each m's fit is bit for bit its own
    ``fcm_fit``.  Returns one entry per m, in order: the best partition,
    or the ``NumericError`` that ``fcm_fit`` would raise for that m.

    Raises
    ------
    ConfigError
        As ``fcm_fit`` does, for the whole call: any m invalid, C >= B,
        n_restarts < 1 or features that are not finite.
    """
    x = _check_fit(features, n_clusters, n_restarts)
    m_values = tuple(fuzziness_values)
    for m in m_values:
        check_fuzziness(m)
    n, dim = x.shape
    step = max(1, _SLAB_BYTES // (8 * dim * n_restarts * n_clusters * n))
    results: list = []
    for i in range(0, len(m_values), step):
        chunk = m_values[i : i + step]
        centers = np.stack([
            init_centers(x, n_clusters, _restart_rng(seed, n_clusters, m, r))
            for m in chunk for r in range(n_restarts)
        ])
        fits = _fit_restarts(x, centers, np.repeat(chunk, n_restarts), max_iter)
        for j, m in enumerate(chunk):
            try:
                results.append(_best_restart(fits[j * n_restarts : (j + 1) * n_restarts],
                                             m, seed))
            except NumericError as exc:
                results.append(exc)
    return results


def fcm_fit(
    features,
    n_clusters: int,
    fuzziness: float,
    seed: int = 0,
    max_iter: int = 300,
    n_restarts: int = 10,
) -> FuzzyPartition:
    """Fuzzy C-means fit, best of ``n_restarts`` by final objective.

    Alternates the weighted-mean center update and the closed-form
    membership update until the largest membership change drops below
    1e-6 or ``max_iter`` is hit.  Each restart derives its own stream
    from (seed, C, m, restart) and initializes centers at data points
    via squared-distance weighting.  This is ``fcm_fit_batch`` with a
    single m: the restarts run as one batch, and the lowest final
    objective among the finite restarts wins, the first restart on a tie.

    Raises
    ------
    ConfigError
        If C >= B, m <= 1 or m infinite, n_restarts < 1, or the features
        are not 2-D and finite.
    NumericError
        If a restart's membership rows drift from sum 1 or its
        partition fails a check, or if every restart ends with
        non-finite centers or objective (a cluster whose weight reaches
        0); such a restart is dropped when another one is finite.
    """
    (result,) = fcm_fit_batch(features, n_clusters, (fuzziness,), seed=seed,
                              max_iter=max_iter, n_restarts=n_restarts)
    if isinstance(result, NumericError):
        raise result
    return result


def fsi(features, partition: FuzzyPartition) -> float:
    """Membership-weighted silhouette index of a fitted partition, as a float.

    For object b and cluster c, a is the membership-weighted mean
    distance to the other objects under cluster c and n the minimum such
    mean over the other clusters; s = (n - a) / max(a, n) with the
    all-zero case defined as 0.  The index averages e^m-weighted
    silhouettes over objects.  A weighted mean is undefined when its
    cluster has zero total weight excluding b; n ignores undefined
    means, and a pair whose a, or every other mean, is undefined
    scores 0.
    """
    x = np.ascontiguousarray(features, dtype=np.float64)
    n = partition.memberships.shape[0]
    if x.shape[0] != n:
        raise ConfigError(f"{x.shape[0]} feature rows vs {n} membership rows")
    if n < 3:
        raise ConfigError(f"need at least 3 objects, got {n}")
    check_distance_budget(n)
    return _fsi(_pairwise_distances(x), partition)


def _pairwise_distances(x):
    """The (B, B) Euclidean distances between feature rows, in row strips.

    A strip's (rows, B, dim) squared differences take at most
    _STRIP_BYTES (at least one row), and ``_lastsum`` sums each entry
    as it would in the whole (B, B, dim) array, so the result does not
    depend on the strip height.
    """
    n, dim = x.shape
    dist = np.empty((n, n))
    step = max(1, _STRIP_BYTES // (8 * n * max(dim, 1)))
    for a in range(0, n, step):
        diff = x[a : a + step, None, :] - x[None, :, :]
        diff *= diff
        dist[a : a + step] = _lastsum(diff)
    return np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)


def _fsi(dist, partition: FuzzyPartition) -> float:
    """``fsi`` from the partition's features' pairwise distances."""
    e = partition.memberships
    m = partition.fuzziness
    n, c = e.shape
    w = e ** m                      # (B, C)
    # self-distance is 0, so j = b adds nothing; one GEMM, not row strips,
    # whose row counts would change OpenBLAS's kernel and its rounding
    num = dist @ w
    den = w.sum(axis=0)[None, :] - w  # column totals excluding b
    s = np.zeros((n, c))
    with np.errstate(invalid="ignore", divide="ignore"):
        avg = np.where(den > 0, num / den, np.nan)
        for ci in range(c):  # one cluster column at a time, all objects at once
            a = avg[:, ci]
            # fmin skips undefined (NaN) means; nb stays NaN when every other
            # mean is undefined or there is no other cluster
            nb = np.fmin.reduce(np.delete(avg, ci, axis=1), axis=1, initial=np.nan)
            top = np.maximum(a, nb)  # NaN propagates, so such pairs score 0
            s[:, ci] = np.where(top > 0, (nb - a) / top, 0.0)

    return float((w * s).sum() / n)


def grid_search(
    features,
    c_values: Sequence[int] = DEFAULT_C_GRID,
    m_values: Sequence[float] = DEFAULT_M_GRID,
    seed: int = 0,
    n_restarts: int = 10,
) -> tuple[ValidityReport, FuzzyPartition]:
    """Fit every (C, m) cell and keep the highest-validity configuration.

    Restart seeds are shared across cells through the (seed, C, m,
    restart) derivation.  Ties break toward smaller C, then smaller m.
    A fault of the whole grid (an invalid grid or n_restarts, features
    not 2-D and finite, smallest C >= B, B over the distance budget) is
    a ``ConfigError`` before any fit.  A failed cell (a larger C >= B, a
    numeric failure) is recorded; if every cell fails, ``NumericError``.
    """
    c_values = sorted(check_grid("c_values", c_values, check_n_clusters))
    m_values = sorted(check_grid("m_values", m_values, check_fuzziness))
    x = _check_fit(features, c_values[0], n_restarts)
    check_distance_budget(len(x))
    dist = None  # depends on the features only: built once, at the first cell that fits
    cells: list[GridCell] = []
    best = None  # (fsi, C, m, partition)
    for c in c_values:
        try:
            fits = fcm_fit_batch(x, c, m_values, seed=seed, n_restarts=n_restarts)
        except ConfigError as exc:  # C >= B: every cell of the row fails
            fits = [exc] * len(m_values)
        for m, part in zip(m_values, fits):
            if not isinstance(part, FuzzyPartition):
                cells.append(GridCell(n_clusters=c, fuzziness=m, fsi=None, error=str(part)))
                continue
            if dist is None:
                dist = _pairwise_distances(x)
            value = _fsi(dist, part)
            cells.append(GridCell(n_clusters=c, fuzziness=m, fsi=value))
            if best is None or value > best[0]:
                best = (value, c, m, part)
    if best is None:
        raise NumericError("every grid cell failed")
    _, c, m, part = best
    return ValidityReport(cells=tuple(cells), selected=(c, m)), part
