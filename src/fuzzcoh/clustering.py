"""Fuzzy C-means over canonical features, validity index, grid search.

The fit alternates the closed-form center and membership updates of the
weighted squared-distance objective; distances are squared inside the
objective and updates, unsquared inside the silhouette dissimilarities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .exceptions import ConfigError, NumericError

__all__ = [
    "FuzzyPartition",
    "ValidityReport",
    "GridCell",
    "fcm_fit",
    "fsi",
    "grid_search",
    "init_centers",
    "DEFAULT_C_GRID",
    "DEFAULT_M_GRID",
]

DEFAULT_C_GRID: tuple[int, ...] = (2, 3, 4, 5, 6)
DEFAULT_M_GRID: tuple[float, ...] = (1.2, 1.5, 1.8, 2.0, 2.2, 2.5)

_ROW_SUM_TOL = 1e-10
_TRACE_SLACK = 1e-12
_FIT_TOL = 1e-6  # a fit converges once no membership moves by this much


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
        e = np.ascontiguousarray(self.memberships, dtype=np.float64)
        c = np.ascontiguousarray(self.centers, dtype=np.float64)
        if e.ndim != 2 or c.ndim != 2 or e.shape[1] != c.shape[0]:
            raise ConfigError(
                f"inconsistent shapes: memberships {e.shape}, centers {c.shape}"
            )
        if np.abs(e.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
            raise NumericError("membership rows do not sum to 1 within 1e-10")
        if e.min() < 0.0 or e.max() > 1.0:
            raise NumericError("membership entries outside [0, 1]")
        trace = tuple(float(v) for v in self.objective_trace)
        for a, b in zip(trace, trace[1:]):
            if b > a + _TRACE_SLACK:
                raise NumericError(f"objective increased: {a} -> {b}")
        e.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "memberships", e)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "objective_trace", trace)

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    @property
    def n_objects(self) -> int:
        return self.memberships.shape[0]

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


def init_centers(features: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Sample C distinct data points with squared-distance weighting.

    First center uniform; each next one drawn with probability
    proportional to the squared distance to the nearest chosen center.
    Coincident duplicates fall back to a uniform draw over unused rows.
    """
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


def _memberships_from_centers(features, centers, fuzziness):
    d2 = ((features[:, None, :] - centers[None]) ** 2).sum(axis=-1)  # (B, C)
    coincident = d2 == 0.0
    safe = np.where(coincident, 1.0, d2)
    # normalize by the row minimum so the negative power cannot overflow
    # even for fuzziness close to 1 (ratios >= 1, powers in (0, 1])
    ratios = safe / safe.min(axis=1, keepdims=True)
    inv = ratios ** (-1.0 / (fuzziness - 1.0))
    e = inv / inv.sum(axis=1, keepdims=True)
    hit = coincident.any(axis=1)
    if hit.any():
        # coincidence rule: full membership split among coincident centers
        e[hit] = coincident[hit] / coincident[hit].sum(axis=1, keepdims=True)
    if np.abs(e.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
        raise NumericError("membership rows drifted from sum 1 during an update")
    return e, d2


def _require_restarts(n_restarts: int) -> None:
    if n_restarts < 1:
        raise ConfigError(f"n_restarts must be >= 1, got {n_restarts}")


def _objective(e, d2, fuzziness):
    return float(((e ** fuzziness) * d2).sum())


def fcm_fit(
    features,
    n_clusters: int,
    fuzziness: float,
    seed: int = 0,
    max_iter: int = 300,
    n_restarts: int = 10,
    init: Optional[np.ndarray] = None,
) -> FuzzyPartition:
    """Fuzzy C-means fit, best of ``n_restarts`` by final objective.

    Alternates the weighted-mean center update and the closed-form
    membership update until the largest membership change drops below
    1e-6 or ``max_iter`` is hit.  Each restart derives its own stream
    from (seed, C, m, restart) and initializes centers at data points
    via squared-distance weighting; pass ``init`` to pin the initial
    centers of a single restart (used by equivariance checks).

    Raises
    ------
    ConfigError
        If C >= B, m <= 1, n_restarts < 1, or the features are not finite.
    """
    _require_restarts(n_restarts)
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"features must be 2-D, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError("features contain non-finite values")
    n = x.shape[0]
    if n_clusters < 2:
        raise ConfigError(f"need at least 2 clusters, got {n_clusters}")
    if n_clusters >= n:
        raise ConfigError(f"need more objects than clusters: B={n}, C={n_clusters}")
    if fuzziness <= 1.0:
        raise ConfigError(f"fuzziness must exceed 1, got {fuzziness}")

    restarts = 1 if init is not None else n_restarts
    best: Optional[FuzzyPartition] = None
    for r in range(restarts):
        if init is not None:
            centers = np.ascontiguousarray(init, dtype=np.float64).copy()
        else:
            centers = init_centers(x, n_clusters, _restart_rng(seed, n_clusters, fuzziness, r))
        e, d2 = _memberships_from_centers(x, centers, fuzziness)
        trace = [_objective(e, d2, fuzziness)]
        converged = False
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            w = e ** fuzziness
            centers = (w.T @ x) / w.sum(axis=0)[:, None]
            e_new, d2 = _memberships_from_centers(x, centers, fuzziness)
            trace.append(_objective(e_new, d2, fuzziness))
            delta = np.abs(e_new - e).max()
            e = e_new
            if delta < _FIT_TOL:
                converged = True
                break
        part = FuzzyPartition(
            memberships=e, centers=centers, fuzziness=fuzziness,
            objective_trace=tuple(trace), iterations=iterations,
            converged=converged, seed=seed,
        )
        if best is None or part.objective < best.objective:
            best = part
    return best


def fsi(features, partition: FuzzyPartition) -> ValidityReport:
    """Membership-weighted silhouette index of a fitted partition.

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
    e = partition.memberships
    m = partition.fuzziness
    n, c = e.shape
    if x.shape[0] != n:
        raise ConfigError(f"{x.shape[0]} feature rows vs {n} membership rows")
    if n < 3:
        raise ConfigError(f"need at least 3 objects, got {n}")

    dist = np.sqrt(
        np.maximum(
            ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1), 0.0,
        )
    )
    w = e ** m                      # (B, C)
    num = dist @ w                  # self-distance is 0, so j = b adds nothing
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

    value = float((w * s).sum() / n)
    return ValidityReport(cells=(GridCell(n_clusters=c, fuzziness=m, fsi=value),), selected=(c, m))


def grid_search(
    features,
    c_values: Sequence[int] = DEFAULT_C_GRID,
    m_values: Sequence[float] = DEFAULT_M_GRID,
    seed: int = 0,
    n_restarts: int = 10,
) -> tuple[ValidityReport, FuzzyPartition]:
    """Fit every (C, m) cell and keep the highest-validity configuration.

    Restart seeds are shared across cells through the (seed, C, m,
    restart) derivation.  Per-cell failures are recorded, not fatal;
    an all-failed grid raises.  Ties break toward smaller C, then
    smaller m.
    """
    c_values = tuple(c_values)
    m_values = tuple(m_values)
    if not c_values or not m_values:
        raise ConfigError("empty grid")
    _require_restarts(n_restarts)  # a run-wide setting, not a per-cell failure
    cells: list[GridCell] = []
    best = None  # (fsi, C, m, partition)
    for c, m in product(sorted(c_values), sorted(m_values)):
        try:
            part = fcm_fit(features, c, m, seed=seed, n_restarts=n_restarts)
            value = fsi(features, part).cells[0].fsi
            cells.append(GridCell(n_clusters=c, fuzziness=m, fsi=value))
            if best is None or value > best[0]:
                best = (value, c, m, part)
        except (ConfigError, NumericError) as exc:
            cells.append(GridCell(n_clusters=c, fuzziness=m, fsi=None, error=str(exc)))
    if best is None:
        raise NumericError("every grid cell failed")
    _, c, m, part = best
    return ValidityReport(cells=tuple(cells), selected=(c, m)), part
