"""Block-wise canonical coherence over lags and the per-block feature.

Given a block's lagged dependence matrices, find unit-dependence
directions u (X side) and v (Y side) maximizing the squared cross
dependence over lags.  The clustering feature concatenates the
element-wise absolute values of u and v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dependence import MIN_ALIGNED, LaggedDependenceSet, dependence_set, repair_psd
from .exceptions import ConfigError, DataError, DegenerateBlockError, NumericError
from .mts import MtsDataset

__all__ = ["CanonicalFeature", "FeatureSet", "solve_canonical", "extract_features"]

_RIDGE = 1e-6
_MIN_EIG = 1e-10


@dataclass(frozen=True)
class CanonicalFeature:
    """Leading canonical solution of one block.

    ``u`` and ``v`` satisfy the unit within-group dependence constraints;
    ``g_value`` is the squared cross dependence at ``best_lag``; the
    clustering feature is d = (|u_1|..|u_p|, |v_1|..|v_q|).
    """

    u: np.ndarray
    v: np.ndarray
    g_value: float
    best_lag: int

    def __post_init__(self):
        u = np.ascontiguousarray(self.u, dtype=np.float64)
        v = np.ascontiguousarray(self.v, dtype=np.float64)
        if u.ndim != 1 or v.ndim != 1:
            raise DataError("u and v must be vectors")
        if self.g_value < 0:
            raise DataError(f"g_value must be non-negative, got {self.g_value}")
        u.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def d(self) -> np.ndarray:
        return np.concatenate([np.abs(self.u), np.abs(self.v)])


@dataclass(frozen=True)
class FeatureSet:
    """Ordered per-block features plus the exclusion report."""

    features: tuple[CanonicalFeature, ...]
    block_indices: tuple[int, ...]
    excluded: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    @property
    def d_matrix(self) -> np.ndarray:
        return np.array([f.d for f in self.features])

    def __len__(self) -> int:
        return len(self.features)


def _inv_sqrt_psd(mat: np.ndarray, what: str) -> np.ndarray:
    """Symmetric inverse square root with a single ridge retry."""
    w, v = np.linalg.eigh(mat)
    if w.min() < _MIN_EIG:
        w, v = np.linalg.eigh(mat + _RIDGE * np.eye(mat.shape[0]))
        if w.min() < _MIN_EIG:
            raise NumericError(
                f"{what} remains singular after PSD repair and ridge "
                f"(min eigenvalue {w.min():.3e})"
            )
    return (v * (1.0 / np.sqrt(w))) @ v.T


def _lag_order(max_lag: int):
    """Tie-break order: smaller |lag| first, then the non-negative lag."""
    yield 0
    for l in range(1, max_lag + 1):
        yield l
        yield -l


def solve_canonical(dep: LaggedDependenceSet) -> CanonicalFeature:
    """Maximize the squared cross dependence over directions and lags.

    The lag-0 matrix is PSD-repaired jointly (its XX and YY sub-blocks
    supply the whitening and its XY block the lag-0 cross term, keeping
    the lag-0 canonical value at most 1).  For each lag the whitened
    cross matrix K(l) = P_XX(0)^{-1/2} P_XY(l) P_YY(0)^{-1/2} is formed
    and its leading singular triple taken; the best lag maximizes the
    squared singular value with ties broken toward smaller |l|, then
    toward l >= 0.  The returned (u, v) are sign-fixed jointly so the
    largest-|u| entry is positive.

    When every cross matrix is exactly zero, the canonical value is 0
    and (u, v) are the whitened images of the first standard basis
    vectors (documented tie rule).
    """
    p, q = dep.p, dep.q
    p0 = repair_psd(dep.matrix(0))
    wx = _inv_sqrt_psd(p0[:p, :p], "P_XX(0)")
    wy = _inv_sqrt_psd(p0[p:, p:], "P_YY(0)")

    best: Optional[tuple[float, int, np.ndarray, np.ndarray]] = None
    for lag in _lag_order(dep.max_lag):
        cross = p0[:p, p:] if lag == 0 else dep.xy(lag)
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
    return CanonicalFeature(u=u, v=v, g_value=g, best_lag=lag)


def extract_features(
    dataset: MtsDataset,
    max_lag: int = 5,
    dependence_fn: Callable[..., LaggedDependenceSet] = dependence_set,
    skip_degenerate: bool = False,
) -> FeatureSet:
    """Solve the canonical problem for every block of a (filtered) dataset.

    ``dependence_fn`` builds a block's lagged dependence set (the rank
    path by default; the linear-correlation foil plugs in here).  A
    block with a flatlined channel raises unless ``skip_degenerate`` is
    set, in which case the block is excluded and reported.  A ``max_lag``
    below 0, or one that leaves fewer than 8 aligned samples in a block,
    raises ``ConfigError`` before any block is touched.
    """
    n_samples = dataset.blocks[0].n_samples  # every block has this length
    if not 0 <= max_lag <= n_samples - MIN_ALIGNED:
        raise ConfigError(
            f"max_lag must lie in [0, {n_samples - MIN_ALIGNED}] so that {n_samples}-sample "
            f"blocks keep at least {MIN_ALIGNED} aligned samples, got {max_lag}"
        )
    features: list[CanonicalFeature] = []
    kept: list[int] = []
    excluded: list[tuple[int, str]] = []
    for i, block in enumerate(dataset.blocks):
        try:
            dep = dependence_fn(block, max_lag)
            if dep.degenerate_channels:
                names = dataset.channel_names
                chans = ", ".join(
                    names[c] if names else str(c) for c in dep.degenerate_channels
                )
                raise DegenerateBlockError(i, f"constant channel(s): {chans}")
            features.append(solve_canonical(dep))
            kept.append(i)
        except DegenerateBlockError as exc:
            if not skip_degenerate:
                raise
            excluded.append((i, exc.reason))
        except (DataError, NumericError) as exc:
            raise NumericError(f"block {i}: {exc}") from exc
    return FeatureSet(
        features=tuple(features),
        block_indices=tuple(kept),
        excluded=tuple(excluded),
    )
