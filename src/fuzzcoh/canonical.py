"""Block-wise canonical coherence over lags and the per-block feature.

Given a block's lagged dependence matrices, find unit-dependence
directions u (X side) and v (Y side) maximizing the squared cross
dependence over lags.  The clustering feature concatenates the
element-wise absolute values of u and v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dependence import (
    MIN_ALIGNED,
    LaggedDependenceSet,
    dependence_set,
    needs_psd_repair,
    repair_psd,
)
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
    """Ordered per-block features, the exclusion report and the kept blocks' lags.

    ``lags`` is the (B, L+1, m, m) stack of the kept blocks' dependence
    matrices at lags 0..L, in ``block_indices`` order.
    """

    features: tuple[CanonicalFeature, ...]
    block_indices: tuple[int, ...]
    lags: np.ndarray
    excluded: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    @property
    def d_matrix(self) -> np.ndarray:
        return np.array([f.d for f in self.features])

    def __len__(self) -> int:
        return len(self.features)


def _inv_sqrt_psd(mats: np.ndarray, what: str) -> np.ndarray:
    """Symmetric inverse square roots of a (B, n, n) stack, with a ridge retry per matrix."""
    w, v = np.linalg.eigh(mats)
    for k in np.flatnonzero(w.min(axis=1) < _MIN_EIG).tolist():
        w[k], v[k] = np.linalg.eigh(mats[k] + _RIDGE * np.eye(mats.shape[1]))
        if w[k].min() < _MIN_EIG:
            raise NumericError(
                f"{what} remains singular after PSD repair and ridge "
                f"(min eigenvalue {w[k].min():.3e})"
            )
    return (v * (1.0 / np.sqrt(w))[:, None, :]) @ v.transpose(0, 2, 1)


def _lag_order(max_lag: int):
    """Tie-break order: smaller |lag| first, then the non-negative lag."""
    yield 0
    for l in range(1, max_lag + 1):
        yield l
        yield -l


# Exactness: every batched numpy call below (eigh, matmul, svd) runs the
# per-matrix LAPACK/BLAS routine on operands of the same shape and strides
# as one block's own call, so the stack reproduces the per-block solve bit
# for bit.  Two steps are kept scalar on purpose: each lag's leading
# singular value is squared as a Python float (libm pow, as ``float(s) **
# 2``; numpy's ``square`` multiplies and can differ by one ULP), and the
# best lag is the first maximum in ``_lag_order`` order.
def _solve_stack(lags: np.ndarray, p: int) -> list[CanonicalFeature]:
    """The canonical solution of every block of a (B, L+1, m, m) lag stack."""
    n_blocks = lags.shape[0]
    if not n_blocks:
        return []
    lag_of = list(_lag_order(lags.shape[1] - 1))
    p0 = lags[:, 0].copy()
    for k in np.flatnonzero(needs_psd_repair(p0)).tolist():
        p0[k] = repair_psd(p0[k])  # only the blocks that need it; a no-op elsewhere
    wx = _inv_sqrt_psd(p0[:, :p, :p], "P_XX(0)")
    wy = _inv_sqrt_psd(p0[:, p:, p:], "P_YY(0)")
    # K(l) = wx P_XY(l) wy in _lag_order order: 0, 1, -1, 2, -2, ...;
    # P_XY(-l) is the transposed view of P_YX(l), as in ``matrix(-l)``
    cross = np.empty((n_blocks, len(lag_of), p, lags.shape[-1] - p))
    cross[:, 0] = wx @ p0[:, :p, p:]
    cross[:, 1::2] = wx[:, None] @ lags[:, 1:, :p, p:]
    cross[:, 2::2] = wx[:, None] @ lags[:, 1:, p:, :p].swapaxes(-1, -2)
    k_mats = cross @ wy[:, None]
    try:
        left, sing, right_t = np.linalg.svd(k_mats)
    except np.linalg.LinAlgError:  # name the first matrix that fails on its own
        for k_block in k_mats:
            for k, lag in zip(k_block, lag_of):
                try:
                    np.linalg.svd(k)
                except np.linalg.LinAlgError as exc:
                    raise NumericError(f"SVD failed at lag {lag}: {exc}") from exc
        raise
    g_all = [[s ** 2 for s in row] for row in sing[:, :, 0].tolist()]
    best = [max(range(len(lag_of)), key=g.__getitem__) for g in g_all]
    rows = np.arange(n_blocks)
    a = left[rows, best, :, 0]
    b = right_t[rows, best, 0]
    zero = np.array([g[i] for g, i in zip(g_all, best)]) == 0.0
    a[zero], b[zero] = np.eye(1, a.shape[1]), np.eye(1, b.shape[1])
    u = (wx @ a[:, :, None])[:, :, 0]
    v = (wy @ b[:, :, None])[:, :, 0]
    flip = u[rows, np.argmax(np.abs(u), axis=1)] < 0
    u[flip], v[flip] = -u[flip], -v[flip]
    return [
        CanonicalFeature(u=u[k], v=v[k], g_value=g_all[k][i], best_lag=lag_of[i])
        for k, i in enumerate(best)
    ]


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

    This is the stacked solver of ``extract_features`` run on a stack of
    one block, so a block solved alone or within a dataset gets the same
    bits.
    """
    return _solve_stack(dep.lags[None], dep.p)[0]


def extract_features(
    dataset: MtsDataset,
    max_lag: int = 5,
    dependence_fn: Callable[..., LaggedDependenceSet] = dependence_set,
    skip_degenerate: bool = False,
) -> FeatureSet:
    """Solve the canonical problem for every block of a (filtered) dataset.

    ``dependence_fn`` builds a block's lagged dependence set (the rank
    path by default; the linear-correlation foil plugs in here); it is
    called once per block, in block order.  Its ``DataError`` or
    ``NumericError`` is raised again, of the same class, naming the
    block.  A block with a flatlined channel raises
    ``DegenerateBlockError`` unless ``skip_degenerate`` is set, in which
    case the block is excluded and reported.  The kept blocks'
    (L+1, m, m) lag arrays form one (B, L+1, m, m) stack, kept as
    ``FeatureSet.lags``, and one stacked solve gives every block's
    feature, bit for bit as ``solve_canonical`` gives it alone: batched
    eigh, whitening, SVDs, lag pick and sign fix, with only the blocks
    that need it sent through ``repair_psd`` or the ridge retry.  A
    solve failure is a ``NumericError`` naming the first failing block.
    A ``max_lag`` below 0, or one that leaves fewer than 8 aligned
    samples in a block, raises ``ConfigError`` before any block is
    touched.
    """
    n_samples = dataset.n_samples
    if not 0 <= max_lag <= n_samples - MIN_ALIGNED:
        raise ConfigError(
            f"max_lag must lie in [0, {n_samples - MIN_ALIGNED}] so that {n_samples}-sample "
            f"blocks keep at least {MIN_ALIGNED} aligned samples, got {max_lag}"
        )
    stack: list[np.ndarray] = []
    kept: list[int] = []
    excluded: list[tuple[int, str]] = []
    for i, block in enumerate(dataset.blocks):
        try:
            dep = dependence_fn(block, max_lag)
        except (DataError, NumericError) as exc:  # the class sets the exit code
            raise (DataError if isinstance(exc, DataError) else NumericError)(
                f"block {i}: {exc}") from exc
        if dep.degenerate_channels:
            reason = "constant channel(s): " + ", ".join(
                dataset.channel_names[c] for c in dep.degenerate_channels)
            if not skip_degenerate:
                raise DegenerateBlockError(i, reason)
            excluded.append((i, reason))
            continue
        stack.append(dep.lags)
        kept.append(i)
    m = dataset.p + dataset.q
    lags = np.stack(stack) if stack else np.empty((0, max_lag + 1, m, m))
    try:
        features = _solve_stack(lags, dataset.p)
    except (DataError, NumericError):
        for k, i in enumerate(kept):  # solve block by block to name the first that fails
            try:
                _solve_stack(lags[k : k + 1], dataset.p)
            except (DataError, NumericError) as exc:
                raise NumericError(f"block {i}: {exc}") from exc
        raise
    return FeatureSet(
        features=tuple(features),
        block_indices=tuple(kept),
        excluded=tuple(excluded),
        lags=lags,
    )
