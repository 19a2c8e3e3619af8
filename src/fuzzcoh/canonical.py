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

from .dependence import MIN_ALIGNED, check_contract, needs_psd_repair, repair_psd, sine_tau_matrices
from .exceptions import ConfigError, DataError, DegenerateBlockError, NumericError
from .mts import MtsDataset

__all__ = ["FeatureSet", "solve_canonical", "extract_features"]

_FAILURES = (DataError, NumericError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class FeatureSet:
    """Every kept block's leading canonical solution as (B, ...) columns, and the exclusions.

    Row k is block ``block_indices[k]``: ``u`` (B, p) and ``v`` (B, m - p)
    satisfy the unit within-group dependence constraints, ``g_value``
    (B,) is the squared cross dependence at ``best_lag`` (B,), and
    ``lags`` (B, L+1, m, m) holds the block's dependence matrices at
    lags 0..L.  The clustering feature is row k of ``d_matrix``,
    d = (|u_1|..|u_p|, |v_1|..|v_q|).
    """

    u: np.ndarray
    v: np.ndarray
    g_value: np.ndarray
    best_lag: np.ndarray
    block_indices: tuple[int, ...]
    lags: np.ndarray
    excluded: tuple[tuple[int, str], ...] = field(default_factory=tuple)

    @property
    def d_matrix(self) -> np.ndarray:
        return np.abs(np.hstack([self.u, self.v]))

    def __len__(self) -> int:
        return len(self.block_indices)


def _inv_sqrt_psd(mats: np.ndarray) -> np.ndarray:
    """Symmetric inverse square roots of a (B, n, n) stack of positive definite matrices.

    Each is a diagonal block of a lag-0 matrix whose eigenvalues are >= 1e-8, as
    ``needs_psd_repair`` found it or ``repair_psd`` left it; by Cauchy interlacing
    the block's smallest eigenvalue is at least that, so 1/sqrt stays finite.
    """
    w, v = np.linalg.eigh(mats)
    return (v * (1.0 / np.sqrt(w))[:, None, :]) @ v.transpose(0, 2, 1)


# Exactness: every batched numpy call below (eigh, matmul, svd) runs the
# per-matrix LAPACK/BLAS routine on operands of the same shape and strides
# as one block's own call, so the stack reproduces the per-block solve bit
# for bit.  Two steps are kept scalar on purpose: each lag's leading
# singular value is squared as a Python float (libm pow, as ``float(s) **
# 2``; numpy's ``square`` multiplies and can differ by one ULP), and the
# best lag is the first maximum in tie-break order: smaller |lag| first,
# then the non-negative lag.
def _solve_stack(lags: np.ndarray, p: int):
    """``(u, v, g_value, best_lag)`` columns of every block of a (B, L+1, m, m) lag stack."""
    n_blocks = lags.shape[0]
    lag_of = [0] + [sign * l for l in range(1, lags.shape[1]) for sign in (1, -1)]
    p0 = lags[:, 0].copy()
    for k in np.flatnonzero(needs_psd_repair(p0)).tolist():
        p0[k] = repair_psd(p0[k])  # only the blocks that need it; a no-op elsewhere
    wx = _inv_sqrt_psd(p0[:, :p, :p])
    wy = _inv_sqrt_psd(p0[:, p:, p:])
    # K(l) = wx P_XY(l) wy in tie-break order: 0, 1, -1, 2, -2, ...;
    # P_XY(-l) is the transposed view of P_YX(l)
    cross = np.empty((n_blocks, len(lag_of), p, lags.shape[-1] - p))
    cross[:, 0] = wx @ p0[:, :p, p:]
    cross[:, 1::2] = wx[:, None] @ lags[:, 1:, :p, p:]
    cross[:, 2::2] = wx[:, None] @ lags[:, 1:, p:, :p].swapaxes(-1, -2)
    k_mats = cross @ wy[:, None]
    left, sing, right_t = np.linalg.svd(k_mats)
    g_all = [[s ** 2 for s in row] for row in sing[:, :, 0].tolist()]
    best = [max(range(len(lag_of)), key=g.__getitem__) for g in g_all]
    rows = np.arange(n_blocks)
    a = left[rows, best, :, 0]
    b = right_t[rows, best, 0]
    g_value = np.array([g[i] for g, i in zip(g_all, best)])
    zero = g_value == 0.0
    a[zero], b[zero] = np.eye(1, a.shape[1]), np.eye(1, b.shape[1])
    u = (wx @ a[:, :, None])[:, :, 0]
    v = (wy @ b[:, :, None])[:, :, 0]
    flip = u[rows, np.argmax(np.abs(u), axis=1)] < 0
    u[flip], v[flip] = -u[flip], -v[flip]
    return u, v, g_value, np.array(lag_of)[best]


def _per_block(kept: list[int], fn: Callable, stack: np.ndarray, *args):
    """``fn(stack, *args)`` on the (B, ...) stack of blocks ``kept``.  If it fails, ``fn``
    runs on each block alone, as a stack of one, and the first failure comes back as
    ``block i: ...``, its class kept; a ``LinAlgError`` becomes a ``NumericError``."""
    try:
        return fn(stack, *args)
    except _FAILURES as exc:
        failure, prefix = exc, ""  # raised as it is if no block fails alone
        for k, i in enumerate(kept):
            try:
                fn(stack[k : k + 1], *args)
            except _FAILURES as one:
                failure, prefix = one, f"block {i}: "
                break
        kind = DataError if isinstance(failure, DataError) else NumericError
        raise kind(f"{prefix}{failure}") from failure


def solve_canonical(lags: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One block's ``(u, v, g_value, best_lag)``, maximizing the squared cross dependence.

    ``lags`` is the block's (L+1, m, m) array of dependence matrices at lags
    0..L, the first ``p`` channels the X group; the matrix at -l is the
    transpose of the one at l.  A ``DataError`` rejects another shape, a p
    outside [1, m), or an array that breaks the contract ``check_contract``
    applies to ``extract_features``'s stack; a ``LinAlgError`` of the solve
    is a ``NumericError``.

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
    lags = np.asarray(lags, dtype=np.float64)
    if lags.ndim != 3 or not len(lags) or lags.shape[1] != lags.shape[2]:
        raise DataError(f"lags has shape {lags.shape}, expected (L+1, m, m)")
    if not 1 <= p < lags.shape[1]:
        raise DataError(f"need 1 <= p < m = {lags.shape[1]}, got p={p}")
    check_contract(lags[None])
    try:
        u, v, g_value, best_lag = _solve_stack(lags[None], p)
    except np.linalg.LinAlgError as exc:
        raise NumericError(str(exc)) from exc
    return u[0], v[0], float(g_value[0]), int(best_lag[0])


def extract_features(
    dataset: MtsDataset,
    max_lag: int = 5,
    dependence_fn: Callable[[np.ndarray, int], np.ndarray] = sine_tau_matrices,
    skip_degenerate: bool = False,
) -> FeatureSet:
    """Solve the canonical problem for every block of a (filtered) dataset.

    The dataset's X/Y split ``p`` must be chosen; a dataset without one,
    a ``max_lag`` below 0, or one that leaves fewer than 8 aligned
    samples in a block, is a ``ConfigError``.  Before any estimate, the
    first block with a flatlined channel raises ``DegenerateBlockError``,
    unless ``skip_degenerate`` excludes and reports every such block.
    ``dependence_fn`` (the rank path by default; the linear-correlation foil
    plugs in here) maps the (B, T, m) kept blocks, ``dataset.data`` itself if
    none is excluded, to their (B, L+1, m, m) lags 0..L in one call.  Every lag-0
    matrix of the stack (``FeatureSet.lags``) is symmetrised with an exact unit
    diagonal and ``check_contract`` applied once.  One stacked solve gives the u, v,
    g_value and best_lag columns, each row bit for bit as ``solve_canonical`` gives it
    alone.  A ``DataError``, ``NumericError`` or ``LinAlgError`` of the estimate, the
    contract or the solve re-runs that step block by block and names the first block
    that fails alone, its class kept (a ``LinAlgError`` is a ``NumericError``).
    """
    data, n_samples, m = dataset.data, dataset.n_samples, dataset.data.shape[2]
    if dataset.p is None:
        raise ConfigError("the dataset has no X/Y split: give groups=(p, q) or select a "
                          "region pair")
    if not 0 <= max_lag <= n_samples - MIN_ALIGNED:
        raise ConfigError(
            f"max_lag must lie in [0, {n_samples - MIN_ALIGNED}] so that {n_samples}-sample "
            f"blocks keep at least {MIN_ALIGNED} aligned samples, got {max_lag}"
        )
    # (B, m) constant channels; block by block, the temporary is one block's size
    flat = np.array([(block == block[0]).all(axis=0) for block in data])
    names = np.array(dataset.channel_names)
    excluded = tuple((i, "constant channel(s): " + ", ".join(names[row]))
                     for i, row in enumerate(flat) if row.any())
    if excluded and not skip_degenerate:
        raise DegenerateBlockError(*excluded[0])
    kept = np.flatnonzero(~flat.any(axis=1)).tolist()
    stack = data if len(kept) == len(data) else data[kept]
    lags = np.asarray(_per_block(kept, dependence_fn, stack, max_lag), dtype=np.float64)
    if lags.shape != (shape := (len(kept), max_lag + 1, m, m)):
        raise DataError(f"lags has shape {lags.shape}, expected {shape}")
    l0 = lags[:, 0]
    l0[...] = (l0 + l0.transpose(0, 2, 1)) / 2.0  # symmetric up to roundoff already
    l0[:, np.arange(m), np.arange(m)] = 1.0
    _per_block(kept, check_contract, lags)
    u, v, g_value, best_lag = _per_block(kept, _solve_stack, lags, dataset.p)
    return FeatureSet(u=u, v=v, g_value=g_value, best_lag=best_lag,
                      block_indices=tuple(kept), lags=lags, excluded=excluded)
