"""Lagged rank-dependence matrices of filtered blocks.

For each lag the block-level dependence matrix holds, entrywise, the
sine-transformed Kendall tau between one channel and a lag-shifted
other channel.  Tau uses the tau-a convention (ties add zero
concordance) over all sample pairs, so every entry is invariant under
strictly monotone channel transforms and bounded regardless of heavy
tails.

One exact kernel serves block matrices and scalar ``kendall_tau``: it
sums sign products over pairs s < t in fixed-size tiles, with O(m^2 L T^2)
work for m channels, max lag L and T samples, and a working set fixed by
the tile shape and m, not by T.  Ranks are stored channel-major (m, T)
and each sign tile as (m, rows, cols), so a channel's signs come from
one contiguous subtraction and each lag is one GEMM over the channels'
flat (m, rows * cols) sign planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import DataError, NumericError
from .mts import MtsBlock

__all__ = [
    "kendall_tau",
    "sine_transform",
    "dependence_set",
    "build_dependence_set",
    "repair_psd",
    "LaggedDependenceSet",
]


# ---------------------------------------------------------------------------
# exact tiled Kendall kernel, O(m^2 L T^2) work, O(m * tile) memory
# ---------------------------------------------------------------------------

# A tile pairs TILE_ROWS first indices s with TILE_COLS second indices t;
# its float32 sums are integers below TILE_ROWS * TILE_COLS < 2**24, hence
# exact, and the float64 accumulator is exact below 2**53.  A tile is laid
# out (m, rows, cols): each channel's sign plane is one run of cols-long
# contiguous rows, and a lag's GEMM reads m contiguous rows of about 12k
# float32 per operand (an NT product), not 12k rows of m.  At 32 x 384,
# m = 8 and max lag 5, the sign and head buffers take 0.9 MB together.
TILE_ROWS = 32
TILE_COLS = 384


def _concordance_sums(data: np.ndarray, max_lag: int) -> np.ndarray:
    """Exact integer sign-product sums over pairs s < t, shape (L+1, m, m).

    Entry [l, j, k] sums sign(data[t, j] - data[s, j]) *
    sign(data[t + l, k] - data[s + l, k]) over 0 <= s < t < T - l, i.e.
    #concordant - #discordant of (data[:T-l, j], data[l:, k]).  Signs are
    computed once per tile over rows [a, b + L) x cols [c, d + L); lag l
    pairs the head [0:hb, 0:hw] with the tail shifted by l on both axes.
    """
    T, m = data.shape
    if T >= 2**24:
        raise DataError(f"{T} samples exceed the Kendall kernel's limit of 2**24 - 1")
    # Dense ranks order pairs as the data do and are exact in float32, so
    # clip(rank_t - rank_s, -1, 1) is the pair sign.  A value's dense rank
    # counts the value changes before it in its channel's sorted order,
    # whatever order the sort leaves equal values in.
    order = np.argsort(data.T, axis=1)
    ordered = np.take_along_axis(data.T, order, axis=1)
    steps = np.zeros((m, T), dtype=np.float32)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=1, out=steps), axis=1)
    acc = np.zeros((max_lag + 1, m, m))
    tile = (TILE_ROWS + max_lag) * (TILE_COLS + max_lag) * m
    sign_buf, head_buf = np.empty(tile, dtype=np.float32), np.empty(tile, dtype=np.float32)
    for a in range(0, T - 1, TILE_ROWS):
        b = min(a + TILE_ROWS, T)
        rows = ranks[:, a : min(b + max_lag, T), None]
        for c in range(a + 1, T, TILE_COLS):
            d = min(c + TILE_COLS, T)
            cols = ranks[:, None, c : min(d + max_lag, T)]
            nr, nc = rows.shape[1], cols.shape[2]
            signs = sign_buf[: m * nr * nc].reshape(m, nr, nc)
            np.clip(np.subtract(cols, rows, out=signs), -1.0, 1.0, out=signs)
            head = head_buf[: m * (b - a) * nc].reshape(m, b - a, nc)
            np.copyto(head, signs[:, : b - a])
            if c < b:  # the tile meets the diagonal: drop pairs with t <= s
                nd = min(nc, b - c)
                head[:, :, :nd][:, np.arange(c, c + nd) <= np.arange(a, b)[:, None]] = 0.0
            for lag in range(max_lag + 1):
                hb, hw = min(b, T - lag) - a, min(d, T - lag) - c
                if hb <= 0 or hw <= 0:
                    break
                # In a channel's flat plane the tail is the head offset by lag * (nc + 1);
                # it wraps into the next row past column hw, where the head is zeroed.
                head[:, :, hw:] = 0.0
                k, off = hb * nc - lag, lag * (nc + 1)
                acc[lag] += head.reshape(m, -1)[:, :k] @ signs.reshape(m, -1)[:, off : off + k].T
    return acc


def concordant_minus_discordant(x: np.ndarray, y: np.ndarray) -> int:
    """Exact integer (#concordant - #discordant) over all unordered pairs.

    The lag-0 cross entry of the tiled kernel on the two columns; equals
    the brute-force sum of sign(dx)*sign(dy) exactly, ties included.
    """
    return int(_concordance_sums(np.column_stack([x, y]), 0)[0, 0, 1])


def kendall_tau(x, y) -> float:
    """Kendall's tau-a of two equal-length series.

    Returns (#concordant - #discordant) / C(n, 2) over all unordered
    index pairs; tied pairs contribute zero.  The numerator comes from
    the tiled kernel in O(n^2) work: integer tile sums below 2**24 are
    exact in float32 and add exactly in float64, matching the definition.
    A constant input series yields 0.0 (degenerate case).

    Raises
    ------
    DataError
        If the series lengths differ or n < 2.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"need two equal-length 1-D series, got {x.shape} and {y.shape}")
    n = x.size
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    return concordant_minus_discordant(x, y) / (n * (n - 1) // 2)


def sine_transform(tau: float) -> float:
    """Map a rank correlation to the elliptical-model linear scale.

    sin(pi * tau / 2): odd, monotone, fixes 0 and +-1.
    """
    if not -1.0 <= tau <= 1.0:
        raise DataError(f"tau must lie in [-1, 1], got {tau}")
    return math.sin(math.pi * tau / 2.0)


# ---------------------------------------------------------------------------
# block-level lagged dependence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaggedDependenceSet:
    """Dependence matrices for lags -L..L with XX/XY/YY block views.

    ``lags`` is one read-only (L+1, m, m) array, m = p + q, holding the
    matrices at lags 0..L; the matrix at -l is the transpose of the one
    at l, so ``matrix(-l)`` returns ``lags[l].T``.  Entries lie in
    [-1, 1]; the lag-0 matrix is symmetric with unit diagonal.
    ``degenerate_channels`` lists constant channels whose entries were
    zeroed.
    """

    p: int
    q: int
    lags: np.ndarray  # (L+1, m, m)
    degenerate_channels: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        m = self.p + self.q
        a = np.ascontiguousarray(self.lags, dtype=np.float64)
        if a.ndim != 3 or a.shape[0] < 1 or a.shape[1:] != (m, m):
            raise DataError(f"lags has shape {a.shape}, expected (L+1, {m}, {m})")
        if np.abs(a).max() > 1.0 + 1e-12:
            raise DataError("dependence entries outside [-1, 1]")
        if not np.array_equal(a[0], a[0].T):
            raise DataError("lag-0 matrix must be symmetric")
        if not np.all(np.diag(a[0]) == 1.0):
            raise DataError("lag-0 matrix must have unit diagonal")
        a.flags.writeable = False
        object.__setattr__(self, "lags", a)

    @property
    def max_lag(self) -> int:
        return self.lags.shape[0] - 1

    def matrix(self, lag: int) -> np.ndarray:
        return self.lags[lag] if lag >= 0 else self.lags[-lag].T

    def xx(self, lag: int) -> np.ndarray:
        return self.matrix(lag)[: self.p, : self.p]

    def xy(self, lag: int) -> np.ndarray:
        return self.matrix(lag)[: self.p, self.p :]

    def yy(self, lag: int) -> np.ndarray:
        return self.matrix(lag)[self.p :, self.p :]


def lagged_tau_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    """All-pairs tau-a matrices for lags 0..max_lag from the tiled kernel.

    Shape (L+1, m, m): entry [l, j, k] is the tau of (data[t, j], data[t + l, k]) over
    the aligned n = T - l samples: the exact pair sum divided by C(n, 2),
    so it equals per-entry ``kendall_tau`` bit for bit.
    """
    n = data.shape[0] - np.arange(max_lag + 1)
    return _concordance_sums(data, max_lag) / (n * (n - 1) // 2)[:, None, None]


MIN_ALIGNED = 8  # fewest aligned samples a lag may leave in a block


def build_dependence_set(
    block: MtsBlock,
    max_lag: int,
    lag_matrices: Callable[[np.ndarray, int], np.ndarray],
) -> LaggedDependenceSet:
    """The dependence-set contract shared by every estimator.

    ``lag_matrices(data, max_lag)`` gives the estimator's (L+1, m, m)
    array of matrices for lags 0..max_lag.  This checks ``max_lag`` and
    the block length, zeroes the rows and columns of constant channels
    at every lag (they are flagged rather than raising) and symmetrises
    the lag-0 matrix with an exact unit diagonal, all in place on that
    array; negative lags are transposed views, never copies.
    """
    if max_lag < 0:
        raise DataError(f"max_lag must be >= 0, got {max_lag}")
    T = block.n_samples
    if T - max_lag < MIN_ALIGNED:
        raise DataError(
            f"block too short: {T} samples leave {T - max_lag} aligned pairs "
            f"at lag {max_lag}, need at least {MIN_ALIGNED}"
        )
    data = block.data
    degenerate = tuple(
        int(c) for c in range(block.n_channels)
        if np.all(data[:, c] == data[0, c])
    )
    lags = lag_matrices(data, max_lag)
    lags[:, degenerate, :] = 0.0
    lags[:, :, degenerate] = 0.0
    lags[0] = (lags[0] + lags[0].T) / 2.0  # symmetric up to roundoff already
    np.fill_diagonal(lags[0], 1.0)
    return LaggedDependenceSet(p=block.p, q=block.q, lags=lags, degenerate_channels=degenerate)


def _sine_tau_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    return np.sin(np.pi / 2.0 * lagged_tau_matrices(data, max_lag))


def dependence_set(block: MtsBlock, max_lag: int = 5) -> LaggedDependenceSet:
    """Estimate the block's lagged sine-tau dependence matrices.

    For lag l >= 0 and channels (j, k) the entry is
    sin(pi/2 * tau(Z_j(t), Z_k(t + l))) over the T - l aligned samples;
    the rest of the contract comes from ``build_dependence_set``.
    """
    return build_dependence_set(block, max_lag, _sine_tau_matrices)


# ---------------------------------------------------------------------------
# positive-semidefinite repair
# ---------------------------------------------------------------------------

_PSD_EPS = 1e-8
_PSD_MAX_ITER = 100


def needs_psd_repair(matrices: np.ndarray) -> np.ndarray:
    """Which matrices of a (B, n, n) symmetric stack ``repair_psd`` would change.

    One batched ``eigh``, the same per-matrix call as ``repair_psd``'s first check.
    """
    return np.linalg.eigh(matrices)[0].min(axis=1) < _PSD_EPS


def repair_psd(matrix: np.ndarray) -> np.ndarray:
    """Nearest-style PSD repair: clip eigenvalues, restore the diagonal.

    Eigenvalues below ``_PSD_EPS`` are clipped up to it and the diagonal
    is rescaled back to its pre-repair values (a congruence with a
    positive diagonal, so semidefiniteness is preserved).  The clip and
    rescale iterate, at most ``_PSD_MAX_ITER`` times, until the minimum
    eigenvalue clears ``_PSD_EPS``, which makes the operation exactly
    idempotent: an already-repaired matrix is returned unchanged.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"need a square matrix, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-10:
        raise DataError("matrix is not symmetric within 1e-10")
    diag0 = np.diag(a).copy()
    if np.any(diag0 <= 0):
        raise DataError("PSD repair requires a strictly positive diagonal")
    out = a
    for _ in range(_PSD_MAX_ITER):
        try:
            w, v = np.linalg.eigh(out)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition failed during PSD repair: {exc}") from exc
        if w.min() >= _PSD_EPS:
            return out
        w = np.clip(w, _PSD_EPS, None)
        out = (v * w) @ v.T
        out = (out + out.T) / 2.0
        scale = np.sqrt(diag0 / np.diag(out))
        out = out * np.outer(scale, scale)
        out = (out + out.T) / 2.0
    raise NumericError(f"PSD repair did not converge in {_PSD_MAX_ITER} iterations")
