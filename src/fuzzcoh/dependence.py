"""Lagged rank-dependence matrices of a block.

For each lag the block-level dependence matrix holds, entrywise, the
sine-transformed Kendall tau between one channel and a lag-shifted
other channel.  Tau uses the tau-a convention (ties add zero
concordance) over all sample pairs, so every entry is invariant under
strictly monotone channel transforms and bounded regardless of heavy
tails.  ``sine_tau_matrices`` is the per-block estimator; the contract
is applied once to every block's stack, in ``canonical.extract_features``.

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import DataError, NumericError
from .mts import _readonly

__all__ = [
    "kendall_tau",
    "sine_transform",
    "sine_tau_matrices",
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


def _aligned_f32(n: int) -> np.ndarray:
    """Uninitialised float32[n] on a 64-byte boundary: the tile buffers' heap offset
    alone moved T=2048 kernel times by ~9%."""
    raw = np.empty(n + 16, dtype=np.float32)
    start = -raw.ctypes.data % 64 // 4
    return raw[start : start + n]


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
    sign_buf, head_buf = _aligned_f32(tile), _aligned_f32(tile)
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

def check_contract(stack: np.ndarray, block_ids: Optional[Sequence[int]] = None) -> None:
    """A ``DataError`` naming the first (L+1, m, m) array of a stack with an entry outside
    [-1, 1] (a NaN passes) or a lag-0 matrix that is not symmetric with unit diagonal."""
    l0 = stack[:, 0]
    bad = np.stack([np.abs(stack).max(axis=(1, 2, 3)) > 1.0 + 1e-12,
                    (l0 != l0.transpose(0, 2, 1)).any(axis=(1, 2)),
                    (np.diagonal(l0, axis1=1, axis2=2) != 1.0).any(axis=1)])
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        why = ("dependence entries outside [-1, 1]", "lag-0 matrix must be symmetric",
               "lag-0 matrix must have unit diagonal")[int(bad[:, k].argmax())]
        raise DataError(why if block_ids is None else f"block {block_ids[k]}: {why}")


@dataclass(frozen=True)
class LaggedDependenceSet:
    """A block's dependence matrices, checked: the input of ``solve_canonical``.

    ``lags`` is one read-only (L+1, m, m) array, m = p + q, holding the
    matrices at lags 0..L; the matrix at -l is the transpose of the one
    at l, so readers take the view ``lags[l].T`` for it.  Entries lie in
    [-1, 1]; the lag-0 matrix is symmetric with unit diagonal.
    """

    p: int
    q: int
    lags: np.ndarray  # (L+1, m, m)

    def __post_init__(self):
        m = self.p + self.q
        a = _readonly(self.lags)
        if a.ndim != 3 or a.shape[0] < 1 or a.shape[1:] != (m, m):
            raise DataError(f"lags has shape {a.shape}, expected (L+1, {m}, {m})")
        check_contract(a[None])
        object.__setattr__(self, "lags", a)


def lagged_tau_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    """All-pairs tau-a matrices for lags 0..max_lag from the tiled kernel.

    Shape (L+1, m, m): entry [l, j, k] is the tau of (data[t, j], data[t + l, k]) over
    the aligned n = T - l samples: the exact pair sum divided by C(n, 2),
    so it equals per-entry ``kendall_tau`` bit for bit.
    """
    n = data.shape[0] - np.arange(max_lag + 1)
    return _concordance_sums(data, max_lag) / (n * (n - 1) // 2)[:, None, None]


MIN_ALIGNED = 8  # fewest aligned samples a lag may leave in a block


def sine_tau_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    """A block's lagged sine-tau matrices, shape (L+1, m, m), from its (T, m) samples.

    For lag l >= 0 and channels (j, k) the entry is
    sin(pi/2 * tau(Z_j(t), Z_k(t + l))) over the T - l aligned samples.
    """
    return np.sin(np.pi / 2.0 * lagged_tau_matrices(data, max_lag))


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
