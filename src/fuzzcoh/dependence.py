"""Lagged rank-dependence matrices of a stack of blocks.

For each lag the block-level dependence matrix holds, entrywise, the
sine-transformed Kendall tau between one channel and a lag-shifted
other channel.  Tau uses the tau-a convention (ties add zero
concordance) over all sample pairs, so every entry is invariant under
strictly monotone channel transforms and bounded regardless of heavy
tails.  ``sine_tau_matrices`` is the estimator, (..., T, m) blocks to their
(..., L+1, m, m) lags, called once per dataset.  A block's (L+1, m, m) array
is the only dependence container: ``check_contract`` applies the contract to
a (B, L+1, m, m) stack of them, once per dataset in ``canonical.extract_features``
(which names a failing block) and on a stack of one in ``canonical.solve_canonical``.

One exact kernel serves block matrices and scalar ``kendall_tau``: it
sums sign products over pairs s < t in fixed-size tiles, with O(m^2 L T^2)
work for m channels, max lag L and T samples, and a working set fixed by
the tile shape and m, not by T.  Tiles cover the pair plane in the
coordinates (s, d = t - s).  A tile's signs sign(r[s + d] - r[s]) are laid
out (m, rows, cols), one contiguous plane per channel, so lag l pairs row
s with row s + l of the same column: each lag is one GEMM over the
channels' flat sign planes, the head against the tail l whole rows on.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import DataError, NumericError

__all__ = ["kendall_tau", "sine_tau_matrices", "repair_psd"]


# ---------------------------------------------------------------------------
# exact tiled Kendall kernel, O(m^2 L T^2) work, O(m * tile) memory
# ---------------------------------------------------------------------------

# A tile covers TILE_ROWS first indices s by TILE_COLS gaps d = t - s; its
# sign buffer holds max_lag more rows of s for the lag tails.  A GEMM's
# depth is at most TILE_ROWS * TILE_COLS < 2**24, so its float32 sums are
# integers, hence exact, and the float64 accumulator is exact below 2**53.
# OpenBLAS uses its small-matrix sgemm only while M * N * K <= 10**6 (at
# m = 8 a depth of 15,626 ran 4x slower than one of 15,625), so m >= 10
# channels take fewer rows: 52 at m = 10, 20 at m = 16.  At 56 x 192, m = 8
# and max lag 5, the sign and head buffers take 0.7 MB together.
TILE_ROWS = 56
TILE_COLS = 192


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
    #concordant - #discordant of (data[:T-l, j], data[l:, k]).  A tile with
    cells past t = s + d = T - 1 zeroes them with a slice of one anti-triangular
    0/1 mask, for every lag at once: lag l pairs cell (s, d) with (s + l, d),
    which is out of range whenever the pair is, and then 0.
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
    rows, cols = max(1, min(TILE_ROWS, 10**6 // (m * m * TILE_COLS))), TILE_COLS
    pad = np.zeros((m, T + rows + max_lag + cols), dtype=np.float32)  # the ranks, then zeros
    np.put_along_axis(pad[:, :T], order, np.cumsum(steps, axis=1, out=steps), axis=1)
    windows = sliding_window_view(pad, cols, axis=1)  # [c, x, j] = pad[c, x + j]
    edge = rows + max_lag + cols  # mask[x, j] = 1 iff x + j <= edge
    mask = sliding_window_view((np.arange(2 * edge) <= edge).astype(np.float32), cols)
    acc = np.zeros((max_lag + 1, m, m))
    sign_buf, head_buf = _aligned_f32(m * (rows + max_lag) * cols), _aligned_f32(m * rows * cols)
    for a in range(0, T - 1, rows):
        hb = min(rows, T - 1 - a)
        nr = hb + max_lag
        for d0 in range(1, T - a, cols):
            # cell (i, j) is the pair s = a + i, t = s + d0 + j, in range iff i + j <= e
            w, e = min(cols, T - a - d0), T - 1 - a - d0
            signs = sign_buf[: m * nr * w].reshape(m, nr, w)
            np.subtract(windows[:, a + d0 : a + d0 + nr, :w], pad[:, a : a + nr, None], out=signs)
            np.clip(signs, -1.0, 1.0, out=signs)
            if e < nr + w - 2:  # the tile crosses t = T - 1
                signs *= mask[edge - e : edge - e + nr, :w]
            flat = signs.reshape(m, -1)
            for lag in range(min(max_lag, e) + 1):
                k = min(hb, e - lag + 1) * w  # the rows with a pair in range
                # Lag 0 reads a copy of the head: given one pointer twice, numpy
                # calls ssyrk, 49 us against sgemm's 11 us at 8 x 10,752.
                if lag == 0:
                    head = head_buf[: m * k].reshape(m, k)
                    head[...] = flat[:, :k]
                else:
                    head = flat[:, :k]
                acc[lag] += head @ flat[:, lag * w : lag * w + k].T
    return acc


def kendall_tau(x, y) -> float:
    """Kendall's tau-a of two equal-length 1-D series of n >= 2 samples, else a ``DataError``.

    (#concordant - #discordant) / C(n, 2) over all unordered index pairs,
    tied pairs adding zero, so a constant series gives 0.0: the lag-0 cross
    entry of ``lagged_tau_matrices`` on the two columns, exact as its sums are.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"need two equal-length 1-D series, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise DataError(f"need at least 2 observations, got {x.size}")
    return float(lagged_tau_matrices(np.column_stack([x, y]), 0)[0, 0, 1])


# ---------------------------------------------------------------------------
# block-level lagged dependence
# ---------------------------------------------------------------------------

def check_contract(stack: np.ndarray) -> None:
    """A ``DataError`` naming the rule the first (L+1, m, m) array of a stack breaks: an entry
    outside [-1, 1] (a NaN too), or a lag-0 matrix not symmetric with unit diagonal."""
    l0 = stack[:, 0]
    bad = np.stack([~(np.abs(stack) <= 1.0 + 1e-12).all(axis=(1, 2, 3)),
                    (l0 != l0.transpose(0, 2, 1)).any(axis=(1, 2)),
                    (np.diagonal(l0, axis1=1, axis2=2) != 1.0).any(axis=1)])
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        why = ("dependence entries outside [-1, 1]", "lag-0 matrix must be symmetric",
               "lag-0 matrix must have unit diagonal")[int(bad[:, k].argmax())]
        raise DataError(why)


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
    """Lagged sine-tau matrices of a (..., T, m) block stack, shape (..., L+1, m, m).

    For lag l >= 0 and channels (j, k) a block's entry is
    sin(pi/2 * tau(Z_j(t), Z_k(t + l))) over its T - l aligned samples.
    """
    out = np.empty(data.shape[:-2] + (max_lag + 1,) + data.shape[-1:] * 2)
    for i in np.ndindex(data.shape[:-2]):
        out[i] = np.sin(np.pi / 2.0 * lagged_tau_matrices(data[i], max_lag))
    return out


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
    idempotent: an already-repaired matrix is returned unchanged.  The rescale
    can hold the minimum a hair below the floor on every pass (9.99999994e-9
    with a duplicated channel), so the last pass alone clips to twice the floor.
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
    for n_pass in range(_PSD_MAX_ITER + 1):
        try:
            w, v = np.linalg.eigh(out)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition failed during PSD repair: {exc}") from exc
        if w.min() >= _PSD_EPS:
            return out
        if n_pass == _PSD_MAX_ITER:
            raise NumericError(f"PSD repair did not converge in {_PSD_MAX_ITER} iterations")
        w = np.clip(w, _PSD_EPS * (2.0 if n_pass == _PSD_MAX_ITER - 1 else 1.0), None)
        out = (v * w) @ v.T
        out = (out + out.T) / 2.0
        scale = np.sqrt(diag0 / np.diag(out))
        out = out * np.outer(scale, scale)
        out = (out + out.T) / 2.0
