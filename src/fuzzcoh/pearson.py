"""Non-robust linear-correlation foil for the rank dependence path.

Swaps sine-tau entries for lagged sample Pearson correlations:
``pearson_matrices`` has the signature of ``sine_tau_matrices``, (..., T, m)
blocks to their (..., L+1, m, m) lags, and ``canonical.extract_features``
applies the same contract to both, so filtering, the canonical solver,
clustering and evaluation are shared code paths and any performance gap
isolates the dependence estimator.

Blocks go through in time-major chunks, (T, chunk * m): sums over t run in long
inner loops, in the order of one block's own (T, m) array, and each lag's GEMMs are
one batched matmul over strided views, so a block's matrices are bit for bit its own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pearson_matrices"]

_CHUNK_BYTES = 2**18  # per time-major array of a chunk, which holds at least one block


def _exponents(x: np.ndarray) -> np.ndarray:
    """The binary exponent of each column's largest magnitude (0 for a zero column)."""
    return np.frexp(np.maximum(x.max(axis=0), -x.min(axis=0)))[1]  # no |x| temporary


def _normalised(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns of ``x`` centred and scaled to unit norm (a zero one left as is), and which are 0.

    Each column is first scaled by 2**-e, which brings its block's largest magnitude into
    [0.5, 1), so its sum cannot overflow; each centred column then by the power of two that does
    the same for it, so its squares neither overflow nor underflow.  The powers cancel exactly
    in the quotient, so a column that fits anyway keeps its bits.
    """
    centred = np.ldexp(x, -e)
    centred -= centred.mean(axis=0)
    np.ldexp(centred, -_exponents(centred), out=centred)
    norm = np.sqrt((centred * centred).sum(axis=0))
    centred /= np.where(norm == 0, 1.0, norm)
    return centred, norm == 0


def _lag_correlations(x: np.ndarray, e: np.ndarray, lag: int, m: int) -> np.ndarray:
    """The (c, m, m) correlations at ``lag`` of a time-major chunk of c blocks, (T, c * m)."""
    n, c = len(x) - lag, x.shape[1] // m
    head, zero_h = _normalised(x[:n], e)
    tail, zero_t = _normalised(x[lag:], e)
    corr = head.reshape(n, c, m).transpose(1, 2, 0) @ tail.reshape(n, c, m).transpose(1, 0, 2)
    zero = zero_h.reshape(c, m, 1) | zero_t.reshape(c, 1, m)
    return np.clip(np.where(zero, 0.0, corr), -1.0, 1.0)


def pearson_matrices(data: np.ndarray, max_lag: int) -> np.ndarray:
    """Lagged Pearson matrices of a (..., T, m) block stack, shape (..., L+1, m, m).

    Entry [l, j, k] of a block is corr(Z_j(t), Z_k(t + l)) over its T - l
    aligned samples; a constant channel gives zero entries.
    """
    T, m = data.shape[-2:]
    blocks = data.reshape(-1, T, m)
    out = np.empty((len(blocks), max_lag + 1, m, m))
    step = max(1, _CHUNK_BYTES // (8 * T * m))
    for a in range(0, len(blocks), step):
        x = blocks[a : a + step].transpose(1, 0, 2).reshape(T, -1)  # a view for one block
        e = _exponents(x)
        for lag in range(max_lag + 1):
            out[a : a + step, lag] = _lag_correlations(x, e, lag, m)
    return out.reshape(data.shape[:-2] + out.shape[1:])
