"""Band-pass filtering of blocks to named frequency bands.

Filtering uses a Butterworth band-pass applied forward-backward (zero
phase) per channel, with even (reflective) edge padding so the short
blocks typical of trial data do not suffer edge transients.  The design
and the filter are numpy ports of ``scipy.signal.butter`` and
``sosfiltfilt`` that give bit-identical results; scipy is their test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DataError, NumericError
from .mts import MtsBlock, MtsDataset

__all__ = [
    "BandSpec",
    "FilterDesign",
    "DEFAULT_BANDS",
    "RAW_BAND",
    "band_edges",
    "default_band",
    "design_bandpass",
    "filter_block",
    "filter_dataset",
]

# Band name of the unfiltered series.
RAW_BAND = "raw"

# Standard EEG band table at 128 Hz sampling; edges are config-overridable.
DEFAULT_BANDS: dict[str, tuple[float, float]] = {
    "Delta": (0.5, 4.0),
    "Theta": (4.0, 8.0),
    "Alpha": (8.0, 12.0),
    "Beta": (12.0, 30.0),
    "Gamma": (30.0, 50.0),
}


@dataclass(frozen=True)
class BandSpec:
    """A named frequency band with [low, high) edges in Hz."""

    name: str
    low_hz: float
    high_hz: float
    sample_rate_hz: float

    def __post_init__(self):
        nyq = self.sample_rate_hz / 2.0
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not (0 <= self.low_hz < self.high_hz < nyq):
            raise ConfigError(
                f"band {self.name!r} needs 0 <= low < high < Nyquist ({nyq} Hz), "
                f"got [{self.low_hz}, {self.high_hz})"
            )


def band_edges(name: str, table: Optional[dict] = None) -> Optional[tuple[float, float]]:
    """[low, high) Hz edges of a band name; ``None`` for the raw series.

    ``table`` entries override or extend ``DEFAULT_BANDS``.
    """
    if name == RAW_BAND:
        return None
    merged = dict(DEFAULT_BANDS)
    merged.update({k: tuple(v) for k, v in (table or {}).items()})
    if name not in merged:
        raise ConfigError(f"unknown band {name!r}; known: {sorted(merged) + [RAW_BAND]}")
    return merged[name]


def default_band(name: str, sample_rate_hz: float,
                 table: Optional[dict] = None) -> Optional[BandSpec]:
    """Resolve a band name (see ``band_edges``); ``None`` for the raw series."""
    edges = band_edges(name, table)
    if edges is None:
        return None
    return BandSpec(name=name, low_hz=float(edges[0]), high_hz=float(edges[1]),
                    sample_rate_hz=float(sample_rate_hz))


@dataclass(frozen=True)
class FilterDesign:
    """A stable cascade of second-order band-pass sections.

    ``settle_len`` is the number of samples for the dominant pole's
    impulse response to decay below 1e-3; padding is sized from it.
    """

    sos: np.ndarray
    band: BandSpec
    order: int
    settle_len: int
    max_pole_radius: float

    def __post_init__(self):
        sos = np.asarray(self.sos, dtype=np.float64)
        if sos.ndim != 2 or sos.shape[1] != 6 or not (sos[:, 3] == 1.0).all():
            raise ConfigError(f"sos must be (sections, 6) with every a0 = 1, got shape {sos.shape}")
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)

    def min_block_length(self) -> int:
        # forward-backward needs padding room; 3x the per-section ba length
        return 3 * (2 * self.order + 1)

    def check_block_length(self, n_samples: int) -> None:
        """A ``DataError`` unless ``n_samples``-sample blocks are long enough to filter."""
        if n_samples < self.min_block_length():
            raise DataError(f"block too short to filter: {n_samples} samples, "
                            f"need at least {self.min_block_length()}")

    def pad_length(self, n_samples: int) -> int:
        # target 3x settling; capped for blocks shorter than the target
        return min(3 * self.settle_len, n_samples - 1)


def _quadratic(r1, r2) -> np.ndarray:
    """Coefficients of (x - r1)(x - r2), convolved as scipy's ``poly`` does it."""
    c = np.ones(1, dtype=np.result_type(r1, r2))
    for r in (r1, r2):
        c = np.convolve(c, np.array([1, -r], dtype=c.dtype))
    return c.real  # conjugate or real roots: the imaginary parts are zero


def _one_per_conjugate_pair(p: np.ndarray) -> np.ndarray:
    """scipy's ``_cplxreal``: each pair's averaged upper member, then the real poles."""
    tol = 100 * np.finfo(np.float64).eps
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= tol * abs(p)
    upper, lower = p[~real & (p.imag > 0)], p[~real & (p.imag < 0)]
    # within runs of equal real part, order both halves by imaginary magnitude
    same_real = np.diff(upper.real) <= tol * abs(upper[:-1])
    edges = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.flatnonzero(edges > 0), np.flatnonzero(edges < 0) + 1):
        for run in (upper[start:stop], lower[start:stop]):
            run[...] = run[np.lexsort([abs(run.imag)])]
    return np.concatenate(((upper + lower.conj()) / 2, p[real].real))


def _butter_bandpass_sos(order: int, low_hz: float, high_hz: float, fs: float) -> np.ndarray:
    """``scipy.signal.butter(order, [low, high], "bandpass", fs=fs, output="sos")``.

    The same floating-point operations in the same order as scipy's path
    buttap -> lp2bp_zpk -> bilinear_zpk -> zpk2sos ("nearest" pairing), so
    the sections are bit-identical to scipy's.  Every zero is real (order
    of them at z = -1 and order at z = 1), which leaves one pairing branch.
    """
    # analog low-pass prototype, band edges pre-warped for the transform at fs = 2
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))
    warped = 4.0 * np.tan(np.pi * (np.array([low_hz, high_hz]) / (fs / 2)) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    # low-pass to band-pass: each pole splits in two around +-wo
    p = p * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    # bilinear transform; the order zeros at s = 0 go to z = 1, those at infinity to z = -1
    gain = bw**order * np.real(4.0**order / np.prod(4.0 - p))
    p = _one_per_conjugate_pair((4.0 + p) / (4.0 - p))
    z = np.repeat([-1.0, 1.0], order)

    def worst(poles):  # closest to the unit circle
        return np.argmin(np.abs(1 - np.abs(poles)))

    sos = np.zeros((order, 6))
    for si in range(order - 1, -1, -1):  # the worst poles go to the last sections
        i = worst(p)
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):
            real = np.flatnonzero(np.isreal(p))
            i = real[worst(p[real])]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conj()
        zeros = []
        for _ in range(2):  # the two zeros nearest to p1
            i = np.argsort(np.abs(z - p1))[0]  # not argmin: a tie breaks as in scipy
            zeros.append(z[i])
            z = np.delete(z, i)
        sos[si] = np.concatenate((_quadratic(*zeros), _quadratic(p1, p2)))
    sos[0, :3] *= gain
    return sos


def design_bandpass(band: BandSpec, order: int = 4) -> FilterDesign:
    """Design a stable Butterworth band-pass for the given band.

    The magnitude response is -3 dB at the band edges and monotone
    outside (Butterworth).  Raises if the design is unstable, which can
    happen for edges too close to DC or Nyquist at high order.
    """
    if not (2 <= order <= 12):
        raise ConfigError(f"filter order must be in [2, 12], got {order}")
    low = max(band.low_hz, 1e-6)  # the design needs a positive lower edge
    try:
        sos = _butter_bandpass_sos(order, low, band.high_hz, band.sample_rate_hz)
        rmax = float(max(np.abs(np.roots(section[3:])).max() for section in sos))
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"band-pass design failed for {band.name!r}: {exc}") from exc
    if rmax >= 1.0:
        raise NumericError(
            f"unstable design for {band.name!r}: pole radius {rmax:.6f} >= 1"
        )
    settle = int(np.ceil(np.log(1e-3) / np.log(rmax)))
    return FilterDesign(sos=sos, band=band, order=order,
                        settle_len=settle, max_pole_radius=rmax)


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """``scipy.signal.sosfilt_zi``: each section's step-response steady state, (S, 2)."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for s, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        # lfilter_zi: solve (I - A^T) zi = b[1:] - a[1:] b[0], A the companion matrix of a
        companion = np.array([[-a[1], -a[2]], [1.0, 0.0]])
        zi[s] = scale * np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)  # the section's gain at DC
    return zi


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """Run the cascade down the columns of ``x`` (L, N) in place, from states ``zi`` (S, 2, N).

    Each section takes scipy's transposed direct form II step, y = b0 u + z0,
    z0 = b1 u - a1 y + z1, z1 = b2 u - a2 y, so every output rounds as in
    ``scipy.signal.sosfilt``.  The sections run as a wavefront: at step k,
    section s works on sample k - s, so a step is a few ufuncs on (S, N)
    arrays.  A sample's output overwrites its input row, already read.
    """
    n_sec, (n_samples, width) = len(sos), x.shape
    # coefficients spread over the columns: ufuncs without broadcasting are faster
    b0, b1, b2, _, a1, a2 = (np.repeat(sos[:, i, None], width, axis=1) for i in range(6))
    z0, z1 = np.zeros((n_sec, width)), np.zeros((n_sec, width))
    t, w = np.empty_like(z0), np.empty_like(z0)
    # row 0 is section 0's input and row s + 1 section s's output, which is the
    # input of section s + 1 one step later: a step reads one buffer, writes the other
    feed = np.zeros((2, n_sec + 1, width))
    views = [(feed[i, 0], feed[i, :n_sec], feed[1 - i, 1:], feed[1 - i, n_sec]) for i in (0, 1)]
    for k in range(n_samples + n_sec - 1):
        first, u, y, last = views[k % 2]
        if k < n_sec:  # section k reaches sample 0; the sections after it run on zeros
            z0[k], z1[k] = zi[k]
        if k < n_samples:
            first[...] = x[k]
        np.multiply(b0, u, y)
        np.add(y, z0, y)
        np.multiply(b1, u, t)
        np.multiply(a1, y, w)
        np.subtract(t, w, t)
        np.add(t, z1, z0)
        np.multiply(b2, u, t)
        np.multiply(a2, y, w)
        np.subtract(t, w, z1)
        if k >= n_sec - 1:
            x[k - n_sec + 1] = last


def _zero_phase(design: FilterDesign, data: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """``scipy.signal.sosfiltfilt(sos, data, axis=0, padtype="even", padlen=pad)``.

    Filters every column of ``data`` (T, N) forward and backward with even
    (reflective) padding of 3x the settling length, capped at T - 1.
    """
    if sample_rate_hz != design.band.sample_rate_hz:
        raise ConfigError(
            f"block rate {sample_rate_hz} Hz does not match design "
            f"rate {design.band.sample_rate_hz} Hz"
        )
    design.check_block_length(len(data))
    pad = design.pad_length(len(data))
    ext = np.concatenate((data[pad:0:-1], data, data[-2:-(pad + 2):-1]))
    zi = _sosfilt_zi(design.sos)[..., None]
    _sosfilt(design.sos, ext, zi * ext[0])
    backward = ext[::-1]  # the backward pass runs in place too, so ext ends in time order
    _sosfilt(design.sos, backward, zi * backward[0])
    return ext[pad:-pad]


def filter_block(block: MtsBlock, design: FilterDesign) -> MtsBlock:
    """Zero-phase band-pass of every channel of a block.

    Applies the design forward and backward with even (reflective)
    padding of 3x the settling length, capped at block length - 1.
    """
    return replace(block, data=_zero_phase(design, block.data, block.sample_rate_hz))


def filter_dataset(dataset: MtsDataset, design: FilterDesign) -> MtsDataset:
    """Filter every block of a dataset: all their channels in one zero-phase pass.

    The (B, T, m) array is filtered as one (T, B*m) matrix, block-major columns.
    """
    n_blocks, n_samples, width = dataset.data.shape
    out = _zero_phase(design, dataset.data.transpose(1, 0, 2).reshape(n_samples, -1),
                      dataset.sample_rate_hz)
    return replace(dataset, data=out.reshape(n_samples, n_blocks, width).transpose(1, 0, 2))
