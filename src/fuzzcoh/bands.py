"""Band-pass filtering of blocks to named frequency bands.

Filtering uses a Butterworth band-pass applied forward-backward (zero
phase) per channel, with even (reflective) edge padding so the short
blocks typical of trial data do not suffer edge transients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import signal

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
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)

    def min_block_length(self) -> int:
        # forward-backward needs padding room; 3x the per-section ba length
        return 3 * (2 * self.order + 1)

    def pad_length(self, n_samples: int) -> int:
        # target 3x settling; capped for blocks shorter than the target
        return min(3 * self.settle_len, n_samples - 1)


def design_bandpass(band: BandSpec, order: int = 4) -> FilterDesign:
    """Design a stable Butterworth band-pass for the given band.

    The magnitude response is -3 dB at the band edges and monotone
    outside (Butterworth).  Raises if the design is unstable, which can
    happen for edges too close to DC or Nyquist at high order.
    """
    if not (2 <= order <= 12):
        raise ConfigError(f"filter order must be in [2, 12], got {order}")
    low = max(band.low_hz, 1e-6)  # scipy rejects an exact 0 Hz edge
    try:
        sos = signal.butter(
            order, [low, band.high_hz], btype="bandpass",
            fs=band.sample_rate_hz, output="sos",
        )
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise NumericError(f"band-pass design failed for {band.name!r}: {exc}") from exc
    _, poles, _ = signal.sos2zpk(sos)
    rmax = float(np.abs(poles).max())
    if rmax >= 1.0:
        raise NumericError(
            f"unstable design for {band.name!r}: pole radius {rmax:.6f} >= 1"
        )
    settle = int(np.ceil(np.log(1e-3) / np.log(rmax)))
    return FilterDesign(sos=sos, band=band, order=order,
                        settle_len=settle, max_pole_radius=rmax)


def filter_block(block: MtsBlock, design: FilterDesign) -> MtsBlock:
    """Zero-phase band-pass of every channel of a block.

    Applies the design forward and backward with even (reflective)
    padding of 3x the settling length, capped at block length - 1.
    """
    if block.sample_rate_hz != design.band.sample_rate_hz:
        raise ConfigError(
            f"block rate {block.sample_rate_hz} Hz does not match design "
            f"rate {design.band.sample_rate_hz} Hz"
        )
    if block.n_samples < design.min_block_length():
        raise DataError(
            f"block too short to filter: {block.n_samples} samples, "
            f"need at least {design.min_block_length()}"
        )
    # scipy requires writable buffers for both the sections and the data
    out = signal.sosfiltfilt(
        np.array(design.sos), np.array(block.data), axis=0,
        padtype="even", padlen=design.pad_length(block.n_samples),
    )
    return block.with_data(out)


def filter_dataset(dataset: MtsDataset, design: FilterDesign) -> MtsDataset:
    """Filter every block of a dataset."""
    return dataset.with_blocks([filter_block(b, design) for b in dataset.blocks])
