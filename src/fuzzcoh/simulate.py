"""Synthetic datasets: latent band oscillations mixed into two regimes.

Five independent AR(2) latents peak at the standard band frequencies;
each block mixes them with a cluster-specific matrix and adds white
noise from one of three families (normal, t3, t1/Cauchy).  Switching
blocks alternate between the two mixing regimes through a binary
indicator, which is what the fuzzy detection protocol must catch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .evaluation import SWITCHING
from .exceptions import ConfigError, DataError
from .mts import JsonConfig, MtsDataset, check_fields

__all__ = [
    "SimConfig",
    "gen_ar2",
    "default_mixing",
    "gen_dataset",
    "contaminate",
    "NOISE_FAMILIES",
]

NOISE_FAMILIES = ("normal", "student_t3", "student_t1")

DEFAULT_TARGET_FREQS = (2.0, 6.0, 10.0, 20.0, 40.0)

# rng stream namespaces so parallel block generation matches sequential
_NS_MIXING = 3
_NS_KINDS = 5
_NS_BLOCK = 7
_NS_CONTAM = 11

_PURE0, _PURE1 = 0, 1

# the latents default_mixing weights up on X and on Y in regime 0
_DOMINANT_X, _DOMINANT_Y = 1, 3


@dataclass(frozen=True)
class SimConfig(JsonConfig):
    """Generator settings; every field has a reproducible default.

    The annotations are the field table (``mts.check_fields``).  Without
    mixing matrices, of shape (n_x + n_y, len(target_freqs)), a pair is
    drawn by ``default_mixing``, which needs four or more target frequencies.

    ``damping`` places the AR(2) characteristic roots at modulus
    ``damping`` (> 1) so each latent's spectrum peaks at its target
    frequency; larger damping flattens the peaks toward white noise.
    ``signal_gain`` scales the unit-norm mixing rows relative to the
    unit-scale noise.  ``fuzzy_switch_prob`` is the stationary
    probability of regime 0 inside a switching block and
    ``fuzzy_switch_rate`` the per-sample switching frequency (0.5 makes
    the indicator independent across samples).
    """

    seed: int
    n_blocks: int = 300
    block_length: int = 384
    sample_rate_hz: float = 128.0
    damping: float = 1.05
    target_freqs: tuple[float, ...] = DEFAULT_TARGET_FREQS
    n_x: int = 4
    n_y: int = 4
    mixing_a0: Optional[np.ndarray] = None
    mixing_a1: Optional[np.ndarray] = None
    mixing_gain: float = 3.0
    signal_gain: float = 3.0
    noise_family: str = "normal"
    noise_scale: float = 1.0
    proportions: tuple[float, float, float] = (0.4, 0.4, 0.2)
    fuzzy_switch_prob: float = 0.5
    fuzzy_switch_rate: float = 0.5
    burn_in: int = 500

    def __post_init__(self):
        check_fields(self)
        for key in ("seed", "burn_in"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.damping <= 1.0:
            raise ConfigError(f"damping must exceed 1 for stationarity, got {self.damping}")
        if self.noise_family not in NOISE_FAMILIES:
            raise ConfigError(
                f"noise_family must be one of {NOISE_FAMILIES}, got {self.noise_family!r}"
            )
        if abs(sum(self.proportions) - 1.0) > 1e-12:
            raise ConfigError(f"proportions must sum to 1, got {self.proportions}")
        if any(v < 0 for v in self.proportions):
            raise ConfigError(f"proportions must be non-negative, got {self.proportions}")
        if not 0.0 < self.fuzzy_switch_prob < 1.0:
            raise ConfigError(
                f"fuzzy_switch_prob must lie in (0, 1), got {self.fuzzy_switch_prob}"
            )
        if not 0.0 < self.fuzzy_switch_rate <= 0.5:
            raise ConfigError(
                f"fuzzy_switch_rate must lie in (0, 0.5], got {self.fuzzy_switch_rate}"
            )
        for f in self.target_freqs:
            if not 0 < f < self.sample_rate_hz / 2:
                raise ConfigError(f"target frequency {f} Hz outside (0, Nyquist)")
        if self.n_blocks < 1 or self.block_length < 2:
            raise ConfigError("need n_blocks >= 1 and block_length >= 2")
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigError("need n_x >= 1 and n_y >= 1")
        if (self.mixing_a0 is None) != (self.mixing_a1 is None):
            raise ConfigError("give both mixing matrices or neither")
        expected = (self.n_x + self.n_y, len(self.target_freqs))
        for name in ("mixing_a0", "mixing_a1"):
            a = getattr(self, name)
            if a is not None and a.shape != expected:
                raise ConfigError(f"{name} has shape {a.shape}, expected {expected}")
        need = 1 if self.mixing_a0 is not None else _DOMINANT_Y + 1  # default_mixing's index
        if len(self.target_freqs) < need:
            raise ConfigError(f"target_freqs needs {need} or more entries, got {self.target_freqs}")


def ar2_coefficients(freq_hz: float, damping: float, sample_rate_hz: float) -> tuple[float, float]:
    """AR(2) coefficients with characteristic roots at modulus ``damping``.

    phi1 = (2 / damping) cos(2 pi f / S), phi2 = -1 / damping^2; the
    roots of 1 - phi1 z - phi2 z^2 sit at damping * e^(+-2 pi i f / S),
    outside the unit circle for damping > 1, and the spectral density
    peaks next to f.
    """
    phi1 = (2.0 / damping) * np.cos(2.0 * np.pi * freq_hz / sample_rate_hz)
    phi2 = -1.0 / damping**2
    return float(phi1), float(phi2)


def _ar2_latents(eps: np.ndarray, phi1: np.ndarray, phi2: np.ndarray,
                 burn_in: int) -> np.ndarray:
    """Standardized AR(2) series, one per row of the innovations ``eps``.

    Row i follows x_t = phi1[i] x_{t-1} + phi2[i] x_{t-2} + eps_t, run for
    every row at once in the transposed direct form II of
    ``scipy.signal.lfilter([1], [1, -phi1, -phi2], eps)``: y = eps + z0,
    z0 = z1 + phi1 y, z1 = phi2 y.  That form rounds as lfilter does; the
    expanded sum does not.  The first ``burn_in`` samples are discarded and
    each series is standardized to zero mean and unit variance.
    """
    y = eps.T.copy()  # one row per time step, overwritten by the output
    z0, z1, t = np.zeros(len(eps)), np.zeros(len(eps)), np.empty(len(eps))
    for row in y:
        np.add(row, z0, row)
        np.multiply(phi1, row, t)
        np.add(z1, t, z0)
        np.multiply(phi2, row, z1)
    series = np.ascontiguousarray(y[burn_in:].T)
    sd = series.std(axis=1, keepdims=True)
    if (sd == 0).any():  # length 1 edge case
        raise DataError("degenerate AR series")
    return (series - series.mean(axis=1, keepdims=True)) / sd


def gen_ar2(
    length: int,
    freq_hz: float,
    damping: float = 1.05,
    sample_rate_hz: float = 128.0,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    burn_in: int = 500,
) -> np.ndarray:
    """One standardized AR(2) latent series with a peak near ``freq_hz``.

    Drives the recursion with standard normal innovations, discards
    ``burn_in`` warm-up samples, and standardizes the remainder to zero
    mean and unit variance.
    """
    if not 0 < freq_hz < sample_rate_hz / 2:
        raise ConfigError(f"freq {freq_hz} Hz outside (0, Nyquist)")
    if damping <= 1.0:
        raise ConfigError(f"damping must exceed 1, got {damping}")
    if rng is None:
        rng = np.random.default_rng(seed)
    phi1, phi2 = ar2_coefficients(freq_hz, damping, sample_rate_hz)
    eps = rng.standard_normal((1, length + burn_in))
    return _ar2_latents(eps, np.array([phi1]), np.array([phi2]), burn_in)[0]


def default_mixing(
    n_x: int,
    n_y: int,
    n_latents: int,
    rng: np.random.Generator,
    gain: float = 3.0,
    signal_gain: float = 3.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random mixing matrices for the two regimes.

    Regime 0 weights latent 1 (6 Hz by default) heavily on the X group
    and latent 3 (20 Hz) on Y; regime 1 swaps the group roles, reusing
    the same row patterns on the opposite group so the two regimes are
    exact mirrors.  Rows are normalized to a common
    norm of ``signal_gain``.  The mirror construction keeps a 50/50
    switching block exactly balanced between the regimes, which is what
    makes sub-cutoff memberships detectable.

    When the groups differ in size the patterns are recycled row-wise.
    """
    base_x = rng.uniform(0.5, 1.5, size=(n_x, n_latents))
    base_x[:, _DOMINANT_X] *= gain
    base_y = rng.uniform(0.5, 1.5, size=(n_y, n_latents))
    base_y[:, _DOMINANT_Y] *= gain
    base_x *= signal_gain / np.linalg.norm(base_x, axis=1, keepdims=True)
    base_y *= signal_gain / np.linalg.norm(base_y, axis=1, keepdims=True)
    a0 = np.vstack([base_x, base_y])

    swap_x = base_y[np.arange(n_x) % n_y]  # Y-style rows on the X group
    swap_y = base_x[np.arange(n_y) % n_x]
    a1 = np.vstack([swap_x, swap_y])
    return a0, a1


def _mixing_for(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    if config.mixing_a0 is not None:
        return config.mixing_a0, config.mixing_a1
    rng = np.random.default_rng([config.seed, _NS_MIXING])
    return default_mixing(
        config.n_x, config.n_y, len(config.target_freqs), rng,
        gain=config.mixing_gain, signal_gain=config.signal_gain,
    )


def _noise(rng: np.random.Generator, family: str, shape) -> np.ndarray:
    if family == "normal":
        return rng.standard_normal(shape)
    if family == "student_t3":
        return rng.standard_t(3, size=shape)
    if family == "student_t1":
        return rng.standard_t(1, size=shape)  # Cauchy
    raise ConfigError(f"unknown noise family {family!r}")


def switching_indicator(
    length: int,
    rng: np.random.Generator,
    prob_zero: float = 0.5,
    switch_rate: float = 0.5,
) -> np.ndarray:
    """Two-state 0/1 chain with given stationary P(state 0) and switch rate.

    Transition probabilities are chosen so the expected fraction of
    switches per sample equals ``switch_rate`` while the stationary
    occupancy of state 0 is ``prob_zero``.  A rate of 0.5 with equal
    occupancies makes the states independent across samples.
    """
    a01 = min(switch_rate / (2.0 * prob_zero), 1.0)
    a10 = min(switch_rate / (2.0 * (1.0 - prob_zero)), 1.0)
    u = rng.random(length)
    d = np.empty(length, dtype=np.int64)
    d[0] = 0 if u[0] < prob_zero else 1
    if a01 == a10 == 0.5 and prob_zero == 0.5:
        return (u >= 0.5).astype(np.int64)  # independent; one draw per sample
    for t in range(1, length):
        if d[t - 1] == 0:
            d[t] = 1 if u[t] < a01 else 0
        else:
            d[t] = 0 if u[t] < a10 else 1
    return d


def _gen_blocks(config: SimConfig, kinds: Sequence[int],
                seed_keys: Sequence[Sequence[int]]) -> MtsDataset:
    """A dataset of blocks of the given kinds, each drawn from the stream of its seed key.

    Each stream gives the latent innovations (one row per target
    frequency, as one ``gen_ar2`` call per frequency would draw them), then
    the indicator (switching blocks only), then the noise.  The AR(2)
    recursion then runs once over the latents of every block.  The labels
    are the kinds.
    """
    a0, a1 = _mixing_for(config)
    T, n_latents = config.block_length, len(config.target_freqs)
    eps = np.empty((len(kinds), n_latents, T + config.burn_in))
    draws = []
    for kind, key, out in zip(kinds, seed_keys, eps):
        rng = np.random.default_rng(list(key))
        rng.standard_normal(out=out)
        d = None
        if kind == SWITCHING:
            d = switching_indicator(T, rng, prob_zero=config.fuzzy_switch_prob,
                                    switch_rate=config.fuzzy_switch_rate)
        draws.append((d, _noise(rng, config.noise_family, (T, config.n_x + config.n_y))))
    phi1, phi2 = np.array([ar2_coefficients(f, config.damping, config.sample_rate_hz)
                           for f in config.target_freqs]).T
    latents = _ar2_latents(eps.reshape(-1, eps.shape[-1]), np.tile(phi1, len(kinds)),
                           np.tile(phi2, len(kinds)), config.burn_in)
    names = tuple(f"X{i + 1}" for i in range(config.n_x)) + tuple(
        f"Y{i + 1}" for i in range(config.n_y)
    )
    data = np.empty((len(kinds), T, config.n_x + config.n_y))
    for kind, lat, (d, noise), out in zip(kinds, latents.reshape(len(kinds), n_latents, T),
                                          draws, data):
        lat = np.ascontiguousarray(lat.T)  # (T, latents)
        if kind == _PURE0:
            clean = lat @ a0.T
        elif kind == _PURE1:
            clean = lat @ a1.T
        else:
            mixed = np.where(d[:, None, None] == 1, a1[None], a0[None])  # (T, m, r)
            clean = np.einsum("tmr,tr->tm", mixed, lat)
        out[...] = clean + config.noise_scale * noise
    return MtsDataset(data=data, sample_rate_hz=config.sample_rate_hz, p=config.n_x,
                      channel_names=names, labels=tuple(kinds))


def apportion(n: int, proportions: Sequence[float]) -> list[int]:
    """Largest-remainder split of n items into the given proportions."""
    raw = [n * p for p in proportions]
    counts = [int(np.floor(v)) for v in raw]
    remainder = n - sum(counts)
    order = np.argsort([c - v for c, v in zip(counts, raw)])  # biggest deficit first
    for i in range(remainder):
        counts[order[i]] += 1
    return counts


def gen_dataset(config: SimConfig) -> MtsDataset:
    """Generate the full dataset: shuffled kinds, per-block seed streams.

    The first ``n_x`` channels are the X group and block labels carry
    the truth kind (0, 1, 2 = switching).  Blocks are
    generated from per-position derived streams, so a parallel map over
    positions reproduces the sequential output exactly.
    """
    counts = apportion(config.n_blocks, config.proportions)
    kinds = np.repeat([_PURE0, _PURE1, SWITCHING], counts)
    shuffle_rng = np.random.default_rng([config.seed, _NS_KINDS])
    shuffle_rng.shuffle(kinds)
    return _gen_blocks(config, [int(k) for k in kinds],
                       [(config.seed, _NS_BLOCK, b) for b in range(config.n_blocks)])


def truth_payload(config: SimConfig, dataset: MtsDataset) -> dict:
    """JSON-ready record of the generated kinds and the config echo."""
    return {
        "kinds": list(dataset.labels),
        "proportions": list(config.proportions),
        "config": {k: v for k, v in asdict(config).items() if v is not None},
    }


def contaminate(
    dataset: MtsDataset,
    channels: Sequence[str],
    scale: float = 0.1,
    family: str = "student_t1",
    seed: int = 0,
) -> MtsDataset:
    """Add independent heavy-tailed noise to the named channels only.

    Untouched channels stay bit-identical; the same seed reproduces the
    same contamination.  Block b's noise comes from its own stream, so a
    block's contamination does not depend on the others.  ``scale=0``
    returns an identical dataset.
    """
    if not channels:
        raise ConfigError("no channels selected for contamination")
    if family not in NOISE_FAMILIES:
        raise ConfigError(f"unknown noise family {family!r}")
    names = dataset.channel_names
    missing = [ch for ch in channels if ch not in names]
    if missing:
        raise ConfigError(f"unknown channels: {missing}")
    cols = [names.index(ch) for ch in channels]
    data = dataset.data.copy()
    if scale != 0.0:
        for b, block in enumerate(data):
            rng = np.random.default_rng([seed, _NS_CONTAM, b])
            block[:, cols] += scale * _noise(rng, family, (dataset.n_samples, len(cols)))
    return replace(dataset, data=data)
