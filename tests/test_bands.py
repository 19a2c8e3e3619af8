import numpy as np
import pytest
from scipy import signal

from fuzzcoh import (
    BandSpec,
    ConfigError,
    DataError,
    DEFAULT_BANDS,
    FilterDesign,
    MtsDataset,
    design_bandpass,
    filter_dataset,
)

S = 128.0


def band(name):
    low, high = DEFAULT_BANDS[name]
    return BandSpec(name=name, low_hz=low, high_hz=high, sample_rate_hz=S)


def magnitude(design, freq_hz):
    w, h = signal.sosfreqz(design.sos, worN=8192, fs=S)
    return float(np.abs(h[np.argmin(np.abs(w - freq_hz))]))


def one_block(data, sample_rate_hz=S):
    """A one-block dataset over the (T, m) samples; the first channel is X."""
    return MtsDataset(data=data[None], p=1, sample_rate_hz=sample_rate_hz)


def filter_block(data, design):
    """The (T, m) samples filtered as a one-block dataset."""
    return filter_dataset(one_block(data), design).data[0]


def noise_block(T, channels=1, seed=0):
    return np.random.default_rng(seed).standard_normal((T, max(2, channels)))


def tone_block(freq_hz, T=4096):
    t = np.arange(T) / S
    return np.column_stack([np.sin(2 * np.pi * freq_hz * t), np.zeros(T)])


class TestDesign:
    def test_beta_passband_gain(self):
        design = design_bandpass(band("Beta"), order=4)
        assert 0.9 <= magnitude(design, 20.0) <= 1.0

    def test_band_edges_are_3db(self):
        design = design_bandpass(band("Beta"), order=4)
        for edge in (12.0, 30.0):
            assert magnitude(design, edge) == pytest.approx(1 / np.sqrt(2), abs=0.02)

    def test_gamma_stopband(self):
        # transfer-function oracle on a frequency grid
        design = design_bandpass(band("Gamma"), order=4)
        assert magnitude(design, 10.0) <= 0.01

    def test_degenerate_band_rejected(self):
        with pytest.raises(ConfigError):
            BandSpec(name="bad", low_hz=10.0, high_hz=10.0, sample_rate_hz=S)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ConfigError):
            BandSpec(name="bad", low_hz=10.0, high_hz=70.0, sample_rate_hz=S)

    def test_order_bounds(self):
        with pytest.raises(ConfigError):
            design_bandpass(band("Beta"), order=1)
        with pytest.raises(ConfigError):
            design_bandpass(band("Beta"), order=13)

    def test_all_default_bands_stable(self):
        for name in DEFAULT_BANDS:
            design = design_bandpass(band(name), order=4)
            assert design.max_pole_radius < 1.0


class TestFilterBlock:
    def test_out_of_band_mass_matches_transfer_oracle(self):
        # oracle: integrate |H|^4 (forward-backward) over the frequency grid
        design = design_bandpass(band("Beta"), order=4)
        w, h = signal.sosfreqz(design.sos, worN=65536, fs=S)
        gain = np.abs(h) ** 4
        outside = (w < 12.0) | (w >= 30.0)
        theoretical = gain[outside].sum() / gain.sum()
        assert theoretical == pytest.approx(0.02453, abs=2e-4)  # frozen from the oracle

        filtered = filter_block(noise_block(4096, channels=2, seed=0), design)
        freqs, power = signal.periodogram(filtered[:, 0], fs=S)
        outside = (freqs < 12.0) | (freqs >= 30.0)
        empirical = power[outside].sum() / power.sum()
        assert abs(empirical - theoretical) < 0.01
        assert empirical < 0.04

    def test_zero_block_stays_zero(self):
        design = design_bandpass(band("Beta"), order=4)
        out = filter_block(np.zeros((512, 2)), design)
        np.testing.assert_array_equal(out, np.zeros((512, 2)))

    def test_passband_tone_preserved(self):
        design = design_bandpass(band("Beta"), order=4)
        block = tone_block(20.0)
        out = filter_block(block, design)
        trim = slice(256, -256)
        corr = np.corrcoef(block[trim, 0], out[trim, 0])[0, 1]
        assert corr >= 0.99

    def test_linearity(self):
        design = design_bandpass(band("Theta"), order=4)
        rng = np.random.default_rng(1)
        x = noise_block(1024, channels=2, seed=1)
        y = noise_block(1024, channels=2, seed=2)
        a, b = 2.5, -1.25
        lhs = filter_block(a * x + b * y, design)
        rhs = a * filter_block(x, design) + b * filter_block(y, design)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_zero_phase(self):
        design = design_bandpass(band("Beta"), order=4)
        block = tone_block(21.0)
        out = filter_block(block, design)
        trim = slice(256, -256)
        a = block[trim, 0] - block[trim, 0].mean()
        b = out[trim, 0] - out[trim, 0].mean()
        xc = np.correlate(b, a, mode="full")
        assert np.argmax(xc) - (len(a) - 1) == 0

    def test_idempotent_in_band(self):
        design = design_bandpass(band("Beta"), order=4)
        once = filter_block(tone_block(21.0), design)
        twice = filter_block(once, design)
        trim = slice(256, -256)
        e1 = float((once[trim, 0] ** 2).sum())
        e2 = float((twice[trim, 0] ** 2).sum())
        assert abs(e2 - e1) / e1 <= 0.01

    def test_short_block_rejected(self):
        design = design_bandpass(band("Beta"), order=4)
        with pytest.raises(DataError, match="too short"):
            filter_block(noise_block(16, channels=2), design)

    def test_rate_mismatch_rejected(self):
        design = design_bandpass(band("Beta"), order=4)
        with pytest.raises(ConfigError, match="rate"):
            filter_dataset(one_block(np.zeros((512, 2)), sample_rate_hz=256.0), design)

    def test_short_delta_block_pads_capped(self):
        # T=384 with the slow-settling Delta band still filters (pad capped)
        design = design_bandpass(band("Delta"), order=4)
        out = filter_block(noise_block(384, channels=2, seed=3), design)
        assert out.shape == (384, 2)
        assert np.isfinite(out).all()


class TestScipyOracle:
    """The numpy design and filter reproduce scipy.signal bit for bit."""

    @pytest.mark.parametrize("name", sorted(DEFAULT_BANDS))
    def test_design_equals_butter(self, name):
        for order in range(2, 13):
            design = design_bandpass(band(name), order=order)
            low, high = DEFAULT_BANDS[name]
            sos = signal.butter(order, [low, high], btype="bandpass", fs=S, output="sos")
            np.testing.assert_array_equal(design.sos, sos)
            _, poles, _ = signal.sos2zpk(sos)
            assert design.max_pole_radius == float(np.abs(poles).max())

    def test_design_equals_butter_at_other_rates(self):
        rng = np.random.default_rng(5)
        for fs in (250.0, 256.0):
            for _ in range(6):
                low, high = np.sort(rng.uniform(0.5, fs / 2 - 1.0, 2))
                spec = BandSpec(name="b", low_hz=low, high_hz=high, sample_rate_hz=fs)
                for order in (2, 3, 7):
                    sos = signal.butter(order, [low, high], btype="bandpass", fs=fs,
                                        output="sos")
                    np.testing.assert_array_equal(design_bandpass(spec, order).sos, sos)

    @pytest.mark.parametrize("name, order", [("Delta", 4), ("Theta", 3), ("Beta", 4),
                                             ("Gamma", 6)])
    def test_filter_dataset_equals_sosfiltfilt(self, name, order):
        design = design_bandpass(band(name), order=order)
        for T in (design.min_block_length(), 200, 1024):  # shortest block, capped and full pad
            blocks = tuple(noise_block(T, channels=3, seed=T + b) for b in range(4))
            filtered = filter_dataset(MtsDataset(data=np.stack(blocks), p=1,
                                                 sample_rate_hz=S), design)
            for block, out in zip(blocks, filtered.data):
                expected = signal.sosfiltfilt(np.array(design.sos), block, axis=0,
                                              padtype="even", padlen=design.pad_length(T))
                np.testing.assert_array_equal(out, expected)
                np.testing.assert_array_equal(filter_block(block, design), expected)

    def test_sections_must_be_normalised(self):
        design = design_bandpass(band("Beta"), order=4)
        sos = np.array(design.sos)
        sos[1, 3] = 2.0
        with pytest.raises(ConfigError, match="every a0 = 1"):
            FilterDesign(sos=sos, band=design.band, order=4, settle_len=design.settle_len,
                         max_pole_radius=design.max_pole_radius)
