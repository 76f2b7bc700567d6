"""Windowed power spectra and interpolated peak picking."""

import numpy as np
import pytest

from pulsecancel.spectral import (Spectrum, _taper, band_peak_power,
                                  band_peaks, band_power, power_spectrum,
                                  row_medians, top_peaks)

FS = 100.0


def tone(f_hz, seconds=20.0, amp=1.0, phase=0.0, fs=FS):
    t = np.arange(int(round(seconds * fs))) / fs
    return amp * np.sin(2 * np.pi * f_hz * t + phase)


def synthetic_spectrum(power):
    """Hand-built spectrum on a 0..5 Hz grid for peak-picking contracts."""
    power = np.asarray(power, dtype=float)
    return Spectrum(frequencies=np.linspace(0.0, 5.0, power.size),
                    power=power, sample_rate=10.0, window_seconds=20.0,
                    zero_pad_factor=1, taper="hann")


class TestPowerSpectrum:
    def test_grid_geometry(self):
        spec = power_spectrum(tone(1.0), FS)
        assert spec.native_resolution_hz == 0.05
        assert spec.spacing_hz == pytest.approx(0.05 / 8.0)
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == pytest.approx(FS / 2.0)
        assert spec.window_seconds == 20.0

    def test_resolution_follows_window_length(self):
        spec = power_spectrum(tone(1.0, seconds=30.0), FS)
        assert spec.native_resolution_hz == pytest.approx(1.0 / 30.0)

    def test_pad_factor_refines_spacing_only(self):
        coarse = power_spectrum(tone(1.0), FS, zero_pad_factor=1)
        fine = power_spectrum(tone(1.0), FS, zero_pad_factor=8)
        assert fine.spacing_hz == pytest.approx(coarse.spacing_hz / 8.0)
        assert fine.native_resolution_hz == coarse.native_resolution_hz

    def test_mean_is_removed(self):
        spec = power_spectrum(tone(1.0) + 50.0, FS)
        assert spec.power[0] < 1e-12

    def test_stronger_tone_has_more_power(self):
        x = tone(0.8, amp=1.0) + tone(1.6, amp=0.3)
        spec = power_spectrum(x, FS)
        p_strong = band_peak_power(spec, 0.8, 0.05)
        p_weak = band_peak_power(spec, 1.6, 0.05)
        assert p_strong > 5.0 * p_weak

    def test_power_scales_quadratically_with_amplitude(self):
        p1 = band_peak_power(power_spectrum(tone(1.0, amp=1.0), FS), 1.0, 0.05)
        p3 = band_peak_power(power_spectrum(tone(1.0, amp=3.0), FS), 1.0, 0.05)
        assert p3 == pytest.approx(9.0 * p1, rel=1e-9)

    def test_boxcar_taper_is_selectable(self):
        x = tone(1.0)
        hann = power_spectrum(x, FS, taper="hann")
        box = power_spectrum(x, FS, taper="boxcar")
        assert hann.taper == "hann"
        # the boxcar keeps more of the tone's energy in the main lobe
        assert band_peak_power(box, 1.0, 0.01) \
            > band_peak_power(hann, 1.0, 0.01)

    def test_cached_taper_is_read_only_and_stable(self):
        w = _taper("hann", 2000)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        np.testing.assert_array_equal(_taper("hann", 2000), w)

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            power_spectrum(np.ones((20, 2)), FS)
        with pytest.raises(ValueError, match="too short"):
            power_spectrum(np.ones(8), FS)
        with pytest.raises(ValueError, match="zero_pad_factor"):
            power_spectrum(np.ones(100), FS, zero_pad_factor=0)
        with pytest.raises(ValueError, match="sample_rate"):
            power_spectrum(np.ones(100), 0.0)


class TestTopPeaks:
    def test_interpolation_beats_grid_quantization(self):
        spec = power_spectrum(tone(1.234), FS)
        peak = top_peaks(spec, 0.7, 2.0, 1)[0]
        assert abs(peak.frequency_hz - 1.234) < 0.1 * spec.spacing_hz

    def test_orders_by_power_then_frequency(self):
        x = tone(0.9, amp=1.0) + tone(1.5, amp=0.6)
        peaks = top_peaks(power_spectrum(x, FS), 0.7, 2.0, 2)
        assert len(peaks) == 2
        assert peaks[0].frequency_hz == pytest.approx(0.9, abs=0.01)
        assert peaks[1].frequency_hz == pytest.approx(1.5, abs=0.01)
        assert peaks[0].power > peaks[1].power

    def test_band_is_inclusive_and_respected(self):
        x = tone(0.5, amp=5.0) + tone(1.2, amp=0.2)
        peaks = top_peaks(power_spectrum(x, FS), 0.7, 2.0, 3)
        assert all(0.7 <= p.frequency_hz <= 2.0 for p in peaks)

    def test_monotone_ramp_yields_nothing(self):
        # an edge bin with maximal power is not a peak unless it is a
        # strict local maximum
        spec = synthetic_spectrum(np.linspace(0.0, 10.0, 101))
        assert top_peaks(spec, 1.0, 4.0, 2) == []

    def test_plateau_is_not_a_peak(self):
        power = np.zeros(101)
        power[40:42] = 5.0
        assert top_peaks(synthetic_spectrum(power), 1.0, 4.0, 2) == []

    def test_equal_peaks_tie_toward_lower_frequency(self):
        power = np.zeros(101)
        power[30] = 5.0
        power[60] = 5.0
        peaks = top_peaks(synthetic_spectrum(power), 0.5, 4.5, 2)
        assert [round(p.frequency_hz, 6) for p in peaks] == [1.5, 3.0]

    def test_may_return_fewer_than_k(self):
        spec = power_spectrum(tone(1.0), FS)
        assert len(top_peaks(spec, 0.7, 2.0, 5)) >= 1

    def test_validation(self):
        spec = power_spectrum(tone(1.0), FS)
        with pytest.raises(ValueError, match="k must"):
            top_peaks(spec, 0.7, 2.0, 0)
        with pytest.raises(ValueError, match="lo < hi"):
            top_peaks(spec, 2.0, 0.7, 1)

    def test_empty_band_outside_grid(self):
        spec = power_spectrum(tone(1.0), FS)
        assert top_peaks(spec, 60.0, 70.0, 1) == []

    def test_grid_without_interior_bins_has_no_peaks(self):
        for n in (1, 2):
            spec = synthetic_spectrum(np.arange(1.0, n + 1.0))
            assert top_peaks(spec, 0.0, 5.0, 1) == []


class TestBandPeakPower:
    def test_reads_peak_through_leakage(self):
        spec = power_spectrum(tone(1.0), FS)
        direct = top_peaks(spec, 0.7, 2.0, 1)[0].power
        probed = band_peak_power(spec, 1.0, 0.05)
        assert probed == pytest.approx(direct, rel=0.05)

    def test_rejects_empty_window(self):
        spec = power_spectrum(tone(1.0), FS)
        # probe midway between grid bins so no bin is nearer than spacing/2
        midway = float(spec.frequencies[100]) + spec.spacing_hz / 2.0
        with pytest.raises(ValueError, match="no bins"):
            band_peak_power(spec, midway, spec.spacing_hz / 4.0)


class TestParseval:
    def test_power_sums_to_tapered_energy(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=400)
        spec = power_spectrum(x, FS, zero_pad_factor=4)
        from scipy.signal import get_window
        w = get_window("hann", 400, fftbins=True)
        xw = (x - np.mean(x)) * w
        assert np.sum(spec.power) == pytest.approx(np.sum(xw ** 2), rel=1e-9)


def band_spectrum(freqs, power, like):
    return Spectrum(freqs, power, like.sample_rate, like.window_seconds,
                    like.zero_pad_factor, like.taper)


class TestBandPower:
    @pytest.mark.parametrize("pad", [1, 8])
    @pytest.mark.parametrize("taper", ["hann", "boxcar"])
    def test_rows_equal_the_padded_spectrum_over_the_band(self, pad, taper):
        # odd window length; the rows differ in content and offset
        rng = np.random.default_rng(4)
        n = 1999
        windows = np.stack([tone(1.1, amp=40.0)[:n] + rng.normal(size=n) + 3.0,
                            tone(0.45, amp=7.0)[:n] + tone(2.9)[:n],
                            rng.normal(size=n)])
        freqs, power = band_power(windows, FS, 4.2, pad, taper)
        full = [power_spectrum(w, FS, pad, taper) for w in windows]
        k = int(np.searchsorted(full[0].frequencies, 4.2, side="right")) + 1
        assert freqs.tolist() == full[0].frequencies[:k].tolist()
        for row, spec in zip(power, full):
            expected = spec.power[:k]
            assert np.max(np.abs(row - expected)) \
                <= 1e-12 * np.max(expected)

    def test_band_stops_one_bin_past_the_top(self):
        freqs, power = band_power(tone(1.0)[None, :], FS, 2.0)
        spacing = FS / (2000 * 8)
        assert freqs[-2] <= 2.0 < freqs[-1]
        assert freqs[-1] == pytest.approx(2.0 + spacing)
        assert power.shape == (1, freqs.size)

    def test_peak_one_bin_inside_the_band_edge(self):
        # a tone on the band's top bin: its upper neighbor is the extra bin
        full = power_spectrum(tone(1.0), FS)
        top_hz = float(full.frequencies[320])
        x = tone(top_hz)
        full = power_spectrum(x, FS)
        freqs, power = band_power(x[None, :], FS, top_hz)
        assert freqs.size == 322
        band = band_spectrum(freqs, power[0], full)
        lo_hz = top_hz - 0.05         # inside the tone's main lobe
        want = top_peaks(full, lo_hz, top_hz, 1)
        got = top_peaks(band, lo_hz, top_hz, 1)
        assert len(got) == len(want) == 1
        assert got[0].frequency_hz == pytest.approx(top_hz, abs=1e-6)
        assert got[0].frequency_hz == pytest.approx(want[0].frequency_hz,
                                                    rel=1e-12)
        assert got[0].power == pytest.approx(want[0].power, rel=1e-9)
        # without the extra bin the top bin has no upper neighbor: no peak
        cut = band_spectrum(freqs[:-1], power[0, :-1], full)
        assert top_peaks(cut, lo_hz, top_hz, 1) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            band_power(tone(1.0), FS, 4.0)
        with pytest.raises(ValueError, match="too short"):
            band_power(np.ones((2, 10)), FS, 4.0)
        with pytest.raises(ValueError, match="zero_pad_factor"):
            band_power(np.ones((2, 100)), FS, 4.0, zero_pad_factor=0)


class TestStackPeaks:
    @pytest.mark.parametrize("lo_hz", [0.0, 1.0, 2.5, 4.9, 5.0])
    def test_rows_equal_top_peaks(self, lo_hz):
        rng = np.random.default_rng(5)
        power = rng.uniform(0.0, 1.0, (6, 201))
        freqs = np.linspace(0.0, 5.0, 201)
        f, p = band_peaks(freqs, power, lo_hz, 4.0, 3)
        for i in range(6):
            want = [] if not lo_hz < 4.0 else top_peaks(
                synthetic_spectrum(power[i]), lo_hz, 4.0, 3)
            got = [(fi, pi) for fi, pi in zip(f[i], p[i]) if not np.isnan(fi)]
            assert got == [(w.frequency_hz, w.power) for w in want]

    def test_row_medians_equal_np_median(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(40, 9))
        mask = rng.uniform(size=(40, 9)) < 0.5
        mask[0] = False
        mask[1] = True
        got = row_medians(values, mask)
        assert np.isnan(got[0])
        for i in range(1, 40):
            if mask[i].any():
                assert got[i] == np.median(values[i][mask[i]])
