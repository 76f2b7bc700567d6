"""Windowed power spectra and interpolated peak picking."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.signal import get_window

import pulsecancel.spectral as spectral_mod
from pulsecancel.spectral import (Spectrum, _chirp_z, _fast_len, _hann,
                                  _one_sided, band_peak_power, band_peaks,
                                  band_power, local_peaks, power_spectrum,
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
                    zero_pad_factor=1)


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

    def test_cached_taper_is_read_only_and_stable(self):
        w = _hann(2000, True)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        np.testing.assert_array_equal(_hann(2000, True), w)

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            power_spectrum(np.ones((20, 2)), FS)
        with pytest.raises(ValueError, match="too short"):
            power_spectrum(np.ones(8), FS)
        with pytest.raises(ValueError, match="zero_pad_factor"):
            power_spectrum(np.ones(100), FS, zero_pad_factor=0)
        with pytest.raises(ValueError, match="sample_rate"):
            power_spectrum(np.ones(100), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_an_error(self, bad):
        # it came back as NaN power; band_power rejects the same window
        x = tone(1.0)
        x[321] = bad
        with pytest.raises(ValueError, match="non-finite"):
            power_spectrum(x, FS)
        with pytest.raises(ValueError, match="non-finite"):
            band_power(x[None, :], FS, 4.0)

    @pytest.mark.parametrize("pad", [2.5, 2.0, "8"])
    def test_a_zero_pad_factor_that_is_not_an_integer_is_an_error(self, pad):
        # numpy's "n should be an integer" leaked out of the transform
        message = f"zero_pad_factor must be an integer, got {pad!r}"
        with pytest.raises(ValueError, match=message):
            power_spectrum(tone(1.0), FS, zero_pad_factor=pad)
        with pytest.raises(ValueError, match=message):
            band_power(tone(1.0)[None, :], FS, 4.0, zero_pad_factor=pad)

    def test_an_integer_zero_pad_factor_of_numpy_type_is_accepted(self):
        want = power_spectrum(tone(1.0), FS, zero_pad_factor=4)
        assert power_spectrum(tone(1.0), FS, np.int64(4)) == want

    def test_frequencies_are_one_read_only_grid(self):
        spec = power_spectrum(tone(1.0), FS)
        assert power_spectrum(tone(1.3), FS).frequencies is spec.frequencies
        with pytest.raises(ValueError, match="read-only"):
            spec.frequencies[0] = 1.0
        np.testing.assert_array_equal(spec.frequencies,
                                      np.fft.rfftfreq(16000, 1.0 / FS))

    def test_equals_the_hypot_route(self):
        # the taper applied in place to the mean-removed copy and |X|^2 as
        # re^2 + im^2: within rounding of (x - mean) * w through np.abs
        # (hypot)
        x = np.random.default_rng(14).normal(size=2000) + 2900.0
        for pad in (1, 8):
            xw = (x - np.mean(x)) * get_window("hann", 2000, fftbins=True)
            want = np.abs(np.fft.rfft(xw, 2000 * pad)) ** 2 / (2000 * pad)
            want[1:] *= 2.0
            want[-1] /= 2.0
            got = power_spectrum(x, FS, pad).power
            assert np.max(np.abs(got - want)) <= 1e-15 * want.max()

    @pytest.mark.parametrize("pad", [1, 8])
    @pytest.mark.parametrize("n", [17, 1500, 2000, 2001])
    def test_equals_the_plain_route_bit_for_bit(self, n, pad):
        # im^2 squared into the transform in place: each bin still gets the
        # same two squares and one add
        x = np.random.default_rng(n).normal(size=n) + 2900.0
        xw = (x - np.mean(x)) * get_window("hann", n, fftbins=True)
        spectrum = np.fft.rfft(xw, n * pad)
        want = spectrum.real ** 2 + spectrum.imag ** 2
        want /= n * pad
        want[1:] *= 2.0
        if n * pad % 2 == 0:
            want[-1] /= 2.0
        got = power_spectrum(x, FS, pad).power
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [17, 2000, 2001])
    @pytest.mark.parametrize("level", [0.0, 7.0, -1e5, 2900.123, 3.7, 0.1])
    def test_a_window_that_is_its_mean_gives_exact_zeros(self, level, n):
        # 3.7 and 0.1 over 2000 samples have a sum / n that rounds off the
        # level; a constant window's first sample is removed, so they too
        # give exact zeros, in band_power without a trace in the partner
        x = np.full(n, level)
        power = power_spectrum(x, FS).power
        assert power.size == n * 4 + 1 and not power.any()
        loud = band_windows(1, n)[0] * 1e3
        _, pair = band_power(np.stack([x, loud]), FS, 4.2)
        _, alone = band_power(np.stack([np.zeros(n), loud]), FS, 4.2)
        assert not pair[0].any()
        assert pair[1].tobytes() == alone[1].tobytes()

    def test_peak_memory_is_the_transform_and_the_power(self):
        # 2,000 samples at pad 8: the 8001-bin complex transform (128 kB)
        # and the power (64 kB).  A third temporary for im^2 and the
        # windowed copy held beside them made it 272,576 B
        x = tone(1.0)
        power_spectrum(x, FS)                      # the grid is cached
        tracemalloc.start()
        try:
            power_spectrum(x, FS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8001 * (16 + 8) + 4096

    def test_a_cold_grid_is_built_before_the_transform_is_held(self):
        # rfftfreq's build peaks at three grids' worth (192 kB); built
        # beside the transform and the power it set the peak at 384 kB
        x = tone(1.0)
        power_spectrum(x, FS)                      # numpy's plan is cached
        spectral_mod._grid.cache_clear()
        tracemalloc.start()
        try:
            power_spectrum(x, FS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8001 * (16 + 8 + 8) + 4096

    @pytest.mark.parametrize("rate", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_a_rate_that_is_not_finite_and_positive_is_an_error(self, rate):
        # unchecked, a NaN rate gave a spectrum whose every frequency is NaN
        message = f"sample_rate must be finite and positive, got {rate}"
        with pytest.raises(ValueError, match=message):
            power_spectrum(np.ones(100), rate)
        with pytest.raises(ValueError, match=message):
            band_power(np.ones((2, 100)), rate, 4.0)


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

    def test_nan_band_edge_is_rejected(self):
        # a NaN edge made every comparison False: no peaks, no error
        spec = power_spectrum(tone(1.0), FS)
        for lo, hi in ((np.nan, 2.0), (0.7, np.nan)):
            with pytest.raises(ValueError, match=f"lo < hi, got {lo}:{hi}"):
                top_peaks(spec, lo, hi, 2)

    def test_empty_band_outside_grid(self):
        spec = power_spectrum(tone(1.0), FS)
        assert top_peaks(spec, 60.0, 70.0, 1) == []

    def test_grid_without_interior_bins_has_no_peaks(self):
        for n in (1, 2):
            spec = synthetic_spectrum(np.arange(1.0, n + 1.0))
            assert top_peaks(spec, 0.0, 5.0, 1) == []


class TestEquality:
    def test_spectra_compare_by_value(self):
        # field by field, the arrays element by element; the generated
        # __eq__ raised on the arrays' ambiguous truth value
        spec = power_spectrum(tone(1.0), FS)
        assert (spec == power_spectrum(tone(1.0), FS)) is True
        assert (spec != power_spectrum(tone(1.0), FS)) is False
        assert (spec == power_spectrum(tone(1.1), FS)) is False
        assert (spec == power_spectrum(tone(1.0), FS, 4)) is False
        assert spec != "a spectrum"


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


class TestHann:
    # np.hanning and the textbook 0.5 - 0.5 cos(...) differ from SciPy's
    # window at rounding, which would move every spectrum and trace
    @pytest.mark.parametrize("periodic, sizes", [
        (False, range(4, 257)),                       # range FFT, n_fast
        (True, [*range(16, 401), 1500, 2000, 3000]),  # 15/20/30 s CPIs
    ], ids=["symmetric", "periodic"])
    def test_equals_scipy_bit_for_bit(self, periodic, sizes):
        for n in sizes:
            expected = get_window("hann", n, fftbins=periodic)
            assert _hann(n, periodic).tobytes() == expected.tobytes(), n


def test_fast_len_is_scipy_next_fast_len():
    assert [_fast_len(n) for n in range(1, 2 ** 15 + 1)] \
        == [scipy.fft.next_fast_len(n) for n in range(1, 2 ** 15 + 1)]


class TestParseval:
    def test_power_sums_to_tapered_energy(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=400)
        spec = power_spectrum(x, FS, zero_pad_factor=4)
        w = get_window("hann", 400, fftbins=True)
        xw = (x - np.mean(x)) * w
        assert np.sum(spec.power) == pytest.approx(np.sum(xw ** 2), rel=1e-9)


def band_spectrum(freqs, power, like):
    return Spectrum(freqs, power, like.sample_rate, like.window_seconds,
                    like.zero_pad_factor)


def band_windows(rows, n, seed=4):
    """rows windows of n samples that differ in content, level and offset."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    f = rng.uniform(0.3, 4.0, (rows, 1))
    amp = 10.0 ** rng.uniform(-1.0, 2.0, (rows, 1))
    return (amp * np.sin(2 * np.pi * f * t + rng.uniform(0, 6, (rows, 1)))
            + rng.normal(size=(rows, n)) + rng.normal(0.0, 5.0, (rows, 1)))


def assert_rows_match(windows, pad, top_hz, tol=1e-12):
    """band_power's rows equal power_spectrum's over the band, each within
    tol of the larger peak power of its pair (rows 2i and 2i+1)."""
    freqs, power = band_power(windows, FS, top_hz, pad)
    full = [power_spectrum(w, FS, pad) for w in windows]
    k = int(np.searchsorted(full[0].frequencies, top_hz, side="right")) + 1
    k = min(k, full[0].frequencies.size)
    assert freqs.tolist() == full[0].frequencies[:k].tolist()
    assert power.shape == (len(windows), k)
    expected = np.stack([spec.power[:k] for spec in full])
    loudest = expected.max(axis=1)
    partner = np.minimum(np.arange(len(windows)) ^ 1, len(windows) - 1)
    pair_max = np.maximum(loudest, loudest[partner])
    error = np.max(np.abs(power - expected), axis=1)
    assert np.all(error <= tol * pair_max), error / pair_max
    return power


class TestBandPower:
    @pytest.mark.parametrize("pad", [1, 8])
    def test_rows_equal_the_padded_spectrum_over_the_band(self, pad):
        # 1999 is odd; 1500, 2000 and 3000 are the 15/20/30 s CPIs; a top
        # at Nyquist takes every bin, so bins -(m-1)..(m-1) wrap round the
        # DFT; 1, 3 and 17 rows leave an odd row alone
        for n, top_hz in [(1999, 4.2), (1500, 4.2), (2000, 4.2),
                          (3000, 4.2), (2000, FS / 2), (1999, FS / 2)]:
            for rows in (1, 3, 17):
                assert_rows_match(band_windows(rows, n), pad, top_hz)

    def test_a_zero_row_stays_exactly_zero_beside_a_loud_one(self):
        # pairs (loud, zeros), (constant, loud), then a lone zero row
        loud = band_windows(2, 2000, seed=9) * 1e3
        windows = np.stack([loud[0], np.zeros(2000), np.full(2000, 3.0),
                            loud[1], np.zeros(2000)])
        power = assert_rows_match(windows, 8, 4.2)
        for row in (1, 2, 4):
            assert not np.any(power[row]), row

    def test_a_row_that_starts_at_its_mean_is_not_taken_for_flat(self):
        # only rows whose last sample is their first are tested for flat;
        # this one (0, then 999 ones, 999 minus ones and a 0) is such a row
        # and keeps its power
        steps = np.concatenate([[0.0], np.ones(999), -np.ones(999), [0.0]])
        windows = np.stack([band_windows(1, 2000)[0], steps,
                            np.full(2000, -2.5)])
        power = assert_rows_match(windows, 8, 4.2)
        assert np.all(power[1] > 0)
        assert not np.any(power[2])

    def test_a_quiet_row_beside_a_loud_one_keeps_the_pair_bound(self):
        # 1e3 in amplitude, 1e6 in power: the quiet row's error is bounded
        # by its partner's peak, not its own
        windows = band_windows(4, 2000, seed=12)
        windows /= np.std(windows, axis=1, keepdims=True)
        windows[0::2] *= 1e3
        assert_rows_match(windows, 8, 4.2)
        assert_rows_match(windows[::-1], 8, 4.2)

    @pytest.mark.parametrize("rows", [1, 2, 3, 16, 17])
    def test_two_rows_per_transform(self, monkeypatch, rows):
        windows = band_windows(rows, 2000)
        band_power(windows, FS, 4.2)              # the kernel is cached
        seen = []
        for name in ("fft", "ifft"):
            def counting(x, *args, _f=getattr(np.fft, name), **kwargs):
                seen.append(x.shape)
                return _f(x, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counting)
        band_power(windows, FS, 4.2)
        # each group of pairs is transformed forward, then back
        ffts, iffts = seen[0::2], seen[1::2]
        assert ffts == iffts
        assert sum(shape[0] for shape in ffts) == (rows + 1) // 2
        # in a complex buffer no larger than the stack, or one pair's:
        # 4 of the 8 pairs of 16 windows of 2000 (4 x 3360 x 16 B)
        assert all(count == 1 or 16 * count * size <= windows.nbytes
                   for count, size in ffts)
        if rows == 16:
            assert ffts == [(4, 3360)] * 2

    @pytest.mark.parametrize("cpi_s", [15.0, 20.0, 30.0])
    def test_equals_the_scipy_fft_chirp_z_bit_for_bit(self, monkeypatch,
                                                      cpi_s):
        # the reference runs the same chirp-z with scipy.fft's transforms
        # and padded length; numpy's complex128 transforms give its bits
        def scipy_route(name):
            def transform(x, n=None, axis=-1, out=None):
                y = getattr(scipy.fft, name)(x, n, axis=axis)
                if out is None:
                    return y
                out[...] = y
                return out
            return transform

        windows = band_windows(17, int(cpi_s * FS))
        _, power = band_power(windows, FS, 4.2)
        monkeypatch.setattr(np.fft, "fft", scipy_route("fft"))
        monkeypatch.setattr(np.fft, "ifft", scipy_route("ifft"))
        monkeypatch.setattr(spectral_mod, "_fast_len",
                            scipy.fft.next_fast_len)
        _chirp_z.cache_clear()
        try:
            _, expected = band_power(windows, FS, 4.2)
        finally:
            _chirp_z.cache_clear()      # it holds the scipy-built kernel
        assert power.tobytes() == expected.tobytes()

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

    def test_one_transform_per_geometry(self):
        _chirp_z.cache_clear()
        freqs, _ = band_power(tone(1.0)[None, :], FS, 2.0)
        again, _ = band_power(tone(1.3)[None, :], FS, 2.0)
        assert _chirp_z.cache_info().misses == 1
        assert again is freqs
        with pytest.raises(ValueError, match="read-only"):
            freqs[0] = 1.0

    def test_peak_memory_is_the_buffer_plus_the_band(self):
        # a 20 s block of 16 windows, 674 bins: one group's 4 x 3360
        # complex transform buffer (215 kB), its two 4 x 674 complex band
        # slices and two float power temporaries (129 kB), and the 16 x 674
        # output (86 kB): 434 kB.  With the 8 pairs in one buffer and
        # numpy's copies on 2-D in-place ops it peaked at 816 kB
        windows = band_windows(16, 2000)
        band_power(windows, FS, 4.2)              # the kernel is cached
        tracemalloc.start()
        try:
            band_power(windows, FS, 4.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.6e5

    def test_normalizing_a_stack_doubles_each_row_in_place(self):
        # numpy buffered 130 kB to double a 16 x 674 stack's interior bins
        # as one 2-D view; a row at a time it buffers nothing
        power = np.random.default_rng(0).random((16, 674))
        want = power / 16000
        want[:, 1:] *= 2.0
        tracemalloc.start()
        try:
            got = _one_sided(power, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is power
        np.testing.assert_array_equal(got, want)
        assert peak < 2e3

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            band_power(tone(1.0), FS, 4.0)
        with pytest.raises(ValueError, match="too short"):
            band_power(np.ones((2, 10)), FS, 4.0)
        with pytest.raises(ValueError, match="zero_pad_factor"):
            band_power(np.ones((2, 100)), FS, 4.0, zero_pad_factor=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_an_error(self, bad):
        # packed with its partner, it would spread into the partner's row
        windows = band_windows(3, 400)
        windows[1, 57] = bad
        with pytest.raises(ValueError, match="non-finite"):
            band_power(windows, FS, 4.0)

    @pytest.mark.parametrize("top_hz", [np.nan, 0.0, -1.0])
    def test_a_top_that_is_not_positive_is_an_error(self, top_hz):
        # unchecked, a NaN top selects every bin and a negative one a
        # single bin
        with pytest.raises(ValueError, match="top_hz"):
            band_power(band_windows(2, 400), FS, top_hz)


def peaks_by_sort(freqs, row, lo_hz, hi_hz, k):
    """A row's k strongest peaks one at a time: every strict local maximum
    of an interior bin with lo <= f <= hi, interpolated alone, sorted by
    (power descending, column)."""
    found = []
    for c in range(1, freqs.size - 1):
        if lo_hz <= freqs[c] <= hi_hz and row[c - 1] < row[c] > row[c + 1]:
            _, _, f, p = local_peaks(freqs, row[None, :], c, c + 1)
            found.append((-p[0], c, f[0]))
    return [(f, -neg_p) for neg_p, _, f in sorted(found)[:k]]


def stack_peak_cases():
    """Noise rows, a quantized row full of ties, a zero row, a ramp with
    no peak in any band, and a row with two equal peaks, fewer than k."""
    rng = np.random.default_rng(5)
    power = rng.uniform(0.0, 1.0, (8, 201))
    power[1] = np.round(power[1] * 3.0)
    power[2] = 0.0
    power[3] = np.linspace(0.0, 1.0, 201)
    power[4] = 0.1
    power[4, [60, 140]] = 1.0
    return np.linspace(0.0, 5.0, 201), power


class TestStackPeaks:
    @pytest.mark.parametrize("lo_hz", [0.0, 1.0, 2.5, 4.9, 5.0])
    def test_rows_equal_top_peaks(self, lo_hz):
        # band_peaks and top_peaks against each row's sorted peaks
        freqs, power = stack_peak_cases()
        for k in (1, 3):
            f, p = band_peaks(freqs, power, lo_hz, 4.0, k)
            assert f.shape == p.shape == (len(power), k)
            for i, row in enumerate(power):
                want = peaks_by_sort(freqs, row, lo_hz, 4.0, k)
                got = [(fi, pi) for fi, pi in zip(f[i], p[i])
                       if not np.isnan(fi)]
                assert got == want, (k, i)
                assert np.isnan(f[i, len(want):]).all()
                assert np.isnan(p[i, len(want):]).all()
                if lo_hz < 4.0:
                    peaks = top_peaks(synthetic_spectrum(row), lo_hz, 4.0, k)
                    assert [(w.frequency_hz, w.power) for w in peaks] == want
        # the cases reach ties, empty rows and a row short of k
        if lo_hz == 1.0:
            assert np.isnan(f[2]).all() and np.isnan(f[3]).all()
            assert np.isnan(f[4, 2]) and p[4, 0] == p[4, 1]

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
