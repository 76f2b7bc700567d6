"""Breathing-fundamental grid search and harmonic least squares."""

import dataclasses

import numpy as np
import pytest

from pulsecancel import anls as anls_mod
from pulsecancel.anls import (BREATHING_GRID_HZ, _design_factorization,
                              _orthonormal_bases, estimate_breathing,
                              breathing_track, fit_amplitudes,
                              grid_frequencies, harmonic_matrix,
                              reconstruct_reference)
from pulsecancel.preprocess import slow_time_phase
from pulsecancel.scenario import FAMILIES, scenario_slow_time
from pulsecancel.types import PhaseSignal

FS = 100.0
GRID = grid_frequencies(*BREATHING_GRID_HZ)


def harmonic_signal(f_hz, n, amplitudes, phases, offset=0.0, fs=FS):
    t = np.arange(n) / fs
    x = np.full(n, offset, dtype=float)
    for k, (a, ph) in enumerate(zip(amplitudes, phases), start=1):
        x += a * np.sin(2 * np.pi * k * f_hz * t + ph)
    return x


class TestHarmonicMatrix:
    def test_columns_are_sin_cos_pairs(self):
        h = harmonic_matrix(0.3, 2, 50, FS)
        t = np.arange(50) / FS
        assert h.shape == (50, 4)
        np.testing.assert_allclose(h[:, 0], np.sin(2 * np.pi * 0.3 * t))
        np.testing.assert_allclose(h[:, 1], np.cos(2 * np.pi * 0.3 * t))
        np.testing.assert_allclose(h[:, 2], np.sin(2 * np.pi * 0.6 * t))
        np.testing.assert_allclose(h[:, 3], np.cos(2 * np.pi * 0.6 * t))

    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            harmonic_matrix(0.3, 0, 50, FS)
        with pytest.raises(ValueError, match="at least one sample"):
            harmonic_matrix(0.3, 1, 0, FS)
        with pytest.raises(ValueError, match=">= 0"):
            harmonic_matrix(-0.3, 1, 50, FS)
        with pytest.raises(ValueError, match="Nyquist"):
            harmonic_matrix(20.0, 3, 50, FS)


class TestFitAmplitudes:
    def test_exact_recovery_with_offset(self):
        t = np.arange(500) / FS
        x = 0.7 + 2.0 * np.sin(2 * np.pi * 0.3 * t) \
            + 0.5 * np.cos(2 * np.pi * 0.3 * t)
        model = fit_amplitudes(x, FS, 0.3, order=1)
        np.testing.assert_allclose(model.coefficients, [[2.0, 0.5]],
                                   atol=1e-12)
        assert model.offset == pytest.approx(0.7, abs=1e-12)
        assert model.residual_power < 1e-18
        assert model.amplitudes()[0] == pytest.approx(np.hypot(2.0, 0.5))
        assert model.phases()[0] == pytest.approx(np.arctan2(0.5, 2.0))

    def test_partial_cycle_offset_is_not_leaked_into_harmonics(self):
        # 0.12 Hz over 5 s is well under one cycle; the sin/cos columns are
        # far from mean-free there, which is exactly when a joint intercept
        # matters
        x = harmonic_signal(0.12, 500, [1.0, 0.3, 0.1], [0.2, 0.5, 0.9],
                            offset=3.0)
        model = fit_amplitudes(x, FS, 0.12, order=3)
        assert model.offset == pytest.approx(3.0, abs=1e-9)
        assert model.residual_power < 1e-18

    def test_predict_reproduces_fit(self):
        x = harmonic_signal(0.26, 500, [1.0, 0.4], [0.1, 0.7], offset=1.5)
        model = fit_amplitudes(x, FS, 0.26, order=2)
        np.testing.assert_allclose(model.predict(500, FS, include_offset=True),
                                   x, atol=1e-9)
        np.testing.assert_allclose(model.predict(500, FS), x - 1.5,
                                   atol=1e-9)

    def test_rank_deficient_design_is_rejected(self):
        x = np.ones(500)
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_amplitudes(x, FS, 0.0, order=3)

    def test_too_short_segment(self):
        with pytest.raises(ValueError, match="too short"):
            fit_amplitudes(np.ones(5), FS, 0.3, order=3)


class TestGrid:
    def test_default_grid_geometry(self):
        assert GRID.size == 241
        assert GRID[0] == 0.1
        assert GRID[-1] == pytest.approx(0.5, abs=1e-12)
        steps = np.diff(GRID)
        np.testing.assert_allclose(steps, 1.0 / 600.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_frequencies(0.0, 0.5, 0.01)
        with pytest.raises(ValueError):
            grid_frequencies(0.5, 0.1, 0.01)
        with pytest.raises(ValueError):
            grid_frequencies(0.1, 0.5, 0.0)


class TestEstimateBreathing:
    def test_on_grid_exact(self):
        f_true = float(GRID[96])
        x = harmonic_signal(f_true, 500, [1.5e-3, 6e-4, 2.5e-4],
                            [0.0, 0.4, 0.9], offset=0.2)
        model = estimate_breathing(x, FS)
        assert model.fundamental_hz == f_true

    def test_on_grid_exact_over_seeds(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            idx = rng.integers(6, GRID.size - 6)
            f_true = float(GRID[idx])
            amps = [1.0, rng.uniform(0.2, 0.5), rng.uniform(0.05, 0.3)]
            phases = rng.uniform(0, 2 * np.pi, 3)
            x = harmonic_signal(f_true, 500, amps, phases,
                                offset=rng.normal())
            model = estimate_breathing(x, FS)
            assert model.fundamental_hz == f_true

    def test_pure_tone_degeneracy_resolved_by_harmonics(self):
        # a lone sinusoid at f is fitted to machine-zero residual by the
        # candidates f, f/2, and f/3 alike (each has a harmonic column at
        # f), so only membership in that degenerate set is pinned down;
        # real harmonic content removes the ambiguity
        f_true = float(GRID[120])
        tone = harmonic_signal(f_true, 500, [1.0], [0.3])
        model = estimate_breathing(tone, FS)
        degenerate = (f_true, f_true / 2.0, f_true / 3.0)
        assert min(abs(model.fundamental_hz - f) for f in degenerate) < 1e-9
        assert model.residual_power < 1e-20

        with_harmonic = harmonic_signal(f_true, 500, [1.0, 0.3], [0.3, 0.8])
        model = estimate_breathing(with_harmonic, FS)
        assert model.fundamental_hz == f_true

    def test_off_grid_within_one_step(self):
        step = BREATHING_GRID_HZ[2]
        f_true = 0.26 + 0.4 * step
        x = harmonic_signal(f_true, 500, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9])
        model = estimate_breathing(x, FS)
        assert abs(model.fundamental_hz - f_true) <= step

    def test_input_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            estimate_breathing(np.ones((10, 2)), FS)
        with pytest.raises(ValueError, match="too short"):
            estimate_breathing(np.ones(4), FS)


class TestTrackAndReference:
    def test_track_covers_record_with_sliding_subwindows(self):
        f_true = float(GRID[96])
        x = harmonic_signal(f_true, 1000, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9])
        track = breathing_track(PhaseSignal(x, FS))
        assert len(track) == 6
        np.testing.assert_allclose(track.starts_s, np.arange(6.0))
        assert track.hz == (f_true,) * 6
        assert (track.order, track.window_s, track.step_s,
                track.sample_rate) == (3, 5.0, 1.0, FS)

    def test_track_makes_no_amplitude_fits(self, monkeypatch):
        calls = []
        original = anls_mod.fit_amplitudes

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(anls_mod, "fit_amplitudes", counting)
        x = harmonic_signal(float(GRID[96]), 2000, [1.0, 0.3], [0.0, 0.4])
        assert len(breathing_track(PhaseSignal(x, FS))) == 16
        assert calls == []

    def test_fundamentals_match_per_subwindow_estimates(self):
        sc = FAMILIES["masking-b"](0, duration_s=60.0)
        phase = slow_time_phase(scenario_slow_time(sc),
                                sc.radar.frame_rate_hz)
        fs = phase.sample_rate
        track = breathing_track(phase)
        assert len(track) == 56
        for start_s, hz in zip(track.starts_s, track.hz):
            i0 = int(round(start_s * fs))
            model = estimate_breathing(phase.samples[i0:i0 + 500], fs,
                                       window_start_s=start_s)
            assert model.fundamental_hz == hz

    def test_fields_are_frozen(self):
        x = harmonic_signal(float(GRID[96]), 1000, [1.0], [0.0])
        track = breathing_track(PhaseSignal(x, FS))
        with pytest.raises(dataclasses.FrozenInstanceError):
            track.hz = (0.2,) * len(track)
        with pytest.raises(dataclasses.FrozenInstanceError):
            track.order = 2

    def test_track_validation(self):
        short = PhaseSignal(np.ones(100), FS)
        with pytest.raises(ValueError, match="shorter than one analysis"):
            breathing_track(short)
        with pytest.raises(ValueError, match="step"):
            breathing_track(PhaseSignal(np.ones(1000), FS), step_s=0.0)

    def test_reference_is_median_refit_prediction(self):
        f_true = float(GRID[96])
        x = harmonic_signal(f_true, 2000, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9],
                            offset=0.5)
        fit = reconstruct_reference(PhaseSignal(x, FS))
        assert fit.model.fundamental_hz == float(np.median(fit.subwindow_hz))
        np.testing.assert_allclose(fit.s_ref, fit.model.predict(2000, FS),
                                   atol=1e-12)
        assert fit.model.offset == pytest.approx(0.5, abs=1e-6)
        np.testing.assert_allclose(fit.s_ref + fit.model.offset, x,
                                   atol=1e-6)

    def test_refit_uses_the_subwindows_inside_the_segment(self):
        # breathing steps from one grid rate to another at 10 s
        f_a, f_b = float(GRID[60]), float(GRID[150])
        x = np.concatenate([
            harmonic_signal(f_a, 1000, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9]),
            harmonic_signal(f_b, 1000, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9])])
        track = breathing_track(PhaseSignal(x, FS))
        segment = x[1200:2000]
        model = track.refit(segment, start_s=12.0)
        starts_s = np.array(track.starts_s)
        inside = (starts_s >= 12.0) & (starts_s <= 15.0)
        assert model.fundamental_hz == float(np.median(
            np.array(track.hz)[inside]))
        assert model.fundamental_hz == f_b
        assert model.order == 3
        assert model.window_start_s == 12.0
        np.testing.assert_array_equal(
            track.residual(segment, 12.0),
            segment - model.predict(800, FS, include_offset=True))
        assert np.linalg.norm(track.residual(segment, 12.0)) \
            <= 1e-9 * np.linalg.norm(segment)

    def test_refit_needs_a_subwindow_inside_the_segment(self):
        x = harmonic_signal(float(GRID[96]), 1000, [1.0], [0.0])
        track = breathing_track(PhaseSignal(x, FS))
        with pytest.raises(ValueError, match="no breathing subwindow"):
            track.refit(x[:400])
        with pytest.raises(ValueError, match="no breathing subwindow"):
            track.refit(x[500:], start_s=5.5)


class TestResiduals:
    def record(self):
        # breathing steps from one grid rate to another at 20 s, with a
        # weak tone on top so the residuals are not all rounding
        f_a, f_b = float(GRID[60]), float(GRID[150])
        x = np.concatenate([
            harmonic_signal(f_a, 2000, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9]),
            harmonic_signal(f_b, 2000, [1.0, 0.3, 0.1], [0.0, 0.4, 0.9])])
        x += 0.01 * np.sin(2 * np.pi * 1.3 * np.arange(x.size) / FS)
        return x, breathing_track(PhaseSignal(x, FS))

    def test_equal_the_per_window_residuals(self):
        x, track = self.record()
        starts = np.arange(0, 2001, 100)
        windows = np.stack([x[i0:i0 + 2000] for i0 in starts])
        out, errors = track.residuals(windows, starts / FS)
        assert errors == [None] * starts.size
        for row, i0, window in zip(out, starts, windows):
            expected = track.residual(window, i0 / FS)
            assert np.max(np.abs(row - expected)) \
                <= 1e-12 * np.max(np.abs(expected))

    def test_a_window_without_a_subwindow_is_reported_and_left_alone(self):
        # 5 s windows at half-second starts: only the whole-second ones
        # hold a whole 5 s subwindow
        x, track = self.record()
        starts = np.array([100, 150, 200])
        windows = np.stack([x[i0:i0 + 500] for i0 in starts])
        out, errors = track.residuals(windows, starts / FS)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ValueError)
        assert "no breathing subwindow" in str(errors[1])
        np.testing.assert_array_equal(out[1], windows[1])
        expected = track.residual(windows[2], 2.0)
        assert np.max(np.abs(out[2] - expected)) \
            <= 1e-12 * np.max(np.abs(expected))

    def test_a_rank_deficient_refit_fails_its_whole_group(self):
        # every subwindow fitted at 0 Hz: the shared design has no rank
        x, track = self.record()
        track = dataclasses.replace(track, hz=(0.0,) * len(track))
        windows = np.stack([x[:1000], x[100:1100]])
        out, errors = track.residuals(windows, [0.0, 1.0])
        assert all(isinstance(e, ValueError) and "rank-deficient" in str(e)
                   for e in errors)
        np.testing.assert_array_equal(out, windows)


class TestEquality:
    def test_models_and_tracks_compare_by_value(self):
        x = harmonic_signal(float(GRID[96]), 1000, [1.0, 0.3], [0.0, 0.4])
        track = breathing_track(PhaseSignal(x, FS))
        again = breathing_track(PhaseSignal(x, FS))
        assert (track == again) is True
        assert hash(track) == hash(again)
        y = harmonic_signal(float(GRID[120]), 1000, [1.0, 0.3], [0.0, 0.4])
        other = breathing_track(PhaseSignal(y, FS))
        assert (track == other) is False
        assert (track == dataclasses.replace(track, order=2)) is False
        assert track != "a track"

        model = fit_amplitudes(x[:500], FS, float(GRID[96]))
        assert (model == fit_amplitudes(x[:500], FS, float(GRID[96]))) is True
        scaled = fit_amplitudes(1.5 * x[:500], FS, float(GRID[96]))
        assert (model != scaled) is True
        assert model != "a model"


class TestCaches:
    def test_cached_arrays_are_read_only(self):
        cached = [*_design_factorization(0.26, 3, 500, FS),
                  *_orthonormal_bases(500, FS, 3, BREATHING_GRID_HZ)]
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_repeated_calls_return_equal_values(self):
        first = _design_factorization(0.26, 3, 500, FS)
        again = _design_factorization(0.26, 3, 500, FS)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        freqs, bases = _orthonormal_bases(500, FS, 3, BREATHING_GRID_HZ)
        freqs2, bases2 = _orthonormal_bases(500, FS, 3, BREATHING_GRID_HZ)
        np.testing.assert_array_equal(freqs, freqs2)
        np.testing.assert_array_equal(bases, bases2)

    def test_design_starts_with_the_harmonic_matrix(self):
        design = _design_factorization(0.26, 3, 500, FS)[0]
        np.testing.assert_array_equal(design[:, :6],
                                      harmonic_matrix(0.26, 3, 500, FS))
        np.testing.assert_array_equal(design[:, 6], 1.0)

    def test_predict_at_an_unfitted_length(self):
        # rendering at new lengths is bit-identical to the harmonic matrix
        # and never computes or caches a QR, so it cannot evict the refit
        # factorizations
        x = harmonic_signal(0.31, 500, [1.0, 0.4, 0.2], [0.1, 0.7, 1.3], 0.5)
        model = fit_amplitudes(x, FS, 0.31, order=3)
        before = _design_factorization.cache_info()
        for n in range(737, 837):
            expected = harmonic_matrix(0.31, 3, n, FS) \
                @ model.coefficients.reshape(-1)
            np.testing.assert_array_equal(model.predict(n, FS), expected)
            np.testing.assert_array_equal(
                model.predict(n, FS, include_offset=True),
                expected + model.offset)
        assert _design_factorization.cache_info() == before
