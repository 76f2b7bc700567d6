"""Breathing-fundamental grid search and harmonic least squares."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from pulsecancel import anls as anls_mod
from pulsecancel.ahet import ahet_trace
from pulsecancel.anls import (_SCORE_ROWS, _SPAN_TOL, BREATHING_GRID_HZ,
                              BreathingTrack, _best_fundamentals,
                              _factored_bases, _refit_basis,
                              estimate_breathing, breathing_track,
                              fit_amplitudes, grid_frequencies,
                              harmonic_matrix, reconstruct_reference)
from pulsecancel.preprocess import slow_time_phase
from pulsecancel.scenario import (FAMILIES, scenario_slow_time,
                                  sliding_windows, window_samples,
                                  window_starts)
from pulsecancel.spectral import row_medians
from pulsecancel.types import PhaseSignal

from oracles import refit_design, refit_residual

FS = 100.0
EPS = np.finfo(float).eps
GRID = grid_frequencies(*BREATHING_GRID_HZ)
# order and grid of a non-default breathing search
ALT_GRID = (0.12, 0.45, 0.002)


def stacked_bases(n, fs, order, grid):
    """The grid's orthonormal bases Q(f) as one (F * 2 * order, n) stack:
    each frequency's centered harmonic design, QR-factored."""
    freqs = grid_frequencies(*grid)
    designs = np.stack([harmonic_matrix(f, order, n, fs) for f in freqs])
    designs = designs - designs.mean(axis=1, keepdims=True)
    q, _ = np.linalg.qr(designs)
    return freqs, np.ascontiguousarray(q.transpose(0, 2, 1).reshape(-1, n))


@functools.lru_cache(maxsize=4)
def pivoted_qr_factor(n, fs, order, grid):
    """_factored_bases as first built: the same chunks and half bases, but
    each half's span grows by the leading columns of a column-pivoted QR
    of the chunk's leftover, down to the first pivot within _SPAN_TOL."""
    freqs = grid_frequencies(*grid)
    coarse = np.unique(np.linspace(0, freqs.size - 1, 16).round()
                       .astype(int))
    rest = np.setdiff1d(np.arange(freqs.size), coarse)
    chunks = [coarse] + [rest[i:i + 16] for i in range(0, rest.size, 16)]
    weight = anls_mod._head_weights(n)
    halves = []
    for half, w in enumerate((weight, weight[:n // 2])):
        span = np.empty((w.size, 0))
        blocks = []
        for idx in chunks:
            rows = anls_mod._half_bases(freqs[idx], order, n, fs, half == 1)
            left = rows - (rows @ span) @ span.T
            left = left[np.einsum("mn,mn->m", left, left) > _SPAN_TOL ** 2]
            if len(left):
                left -= (left @ span) @ span.T
                q, r, _ = scipy.linalg.qr(left.T, mode="economic",
                                          pivoting=True)
                new = q[:, :np.count_nonzero(np.abs(np.diag(r)) > _SPAN_TOL)]
                new -= span @ (span.T @ new)
                span = np.hstack([span, np.linalg.qr(new)[0]])
            blocks.append(rows @ span)
        coords = np.zeros((freqs.size, order, span.shape[1]))
        for idx, block in zip(chunks, blocks):
            coords[idx, :, :block.shape[1]] = block.reshape(idx.size, order,
                                                            -1)
        halves += [span / w, coords.reshape(-1, span.shape[1])]
    return anls_mod._GridFactor(freqs, *halves)


def stacked_fundamentals(segments, fs, grid, order):
    """Reference grid scorer: residuals against the whole stack of bases,
    one product, ties to the lower frequency."""
    freqs, bases = stacked_bases(segments.shape[1], fs, order, grid)
    segs = segments - segments.mean(axis=1, keepdims=True)
    proj = (bases @ segs.T).reshape(freqs.size, -1, len(segs))
    resid = np.einsum("wn,wn->w", segs, segs) \
        - np.einsum("fkw,fkw->fw", proj, proj)
    return freqs[np.argmin(resid, axis=0)]


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

    def test_non_finite_fundamental_is_rejected(self):
        # NaN passed the >= 0 and Nyquist checks and built an all-NaN design
        for f in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError,
                               match=f"fundamental must be finite, got {f}"):
                harmonic_matrix(f, 3, 10, FS)


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

    def test_partial_cycle_offset_is_not_leaked_into_harmonics(self):
        # 0.12 Hz over 5 s is well under one cycle; the sin/cos columns are
        # far from mean-free there, which is exactly when a joint intercept
        # matters
        x = harmonic_signal(0.12, 500, [1.0, 0.3, 0.1], [0.2, 0.5, 0.9],
                            offset=3.0)
        model = fit_amplitudes(x, FS, 0.12, order=3)
        assert model.offset == pytest.approx(3.0, abs=1e-9)
        assert model.residual_power < 1e-18

    def test_coefficients_reproduce_the_fit(self):
        x = harmonic_signal(0.26, 500, [1.0, 0.4], [0.1, 0.7], offset=1.5)
        model = fit_amplitudes(x, FS, 0.26, order=2)
        harmonics = harmonic_matrix(0.26, 2, 500, FS) \
            @ model.coefficients.reshape(-1)
        np.testing.assert_allclose(harmonics + model.offset, x, atol=1e-9)
        np.testing.assert_allclose(harmonics, x - 1.5, atol=1e-9)

    def test_rank_deficient_design_is_rejected(self):
        x = np.ones(500)
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_amplitudes(x, FS, 0.0, order=3)

    @pytest.mark.parametrize("n", [0, 1, 5, 6])
    def test_too_short_segment(self, n):
        with pytest.raises(ValueError, match=f"segment of {n} samples too "
                                             f"short for 6 coefficients"):
            fit_amplitudes(np.ones(n), FS, 0.3, order=3)

    def test_non_finite_fundamental_or_rate_is_rejected(self):
        # a NaN fundamental failed in the SVD, an infinite rate read as a
        # rank-deficient design
        x = harmonic_signal(0.26, 500, [1.0], [0.1])
        with pytest.raises(ValueError, match="fundamental must be finite, "
                                             "got nan"):
            fit_amplitudes(x, FS, np.nan)
        for rate in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"sample rate must be "
                                                 f"finite, got {rate}"):
                fit_amplitudes(x, rate, 0.26)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_sample_is_rejected(self, bad):
        # a NaN came back as a model whose residual_power was NaN; the
        # breathing scorer rejects the same segment with the same message
        x = harmonic_signal(0.26, 500, [1.0], [0.1])
        x[123] = bad
        message = "breathing segment holds non-finite samples"
        with pytest.raises(ValueError, match=message):
            fit_amplitudes(x, FS, 0.26)
        with pytest.raises(ValueError, match=message):
            estimate_breathing(x, FS)


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
        for grid in ((0.1, 0.5, np.inf), (0.1, np.inf, 0.01),
                     (0.1, 0.5, np.nan)):
            with pytest.raises(ValueError, match="grid must be finite"):
                grid_frequencies(*grid)


class TestGridFactor:
    """The scorer reads Q(f)^T x from the factored grid; the stacked QR
    bases it replaces are the reference."""

    SETTINGS = [(500, 3, BREATHING_GRID_HZ), (500, 2, ALT_GRID),
                (500, 4, ALT_GRID), (800, 3, BREATHING_GRID_HZ),
                (2000, 3, BREATHING_GRID_HZ), (501, 3, BREATHING_GRID_HZ)]

    @staticmethod
    def panel_phase(family, seed):
        sc = FAMILIES[family](seed)
        return slow_time_phase(scenario_slow_time(sc),
                               sc.radar.frame_rate_hz)

    @pytest.mark.parametrize("window_s, step_s", [(5.0, 1.0), (8.0, 0.5)])
    def test_picks_equal_the_stacked_reference_on_the_panel(self, window_s,
                                                            step_s):
        for family in ("masking-b", "masking-c"):
            for seed in range(4):
                phase = self.panel_phase(family, seed)
                _, subwindows = sliding_windows(phase.samples, FS, window_s,
                                                step_s)
                track = breathing_track(phase, window_s, step_s)
                np.testing.assert_array_equal(
                    track.hz, stacked_fundamentals(subwindows, FS,
                                                   BREATHING_GRID_HZ, 3))

    @pytest.mark.parametrize("order", [2, 4])
    def test_picks_equal_the_reference_at_other_orders(self, order):
        phase = self.panel_phase("masking-b", 0)
        _, subwindows = sliding_windows(phase.samples, FS, 5.0, 1.0)
        np.testing.assert_array_equal(
            _best_fundamentals(subwindows, FS, ALT_GRID, order),
            stacked_fundamentals(subwindows, FS, ALT_GRID, order))

    @pytest.mark.parametrize("n, order, grid", SETTINGS[:3])
    def test_picks_equal_the_reference_on_white_noise(self, n, order, grid):
        # no harmonic structure: the residuals of neighbouring grid
        # frequencies sit closest together here
        noise = np.random.default_rng(7).normal(size=(400, n))
        np.testing.assert_array_equal(
            _best_fundamentals(noise, FS, grid, order),
            stacked_fundamentals(noise, FS, grid, order))

    def test_an_exact_tie_goes_to_the_lowest_frequency(self):
        # a flat segment leaves every candidate the same zero residual
        flat = np.full((3, 500), 0.25)
        for grid, order in ((BREATHING_GRID_HZ, 3), (ALT_GRID, 4)):
            picks = _best_fundamentals(flat, FS, grid, order)
            assert picks.tolist() == [grid[0]] * 3
            np.testing.assert_array_equal(
                picks, stacked_fundamentals(flat, FS, grid, order))

    @pytest.mark.parametrize("n, order, grid", SETTINGS)
    def test_factor_reproduces_every_basis(self, n, order, grid):
        factor = _factored_bases(n, FS, order, grid)
        ref_freqs, bases = stacked_bases(n, FS, order, grid)
        np.testing.assert_array_equal(factor.freqs, ref_freqs)
        # unfolded like a refit entry's halves, the two spans are together
        # orthonormal over the whole window
        full = unfold(factor, n)
        np.testing.assert_allclose(full.T @ full, np.eye(full.shape[1]),
                                   rtol=0, atol=1e-14)
        spans = np.hsplit(full, [factor.even.shape[1]])
        # the centred-axis QR picks other basis vectors for Q(f)'s span, so
        # compare projectors: the factored basis [even half, odd half] and
        # Q(f) each lie in the other's span, to _SPAN_TOL in every entry
        halves = [coords.reshape(ref_freqs.size, order, -1) @ span.T
                  for coords, span in zip((factor.even_coords,
                                           factor.odd_coords), spans)]
        worst = 0.0
        for q, e, o in zip(bases.reshape(ref_freqs.size, 2 * order, n),
                           *halves):
            b = np.vstack([e, o])
            for x, y in ((b, q), (q, b)):
                worst = max(worst, np.abs(x - (x @ y.T) @ y).max())
        assert worst <= _SPAN_TOL

    def test_spans_are_a_few_dozen_directions_at_the_defaults(self):
        # one span of the whole window held 40 directions
        factor = _factored_bases(500, FS, 3, BREATHING_GRID_HZ)
        assert factor.even.shape == (250, 20)
        assert factor.odd.shape == (250, 20)
        assert factor.even_coords.shape == (GRID.size * 3, 20)
        assert factor.odd_coords.shape == (GRID.size * 3, 20)

    @pytest.mark.parametrize("window_s", [3.0, 5.0, 10.0, 20.0])
    def test_tracks_equal_the_pivoted_qr_factor_on_the_panel(
            self, monkeypatch, window_s):
        phases = [self.panel_phase(family, seed)
                  for family in ("masking-b", "masking-c")
                  for seed in range(6)]
        tracks = [breathing_track(phase, window_s) for phase in phases]
        monkeypatch.setattr(anls_mod, "_factored_bases", pivoted_qr_factor)
        for phase, track in zip(phases, tracks):
            assert track == breathing_track(phase, window_s)

    @staticmethod
    def build_memory(n):
        """(bytes kept, peak bytes) of building the default grid's factor
        for n-sample subwindows from a cold cache."""
        _factored_bases.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _factored_bases(n, FS, 3, BREATHING_GRID_HZ)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return kept - before, peak - before

    def test_building_the_default_factor_is_small(self):
        # the 0.32 MB table plus one half-chunk's design, QR and leftover
        # (0.59 MB); one span of the whole window held 0.63 MB and peaked
        # at 1.7 MB, the stacked bases at 17.5 MB
        kept, peak = self.build_memory(500)
        assert peak < 0.65e6
        assert kept < 0.33e6

    def test_building_the_long_window_factor_holds_one_chunk(self):
        # n = 2000 (--anls-window 20): a 1.66 MB table (r = 60 + 60), a
        # 2.7 MB peak; one span of the whole window (r = 124) held 3.4 MB
        # and peaked at 7.3 MB
        kept, peak = self.build_memory(2000)
        assert peak < 3e6
        assert kept < 1.75e6


class TestNonFinitePhase:
    """A non-finite sample is an error, never a grid-floor breathing rate."""

    BAD = [np.nan, np.inf, -np.inf]

    @staticmethod
    def record():
        return harmonic_signal(float(GRID[96]), 2000, [1.0, 0.3],
                               [0.0, 0.4])

    @pytest.mark.parametrize("bad", BAD)
    def test_phase_signal_rejects_it(self, bad):
        x = self.record()
        x[1234] = bad
        with pytest.raises(ValueError, match="finite"):
            PhaseSignal(x, FS)

    @pytest.mark.parametrize("rate", BAD + [0.0, -1.0])
    def test_phase_signal_rejects_a_rate_that_is_not_finite_and_positive(
            self, rate):
        # a NaN rate failed later as a NaN-to-integer cast, an infinite
        # one as an OverflowError
        with pytest.raises(ValueError, match=f"sample_rate must be finite "
                                             f"and positive, got {rate}"):
            PhaseSignal(self.record(), rate)

    @pytest.mark.parametrize("bad", BAD)
    def test_estimate_breathing_rejects_it(self, bad):
        x = self.record()[:500]
        x[17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            estimate_breathing(x, FS)
        with pytest.raises(ValueError, match="non-finite"):
            estimate_breathing(np.full(500, bad), FS)

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_every_scoring_chunk_checks_its_rows(self, where):
        # 2R + 1 subwindows: three chunks, the last holding one subwindow
        # that no other chunk holds a sample of
        x = harmonic_signal(float(GRID[96]), 500 + 100 * 2 * _SCORE_ROWS,
                            [1.0, 0.3], [0.0, 0.4])
        phase = PhaseSignal(x, FS)
        phase.samples[0 if where == "first" else -1] = np.nan
        with pytest.raises(ValueError, match="^breathing segment holds "
                                             "non-finite samples$"):
            breathing_track(phase)

    @pytest.mark.parametrize("bad", BAD)
    def test_track_and_trace_reject_a_sample_set_after_construction(self,
                                                                    bad):
        phase = PhaseSignal(self.record(), FS)
        phase.samples[1234] = bad
        with pytest.raises(ValueError, match="non-finite"):
            breathing_track(phase)
        with pytest.raises(ValueError, match="non-finite"):
            ahet_trace(phase, cpi_s=10.0)


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
        assert track.starts.tolist() == [0, 100, 200, 300, 400, 500]
        assert track.hz.tolist() == [f_true] * 6
        assert (track.order, track.window_s, track.sample_rate) \
            == (3, 5.0, FS)

    @pytest.mark.parametrize("fs, window_s, step_s",
                             [(FS, 5.0, 1.0), (1000.0 / 3.0, 5.0, 1.0),
                              (1000.0 / 3.0, 5.0, 0.3), (FS, 3.7, 0.7)])
    def test_starts_are_the_window_layout_in_samples(self, fs, window_s,
                                                     step_s):
        n = int(20 * fs)
        x = harmonic_signal(float(GRID[96]), n, [1.0, 0.3], [0.0, 0.4],
                            fs=fs)
        track = breathing_track(PhaseSignal(x, fs), window_s, step_s)
        assert track.starts.tolist() == window_starts(n, fs, window_s,
                                                      step_s)
        assert track.starts.dtype == np.int64

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
        for i0, hz in zip(track.starts, track.hz):
            model = estimate_breathing(phase.samples[i0:i0 + 500], fs)
            assert model.fundamental_hz == hz

    def test_fundamentals_match_across_scoring_chunks(self):
        # records that end one subwindow short of, on, and one past a
        # chunk edge, one past the second edge, and the whole 280 s record
        sc = FAMILIES["masking-b"](0)
        phase = slow_time_phase(scenario_slow_time(sc),
                                sc.radar.frame_rate_hz)
        fs = phase.sample_rate
        starts, subwindows = sliding_windows(phase.samples, fs, 5.0, 1.0)
        estimates = [estimate_breathing(x, fs).fundamental_hz
                     for x in subwindows]
        r = _SCORE_ROWS
        for count in (r - 1, r, r + 1, 2 * r + 1, len(starts)):
            head = phase.samples[:starts[count - 1] + 500]
            track = breathing_track(PhaseSignal(head, fs))
            assert len(track) == count
            assert list(track.hz) == estimates[:count]

    def test_scoring_memory_does_not_grow_with_the_record(self):
        # the scorer holds one chunk's projection: 2,400 s and 600 s tracks
        # differ only by the track itself (held whole, the 1,446-row
        # projection grew by 35 MB between them)
        def peak(seconds):
            x = harmonic_signal(float(GRID[96]), int(seconds * FS),
                                [1.0, 0.3], [0.0, 0.4])
            x += np.random.default_rng(5).normal(0.0, 0.1, x.size)
            phase = PhaseSignal(x, FS)
            tracemalloc.start()
            try:
                breathing_track(phase)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(60.0)      # the grid factor is built and cached outside both
        assert peak(2400.0) - peak(600.0) <= 0.5e6

    @pytest.mark.parametrize("window_s, bound", [(5.0, 0.65e6),
                                                 (20.0, 1.3e6)])
    def test_scoring_a_chunk_holds_its_copy_and_half_a_copy(self, window_s,
                                                             bound):
        # a 280 s record: a chunk's demeaned copy holds its even part and
        # the odd part is half its size (0.57 and 1.14 MB at the peak);
        # folding through _fold's own copies peaked at 0.70 and 2.24 MB,
        # and one span of the whole window at 0.94 and 1.59 MB
        x = np.random.default_rng(0).normal(size=28000)
        _, subwindows = sliding_windows(x, FS, window_s, 1.0)
        _best_fundamentals(subwindows[:1], FS, BREATHING_GRID_HZ, 3)
        tracemalloc.start()
        try:
            _best_fundamentals(subwindows, FS, BREATHING_GRID_HZ, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_fields_are_frozen(self):
        x = harmonic_signal(float(GRID[96]), 1000, [1.0], [0.0])
        track = breathing_track(PhaseSignal(x, FS))
        with pytest.raises(dataclasses.FrozenInstanceError):
            track.hz = (0.2,) * len(track)
        with pytest.raises(dataclasses.FrozenInstanceError):
            track.order = 2
        for a in (track.starts, track.hz):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_the_arrays_are_the_one_copy(self):
        # the track copies what it is given, once, and keeps no tuple or
        # private shadow of its starts and rates
        starts, hz = np.arange(0, 600, 100), np.full(6, 0.25)
        track = BreathingTrack(starts, hz)
        starts[0], hz[0] = 50, 0.3
        assert (track.starts[0], track.hz[0]) == (0, 0.25)
        assert [name for name in vars(track) if name.startswith("_")] == []
        assert {type(a) for a in vars(track).values()} \
            == {np.ndarray, int, float}

    def test_track_validation(self):
        # the subwindow layout is scenario.window_starts', errors included
        short = PhaseSignal(np.ones(100), FS)
        with pytest.raises(ValueError, match="window of 500 samples longer "
                                             "than record of 100"):
            breathing_track(short)
        long = PhaseSignal(np.ones(1000), FS)
        for kwargs in ({"step_s": 0.0}, {"window_s": -1.0}):
            with pytest.raises(ValueError,
                               match="window and step must be positive"):
                breathing_track(long, **kwargs)

    @pytest.mark.parametrize("fields, message", [
        ({"starts": (0, 100, 200), "hz": (0.25, 0.3)},
         "one fundamental per subwindow start, got 3 starts and 2"),
        ({"starts": (), "hz": ()}, "got 0 starts"),
        ({"starts": (0, 100, 100)}, "strictly increasing integer"),
        ({"starts": (0, 200, 100)}, "strictly increasing integer"),
        ({"starts": (0.0, 1.0, 2.0)}, "strictly increasing integer"),
        ({"hz": (0.25, float("nan"), 0.3)}, "fundamentals must be finite"),
        ({"order": 0}, "order must be at least 1, got 0"),
        ({"window_s": float("nan")}, "window_s must be finite and positive"),
        ({"window_s": 0.0}, "window_s must be finite and positive"),
        ({"sample_rate": -1.0}, "sample_rate must be finite and positive"),
        ({"sample_rate": float("inf")},
         "sample_rate must be finite and positive"),
    ])
    def test_track_checks_its_own_fields(self, fields, message):
        # each failed only inside a later refit, or was never caught
        good = {"starts": (0, 100, 200), "hz": (0.25, 0.3, 0.3)}
        BreathingTrack(**good)
        with pytest.raises(ValueError, match=message):
            BreathingTrack(**{**good, **fields})

    @pytest.mark.parametrize("n", [737, 2000, 3001])
    def test_reference_is_median_refit_prediction(self, n):
        # a weak tone on top, so the fit's residual is not all rounding
        x = harmonic_signal(float(GRID[96]), n, [1.0, 0.3, 0.1],
                            [0.0, 0.4, 0.9], offset=0.5)
        x += 0.01 * np.sin(2 * np.pi * 1.3 * np.arange(n) / FS)
        phase = PhaseSignal(x, FS)
        fit = reconstruct_reference(phase)
        assert fit.model.fundamental_hz == float(np.median(fit.subwindow_hz))
        # the harmonics and the intercept of the least-squares fit at that
        # fundamental
        design = refit_design(breathing_track(phase), n)
        want, *_ = np.linalg.lstsq(design, x, rcond=None)
        assert fit.model.offset == pytest.approx(want[-1], abs=1e-12)
        assert np.max(np.abs(fit.s_ref - design[:, :-1] @ want[:-1])) \
            <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("fs", [FS, 1000.0 / 3.0])
    def test_a_subwindow_ending_on_the_last_sample_is_inside(self, fs):
        n = int(20 * fs)
        x = harmonic_signal(float(GRID[96]), n, [1.0], [0.0], fs=fs)
        track = breathing_track(PhaseSignal(x, fs))
        # a distinct fundamental per subwindow names the ones inside
        track = dataclasses.replace(
            track, hz=tuple(float(GRID[40 + i]) for i in range(len(track))))
        n_sub = window_samples(5.0, fs)
        first, last = track.starts[3], track.starts[6]
        span = last + n_sub - first      # subwindows 3..6, 6 ending on it
        assert track._refit_hz([first], span)[0] \
            == np.median(track.hz[3:7])
        # a sample shorter: subwindow 6 ends a sample past the window
        assert track._refit_hz([first], span - 1)[0] \
            == np.median(track.hz[3:6])
        # a sample later: subwindow 3 starts a sample before the window
        assert track._refit_hz([first + 1], span)[0] \
            == np.median(track.hz[4:7])
        assert np.isnan(track._refit_hz([first], n_sub - 1)[0])

    def test_a_start_in_seconds_is_rejected(self):
        # 12.0 would otherwise read the subwindows 12 samples in
        x = harmonic_signal(float(GRID[96]), 2000, [1.0], [0.0])
        track = breathing_track(PhaseSignal(x, FS))
        windows = np.stack([x[:1000], x[100:1100]])
        for starts in ([0.0, 1.0], np.array([0.0, 1.0]),
                       [np.float64(12.0), 12.5]):
            with pytest.raises(ValueError, match="sample indices"):
                track.residuals(windows, starts)
        np.testing.assert_array_equal(
            track.residuals(windows, np.array([0, 100], dtype=np.int64))[0],
            track.residuals(windows, [0, 100])[0])


def masked_refit_hz(track, starts, n):
    """_refit_hz as first written: a segments x every-subwindow mask of
    the subwindows inside each segment, medians through row_medians."""
    n_sub = window_samples(track.window_s, track.sample_rate)
    starts = np.asarray(starts)[:, None]
    inside = (track.starts >= starts) & (track.starts + n_sub <= starts + n)
    return row_medians(track.hz, inside)


class TestRefitRuns:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fs, window_s", [(FS, 5.0), (1000.0 / 3.0, 3.7)])
    def test_runs_are_the_mask_medians(self, seed, fs, window_s):
        # random gaps between subwindows and repeated grid rates (ties in
        # the medians); segments before, inside and past the track, ones
        # shorter than a subwindow, and one ending on the last subwindow
        rng = np.random.default_rng(seed)
        starts = np.cumsum(rng.integers(1, 60, size=300)).tolist()
        track = BreathingTrack(tuple(starts),
                               tuple(rng.choice(GRID[:40], size=300).tolist()),
                               window_s=window_s, sample_rate=fs)
        n_sub = window_samples(window_s, fs)
        end = starts[-1] + n_sub
        for n in (n_sub - 1, n_sub, n_sub + 1, 2000, 3 * n_sub + 17):
            segments = [*rng.integers(-n, end + 10, size=40).tolist(),
                        starts[0], end - n, starts[-1], end]
            for block in ([segments[0]], segments):
                assert (track._refit_hz(block, n).tobytes()
                        == masked_refit_hz(track, block, n).tobytes())

    def test_refit_memory_does_not_grow_with_the_record(self):
        # the median runs are a block's segments by the subwindows one
        # segment holds; the mask held every subwindow of the record per
        # segment, 0.9 MB more at 3,600 s than at 600 s
        def peak(seconds):
            starts = tuple(range(0, int(seconds * FS) - 499, 100))
            track = BreathingTrack(starts, (float(GRID[96]),) * len(starts))
            block = list(starts[-16:])
            tracemalloc.start()
            try:
                track._refit_hz(block, 2000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3600.0) - peak(600.0) <= 1e4


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
        out, errors = track.residuals(windows, starts)
        assert errors == [None] * starts.size
        # to 1e-12 of the window: the least squares round at its scale,
        # not at the scale of the weak tone it leaves
        for row, i0, window in zip(out, starts, windows):
            expected = refit_residual(track, window, i0)
            assert np.max(np.abs(row - expected)) \
                <= 1e-12 * np.max(np.abs(window))

    def test_a_window_without_a_subwindow_is_reported_and_left_alone(self):
        # 5 s windows at half-second starts: only the whole-second ones
        # hold a whole 5 s subwindow
        x, track = self.record()
        starts = np.array([100, 150, 200])
        windows = np.stack([x[i0:i0 + 500] for i0 in starts])
        out, errors = track.residuals(windows, starts)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ValueError)
        assert "no breathing subwindow" in str(errors[1])
        np.testing.assert_array_equal(out[1], windows[1])
        expected = refit_residual(track, windows[2], 200)
        assert np.max(np.abs(out[2] - expected)) \
            <= 1e-12 * np.max(np.abs(windows[2]))

    @pytest.mark.parametrize("n", [500, 501, 2000])
    def test_a_constant_row_has_an_exactly_zero_residual(self, n):
        # the intercept fits a constant exactly; the projections of 3.7
        # and 0.1 rounded off them, and a spectrum read that rounding
        x, track = self.record()
        starts = np.array([0, 100, 200, 300])
        windows = np.stack([x[i0:i0 + n] for i0 in starts])
        windows[1] = 3.7
        windows[2] = 0.1
        out, errors = track.residuals(windows, starts)
        assert errors == [None] * starts.size
        assert (out[1:3] == 0.0).all()
        for row, i0, window in zip(out[::3], starts[::3], windows[::3]):
            expected = refit_residual(track, window, i0)
            assert np.max(np.abs(row - expected)) \
                <= 1e-12 * np.max(np.abs(window))

    def test_a_rank_deficient_refit_fails_its_whole_group(self):
        # every subwindow fitted at 0 Hz: the shared design has no rank
        x, track = self.record()
        track = dataclasses.replace(track, hz=(0.0,) * len(track))
        windows = np.stack([x[:1000], x[100:1100]])
        _refit_basis.cache_clear()
        for _ in range(2):
            out, errors = track.residuals(windows, [0, 100])
            assert all(isinstance(e, ValueError)
                       and "rank-deficient" in str(e) for e in errors)
            np.testing.assert_array_equal(out, windows)
            assert _refit_basis.cache_info().currsize == 0

    def test_a_block_works_in_two_block_sized_arrays(self):
        # a 16 x 2000 block (256 kB) of the record's 20 s windows: the head
        # and tail copies and the fold parts' buffer, which takes the
        # residual.  It read 524,696 B; with a third, separate output array
        # it read 769,576 B
        x, track = self.record()
        starts = np.arange(0, 1501, 100)
        windows = np.stack([x[i0:i0 + 2000] for i0 in starts])
        track.residuals(windows, starts)          # the refit entry is cached
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            track.residuals(windows, starts)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 2 * windows.nbytes


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
        # the same values from tuples, lists or other dtypes: one key
        same = BreathingTrack(tuple(track.starts.tolist()),
                              track.hz.tolist())
        assert (same == track) is True and hash(same) == hash(track)
        int32 = BreathingTrack(track.starts.astype(np.int32), track.hz)
        assert (int32 == track) is True and hash(int32) == hash(track)
        zero = BreathingTrack((0, 100), (0.0, 0.25))
        assert hash(zero) == hash(BreathingTrack((0, 100), (-0.0, 0.25)))

        model = fit_amplitudes(x[:500], FS, float(GRID[96]))
        assert (model == fit_amplitudes(x[:500], FS, float(GRID[96]))) is True
        scaled = fit_amplitudes(1.5 * x[:500], FS, float(GRID[96]))
        assert (model != scaled) is True
        assert model != "a model"

        fit = reconstruct_reference(PhaseSignal(x, FS))
        assert (fit == reconstruct_reference(PhaseSignal(x, FS))) is True
        assert (fit == dataclasses.replace(fit, s_ref=fit.s_ref + 1.0)) \
            is False
        assert (fit == dataclasses.replace(fit, model=scaled)) is False
        assert fit != "a fit"

    def test_phases_compare_by_identity(self):
        x = harmonic_signal(float(GRID[96]), 1000, [1.0], [0.0])
        phase = PhaseSignal(x, FS)
        assert (phase == PhaseSignal(x, FS)) is False
        assert (phase == phase) is True
        assert len({phase, phase}) == 1


class TestCaches:
    def test_cached_arrays_are_read_only(self):
        cached = [*_refit_basis(0.26, 3, 500, FS),
                  *_factored_bases(500, FS, 3, BREATHING_GRID_HZ)]
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_repeated_calls_return_equal_values(self):
        first = _refit_basis(0.26, 3, 500, FS)
        again = _refit_basis(0.26, 3, 500, FS)
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)
        first = _factored_bases(500, FS, 3, BREATHING_GRID_HZ)
        _factored_bases.cache_clear()
        again = _factored_bases(500, FS, 3, BREATHING_GRID_HZ)
        assert first is not again
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_a_failed_check_caches_nothing(self):
        x = harmonic_signal(0.26, 500, [1.0], [0.0])
        _refit_basis.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="rank-deficient"):
                fit_amplitudes(x, FS, 0.0)
            assert _refit_basis.cache_info().currsize == 0

    def test_both_refit_routes_share_one_entry(self):
        # fit_amplitudes and the block refit factor the same design once
        x = harmonic_signal(0.26, 500, [1.0, 0.3], [0.0, 0.4], 0.2)
        track = BreathingTrack(starts=(0,), hz=(0.26,), sample_rate=FS)
        _refit_basis.cache_clear()
        fit_amplitudes(x, FS, 0.26)
        out, errors = track.residuals(x[None, :], [0])
        assert errors == [None]
        assert np.max(np.abs(out)) < 1e-12
        info = _refit_basis.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    @pytest.mark.parametrize("f_hz, order, n", [(0.26, 3, 500),
                                                (float(GRID[60]), 3, 2000),
                                                (0.31, 2, 1500), (0.31, 3, 7),
                                                (16.6, 3, 3001)])
    def test_the_halves_unfold_to_an_orthonormal_basis_of_the_design(
            self, f_hz, order, n):
        # even and odd are head rows of one orthonormal basis Q of the
        # harmonic matrix and a column of ones, and the coefficients map
        # turns that design into Q (its coordinates into the design's
        # coefficients), though no cache holds the design
        entry = _refit_basis(f_hz, order, n, FS)
        assert isinstance(entry, anls_mod._RefitBasis)
        assert entry.even.shape == ((n + 1) // 2, order + 1)
        assert entry.odd.shape == (n // 2, order)
        q = unfold(entry, n)
        design = np.hstack([harmonic_matrix(f_hz, order, n, FS),
                            np.ones((n, 1))])
        np.testing.assert_allclose(q.T @ q, np.eye(2 * order + 1),
                                   atol=1e-14)
        # the design's rounding, amplified by its condition (1.6e11 at
        # n = 7, where it reads 1.2e-5 against 1.9e-4)
        assert np.max(np.abs(design @ entry.coefficients - q)) \
            <= agreement(design, f_hz, n)

    @pytest.mark.parametrize("n", [2000, 3001])
    def test_an_entry_holds_half_a_basis(self, n):
        # a full n x 7 Q was 112 kB at n = 2000; the halves hold
        # ceil(n/2) x 4 + floor(n/2) x 3 float64s, plus one 7 x 7 map
        _refit_basis.cache_clear()
        small = 7 * 7 * 8
        entry = _refit_basis(float(GRID[96]), 3, n, FS)
        assert sum(a.nbytes for a in entry) \
            <= ((n + 1) // 2 + 1) * 7 * 8 + small
        tracemalloc.start()
        try:
            again = _refit_basis(float(GRID[97]), 3, n, FS)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= ((n + 1) // 2 + 1) * 7 * 8 + small + 4096
        assert sum(a.nbytes for a in again) < kept

    @pytest.mark.parametrize("n", [7, 8, 2000, 3001])
    def test_fundamental_zero_is_rank_deficient(self, n):
        _refit_basis.cache_clear()
        with pytest.raises(ValueError, match="rank-deficient harmonic "
                                             r"design at 0.0 Hz \(condition"):
            _refit_basis(0.0, 3, n, FS)
        x = harmonic_signal(0.26, n, [1.0], [0.0])
        fit_amplitudes(x, FS, 0.26)
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_amplitudes(x, FS, 0.0)
        assert _refit_basis.cache_info().currsize == 1


def unfold(entry, n):
    """The n x (2 order + 1) orthonormal basis whose head rows a
    _refit_basis entry holds (or the n-row spans of a _factored_bases
    entry's halves, side by side): each even column mirrored onto the tail
    around an odd n's middle row, each odd column mirrored and negated."""
    m = n // 2
    even = np.concatenate([entry.even[:m], entry.even[m:],
                           entry.even[:m][::-1]])
    odd = np.concatenate([entry.odd, np.zeros((n - 2 * m, entry.odd.shape[1])),
                          -entry.odd[::-1]])
    return np.hstack([even, odd])


def max_argument(f_hz, order, n, fs=FS):
    """The largest sine argument (rad) of an n-sample design: a design on
    another time origin differs from it by rounding of about eps times
    this."""
    return 2 * np.pi * order * f_hz * n / fs


def agreement(design, f_hz, n):
    """What a fit on the centred axis may differ from one on the design's
    t-from-0 axis by, relative to the scale: the designs differ by the
    rounding of their sine arguments, and the fit amplifies that by the
    design's condition."""
    return 4 * EPS * np.linalg.cond(design) * (1 + max_argument(f_hz, 3, n))


# window lengths from the shortest a fit takes to a 30 s window, odd and
# even; breathing fundamentals, and ones whose third harmonic is near
# Nyquist at 100 Hz
CENTRED_CASES = [(n, f_hz) for n in (7, 500, 1999, 2000, 3001)
                 for f_hz in (float(GRID[0]), 0.26, float(GRID[-1]), 16.6,
                              16.66)]


class TestCentredRefit:
    """The refit on the centred axis against the same least squares on
    the t-from-0 axis: the design [harmonic_matrix, 1] and LAPACK's
    Householder QR (np.linalg.qr) or np.linalg.lstsq."""

    def signals(self, f_hz, n, rows=3, seed=0):
        design = np.hstack([harmonic_matrix(f_hz, 3, n, FS),
                            np.ones((n, 1))])
        rng = np.random.default_rng(seed)
        x = (design @ rng.normal(size=(7, rows))).T \
            + rng.normal(scale=0.3, size=(rows, n))
        return design, x

    @pytest.mark.parametrize("n, f_hz", CENTRED_CASES)
    def test_residuals_are_the_householder_projection(self, n, f_hz):
        design, x = self.signals(f_hz, n)
        q = np.linalg.qr(design)[0]
        want = x - (x @ q) @ q.T
        track = BreathingTrack(starts=(0,), hz=(f_hz,), window_s=n / FS,
                               sample_rate=FS)
        # 1e-12, or the rounding of the reference's own sine arguments
        # where that is larger: eps x 9,400 rad = 2.1e-12 at n = 3001 and
        # 16.66 Hz (the refit reads 9.2e-13 there)
        tol = max(1e-12, EPS * max_argument(f_hz, 3, n)) * np.max(np.abs(x))
        # each row its own run, then all three in one run
        for starts in ([0], [0, 0, 0]):
            got, errors = track.residuals(x[:len(starts)], starts)
            assert errors == [None] * len(starts)
            assert np.max(np.abs(got - want[:len(starts)])) <= tol
        # the per-window fit takes the same projections off, also where
        # the design is ill-conditioned (4.5e11 at n = 7 and 0.26 Hz)
        single = anls_mod._fit_with_residual(x[0], FS, f_hz, 3)[1]
        assert np.max(np.abs(single - want[0])) <= tol

    @pytest.mark.parametrize("n, f_hz", [(n, f) for n, f in CENTRED_CASES
                                         if n >= 500])
    def test_fit_is_lstsq_on_the_design(self, n, f_hz):
        # the coefficients keep their meaning: sin/cos weights about the
        # window's first sample, then the offset
        design, x = self.signals(f_hz, n, rows=1, seed=1)
        want, *_ = np.linalg.lstsq(design, x[0], rcond=None)
        model = fit_amplitudes(x[0], FS, f_hz)
        got = np.r_[model.coefficients.reshape(-1), model.offset]
        tol = agreement(design, f_hz, n)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        resid = x[0] - design @ want
        assert model.residual_power == pytest.approx(resid @ resid / n,
                                                     rel=1e-12)
        # the fit's own projection, which reconstruct_reference returns
        fitted = x[0] - anls_mod._fit_with_residual(x[0], FS, f_hz, 3)[1]
        assert np.max(np.abs(fitted - design @ want)) \
            <= tol * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [500, 501])
    def test_a_window_whose_refit_fails_is_left_bit_for_bit(self, n):
        # the window from 100 holds only the subwindow fitted at 0 Hz; its
        # negative zeros would come back as +0.0 from x - 0 + 0
        track = BreathingTrack(starts=(0, 100), hz=(0.26, 0.0))
        windows = np.random.default_rng(n).normal(size=(2, n))
        windows[1, [0, n // 2, n - 1]] = -0.0
        out, errors = track.residuals(windows, [0, 100])
        assert errors[0] is None and "rank-deficient" in str(errors[1])
        assert out[1].tobytes() == windows[1].tobytes()
        assert not np.array_equal(out[0], windows[0])

