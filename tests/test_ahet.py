"""Credibility-gated heart-rate tracking on constructed and end-to-end
spectra."""

import contextlib
import math

import numpy as np
import pytest

import pulsecancel.ahet as ahet_mod
from pulsecancel.ahet import (AhetConfig, TrackerState, ahet_step,
                              ahet_trace, conventional_hr, conventional_trace,
                              credibility, eca_conventional_trace,
                              shared_cancellation)
from pulsecancel.anls import BreathingTrack, breathing_track
from pulsecancel.preprocess import slow_time_phase
from pulsecancel.scenario import (FAMILIES, masking_scenario,
                                  scenario_slow_time, sliding_windows)
from pulsecancel.spectral import Spectrum, band_peak_power, power_spectrum
from pulsecancel.types import HrTrace, PhaseSignal, TraceEntry


def spiky_spectrum(peaks, background=None, f_max=5.0, n=2001):
    """Spectrum with isolated spikes at given (freq, power) points."""
    freqs = np.linspace(0.0, f_max, n)
    power = np.zeros(n) if background is None else np.asarray(background,
                                                              dtype=float)
    power = power.copy()
    for f, p in peaks:
        power[int(round(f / f_max * (n - 1)))] = p
    return Spectrum(frequencies=freqs, power=power, sample_rate=2 * f_max,
                    window_seconds=20.0, zero_pad_factor=1, taper="hann")


class TestCredibility:
    def test_gap_and_inclusive_threshold(self):
        # boundary probed with binary-exact values: delta == threshold passes
        delta, ok = credibility(1.0, 2.125, 0.125)
        assert delta == 0.125
        assert ok
        delta, ok = credibility(1.0, 2.25, 0.125)
        assert delta == 0.25
        assert not ok

    def test_config_validation(self):
        with pytest.raises(ValueError, match="thresholds"):
            AhetConfig(deviation_threshold_hz=0.0)
        with pytest.raises(ValueError, match="thresholds"):
            AhetConfig(jump_threshold_hz=-0.1)


class TestConventional:
    def test_picks_strongest_band_peak(self):
        spec = spiky_spectrum([(1.05, 9.0), (1.28, 4.0), (2.56, 2.0)])
        assert conventional_hr(spec) == pytest.approx(1.05, abs=1e-3)

    def test_empty_band_raises(self):
        spec = spiky_spectrum([(0.3, 9.0)])
        with pytest.raises(ValueError, match="no spectral peak"):
            conventional_hr(spec)


class TestAhetStep:
    def test_credible_strongest_peak_wins(self):
        spec = spiky_spectrum([(1.2, 9.0), (2.4, 3.0)])
        f, tag, delta, state = ahet_step(spec, TrackerState())
        assert f == pytest.approx(1.2, abs=1e-3)
        assert tag == "reliable-1st-peak"
        assert delta == pytest.approx(0.0, abs=5e-3)
        assert state.last_estimate_hz == f
        assert len(state.stable_history) == 1

    def test_masked_fundamental_recovered_via_second_peak(self):
        # the masker at 1.05 outguns the true rate at 1.28, but only the
        # true rate is corroborated by a double
        spec = spiky_spectrum([(1.05, 9.0), (1.28, 4.0), (2.56, 2.0)])
        f, tag, delta, _ = ahet_step(spec, TrackerState())
        assert tag == "reliable-2nd-peak"
        assert f == pytest.approx(1.28, abs=5e-3)
        assert delta <= 0.01

    def test_near_miss_pair_falls_back_refined(self):
        spec = spiky_spectrum([(1.0, 9.0), (2.3, 3.0)])
        f, tag, delta, _ = ahet_step(spec, TrackerState())
        assert tag == "refined"
        assert f == pytest.approx(0.5 * 1.0 + 0.5 * (2.3 / 2.0), abs=5e-3)
        assert delta == pytest.approx(0.3, abs=0.01)

    def test_no_harmonic_at_all_falls_back_strongest(self):
        spec = spiky_spectrum([(0.9, 9.0)])
        f, tag, delta, _ = ahet_step(spec, TrackerState())
        assert tag == "refined"
        assert f == pytest.approx(0.9, abs=1e-3)
        assert math.isinf(delta)

    def test_empty_band_without_history_raises(self):
        spec = spiky_spectrum([(0.3, 9.0)])
        with pytest.raises(ValueError, match="no usable peak"):
            ahet_step(spec, TrackerState())

    def test_empty_band_holds_last_estimate(self):
        spec = spiky_spectrum([(0.3, 9.0)])
        state = TrackerState(last_estimate_hz=1.3)
        f, tag, delta, _ = ahet_step(spec, state)
        assert f == 1.3
        assert tag == "refined"
        assert math.isinf(delta)

    def test_low_pair_is_clamped_to_band(self):
        # blend of 0.7 with 1.35/2 lands at 0.6875, below the band floor
        spec = spiky_spectrum([(0.7, 9.0), (1.35, 3.0)])
        f, tag, _, _ = ahet_step(spec, TrackerState())
        assert tag == "reliable-1st-peak"
        assert f == 0.7

    def test_harmonic_floor_rejects_noise_blips(self):
        rng = np.random.default_rng(0)
        n = 2001
        freqs = np.linspace(0.0, 5.0, n)
        background = np.where(freqs >= 1.9, rng.uniform(0.8, 1.2, n), 0.0)
        weak = spiky_spectrum([(1.0, 100.0), (2.0, 3.0)],
                              background=background)
        f, tag, delta, _ = ahet_step(weak, TrackerState())
        assert tag == "refined"
        assert math.isinf(delta)

        strong = spiky_spectrum([(1.0, 100.0), (2.0, 30.0)],
                                background=background)
        f, tag, _, _ = ahet_step(strong, TrackerState())
        assert tag == "reliable-1st-peak"
        assert f == pytest.approx(1.0, abs=5e-3)


class TestTrackerMemory:
    def test_h_bar_freezes_after_stable_run(self):
        spec = spiky_spectrum([(1.2, 9.0), (2.4, 3.0)])
        state = TrackerState()
        for _ in range(5):
            _, _, _, state = ahet_step(spec, state)
        assert state.h_bar_hz == pytest.approx(1.2, abs=5e-3)
        frozen = state.h_bar_hz
        drift = spiky_spectrum([(1.25, 9.0), (2.5, 3.0)])
        _, _, _, state = ahet_step(drift, state)
        assert state.h_bar_hz == frozen

    def test_jumpy_reliable_estimates_do_not_accumulate(self):
        state = TrackerState()
        _, _, _, state = ahet_step(spiky_spectrum([(1.2, 9.0), (2.4, 3.0)]),
                                   state)
        assert len(state.stable_history) == 1
        # credible but 0.15 Hz away from the last estimate: not stable
        _, _, _, state = ahet_step(spiky_spectrum([(1.35, 9.0), (2.7, 3.0)]),
                                   state)
        assert len(state.stable_history) == 1
        assert state.h_bar_hz is None

    def test_jump_guard_rejects_far_pair_once_established(self):
        state = TrackerState(h_bar_hz=1.2, last_estimate_hz=1.2)
        spec = spiky_spectrum([(1.6, 9.0), (3.2, 3.0)])
        f, tag, delta, state = ahet_step(spec, state)
        # credible pair at 1.6 discarded; nothing near h_bar, so hold
        assert f == 1.2
        assert tag == "refined"
        assert math.isinf(delta)

    def test_refined_regions_recover_weak_true_peak(self):
        state = TrackerState(h_bar_hz=1.2, last_estimate_hz=1.2)
        spec = spiky_spectrum([(1.05, 9.0), (1.5, 6.0), (1.22, 2.0),
                               (2.5, 1.5)])
        f, tag, delta, _ = ahet_step(spec, state)
        assert tag == "refined"
        assert f == pytest.approx(0.5 * 1.22 + 0.5 * (2.5 / 2.0), abs=5e-3)
        assert delta == pytest.approx(abs(2 * 1.22 - 2.5), abs=0.01)


class TestTraces:
    def test_conventional_trace_is_fooled_by_the_masker(self, fixture_phase):
        trace = conventional_trace(fixture_phase)
        assert len(trace) == 1
        entry = trace.entries[0]
        assert entry.time_s == 10.0
        assert entry.tag == "conventional"
        assert entry.hr_bpm == pytest.approx(62.206197654740784, abs=1e-6)

    def test_ahet_trace_recovers_the_true_rate(self, fixture_phase):
        trace = ahet_trace(fixture_phase)
        entry = trace.entries[0]
        assert entry.tag == "reliable-2nd-peak"
        assert entry.hr_bpm == pytest.approx(76.58637286644519, abs=1e-6)

    def test_eca_trace_alone_stays_fooled_on_the_fixture(self, fixture_phase):
        # the merged masker contains a mixing tone outside the breathing
        # subspace, so cancellation alone cannot unmask the true rate here:
        # that is the credibility test's job
        trace = eca_conventional_trace(fixture_phase)
        entry = trace.entries[0]
        assert entry.tag == "eca"
        assert entry.hr_bpm == pytest.approx(62.21028039447604, abs=1e-6)

    def test_trace_is_deterministic(self, fixture_phase):
        a = ahet_trace(fixture_phase)
        b = ahet_trace(fixture_phase)
        assert a.bpm().tolist() == b.bpm().tolist()
        assert a.tags() == b.tags()

    def test_sliding_windows_follow_step(self, fixture_phase):
        trace = conventional_trace(fixture_phase, cpi_s=10.0, step_s=2.0)
        np.testing.assert_allclose(trace.times(),
                                   [5.0, 7.0, 9.0, 11.0, 13.0, 15.0])


@pytest.fixture(scope="module")
def weak_tone_cancellations():
    """(scenario, phase, cancelled once, cancelled twice) for the twenty
    20 s masking-a records, each cancelled as one whole window."""
    out = []
    for seed in range(20):
        sc = masking_scenario(seed, variant="a", duration_s=20.0)
        phase = slow_time_phase(scenario_slow_time(sc),
                                sc.radar.frame_rate_hz)
        track = breathing_track(phase)
        once = track.residual(phase.samples)
        out.append((sc, phase, once, track.residual(once)))
    return out


def _line_shift_db(sc, phase, cancelled, f_hz):
    # half-width isolates k*RR from the nearest mixing tone (gap 0.033 Hz)
    fs = phase.sample_rate
    before = power_spectrum(phase.samples, fs)
    after = power_spectrum(cancelled, fs)
    return 10.0 * np.log10(band_peak_power(after, f_hz, 0.02)
                           / band_peak_power(before, f_hz, 0.02))


class TestCancelStage:
    def test_knocks_down_the_breathing_lines(self, weak_tone_cancellations):
        worst = max(_line_shift_db(sc, phase, once, k * sc.breathing_hz)
                    for sc, phase, once, _ in weak_tone_cancellations
                    for k in (1, 2, 3))
        assert worst <= -20.0

    def test_leaves_the_heart_line(self, weak_tone_cancellations):
        worst = max(abs(_line_shift_db(sc, phase, once, sc.heartbeat_hz))
                    for sc, phase, once, _ in weak_tone_cancellations)
        assert worst < 1.0

    def test_cancelling_twice_equals_once(self, weak_tone_cancellations):
        for _, _, once, twice in weak_tone_cancellations:
            assert np.linalg.norm(twice - once) \
                <= 1e-12 * np.linalg.norm(once)


@pytest.fixture(scope="module")
def masking_b_phase():
    sc = FAMILIES["masking-b"](0, duration_s=60.0)
    return slow_time_phase(scenario_slow_time(sc), sc.radar.frame_rate_hz)


class TestSharedTrack:
    @pytest.mark.parametrize("trace_fn", [ahet_trace, eca_conventional_trace])
    def test_shared_track_equals_fitting_one_per_call(self, masking_b_phase,
                                                      trace_fn):
        track = breathing_track(masking_b_phase)
        for cpi_s in (15.0, 20.0, 30.0):
            shared = trace_fn(masking_b_phase, cpi_s=cpi_s, track=track)
            own = trace_fn(masking_b_phase, cpi_s=cpi_s, track=None)
            assert shared.entries == own.entries


def fail_on_call(monkeypatch, name, k, exc=ValueError):
    """Make pulsecancel.ahet.<name> raise exc on its k-th call (1-based)."""
    original = getattr(ahet_mod, name)
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == k:
            raise exc("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(ahet_mod, name, flaky)


# The block driver's form of each per-window stage a case makes fail: the
# spectrum stage is band_power, the strongest-peak pick band_peaks.
BLOCK_STAGES = {"power_spectrum": "band_power", "conventional_hr": "band_peaks"}


def fail_window(monkeypatch, stage, k, exc=ValueError):
    """Make the k-th window (1-based) fail at stage: with blocks of one
    window, the stage's k-th call is that window's."""
    monkeypatch.setattr(ahet_mod, "_BLOCK", 1)
    fail_on_call(monkeypatch, BLOCK_STAGES[stage], k, exc)


# (trace function, stage made to fail, hold tag, hold gap)
HOLD_CASES = [
    (conventional_trace, "conventional_hr", "conventional", 0.0),
    (eca_conventional_trace, "power_spectrum", "eca", 0.0),
    (ahet_trace, "power_spectrum", "refined", math.inf),
]
WINDOWS = dict(cpi_s=10.0, step_s=2.0)     # six windows over the fixture


class TestHoldLastEstimate:
    @pytest.mark.parametrize("trace_fn, stage, tag, delta", HOLD_CASES)
    def test_mid_record_failure_holds_previous_estimate(
            self, fixture_phase, monkeypatch, trace_fn, stage, tag, delta):
        # both runs in blocks of one: a window's rate can move by rounding
        # with its block-mates
        monkeypatch.setattr(ahet_mod, "_BLOCK", 1)
        clean = trace_fn(fixture_phase, **WINDOWS)
        fail_window(monkeypatch, stage, 3)
        held = trace_fn(fixture_phase, **WINDOWS)
        assert held.times().tolist() == clean.times().tolist()
        assert held.entries[:2] == clean.entries[:2]
        entry = held.entries[2]
        assert entry.hr_bpm == held.entries[1].hr_bpm
        assert entry.tag == tag
        assert entry.delta_hz == delta

    @pytest.mark.parametrize("trace_fn, tag, delta",
                             [(fn, tag, d) for fn, _, tag, d in HOLD_CASES])
    def test_spectrum_linalg_failure_also_holds(
            self, fixture_phase, monkeypatch, trace_fn, tag, delta):
        # every method guards every stage, the spectrum included
        fail_window(monkeypatch, "power_spectrum", 2, np.linalg.LinAlgError)
        held = trace_fn(fixture_phase, **WINDOWS)
        assert held.entries[1].hr_bpm == held.entries[0].hr_bpm
        assert (held.entries[1].tag, held.entries[1].delta_hz) == (tag, delta)

    @pytest.mark.parametrize("trace_fn, tag, delta",
                             [(fn, tag, d) for fn, _, tag, d in HOLD_CASES])
    def test_a_failed_block_holds_every_window(
            self, masking_b_phase, monkeypatch, trace_fn, tag, delta):
        # at the real block size a block-wide stage fails all 16 windows:
        # 51 windows make blocks of 16, 16, 16 and 3, and the second fails
        assert ahet_mod._BLOCK == 16
        clean = trace_fn(masking_b_phase, cpi_s=10.0)
        fail_on_call(monkeypatch, "band_power", 2)
        held = trace_fn(masking_b_phase, cpi_s=10.0)
        assert len(held) == len(clean) == 51
        assert held.entries[:16] == clean.entries[:16]
        for entry in held.entries[16:32]:
            assert entry.hr_bpm == held.entries[15].hr_bpm
            assert (entry.tag, entry.delta_hz) == (tag, delta)

    @pytest.mark.parametrize("trace_fn, stage",
                             [(fn, stage) for fn, stage, _, _ in HOLD_CASES])
    def test_first_window_failure_propagates(
            self, fixture_phase, monkeypatch, trace_fn, stage):
        fail_window(monkeypatch, stage, 1)
        with pytest.raises(ValueError, match="injected failure"):
            trace_fn(fixture_phase, **WINDOWS)


def with_dead_stretch(phase, start_s, stop_s):
    """The phase with exact zeros over [start_s, stop_s)."""
    fs = phase.sample_rate
    samples = phase.samples.copy()
    samples[int(round(start_s * fs)):int(round(stop_s * fs))] = 0.0
    return PhaseSignal(samples, fs)


class TestDeadStretch:
    """Failures at the real block size: a stretch of exact zeros longer
    than the CPI leaves the windows inside it no heart-band peak."""

    @pytest.mark.parametrize("trace_fn, tag, delta",
                             [(fn, tag, d) for fn, _, tag, d in HOLD_CASES])
    def test_windows_inside_hold_the_previous_estimate(
            self, masking_b_phase, trace_fn, tag, delta):
        # 1 s steps: windows 20-22 lie inside [20 s, 32 s); 0-10 end
        # before it; 51 windows make blocks of 16, 16, 16 and 3
        clean = trace_fn(masking_b_phase, cpi_s=10.0)
        held = trace_fn(with_dead_stretch(masking_b_phase, 20.0, 32.0),
                        cpi_s=10.0)
        assert len(held) == len(clean) == 51
        # their block-mates change, so they agree to rounding
        assert_same_entries(held.entries[:11], clean.entries[:11])
        for entry in held.entries[20:23]:
            assert entry.hr_bpm == held.entries[19].hr_bpm
            assert (entry.tag, entry.delta_hz) == (tag, delta)

    @pytest.mark.parametrize("method, tag, delta",
                             [("eca", "eca", 0.0),
                              ("ahet", "refined", math.inf)])
    def test_a_window_whose_refit_fails_holds_alone(
            self, masking_b_phase, method, tag, delta):
        # 5 s windows at half-second steps: only those starting on a whole
        # second hold a whole 5 s breathing subwindow, so every other
        # window of each block fails its refit
        fs = masking_b_phase.sample_rate
        track = breathing_track(masking_b_phase)
        trace = BLOCK_METHODS[method](masking_b_phase, cpi_s=5.0, step_s=0.5,
                                      track=track)
        state = TrackerState()
        starts, windows = sliding_windows(masking_b_phase.samples, fs, 5.0,
                                          0.5)
        assert len(trace) == len(starts) == 111
        for j, (i0, segment) in enumerate(zip(starts, windows)):
            entry = trace.entries[j]
            if j % 2:
                assert entry.hr_bpm == trace.entries[j - 1].hr_bpm
                assert (entry.tag, entry.delta_hz) == (tag, delta)
                continue
            spectrum = power_spectrum(track.residual(segment, i0 / fs), fs)
            if method == "ahet":
                f_hz, want_tag, _, _ = ahet_step(spectrum, state)
            else:
                f_hz, want_tag = conventional_hr(spectrum), "eca"
            assert entry.tag == want_tag
            assert entry.hr_bpm == pytest.approx(f_hz * 60.0, abs=1e-9)

    @pytest.mark.parametrize("trace_fn",
                             [fn for fn, _, _, _ in HOLD_CASES])
    def test_a_dead_first_window_propagates(self, masking_b_phase, trace_fn):
        with pytest.raises(ValueError, match="no (spectral|usable) peak"):
            trace_fn(with_dead_stretch(masking_b_phase, 0.0, 12.0),
                     cpi_s=10.0)


def per_window_trace(phase, cpi_s, method, track):
    """The per-window reference: track.residual, power_spectrum, then
    ahet_step or conventional_hr, one window at a time."""
    fs = phase.sample_rate
    state = TrackerState()
    trace = HrTrace()
    for i0, segment in zip(*sliding_windows(phase.samples, fs, cpi_s, 1.0)):
        if method != "conventional":
            segment = track.residual(segment, i0 / fs)
        spectrum = power_spectrum(segment, fs)
        if method == "ahet":
            f_hz, tag, delta, _ = ahet_step(spectrum, state)
        else:
            f_hz, tag, delta = conventional_hr(spectrum), method, 0.0
        trace.append(TraceEntry(i0 / fs + cpi_s / 2.0, f_hz * 60.0, tag,
                                delta))
    return trace


BLOCK_METHODS = {"conventional": conventional_trace,
                 "eca": eca_conventional_trace, "ahet": ahet_trace}


def assert_same_entries(got, want):
    """Same times, tags and infinite gaps; rates and finite gaps agree to
    1e-9, the rounding of the block driver's stacked products."""
    assert [e.time_s for e in got] == [e.time_s for e in want]
    assert [e.tag for e in got] == [e.tag for e in want]
    np.testing.assert_allclose([e.hr_bpm for e in got],
                               [e.hr_bpm for e in want], rtol=0, atol=1e-9)
    gaps = np.array([e.delta_hz for e in got])
    want_gaps = np.array([e.delta_hz for e in want])
    assert np.isinf(gaps).tolist() == np.isinf(want_gaps).tolist()
    finite = np.isfinite(want_gaps)
    np.testing.assert_allclose(gaps[finite], want_gaps[finite], rtol=0,
                               atol=1e-9)


def assert_matches_per_window(phase, cpi_s, method, track):
    kwargs = {} if method == "conventional" else {"track": track}
    block = BLOCK_METHODS[method](phase, cpi_s=cpi_s, **kwargs)
    assert_same_entries(block.entries,
                        per_window_trace(phase, cpi_s, method, track).entries)


@pytest.fixture(scope="module")
def contract_records():
    """120 s masking-b/c records, seeds 0-1, with their breathing tracks."""
    out = []
    for family in ("masking-b", "masking-c"):
        for seed in (0, 1):
            sc = FAMILIES[family](seed, duration_s=120.0)
            phase = slow_time_phase(scenario_slow_time(sc),
                                    sc.radar.frame_rate_hz)
            out.append((phase, breathing_track(phase)))
    return out


class TestBlockDriverContract:
    @pytest.mark.parametrize("method", sorted(BLOCK_METHODS))
    def test_matches_the_per_window_loop(self, contract_records, method):
        # 106, 101 and 91 windows: none a multiple of the block size
        for phase, track in contract_records:
            for cpi_s in (15.0, 20.0, 30.0):
                assert_matches_per_window(phase, cpi_s, method, track)

    @pytest.mark.parametrize("method", sorted(BLOCK_METHODS))
    def test_record_shorter_than_one_block(self, method):
        sc = FAMILIES["masking-c"](2, duration_s=30.0)
        phase = slow_time_phase(scenario_slow_time(sc), sc.radar.frame_rate_hz)
        starts, _ = sliding_windows(phase.samples, phase.sample_rate, 20.0,
                                    1.0)
        assert len(starts) == 11 < ahet_mod._BLOCK
        assert_matches_per_window(phase, 20.0, method, breathing_track(phase))


def count_block_stages(monkeypatch):
    """Count the block driver's band_power and BreathingTrack.residuals
    calls."""
    counts = {"band_power": 0, "residuals": 0}
    band_power, residuals = ahet_mod.band_power, BreathingTrack.residuals

    def counting_band_power(*args, **kwargs):
        counts["band_power"] += 1
        return band_power(*args, **kwargs)

    def counting_residuals(self, *args, **kwargs):
        counts["residuals"] += 1
        return residuals(self, *args, **kwargs)

    monkeypatch.setattr(ahet_mod, "band_power", counting_band_power)
    monkeypatch.setattr(BreathingTrack, "residuals", counting_residuals)
    return counts


class TestSharedCancellation:
    @pytest.mark.parametrize("order", [("eca", "ahet"), ("ahet", "eca")])
    def test_shared_traces_equal_the_unshared_calls(self, contract_records,
                                                    order):
        for phase, track in contract_records:
            for cpi_s in (15.0, 20.0, 30.0):
                alone = {m: BLOCK_METHODS[m](phase, cpi_s=cpi_s, track=track)
                         for m in order}
                with shared_cancellation():
                    shared = {m: BLOCK_METHODS[m](phase, cpi_s=cpi_s,
                                                  track=track)
                              for m in order}
                for method in order:
                    assert shared[method].entries == alone[method].entries

    @pytest.mark.parametrize("scoped, passes", [(True, 1), (False, 2)])
    def test_one_cancel_and_spectrum_per_block_for_the_pair(
            self, masking_b_phase, monkeypatch, scoped, passes):
        # 41 windows of 20 s over 60 s make blocks of 16, 16 and 9
        track = breathing_track(masking_b_phase)
        counts = count_block_stages(monkeypatch)
        with shared_cancellation() if scoped else contextlib.nullcontext():
            eca_conventional_trace(masking_b_phase, track=track)
            ahet_trace(masking_b_phase, track=track)
        assert counts == {"band_power": 3 * passes, "residuals": 3 * passes}

    @pytest.mark.parametrize("change", [
        lambda phase: dict(config=AhetConfig(deviation_threshold_hz=0.2)),
        lambda phase: dict(step_s=2.0),
        lambda phase: dict(phase=PhaseSignal(phase.samples.copy(),
                                             phase.sample_rate)),
    ], ids=["config", "step", "equal-phase"])
    def test_no_share_on_a_different_call(self, masking_b_phase, monkeypatch,
                                          change):
        track = breathing_track(masking_b_phase)
        kwargs = {"phase": masking_b_phase, "track": track,
                  **change(masking_b_phase)}
        counts = count_block_stages(monkeypatch)
        alone = ahet_trace(**kwargs)
        own = counts["band_power"]
        counts["band_power"] = 0
        with shared_cancellation():
            eca_conventional_trace(masking_b_phase, track=track)
            shared = ahet_trace(**kwargs)
        # the eca call's pass over its 3 blocks, then the ahet call's own
        assert counts["band_power"] == 3 + own
        assert shared.entries == alone.entries

    def test_a_dead_first_window_fails_both_calls(self, masking_b_phase):
        # no heart-band peak on the first window: eca has no strongest peak
        # and the fresh tracker no fundamental, so the pass fails for both
        phase = with_dead_stretch(masking_b_phase, 0.0, 12.0)
        track = breathing_track(phase)
        with shared_cancellation():
            for trace_fn in (eca_conventional_trace, ahet_trace):
                with pytest.raises(ValueError,
                                   match="no (spectral|usable) peak"):
                    trace_fn(phase, cpi_s=10.0, track=track)

    def test_one_peak_search_per_block_for_the_pair(self, masking_b_phase,
                                                    monkeypatch):
        # 41 windows of 20 s over 60 s make 3 blocks
        track = breathing_track(masking_b_phase)
        counts = {"_measure": 0, "band_peaks": 0}
        for name in counts:
            original = getattr(ahet_mod, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ahet_mod, name, counting)
        ahet_trace(masking_b_phase, track=track)
        alone = dict(counts)
        counts.update({"_measure": 0, "band_peaks": 0})
        with shared_cancellation():
            eca_conventional_trace(masking_b_phase, track=track)
            ahet_trace(masking_b_phase, track=track)
        assert counts["_measure"] == alone["_measure"] == 3
        assert counts["band_peaks"] <= alone["band_peaks"]
        counts.update({"_measure": 0, "band_peaks": 0})
        eca_conventional_trace(masking_b_phase, track=track)
        assert counts == {"_measure": 0, "band_peaks": 3}
