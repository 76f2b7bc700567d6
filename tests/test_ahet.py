"""Credibility-gated heart-rate tracking on constructed and end-to-end
spectra."""

import math

import numpy as np
import pytest

import pulsecancel.ahet as ahet_mod
from pulsecancel.ahet import (AhetConfig, TrackerState, _cancel_stage,
                              ahet_step, ahet_trace, conventional_hr,
                              conventional_trace, credibility,
                              eca_conventional_trace)
from pulsecancel.anls import BREATHING_GRID_HZ
from pulsecancel.preprocess import slow_time_phase
from pulsecancel.scenario import masking_scenario, scenario_slow_time
from pulsecancel.spectral import Spectrum, band_peak_power, power_spectrum


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
        with pytest.raises(ValueError, match="band"):
            AhetConfig(fundamental_band_hz=(2.0, 0.7))
        with pytest.raises(ValueError, match="ceiling"):
            AhetConfig(harmonic_ceiling_hz=1.5)
        with pytest.raises(ValueError, match="stable_count"):
            AhetConfig(stable_count=0)


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
        cancel = _cancel_stage(phase, 5.0, 1.0, BREATHING_GRID_HZ, 3)
        once = cancel(0, phase.samples)
        out.append((sc, phase, once, cancel(0, once)))
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
        clean = trace_fn(fixture_phase, **WINDOWS)
        fail_on_call(monkeypatch, stage, 3)
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
        fail_on_call(monkeypatch, "power_spectrum", 2,
                     np.linalg.LinAlgError)
        held = trace_fn(fixture_phase, **WINDOWS)
        assert held.entries[1].hr_bpm == held.entries[0].hr_bpm
        assert (held.entries[1].tag, held.entries[1].delta_hz) == (tag, delta)

    @pytest.mark.parametrize("trace_fn, stage",
                             [(fn, stage) for fn, stage, _, _ in HOLD_CASES])
    def test_first_window_failure_propagates(
            self, fixture_phase, monkeypatch, trace_fn, stage):
        fail_on_call(monkeypatch, stage, 1)
        with pytest.raises(ValueError, match="injected failure"):
            trace_fn(fixture_phase, **WINDOWS)
