"""End-to-end acceptance gate.

Ten numbered criteria, one test each.  Every test prints a single
"CRITERION n PASS/FAIL" verdict line directly to the terminal (capture is
bypassed so the line shows even on green runs) and then asserts.  Bounds
live inline next to the quantities they constrain.
"""

import math
import time

import numpy as np
import pytest

from pulsecancel.ahet import ahet_trace, conventional_trace
from pulsecancel.anls import (BREATHING_GRID_HZ, estimate_breathing,
                              grid_frequencies, reconstruct_reference)
from pulsecancel.bench import time_profile
from pulsecancel.eca import eca_cancel, lag_matrix
from pulsecancel.preprocess import (cube_phase, detect_target_bin,
                                    extract_phase, range_profiles,
                                    slow_time_phase)
from pulsecancel.scenario import (RadarConfig, Scenario,
                                  displacement_to_phase, fig_masking_scenario,
                                  masking_scenario, scenario_slow_time,
                                  synthesize_displacement,
                                  synthesize_radar_cube)
from pulsecancel.spectral import band_peak_power, power_spectrum

GRID = grid_frequencies(*BREATHING_GRID_HZ)
GRID_STEP = BREATHING_GRID_HZ[2]


def _verdict(capsys, number: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\nCRITERION {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_c01_projection_invariants(capsys):
    """Idempotent, reference-orthogonal, non-expanding cancellation."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_idem = worst_orth = worst_norm = 0.0
    for _ in range(1000):
        n = int(rng.integers(60, 401))
        m = int(rng.integers(1, 9))
        s_ref = rng.standard_normal(n)
        theta = rng.standard_normal(n) * float(rng.uniform(0.5, 2.0))
        once = eca_cancel(theta, s_ref, m)
        twice = eca_cancel(once.cancelled, s_ref, m)
        norm_theta = np.linalg.norm(theta)
        # the projector in the 1-D path spans the lags plus an intercept
        x = np.hstack([lag_matrix(s_ref, m), np.ones((n, 1))])
        worst_idem = max(worst_idem,
                         np.linalg.norm(twice.cancelled - once.cancelled)
                         / norm_theta)
        worst_orth = max(worst_orth,
                         np.max(np.abs(x.T @ once.cancelled))
                         / (np.linalg.norm(x) * norm_theta))
        worst_norm = max(worst_norm,
                         np.linalg.norm(once.cancelled) / norm_theta)
    elapsed = time.perf_counter() - t0
    ok = (worst_idem <= 1e-9 and worst_orth <= 1e-9
          and worst_norm <= 1.0 and elapsed < 10.0)
    _verdict(capsys, 1, ok,
             f"1000 instances: idempotency {worst_idem:.1e} <= 1e-9, "
             f"orthogonality {worst_orth:.1e} <= 1e-9, "
             f"norm ratio {worst_norm:.6f} <= 1, {elapsed:.1f} s < 10 s")


def _harmonic_waveform(t: np.ndarray, f_hz: float, rng) -> np.ndarray:
    a1 = float(rng.uniform(1.0, 2.0))
    amps = [a1, a1 * float(rng.uniform(0.2, 0.5)),
            a1 * float(rng.uniform(0.05, 0.2))]
    x = float(rng.uniform(-3.0, 3.0)) * np.ones_like(t)
    for k, a in enumerate(amps, start=1):
        x += a * np.sin(2.0 * np.pi * k * f_hz * t
                        + float(rng.uniform(0.0, 2.0 * np.pi)))
    return x


def test_c02_breathing_rate_recovery(capsys):
    """Exact on grid, one grid step off grid, 0.5 BPM median under noise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    fs = 100.0
    t = np.arange(500) / fs

    exact = 0
    for _ in range(30):
        f = float(GRID[int(rng.integers(6, 236))])
        model = estimate_breathing(_harmonic_waveform(t, f, rng), fs)
        exact += model.fundamental_hz == f

    worst_off = 0.0
    for _ in range(30):
        f = float(GRID[int(rng.integers(6, 235))]) \
            + float(rng.uniform(-0.45, 0.45)) * GRID_STEP
        model = estimate_breathing(_harmonic_waveform(t, f, rng), fs)
        worst_off = max(worst_off, abs(model.fundamental_hz - f))

    errors_bpm = []
    for seed in range(100):
        draw = np.random.default_rng(3000 + seed)
        f_b = float(draw.uniform(0.15, 0.45))
        sc = Scenario(duration_s=20.0, breathing_hz=f_b,
                      breathing_harmonics=[(1.5e-3, 0.0), (5e-4, 0.4),
                                           (2e-4, 1.0)],
                      heartbeat_hz=1.25, heartbeat_harmonics=[(2e-4, 0.0)],
                      complex_noise_std=0.316, seed=seed)
        phase = slow_time_phase(scenario_slow_time(sc),
                                sc.radar.frame_rate_hz)
        fit = reconstruct_reference(phase)
        errors_bpm.append(abs(fit.model.fundamental_hz - f_b) * 60.0)
    median_bpm = float(np.median(errors_bpm))
    elapsed = time.perf_counter() - t0
    ok = (exact == 30 and worst_off <= GRID_STEP + 1e-12
          and median_bpm <= 0.5 and elapsed < 60.0)
    _verdict(capsys, 2, ok,
             f"on-grid exact {exact}/30, off-grid worst "
             f"{worst_off * 1e3:.2f} mHz <= {GRID_STEP * 1e3:.2f} mHz, "
             f"noisy median {median_bpm:.3f} BPM <= 0.5, "
             f"{elapsed:.1f} s < 60 s")


def test_c03_breathing_suppression(capsys):
    """>= 20 dB knockdown of the first three breathing lines, heart line
    unchanged within 1 dB, on every weak-tone seed."""
    halfwidth = 0.02  # isolates k*RR from the nearest mixing tone (gap 0.033)
    passing = 0
    worst_sup = -math.inf
    worst_hr = 0.0
    for seed in range(20):
        sc = masking_scenario(seed, variant="a", duration_s=20.0)
        fs = sc.radar.frame_rate_hz
        phase = slow_time_phase(scenario_slow_time(sc), fs)
        fit = reconstruct_reference(phase)
        result = eca_cancel(phase.samples, fit.s_ref)
        before = power_spectrum(phase.samples, fs)
        after = power_spectrum(result.cancelled, fs)
        sups = [10.0 * np.log10(
            band_peak_power(after, k * sc.breathing_hz, halfwidth)
            / band_peak_power(before, k * sc.breathing_hz, halfwidth))
            for k in (1, 2, 3)]
        hr_shift = 10.0 * np.log10(
            band_peak_power(after, sc.heartbeat_hz, halfwidth)
            / band_peak_power(before, sc.heartbeat_hz, halfwidth))
        passing += max(sups) <= -20.0 and abs(hr_shift) < 1.0
        worst_sup = max(worst_sup, max(sups))
        worst_hr = max(worst_hr, abs(hr_shift))
    ok = passing == 20
    _verdict(capsys, 3, ok,
             f"{passing}/20 seeds, worst suppression {worst_sup:.1f} dB "
             f"<= -20 dB, worst heart-line shift {worst_hr:.3f} dB < 1 dB")


def test_c04_fixture_rates_and_determinism(capsys, fixture_phase):
    """Canned masker fools plain peak picking at ~62.7 BPM while the
    credibility tracker reads 76.6 BPM, identically on every rerun."""
    conv = conventional_trace(fixture_phase)
    ahet = ahet_trace(fixture_phase)
    conv_bpm = float(np.median(conv.bpm()))
    ahet_bpm = float(np.median(ahet.bpm()))
    rerun = (np.array_equal(conventional_trace(fixture_phase).bpm(),
                            conv.bpm())
             and np.array_equal(ahet_trace(fixture_phase).bpm(),
                                ahet.bpm()))
    ok = (abs(conv_bpm - 62.7) <= 1.5 and abs(ahet_bpm - 76.6) <= 1.0
          and rerun)
    _verdict(capsys, 4, ok,
             f"conventional {conv_bpm:.2f} BPM (62.7 +- 1.5), "
             f"tracker {ahet_bpm:.2f} BPM (76.6 +- 1.0), "
             f"rerun identical: {rerun}")


def _pooled_pairs(survey, method_a, method_b, cpi_s):
    pairs = []
    for family in ("masking-b", "masking-c"):
        pairs += survey[family].paired(method_a, method_b, cpi_s)
    return pairs


def _pooled_rmse(survey, method, cpi_s):
    values = []
    for family in ("masking-b", "masking-c"):
        values += [r.rmse_bpm for r in survey[family].records
                   if r.method == method and r.cpi_s == cpi_s
                   and r.error is None]
    return values


def test_c05_tracker_beats_conventional(capsys, mc_survey):
    """Across 20 masked 280 s records at 20 s windows the tracker wins
    >= 90% of paired runs with median RMSE <= 2 BPM, under 5 minutes."""
    pairs = _pooled_pairs(mc_survey, "conventional", "ahet", 20.0)
    wins = sum(1 for conv, ahet in pairs if ahet < conv)
    median_ahet = float(np.median(_pooled_rmse(mc_survey, "ahet", 20.0)))
    median_conv = float(np.median(_pooled_rmse(mc_survey, "conventional",
                                               20.0)))
    elapsed = mc_survey["elapsed_s"]
    ok = (len(pairs) >= 20 and wins >= math.ceil(0.9 * len(pairs))
          and median_ahet <= 2.0 and elapsed < 300.0)
    _verdict(capsys, 5, ok,
             f"tracker wins {wins}/{len(pairs)} (need >= 90%), median "
             f"{median_ahet:.3f} BPM <= 2 (conventional {median_conv:.1f}), "
             f"survey took {elapsed:.0f} s < 300 s")


def test_c06_cancellation_alone_beats_conventional(capsys, mc_survey):
    """Plain peak picking after cancellation already wins >= 80% of
    paired runs against peak picking on the raw phase."""
    pairs = _pooled_pairs(mc_survey, "conventional", "eca", 20.0)
    wins = sum(1 for conv, eca in pairs if eca < conv)
    ok = len(pairs) >= 20 and wins >= math.ceil(0.8 * len(pairs))
    _verdict(capsys, 6, ok,
             f"cancellation-only wins {wins}/{len(pairs)} paired runs "
             f"(need >= 80%)")


def test_c07_longer_windows_do_not_hurt(capsys, mc_survey):
    """Median tracker RMSE at 30 s windows <= median at 15 s windows."""
    median_30 = float(np.median(_pooled_rmse(mc_survey, "ahet", 30.0)))
    median_15 = float(np.median(_pooled_rmse(mc_survey, "ahet", 15.0)))
    ok = median_30 <= median_15
    _verdict(capsys, 7, ok,
             f"median RMSE {median_30:.3f} BPM at 30 s <= "
             f"{median_15:.3f} BPM at 15 s")


def test_c08_pipeline_overhead(capsys):
    """Full tracker pipeline costs at most 2x the conventional pipeline
    wall clock on the same 280 s cube."""
    sc = masking_scenario(0, variant="b", duration_s=280.0)
    cube = synthesize_radar_cube(sc)
    ratios = []
    for _ in range(3):
        rows = time_profile(cube)
        by_method = {row.method: row.seconds for row in rows}
        ratios.append(by_method["ahet"] / by_method["conventional"])
    ratio = float(np.median(ratios))
    ok = ratio <= 2.0
    _verdict(capsys, 8, ok,
             f"wall-time ratio {ratio:.2f} (median of 3 runs, "
             f"{min(ratios):.2f}..{max(ratios):.2f}) <= 2.0")


def test_c09_native_resolution(capsys):
    """A 20 s window at 100 Hz has native bin spacing 0.05 Hz = 3 BPM."""
    x = np.sin(np.arange(2000) * 0.7)
    spectrum = power_spectrum(x, 100.0, zero_pad_factor=1)
    ok = (spectrum.spacing_hz == 0.05
          and spectrum.spacing_hz * 60.0 == 3.0
          and spectrum.native_resolution_hz == 0.05
          and spectrum.window_seconds == 20.0)
    _verdict(capsys, 9, ok,
             f"spacing {spectrum.spacing_hz} Hz == 0.05, "
             f"{spectrum.spacing_hz * 60.0} BPM == 3.0")


def test_c10_simulator_round_trip(capsys):
    """Noiseless cube reproduces the chest phase to < 1e-3 rad and the
    detected range bin matches the IF-tone arithmetic on random standoffs."""
    sc = fig_masking_scenario()
    profiles = range_profiles(synthesize_radar_cube(sc))
    target = detect_target_bin(profiles, 0.3, 3.0)
    phase = extract_phase(profiles, target)
    truth = displacement_to_phase(synthesize_displacement(sc),
                                  sc.radar).samples
    error = (phase.samples - phase.samples.mean()) - (truth - truth.mean())
    max_rad = float(np.max(np.abs(error)))

    cfg = RadarConfig()
    bin_hz = cfg.adc_sample_rate_hz / cfg.adc_samples_per_chirp
    rng = np.random.default_rng(1010)
    misses = 0
    for _ in range(100):
        r = float(rng.uniform(0.5, 3.0))
        sc_r = Scenario(duration_s=2.0, standoff_m=r,
                        breathing_harmonics=[(3e-4, 0.0)],
                        heartbeat_harmonics=[(5e-5, 0.0)])
        prof = range_profiles(synthesize_radar_cube(sc_r))
        detected = detect_target_bin(prof, 0.3, 3.1)
        analytic = cfg.beat_frequency_hz(r) / bin_hz
        if abs(analytic - round(analytic)) <= 0.45:
            hit = detected == round(analytic)
        else:
            # straddling a bin edge: either neighbor is the right answer
            hit = abs(detected - analytic) <= 0.55
        misses += not hit
    ok = max_rad < 1e-3 and misses == 0
    _verdict(capsys, 10, ok,
             f"phase error {max_rad:.2e} rad < 1e-3, "
             f"bin misses {misses}/100")


def test_c10_companion_cube_phase_round_trip():
    """C10's phase bar on the same noiseless cube, for the pipeline's front
    end: cube_phase detects the bin from streamed chunks and keeps its FFT
    column, so its phase, bin and dropouts are C10's chain's, byte for
    byte."""
    sc = fig_masking_scenario()
    cube = synthesize_radar_cube(sc)
    phase = cube_phase(cube)
    profiles = range_profiles(cube)
    chain = extract_phase(profiles, detect_target_bin(profiles, 0.3, 3.0))
    assert phase.source_bin == chain.source_bin
    assert phase.dropouts == chain.dropouts
    assert phase.samples.tobytes() == chain.samples.tobytes()
    truth = displacement_to_phase(synthesize_displacement(sc),
                                  sc.radar).samples
    error = (phase.samples - phase.samples.mean()) - (truth - truth.mean())
    assert float(np.max(np.abs(error))) < 1e-3
