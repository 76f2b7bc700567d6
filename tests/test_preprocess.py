"""Range processing, target detection, and phase demodulation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.signal import get_window

from pulsecancel.ahet import ahet_trace
from pulsecancel.bench import rmse
from pulsecancel.ingest import read_raw_cube, write_raw_cube
from pulsecancel.preprocess import (_FFT_CHUNK_FRAMES, NoTargetError,
                                    RangeProfiles, _residual_power,
                                    cube_phase, demodulate,
                                    detect_target_bin, enhance_phase,
                                    extract_phase, gate_bins,
                                    range_profiles, slow_time_phase)
from pulsecancel.scenario import (RadarConfig, RadarCube, Scenario,
                                  masking_scenario, reference_trace,
                                  scenario_slow_time,
                                  synthesize_displacement,
                                  synthesize_radar_cube)


def profiles_of(values, bin_width=0.5, first_bin=0):
    return RangeProfiles(values=np.asarray(values, dtype=complex),
                         slow_time_rate=100.0, bin_width_m=bin_width,
                         config=RadarConfig(), first_bin=first_bin)


def make_profiles(power, bin_width=0.5):
    """Profiles whose bins have residual power `power` (frames x bins).

    Each entry becomes +-sqrt(p), the sign alternating across frames, so a
    frame-constant column p over an even frame count has zero mean and
    residual power exactly p.
    """
    power = np.asarray(power, dtype=float)
    sign = np.where(np.arange(power.shape[0]) % 2 == 0, 1.0, -1.0)
    return profiles_of(sign[:, None] * np.sqrt(power), bin_width)


def phase_profiles(samples_by_bin, first_bin=0):
    """Unit-modulus slow-time signals, one list entry per range bin."""
    values = np.stack([np.exp(1j * np.asarray(s)) for s in samples_by_bin],
                      axis=1)
    return profiles_of(values, first_bin=first_bin)


class TestRangeProfiles:
    def test_keeps_one_sided_bins(self):
        sc = Scenario(duration_s=2.0)
        profiles = range_profiles(synthesize_radar_cube(sc))
        assert profiles.n_bins == 100
        assert profiles.n_frames == 200
        assert profiles.bin_ranges()[1] == pytest.approx(0.04285714285714286)

    def test_target_bin_carries_the_energy(self):
        sc = Scenario(duration_s=2.0, standoff_m=1.0)
        profiles = range_profiles(synthesize_radar_cube(sc))
        assert int(np.argmax(profiles.mean_power())) == 23

    def test_static_scatterer_is_frame_constant(self):
        sc = Scenario(duration_s=2.0, clutter=[(2.0, 0.8)])
        profiles = range_profiles(synthesize_radar_cube(sc))
        clutter_bin = int(round(2.0 / profiles.bin_width_m))
        col = profiles.values[:, clutter_bin]
        # the moving target sits 1 m away, so this bin is clutter-dominated
        assert np.std(col) / np.abs(np.mean(col)) < 0.05

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("frames", [_FFT_CHUNK_FRAMES // 2 + 1,
                                        2 * _FFT_CHUNK_FRAMES,
                                        2 * _FFT_CHUNK_FRAMES + 37])
    def test_chunked_transform_is_the_one_shot_fft(self, dtype, frames):
        # below one chunk, an exact multiple of it, and a multiple plus a
        # remainder
        rng = np.random.default_rng(frames)
        n_fast = RadarConfig().adc_samples_per_chirp
        iq = (rng.normal(size=(frames, n_fast))
              + 1j * rng.normal(size=(frames, n_fast))).astype(dtype)
        values = range_profiles(RadarCube(iq, RadarConfig())).values

        window = get_window("hann", n_fast, fftbins=False)
        one_shot = scipy.fft.fft(np.multiply(iq, window, dtype=np.complex64),
                                 axis=1)[:, :n_fast // 2]
        assert values.dtype == np.complex64
        assert values.tobytes() == one_shot.tobytes()
        # the one-sided bins are the whole array, not a view into the
        # two-sided spectra
        assert values.flags.c_contiguous and values.flags.owndata
        assert values.nbytes == frames * (n_fast // 2) * 8

    def test_rejects_tiny_fast_time(self):
        cube = RadarCube(np.ones((5, 2), dtype=complex),
                         RadarConfig(adc_samples_per_chirp=2))
        with pytest.raises(ValueError, match="too few fast-time"):
            range_profiles(cube)


class TestMeanPower:
    def test_matches_complex128_residual_power_under_strong_clutter(self):
        # static clutter at 1000x the target amplitude; 3000 frames span
        # more than one summing block
        sc = Scenario(duration_s=30.0, clutter=[(2.0, 1000.0)],
                      complex_noise_std=0.1)
        profiles = range_profiles(synthesize_radar_cube(sc))
        values = profiles.values.astype(np.complex128)
        residual = values - np.mean(values, axis=0)
        expected = np.mean(np.abs(residual) ** 2, axis=0)
        np.testing.assert_allclose(profiles.mean_power(), expected,
                                   rtol=1e-6)

        gate = np.flatnonzero((profiles.bin_ranges() >= 0.3)
                              & (profiles.bin_ranges() <= 3.0))
        # detection sums the gate's bins only, to the same values
        gate_power = _residual_power(profiles.values[:, gate[0]:gate[-1] + 1])
        assert gate_power.tobytes() == profiles.mean_power()[gate].tobytes()
        detected = detect_target_bin(profiles, 0.3, 3.0)
        assert detected == gate[np.argmax(expected[gate])]
        assert detected == 23   # the 1 m target, not the 2 m clutter


class TestDetectTargetBin:
    def test_picks_strongest_bin_in_gate(self):
        power = np.zeros((4, 10))
        power[:, 7] = 2.0
        power[:, 2] = 1.0
        assert detect_target_bin(make_profiles(power), 0.3, 4.0) == 7

    def test_gate_excludes_out_of_range_bins(self):
        power = np.zeros((4, 10))
        power[:, 9] = 5.0       # 4.5 m, outside the gate
        power[:, 3] = 1.0
        assert detect_target_bin(make_profiles(power), 0.3, 4.0) == 3

    def test_tie_resolves_to_nearer_bin(self):
        power = np.zeros((4, 10))
        power[:, 3] = 1.0
        power[:, 6] = 1.0
        assert detect_target_bin(make_profiles(power), 0.3, 4.0) == 3

    def test_inverted_and_empty_gates(self):
        profiles = make_profiles(np.ones((4, 10)))
        with pytest.raises(ValueError, match="inverted"):
            detect_target_bin(profiles, 3.0, 0.3)
        with pytest.raises(ValueError, match="covers no bins"):
            detect_target_bin(profiles, 0.1, 0.2)

    def test_dead_gate_raises_no_target(self):
        profiles = make_profiles(np.zeros((4, 10)))
        with pytest.raises(NoTargetError, match="zero"):
            detect_target_bin(profiles, 0.3, 4.0)

    def test_non_finite_power_raises_no_target(self):
        power = np.zeros((4, 10))
        power[0, 5] = np.nan
        with pytest.raises(NoTargetError, match="non-finite"):
            detect_target_bin(make_profiles(power), 0.3, 4.0)


class TestDemodulate:
    def test_unwraps_multi_cycle_phase(self):
        theta = 0.3 + 3.0 * np.sin(2 * np.pi * 0.4 * np.arange(300) / 100.0)
        z = np.exp(1j * theta)
        out, dropouts = demodulate(z)
        np.testing.assert_allclose(out, theta, atol=1e-12)
        assert dropouts == 0
        assert out.tobytes() == np.unwrap(np.arctan2(z.imag, z.real)).tobytes()

    def test_dropouts_carry_previous_phase(self):
        theta = np.array([0.1, 0.2, 0.3, 0.4])
        z = np.exp(1j * theta)
        z[2] = 0.0
        out, dropouts = demodulate(z)
        assert dropouts == 1
        assert out[2] == pytest.approx(0.2)

    def test_leading_dropout_starts_at_zero(self):
        z = np.array([0.0, np.exp(0.5j)])
        out, dropouts = demodulate(z)
        assert dropouts == 1
        assert out[0] == 0.0


    @pytest.mark.parametrize("dead", [[0], [0, 1, 2], [7], [7, 8, 9, 40],
                                      [399], list(range(390, 400)),
                                      list(range(400))])
    def test_fill_is_bit_identical_to_the_sequential_rule(self, dead):
        # reference: each dead sample, in order, copies its predecessor's
        # wrapped phase (sample 0 takes 0.0)
        rng = np.random.default_rng(3)
        z = rng.uniform(0.5, 2.0, 400) * np.exp(1j * rng.uniform(-4, 4, 400))
        z[dead] = complex(-0.0, 0.0)
        wrapped = np.arctan2(z.imag, z.real)
        for i in dead:
            wrapped[i] = wrapped[i - 1] if i > 0 else 0.0
        out, dropouts = demodulate(z)
        assert dropouts == len(dead)
        assert out.tobytes() == np.unwrap(wrapped).tobytes()

    def test_negative_zero_first_sample_reads_zero(self):
        # arctan2(0.0, -0.0) is pi; a dead first sample still reads 0.0
        z = np.array([complex(-0.0, 0.0), complex(-0.0, 0.0), np.exp(0.5j)])
        assert np.arctan2(z.imag, z.real)[0] == np.pi
        out, dropouts = demodulate(z)
        assert dropouts == 2
        assert out[:2].tolist() == [0.0, 0.0]
        assert out[2] == 0.5

    @pytest.mark.parametrize("bad", [complex(np.nan, np.nan),
                                     complex(np.nan, 1.0),
                                     complex(np.inf, 0.0),
                                     complex(-np.inf, np.inf)])
    @pytest.mark.parametrize("dead", [[0], [0, 1, 2], [7, 8, 9, 40],
                                      list(range(100, 300)), [399]])
    def test_non_finite_run_demodulates_like_zeros(self, bad, dead):
        rng = np.random.default_rng(4)
        z = rng.uniform(0.5, 2.0, 400) * np.exp(1j * rng.uniform(-4, 4, 400))
        zeros = z.copy()
        zeros[dead] = 0.0
        z[dead] = bad
        out, dropouts = demodulate(z)
        expected, expected_dropouts = demodulate(zeros)
        assert dropouts == expected_dropouts == len(dead)
        assert out.tobytes() == expected.tobytes()
        if dead[0] == 0:
            assert out[0] == 0.0

    def test_nan_run_in_a_record_stays_local(self):
        # 3 s of NaN from 50 s on: unwrapped as they were, they made the
        # rest of the record NaN
        sc = masking_scenario(0, variant="b", duration_s=120.0)
        z = scenario_slow_time(sc)
        z[5000:5300] = np.nan
        phase = slow_time_phase(z, sc.radar.frame_rate_hz)
        z[5000:5300] = 0.0
        zeros = slow_time_phase(z, sc.radar.frame_rate_hz)
        assert phase.dropouts == zeros.dropouts == 300
        assert np.isfinite(phase.samples).all()
        assert phase.samples.tobytes() == zeros.samples.tobytes()


class TestPhaseExtraction:
    def test_bin_bounds(self):
        profiles = make_profiles(np.ones((4, 10)))
        with pytest.raises(ValueError, match="outside"):
            extract_phase(profiles, 10)

    def test_slow_time_phase_matches_source(self):
        theta = 0.2 + 2.5 * np.sin(2 * np.pi * 0.3 * np.arange(400) / 100.0)
        phase = slow_time_phase(np.exp(1j * theta), 100.0)
        np.testing.assert_allclose(phase.samples, theta, atol=1e-12)
        assert phase.sample_rate == 100.0
        assert phase.source_bin == -1


class TestEnhancePhase:
    def test_width_zero_is_plain_extraction(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(30, 3))
        profiles = phase_profiles([s[:, 0], s[:, 1], s[:, 2]])
        plain = extract_phase(profiles, 1)
        enhanced = enhance_phase(profiles, 1, width=0)
        np.testing.assert_array_equal(enhanced.samples, plain.samples)

    def test_correlated_neighbors_reduce_noise(self):
        rng = np.random.default_rng(2)
        t = np.arange(1000) / 100.0
        s = 1.2 * np.sin(2 * np.pi * 0.3 * t)
        bins = [s + 0.15 * rng.normal(size=t.size) for _ in range(5)]
        profiles = phase_profiles(bins)
        single = extract_phase(profiles, 2)
        fused = enhance_phase(profiles, 2, width=2, min_corr=0.7)
        err_single = np.std(single.samples - s)
        err_fused = np.std(fused.samples - s)
        assert err_fused < err_single

    def test_uncorrelated_neighbor_is_excluded(self):
        rng = np.random.default_rng(3)
        t = np.arange(600) / 100.0
        s = np.sin(2 * np.pi * 0.3 * t)
        noise = rng.normal(size=t.size)
        profiles = phase_profiles([noise, s, -s])
        fused = enhance_phase(profiles, 1, width=1, min_corr=0.7)
        target = extract_phase(profiles, 1)
        # demean/re-add rounding only; any leakage would show at O(1)
        np.testing.assert_allclose(fused.samples, target.samples,
                                   atol=1e-12)

    def test_target_mean_is_preserved(self):
        t = np.arange(600) / 100.0
        s = np.sin(2 * np.pi * 0.3 * t)
        profiles = phase_profiles([s + 0.5, s + 1.0])
        fused = enhance_phase(profiles, 0, width=1, min_corr=0.7)
        assert np.mean(fused.samples) == pytest.approx(np.mean(s) + 0.5,
                                                       abs=1e-9)

    def test_a_dead_frame_counts_once(self):
        # every frame is dead in some contributing bin, none in all of them
        t = np.arange(600) / 100.0
        s = np.sin(2 * np.pi * 0.3 * t)
        profiles = phase_profiles([s] * 5)
        for b in range(5):
            profiles.values[b::5, b] = 0.0 if b % 2 else np.nan
            profiles.values[(b + 1) % 5::5, b] = 0.0
        fused = enhance_phase(profiles, 2, width=2, min_corr=0.7)
        assert extract_phase(profiles, 2).dropouts == 240
        assert fused.dropouts == fused.samples.size == 600

    def test_negative_width_rejected(self):
        profiles = phase_profiles([np.zeros(20)])
        with pytest.raises(ValueError, match="width"):
            enhance_phase(profiles, 0, width=-1)

    def test_nan_min_corr_rejected(self):
        profiles = phase_profiles([np.zeros(20)])
        with pytest.raises(ValueError, match="min_corr must be a number"):
            enhance_phase(profiles, 0, min_corr=float("nan"))


class TestCubePhase:
    def test_end_to_end_recovers_chest_motion(self):
        sc = Scenario(duration_s=4.0)
        cube = synthesize_radar_cube(sc)
        phase = cube_phase(cube)
        assert phase.source_bin == 23
        truth = synthesize_displacement(sc)
        truth_rad = 4.0 * np.pi * truth / sc.radar.wavelength_m
        err = (phase.samples - np.mean(phase.samples)
               - (truth_rad - np.mean(truth_rad)))
        assert np.max(np.abs(err)) < 1e-3

    def test_dropouts_count_frames(self):
        cube = synthesize_radar_cube(Scenario(duration_s=10.0))
        assert cube_phase(cube).dropouts == 0
        cube.iq[100:110] = 0.0
        phase = cube_phase(cube)
        assert phase.dropouts == 10
        assert extract_phase(range_profiles(cube),
                             phase.source_bin).dropouts == 10

    def test_noisy_cube_tracks_from_the_target_bin_alone(self):
        # at sigma 6 a neighbor bin's unwrap slips; averaging its phase
        # into the target's put ahet 33 BPM off, the target bin alone is
        # within 0.1 BPM
        sc = dataclasses.replace(
            masking_scenario(1, variant="c", duration_s=120.0),
            complex_noise_std=6.0)
        phase = cube_phase(synthesize_radar_cube(sc))
        assert rmse(ahet_trace(phase, cpi_s=20.0),
                    reference_trace(sc, 20.0)) < 1.0


class TestPrecision:
    def test_profiles_are_complex64_for_either_cube_precision(self):
        cube = synthesize_radar_cube(Scenario(duration_s=1.0))
        assert cube.iq.dtype == np.complex128
        single = RadarCube(cube.iq.astype(np.complex64), cube.config)
        for c in (cube, single):
            assert range_profiles(c).values.dtype == np.complex64

    def test_phase_is_double_precision(self):
        profiles = range_profiles(synthesize_radar_cube(Scenario(
            duration_s=1.0)))
        assert extract_phase(profiles, 23).samples.dtype == np.float64
        assert enhance_phase(profiles, 23).samples.dtype == np.float64

    def test_file_cube_phase_matches_a_complex128_reference(self, tmp_path):
        sc = masking_scenario(0, variant="b", duration_s=40.0)
        path = tmp_path / "cube.bin"
        write_raw_cube(synthesize_radar_cube(sc), path)
        cube = read_raw_cube(path)

        window = get_window("hann", cube.n_fast, fftbins=False)
        spectra = np.fft.fft(cube.iq.astype(np.complex128) * window, axis=1)
        reference = RangeProfiles(spectra[:, :cube.n_fast // 2],
                                  cube.config.frame_rate_hz,
                                  cube.config.range_bin_width_m, cube.config)
        target = detect_target_bin(reference, 0.3, 3.0)
        theta = demodulate(spectra[:, target])[0]
        phase = cube_phase(cube)
        assert phase.source_bin == target
        err = ((phase.samples - np.mean(phase.samples))
               - (theta - np.mean(theta)))
        assert np.max(np.abs(err)) < 1e-4


def write_noise_cube(path, frames, seed=0):
    """A file cube of complex noise; its gate holds residual power."""
    rng = np.random.default_rng(seed)
    n_fast = RadarConfig().adc_samples_per_chirp
    iq = rng.normal(size=(frames, n_fast)) + 1j * rng.normal(size=(frames,
                                                                  n_fast))
    write_raw_cube(RadarCube(iq, RadarConfig()), path)
    return read_raw_cube(path)


class TestFileCubeDecode:
    @pytest.mark.parametrize("frames", [_FFT_CHUNK_FRAMES - 1,
                                        _FFT_CHUNK_FRAMES,
                                        _FFT_CHUNK_FRAMES + 1,
                                        2 * _FFT_CHUNK_FRAMES + 1])
    def test_chunked_decode_is_the_decoded_cube(self, tmp_path, frames):
        # the last chunk is partial, full, and one frame long
        cube = write_noise_cube(tmp_path / "cube.bin", frames)
        decoded = RadarCube(cube.iq, cube.config)
        assert decoded.iq.dtype == np.complex64
        assert (range_profiles(cube).values.tobytes()
                == range_profiles(decoded).values.tobytes())

    def test_peak_memory_holds_no_decoded_cube(self, tmp_path):
        # the gate's columns, plus a few MB of chunk buffers and detection
        # blocks; the int16 words or all the one-sided spectra would each
        # add as much again
        frames = 16 * _FFT_CHUNK_FRAMES
        path = tmp_path / "cube.bin"
        write_noise_cube(path, frames)
        config = RadarConfig()
        gate = gate_bins(config.adc_samples_per_chirp // 2,
                         config.range_bin_width_m, 0.3, 3.0)
        gated = frames * len(gate) * 8
        tracemalloc.start()
        try:
            cube_phase(read_raw_cube(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gated + 8e6


@pytest.fixture(scope="module")
def cubes(tmp_path_factory):
    """One 6 s record (more than one FFT chunk) in memory and from file;
    its target sits in bin 23."""
    memory = synthesize_radar_cube(Scenario(duration_s=6.0))
    path = tmp_path_factory.mktemp("cube") / "cube.bin"
    write_raw_cube(memory, path)
    return {"memory": memory, "file": read_raw_cube(path)}


BIN_RANGES = np.arange(100) * RadarConfig().range_bin_width_m


class TestHeldBins:
    @pytest.mark.parametrize("kind", ["memory", "file"])
    @pytest.mark.parametrize("bins", [range(0, 1), range(7, 71),
                                      range(5, 73), range(95, 100),
                                      range(99, 100), range(0, 100)])
    def test_held_run_is_the_full_profiles_columns(self, cubes, kind, bins):
        cube = cubes[kind]
        full = range_profiles(cube)
        held = range_profiles(cube, bins)
        assert held.first_bin == bins.start and held.held == bins
        assert held.values.flags.c_contiguous and held.values.flags.owndata
        assert (held.values.tobytes()
                == full.values[:, bins.start:bins.stop].tobytes())
        assert (held.bin_ranges().tobytes()
                == full.bin_ranges()[bins.start:bins.stop].tobytes())

    @pytest.mark.parametrize("bins", [range(5, 5), range(-1, 3),
                                      range(0, 101), range(0, 10, 2)])
    def test_rejects_a_run_outside_the_one_sided_bins(self, cubes, bins):
        with pytest.raises(ValueError, match="not a non-empty run"):
            range_profiles(cubes["memory"], bins)

    def test_cube_and_config_must_agree_on_fast_time(self):
        cube = RadarCube(np.ones((4, 8), dtype=complex), RadarConfig())
        with pytest.raises(ValueError, match="8 fast-time samples per "
                                             "frame, its config 200"):
            range_profiles(cube)

    def test_gate_edges_are_the_bin_ranges(self):
        # the gate compares each bin's own range with its edges, so a gate
        # from a bin's exact range to itself holds that bin alone; a rule
        # that divides the edges by the bin width would misplace some of
        # them (3 * width / width is 2.9999999999999996, which floors to 2)
        width = RadarConfig().range_bin_width_m
        assert BIN_RANGES[3] / width < 3
        for b in range(100):
            edge = BIN_RANGES[b]
            assert gate_bins(100, width, edge, edge) == range(b, b + 1)
        assert gate_bins(100, width, 0.3, 3.0) == range(7, 71)
        assert gate_bins(100, width, 0.0, 1e3) == range(0, 100)

    @pytest.mark.parametrize("bins", [range(10, 40), range(7, 70),
                                      range(8, 71), range(40, 100)])
    def test_detection_needs_the_whole_gate(self, cubes, bins):
        # the target (bin 23) is held in the first three: a detection in
        # the held part alone would find it and hide the missing bins
        profiles = range_profiles(cubes["memory"], bins)
        with pytest.raises(ValueError, match="not all of the range gate's "
                                             "7..70"):
            detect_target_bin(profiles, 0.3, 3.0)

    def test_detection_returns_absolute_bins(self, cubes):
        full = range_profiles(cubes["memory"])
        for bins in (range(7, 71), range(0, 100), range(3, 90)):
            profiles = range_profiles(cubes["memory"], bins)
            assert detect_target_bin(profiles, 0.3, 3.0) == 23
            phase = extract_phase(profiles, 23)
            assert phase.source_bin == 23
            assert (phase.samples.tobytes()
                    == extract_phase(full, 23).samples.tobytes())

    def test_extraction_outside_the_held_run_raises(self, cubes):
        profiles = range_profiles(cubes["memory"], range(20, 30))
        for b in (19, 30):
            with pytest.raises(ValueError, match=f"bin {b} outside 20..29"):
                extract_phase(profiles, b)

    def test_enhancement_clips_neighbors_to_the_held_run(self):
        rng = np.random.default_rng(5)
        t = np.arange(600) / 100.0
        s = np.sin(2 * np.pi * 0.3 * t)
        bins = [s + 0.1 * rng.normal(size=t.size) for _ in range(3)]
        at_zero = enhance_phase(phase_profiles(bins), 0, width=2)
        held = enhance_phase(phase_profiles(bins, first_bin=40), 40, width=2)
        assert held.source_bin == 40
        assert held.samples.tobytes() == at_zero.samples.tobytes()


GATES = {
    "target first": (BIN_RANGES[23], 3.0),
    "target last": (0.3, BIN_RANGES[23]),
    "target alone": (BIN_RANGES[23], BIN_RANGES[23]),
    "rounding edges": (BIN_RANGES[3], BIN_RANGES[24]),
    "from 0 m": (0.0, 3.0),
    "to the last bin": (2.0, BIN_RANGES[99]),
    "past the last bin": (0.3, 1e3),
}


class TestCubePhaseHoldsTheGate:
    @pytest.mark.parametrize("kind", ["memory", "file"])
    @pytest.mark.parametrize("gate", GATES.values(), ids=GATES.keys())
    def test_is_the_full_profiles_chain(self, cubes, kind, gate):
        cube = cubes[kind]
        full = range_profiles(cube)
        target = detect_target_bin(full, *gate)
        expected = extract_phase(full, target)
        phase = cube_phase(cube, gate)
        assert phase.source_bin == target
        assert phase.dropouts == expected.dropouts
        assert phase.samples.tobytes() == expected.samples.tobytes()
        if BIN_RANGES[23] in gate:
            assert target == 23

    @pytest.mark.parametrize("kind", ["memory", "file"])
    @pytest.mark.parametrize("gate, message", [
        ((3.0, 0.3), "range gate is inverted"),
        ((0.1, 0.11), "covers no bins"),
        ((0.3, float("nan")), "covers no bins"),
    ])
    def test_bad_settings_fail_before_any_frame_is_read(
            self, cubes, monkeypatch, kind, gate, message):
        cube = cubes[kind]
        calls = []
        read = cube.frames
        monkeypatch.setattr(cube, "frames",
                            lambda *a, **k: calls.append(a) or read(*a, **k))
        with pytest.raises(ValueError, match=message):
            cube_phase(cube, gate)
        assert calls == []
        cube_phase(cube)
        assert len(calls) == 2     # 600 frames: two chunks


class TestEnhancePhaseOnAHeldRun:
    # enhance_phase is off the pipeline but still a library function: on a
    # run of the gate and width neighbors each side, clipped to the
    # one-sided bins, it is byte-equal to the same call on full profiles
    @pytest.mark.parametrize("kind", ["memory", "file"])
    @pytest.mark.parametrize("gate", GATES.values(), ids=GATES.keys())
    @pytest.mark.parametrize("width", [0, 1, 2, 5])
    def test_is_the_full_profiles_chain(self, cubes, kind, gate, width):
        cube = cubes[kind]
        full = range_profiles(cube)
        n_half = full.values.shape[1]
        gate_run = gate_bins(n_half, cube.config.range_bin_width_m, *gate)
        held = range_profiles(cube, range(
            max(0, gate_run.start - width),
            min(n_half, gate_run.stop + width)))
        target = detect_target_bin(held, *gate)
        assert target == detect_target_bin(full, *gate)
        expected = enhance_phase(full, target, width)
        phase = enhance_phase(held, target, width)
        assert phase.source_bin == target
        assert phase.dropouts == expected.dropouts
        assert phase.samples.tobytes() == expected.samples.tobytes()
