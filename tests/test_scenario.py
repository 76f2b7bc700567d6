"""Simulator geometry, validation, and reproducibility checks."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.signal import get_window

from pulsecancel.ahet import AhetConfig, conventional_trace
from pulsecancel.ingest import RawCubeHeader
from pulsecancel.preprocess import cube_phase, range_profiles
from pulsecancel.scenario import (BREATHING_AMPLITUDE_M, FAMILIES,
                                  IntermodTone, RadarConfig, Scenario,
                                  displacement_to_phase, fig_masking_scenario,
                                  load_scenario, masking_scenario,
                                  reference_trace, scenario_slow_time,
                                  synthesize_displacement,
                                  sliding_windows, synthesize_radar_cube,
                                  synthesize_slow_time, window_starts)


class TestRadarConfig:
    def test_derived_geometry(self):
        cfg = RadarConfig()
        assert cfg.wavelength_m == 0.003896103896103896
        assert cfg.bandwidth_hz == 3.5e9
        assert cfg.range_bin_width_m == 0.04285714285714286
        assert cfg.unambiguous_range_m == 4.285714285714286
        assert cfg.frame_rate_hz == 100.0

    def test_beat_frequency_is_linear_in_range(self):
        cfg = RadarConfig()
        assert cfg.beat_frequency_hz(1.0) == 466666.6666666667
        assert cfg.beat_frequency_hz(2.0) == 2.0 * cfg.beat_frequency_hz(1.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            RadarConfig(carrier_frequency_hz=0.0)
        with pytest.raises(ValueError):
            RadarConfig(adc_samples_per_chirp=1)

    def test_rejects_adc_window_longer_than_chirp(self):
        with pytest.raises(ValueError, match="longer than the chirp"):
            RadarConfig(adc_samples_per_chirp=400, chirp_duration_s=50e-6)

    @pytest.mark.parametrize("count", [10**400, 2**1024],
                             ids=["10**400", "2**1024"])
    def test_a_count_past_the_largest_float_is_a_value_error(self, count):
        # dividing it by the sample rate raised OverflowError
        with pytest.raises(ValueError,
                           match="^ADC window longer than the chirp$"):
            RadarConfig(adc_samples_per_chirp=count)

    def test_a_count_past_the_largest_float_in_a_huge_chirp_is_rejected(
            self):
        # the window fits the chirp (its product is inf), but bandwidth_hz
        # and range_bin_width_m raised OverflowError
        with pytest.raises(ValueError, match="^adc_samples_per_chirp must "
                                             "be at most the largest "
                                             "float$"):
            RadarConfig(chirp_duration_s=1e200, adc_sample_rate_hz=1e200,
                        adc_samples_per_chirp=10**400)

    def test_the_adc_window_may_fill_the_chirp(self):
        # 200 samples at 4 MHz are exactly the 50 us chirp
        assert RadarConfig(adc_samples_per_chirp=200, adc_sample_rate_hz=4e6,
                           chirp_duration_s=50e-6).adc_samples_per_chirp \
            == 200
        with pytest.raises(ValueError, match="longer than the chirp"):
            RadarConfig(adc_samples_per_chirp=201, adc_sample_rate_hz=4e6,
                        chirp_duration_s=50e-6)


class TestIntermodTone:
    def test_rule_frequencies(self):
        rr, hr = 0.26, 1.2
        assert IntermodTone("HR-RR", 1e-4).frequency_hz(rr, hr) == hr - rr
        assert IntermodTone("HR+RR", 1e-4).frequency_hz(rr, hr) == hr + rr
        assert IntermodTone("HR+2RR", 1e-4).frequency_hz(rr, hr) == pytest.approx(hr + 2 * rr)

    def test_explicit_frequency_passes_through(self):
        assert IntermodTone(1.5, 1e-4).frequency_hz(0.26, 1.2) == 1.5

    def test_rejects_unknown_rule_and_negative_amplitude(self):
        with pytest.raises(ValueError, match="unknown intermod rule"):
            IntermodTone("HR*RR", 1e-4)
        with pytest.raises(ValueError, match="amplitude"):
            IntermodTone("HR-RR", -1e-4)


class TestScenarioValidation:
    @pytest.mark.parametrize("name, value", [
        ("breathing_hz", float("nan")), ("clutter", [[1.0, 2.0, 3.0]]),
        ("seed", 1)])
    def test_a_checked_scenario_cannot_be_changed(self, name, value):
        # assigned after the checks, a NaN rate synthesized NaN samples
        sc = fig_masking_scenario()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sc, name, value)
        assert sc == fig_masking_scenario()

    def test_replace_checks_the_copy(self):
        sc = fig_masking_scenario()
        with pytest.raises(ValueError, match="^breathing_hz must be a "
                                             "finite number"):
            dataclasses.replace(sc, breathing_hz=float("nan"))
        with pytest.raises(ValueError, match="clutter entry"):
            dataclasses.replace(sc, clutter=[[1.0, 2.0, 3.0]])
        # the tuples it keeps pass the checks of a copy, and lists become
        # tuples again
        copy = dataclasses.replace(sc, seed=5,
                                   heartbeat_harmonics=[[3e-4, 0.2]])
        assert copy.breathing_harmonics == sc.breathing_harmonics
        assert copy.intermod_tones == sc.intermod_tones
        assert copy.heartbeat_harmonics == ((3e-4, 0.2),)
        assert copy.seed == 5

    def test_rates_must_sit_in_their_bands(self):
        with pytest.raises(ValueError, match="breathing rate"):
            Scenario(breathing_hz=0.05)
        with pytest.raises(ValueError, match="heart rate"):
            Scenario(heartbeat_hz=2.5)

    def test_amplitude_bounds_and_override(self):
        hi = BREATHING_AMPLITUDE_M[1]
        with pytest.raises(ValueError, match="breathing amplitude"):
            Scenario(breathing_harmonics=[(hi * 2, 0.0)])
        sc = Scenario(breathing_harmonics=[(hi * 2, 0.0)],
                      allow_amplitude_override=True)
        assert sc.breathing_harmonics[0][0] == hi * 2

    def test_duration_must_be_integer_frames(self):
        with pytest.raises(ValueError, match="integer number of frames"):
            Scenario(duration_s=1.2345)
        assert Scenario(duration_s=20.0).n_frames == 2000

    def test_simulated_content_must_stay_below_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            Scenario(intermod_tones=[IntermodTone(55.0, 1e-4)])

    def test_a_negative_tone_frequency_aliases_like_a_positive_one(self):
        # -70 Hz at 100 frames/s was compared signed and passed
        for f in (70.0, -70.0):
            with pytest.raises(ValueError, match="70.000 Hz reaches the "
                                                 "slow-time Nyquist"):
                Scenario(duration_s=2.0, intermod_tones=[(f, 1e-4)])
        assert Scenario(duration_s=2.0,
                        intermod_tones=[(-3.0, 1e-4)]).n_frames == 200

    def test_a_negative_seed_is_rejected_up_front(self):
        # it passed here and failed in synthesis with numpy's message
        message = "seed must be a non-negative integer, got -1"
        with pytest.raises(ValueError, match=message):
            Scenario(seed=-1)
        with pytest.raises(ValueError, match=message):
            load_scenario({"seed": -1})
        assert Scenario(seed=0).seed == 0

    def test_clutter_range_must_be_positive(self):
        with pytest.raises(ValueError, match="clutter range"):
            Scenario(clutter=[(-0.5, 1.0)])

    def test_needs_both_fundamentals(self):
        with pytest.raises(ValueError, match="fundamental"):
            Scenario(heartbeat_harmonics=[])


# a valid instance of each class; each case below changes one field
BASES = (RadarConfig(), IntermodTone("HR-RR", 1e-4), Scenario(duration_s=2.0),
         RawCubeHeader(6, 200, RadarConfig()), AhetConfig())


def typed_fields(kind):
    """(instance, field name) of every field annotated kind."""
    return [pytest.param(base, f.name, id=f"{type(base).__name__}.{f.name}")
            for base in BASES for f in dataclasses.fields(base)
            if f.type is kind]


class TestFieldTypes:
    """The annotations are the type checks: each case is driven by them."""

    def test_every_annotation_is_one_the_type_rule_reads(self):
        # a string annotation would match none of the cases below
        assert {f.type for base in BASES for f in dataclasses.fields(base)} \
            == {float, int, bool, list | tuple, RadarConfig, str | float}

    @pytest.mark.parametrize("base, name", typed_fields(float))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), True, "1", 10**400])
    def test_a_float_field_holds_a_finite_number(self, base, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite "
                                             f"number, got "):
            dataclasses.replace(base, **{name: value})

    @pytest.mark.parametrize("base, name", typed_fields(int))
    @pytest.mark.parametrize("value", [1.5, True])
    def test_an_int_field_holds_an_integer(self, base, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, "
                                             f"got {value!r}"):
            dataclasses.replace(base, **{name: value})

    @pytest.mark.parametrize("base, name", typed_fields(bool))
    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_a_bool_field_holds_a_bool(self, base, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be true or "
                                             f"false, got {value!r}"):
            dataclasses.replace(base, **{name: value})

    def test_the_tone_rule_is_a_name_or_a_finite_number(self):
        for rule in (float("nan"), True, None):
            with pytest.raises(ValueError, match=r"^rule must be a str or a "
                                                 r"finite number"):
                IntermodTone(rule, 1e-4)
        assert IntermodTone(3, 1e-4).frequency_hz(0.26, 1.2) == 3.0


class TestDisplacement:
    def test_single_tone_matches_closed_form(self):
        sc = Scenario(duration_s=10.0, breathing_hz=0.25,
                      breathing_harmonics=[(1.5e-3, 0.3)],
                      heartbeat_harmonics=[(0.0, 0.0)],
                      allow_amplitude_override=True)
        disp = synthesize_displacement(sc)
        # one sample per frame at the radar's 100 Hz frame rate
        t = np.arange(sc.n_frames) / 100.0
        expected = 1.5e-3 * np.sin(2 * np.pi * 0.25 * t + 0.3)
        np.testing.assert_allclose(disp, expected, atol=1e-15)

    def test_harmonics_and_tones_superpose(self):
        sc = Scenario(duration_s=10.0,
                      breathing_harmonics=[(1.5e-3, 0.0), (4e-4, 0.2)],
                      intermod_tones=[IntermodTone("HR-RR", 2e-4, 0.1)])
        d = synthesize_displacement(sc)
        t = np.arange(sc.n_frames) / 100.0
        manual = np.zeros_like(t)
        for k, (amp, ph) in enumerate(sc.breathing_harmonics, start=1):
            manual += amp * np.sin(2 * np.pi * k * sc.breathing_hz * t + ph)
        for l, (amp, ph) in enumerate(sc.heartbeat_harmonics, start=1):
            manual += amp * np.sin(2 * np.pi * l * sc.heartbeat_hz * t + ph)
        f = sc.heartbeat_hz - sc.breathing_hz
        manual += 2e-4 * np.sin(2 * np.pi * f * t + 0.1)
        np.testing.assert_allclose(d, manual, atol=1e-15)

    def test_half_millimeter_maps_to_known_phase(self):
        theta = displacement_to_phase(np.array([5e-4]), RadarConfig())
        assert theta.samples[0] == pytest.approx(1.6126842288427605, abs=1e-12)
        assert theta.sample_rate == 100.0


class TestSlowTime:
    def test_noiseless_is_unit_modulus(self):
        theta = np.linspace(0.0, 1.0, 200)
        z = synthesize_slow_time(theta)
        np.testing.assert_allclose(np.abs(z), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.angle(z), theta, atol=1e-12)

    def test_noise_is_seed_reproducible(self):
        theta = np.zeros(500)
        a = synthesize_slow_time(theta, complex_noise_std=0.1, seed=3)
        b = synthesize_slow_time(theta, complex_noise_std=0.1, seed=3)
        c = synthesize_slow_time(theta, complex_noise_std=0.1, seed=4)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_scenario_slow_time_deterministic(self):
        sc = masking_scenario(5, variant="b", duration_s=40.0)
        np.testing.assert_array_equal(scenario_slow_time(sc),
                                      scenario_slow_time(sc))


class TestRadarCube:
    def test_cubes_compare_by_identity(self):
        # as phases do; the generated __eq__ raised on the samples' truth
        sc = Scenario(duration_s=1.0)
        cube = synthesize_radar_cube(sc)
        assert (cube == synthesize_radar_cube(sc)) is False
        assert (cube == cube) is True
        assert len({cube, cube}) == 1

    def test_shape_and_dtype(self, fixture_scenario):
        cube = synthesize_radar_cube(fixture_scenario)
        assert cube.iq.shape == (2000, 200)
        assert np.iscomplexobj(cube.iq)

    def test_rejects_scatterer_beyond_unambiguous_range(self):
        sc = Scenario(duration_s=2.0, standoff_m=4.5)
        with pytest.raises(ValueError, match="unambiguous"):
            synthesize_radar_cube(sc)

    def test_rejects_target_crossing_zero_range(self):
        # one full breathing cycle so the trough below -1 mm is sampled
        sc = Scenario(duration_s=6.0, standoff_m=1e-3)
        with pytest.raises(ValueError, match="positive"):
            synthesize_radar_cube(sc)

    def test_static_clutter_adds_constant_return(self):
        sc = Scenario(duration_s=2.0, clutter=[(2.0, 0.5)])
        with_clutter = synthesize_radar_cube(sc).iq
        sc2 = Scenario(duration_s=2.0)
        without = synthesize_radar_cube(sc2).iq
        diff = with_clutter - without
        # a fixed scatterer contributes the same chirp to every frame
        np.testing.assert_allclose(
            diff, np.broadcast_to(diff[0], diff.shape), atol=1e-12)

    def test_phase_noise_jitters_the_extracted_phase(self):
        clean = cube_phase(synthesize_radar_cube(Scenario(duration_s=20.0)))
        noisy_sc = Scenario(duration_s=20.0, phase_noise_std=0.05)
        noisy = cube_phase(synthesize_radar_cube(noisy_sc))
        assert noisy.source_bin == clean.source_bin
        jitter = noisy.samples - clean.samples
        assert np.std(jitter) == pytest.approx(0.05, rel=0.05)
        # one draw per frame, as on the slow-time path
        expected = np.random.default_rng(0).normal(0.0, 0.05, 2000)
        assert np.corrcoef(jitter, expected)[0, 1] > 0.99

    def test_complex_noise_is_per_sample_on_the_cube_path(self):
        # sigma per ADC sample becomes sigma * sqrt(sum w^2) in a noise-only
        # range bin; on the slow-time path it is sigma per frame
        sigma = 0.1
        sc = Scenario(duration_s=30.0, complex_noise_std=sigma)
        profiles = range_profiles(synthesize_radar_cube(sc))
        window = get_window("hann", sc.radar.adc_samples_per_chirp,
                            fftbins=False)
        # bins 50-99 (2.1-4.2 m) hold no scatterer: the target sits at 1 m
        noise = np.sqrt(np.mean(profiles.mean_power()[50:]))
        assert noise == pytest.approx(sigma * np.sqrt(np.sum(window ** 2)),
                                      rel=0.01)
        assert np.sqrt(np.sum(window ** 2)) == pytest.approx(8.64, abs=0.01)

        disp = synthesize_displacement(sc)
        theta = displacement_to_phase(disp, sc.radar).samples
        residual = scenario_slow_time(sc) - np.exp(1j * theta)
        assert np.sqrt(np.mean(np.abs(residual) ** 2)) == pytest.approx(
            sigma, rel=0.03)

    def test_transmit_power_scales_the_cube_path_only(self):
        quiet = Scenario(duration_s=2.0, complex_noise_std=0.1)
        loud = Scenario(duration_s=2.0, complex_noise_std=0.1,
                        transmit_power_scale=4.0)
        np.testing.assert_array_equal(scenario_slow_time(quiet),
                                      scenario_slow_time(loud))
        ratio = (range_profiles(synthesize_radar_cube(loud)).mean_power()
                 / range_profiles(synthesize_radar_cube(quiet)).mean_power())
        # bin 23 holds the 1 m target: 4x its amplitude is 16x its power
        assert ratio[23] == pytest.approx(16.0, rel=0.01)

    def test_phase_noise_is_seed_reproducible(self):
        def cube(seed):
            sc = Scenario(duration_s=2.0, phase_noise_std=0.05, seed=seed)
            return synthesize_radar_cube(sc).iq

        np.testing.assert_array_equal(cube(3), cube(3))
        assert np.any(cube(3) != cube(4))

class TestWindows:
    def test_sliding_window_count(self):
        starts = window_starts(28000, 100.0, 20.0, 1.0)
        assert len(starts) == 261
        assert starts[0] == 0
        assert starts[-1] == 26000

    def test_rejects_window_longer_than_record(self):
        with pytest.raises(ValueError, match="longer than record"):
            window_starts(100, 100.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            window_starts(1000, 100.0, 2.0, 0.0)

    def test_sliding_windows_are_views_at_window_starts(self):
        x = np.arange(1000.0)
        for window_s, step_s in ((2.0, 1.0), (2.5, 0.7), (10.0, 3.0)):
            starts, stack = sliding_windows(x, 100.0, window_s, step_s)
            assert starts == window_starts(x.size, 100.0, window_s, step_s)
            assert np.shares_memory(stack, x)
            n = int(round(window_s * 100.0))
            np.testing.assert_array_equal(
                stack, np.array([x[i0:i0 + n] for i0 in starts]))
        with pytest.raises(ValueError, match="positive"):
            sliding_windows(x, 100.0, -1.0, 1.0)

    def test_reference_trace_centers_and_value(self, fixture_scenario):
        trace = reference_trace(fixture_scenario, 20.0)
        assert len(trace) == 1
        assert trace.entries[0].time_s == 10.0
        assert trace.entries[0].hr_bpm == pytest.approx(76.6)
        with pytest.raises(ValueError, match="longer than record"):
            reference_trace(fixture_scenario, 30.0)

    def test_reference_trace_follows_the_window_layout(self, fixture_scenario,
                                                       fixture_phase):
        # 20.004 s rounds to the record's 2000 samples: one window, not a
        # CPI longer than the 20 s scenario
        for cpi_s in (20.0, 20.004, 7.3):
            reference = reference_trace(fixture_scenario, cpi_s)
            trace = conventional_trace(fixture_phase, cpi_s=cpi_s)
            assert reference.times().tolist() == trace.times().tolist()
        assert len(reference_trace(fixture_scenario, 20.004)) == 1


class TestFamilies:
    def test_fixture_rates_and_tones(self, fixture_scenario):
        sc = fixture_scenario
        assert sc.breathing_hz == pytest.approx(15.6 / 60.0)
        assert sc.heartbeat_hz == pytest.approx(76.6 / 60.0)
        assert sc.duration_s == 20.0
        assert sc.complex_noise_std == 0.0
        assert [t.rule for t in sc.intermod_tones] == ["HR-RR", "HR+RR",
                                                       "HR+2RR"]

    def test_masking_scenario_bands(self):
        for seed in range(8):
            sc = masking_scenario(seed)
            assert 14.5 / 60 <= sc.breathing_hz <= 17.0 / 60
            assert 70.0 / 60 <= sc.heartbeat_hz <= 85.0 / 60
            assert sc.complex_noise_std == 0.1
            assert len(sc.intermod_tones) == 3

    def test_masking_scenario_is_seeded(self):
        a = masking_scenario(9, variant="c")
        b = masking_scenario(9, variant="c")
        assert a.breathing_hz == b.breathing_hz
        assert a.heartbeat_harmonics == b.heartbeat_harmonics

    def test_variant_validation_and_registry(self):
        with pytest.raises(ValueError, match="variant"):
            masking_scenario(0, variant="z")
        assert set(FAMILIES) == {"masking", "masking-a", "masking-b",
                                 "masking-c"}
        sc = FAMILIES["masking-a"](3, duration_s=20.0)
        assert sc.duration_s == 20.0


class TestLoadScenario:
    def test_bpm_keys_convert(self):
        sc = load_scenario({"breathing_bpm": 15.6, "heartbeat_bpm": 76.6,
                            "duration_s": 20.0})
        assert sc.breathing_hz == pytest.approx(15.6 / 60.0)
        assert sc.heartbeat_hz == pytest.approx(76.6 / 60.0)

    def test_rejects_rate_given_both_ways(self):
        with pytest.raises(ValueError, match="not both"):
            load_scenario({"breathing_hz": 0.26, "breathing_bpm": 15.6})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            load_scenario({"breathing_rate": 0.26})

    def test_radar_override_and_lists(self):
        sc = load_scenario({
            "radar": {"adc_samples_per_chirp": 128},
            "breathing_harmonics": [[1.5e-3, 0.0], [4e-4, 0.1]],
            "intermod_tones": [["HR-RR", 2e-4, 0.0]],
            "clutter": [[1.5, 0.3]],
            "seed": 7,
        })
        assert sc.radar.adc_samples_per_chirp == 128
        assert sc.breathing_harmonics[1] == (4e-4, 0.1)
        assert sc.intermod_tones[0].rule == "HR-RR"
        assert sc.clutter == ((1.5, 0.3),)
        assert sc.seed == 7

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_scenario([1, 2, 3])

    @pytest.mark.parametrize("name", [f.name for f in
                                      dataclasses.fields(Scenario)])
    def test_accepts_every_field_by_name(self, name):
        value = as_json(EVERY_FIELD)[name]
        assert value != as_json(Scenario())[name]
        assert getattr(load_scenario({name: value}), name) \
            == getattr(EVERY_FIELD, name)

    @pytest.mark.parametrize("scenario", [fig_masking_scenario()] + [
        FAMILIES[family](seed) for family in sorted(FAMILIES)
        for seed in range(4)])
    def test_a_document_of_the_fields_loads_back_equal(self, scenario):
        assert load_scenario(as_json(scenario)) == scenario

    def test_entries_are_tuples_and_tones_however_built(self):
        # only the loader made tuples, so these compared unequal
        doc = {"breathing_harmonics": [[1.5e-3, 0.0]],
               "heartbeat_harmonics": [[3e-4, 0.2]], "clutter": [[1.5, 0.3]],
               "intermod_tones": [["HR-RR", 2e-4, 0.0]]}
        built = Scenario(**doc)
        assert built == load_scenario(doc)
        assert built.clutter == ((1.5, 0.3),)
        assert built.intermod_tones == (IntermodTone("HR-RR", 2e-4, 0.0),)

    @pytest.mark.parametrize("doc, message", [
        ({"clutter": [[1.0, 2.0, 3.0]]},
         r"clutter entry \[1.0, 2.0, 3.0\] must be a \(range_m, amplitude\) "
         r"pair of finite numbers"),
        ({"heartbeat_harmonics": [3e-4]},
         r"heartbeat_harmonics entry 0.0003 must be a \(amplitude_m, "
         r"phase_rad\) pair"),
        ({"allow_amplitude_override": "false",
          "breathing_harmonics": [[1.0, 0.0]]},
         "allow_amplitude_override must be true or false, got 'false'"),
        ({"breathing_hz": None}, "breathing_hz must be a finite number, "
                                 "got None"),
        ({"heartbeat_bpm": None}, "heartbeat_bpm must be a finite number, "
                                  "got None"),
        ({"radar": None}, "radar must be a RadarConfig, got None"),
        ({"clutter": None}, "clutter must be a list or a tuple, got None"),
        ({"seed": None}, "seed must be an integer, got None"),
    ])
    def test_names_the_bad_value(self, doc, message):
        with pytest.raises(ValueError, match=message):
            load_scenario(doc)


def as_json(scenario: Scenario) -> dict:
    """Every field of scenario, as a JSON document load_scenario reads."""
    doc = {f.name: getattr(scenario, f.name)
           for f in dataclasses.fields(scenario)}
    doc["radar"] = dataclasses.asdict(scenario.radar)
    doc["intermod_tones"] = [dataclasses.astuple(tone)
                             for tone in scenario.intermod_tones]
    return json.loads(json.dumps(doc))


# no field at its default
EVERY_FIELD = Scenario(
    radar=RadarConfig(adc_samples_per_chirp=128), duration_s=20.0,
    breathing_hz=0.3, breathing_harmonics=[(1e-3, 0.1)], heartbeat_hz=1.1,
    heartbeat_harmonics=[(2e-4, 0.2)],
    intermod_tones=[IntermodTone("HR+RR", 1e-4, 0.3)], standoff_m=0.8,
    clutter=[(2.0, 0.4)], transmit_power_scale=2.0, complex_noise_std=0.05,
    phase_noise_std=0.01, seed=5, allow_amplitude_override=True)
