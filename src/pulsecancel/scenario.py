"""Physics simulator: chest displacement -> IF phase -> slow time -> raw radar cube.

The displacement model is a harmonic series for breathing and heartbeat plus
optional pure tones for intermodulation products.  Cube synthesis uses a
per-chirp stop-and-hop model: the target is frozen during each chirp and the
fast-time phase is referenced to the chirp center, so range-FFT demodulation
recovers (4*pi/lambda)*d(t) without beat-phase coupling.
"""

import functools
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import numpy.random    # loaded here, not lazily inside a first synthesis
from numpy.lib.stride_tricks import sliding_window_view

from .types import (HrTrace, PhaseSignal, TraceEntry, check_fields,
                    finite_real)

SPEED_OF_LIGHT = 3.0e8

BREATHING_BAND_HZ = (0.1, 0.5)
HEARTBEAT_BAND_HZ = (0.7, 2.0)
BREATHING_AMPLITUDE_M = (1e-4, 5e-3)
HEARTBEAT_AMPLITUDE_M = (1e-5, 5e-4)

INTERMOD_RULES = ("HR-RR", "HR+RR", "HR+2RR")

# Frames of a cube read, transformed or written at a time (preprocess's
# range FFT and moments, ingest's quantization and writes); bounds the
# complex64 scratch buffer (512 x 200 samples: 800 kB) and the temporaries
# to a few MB whatever the record length.
CHUNK_FRAMES = 512


def _pairs(entries: list, name: str, shape: str) -> list:
    """entries as a list of tuples, each a pair of finite numbers."""
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                and all(map(finite_real, entry))):
            raise ValueError(f"{name} entry {entry!r} must be a {shape} "
                             f"pair of finite numbers")
    return [tuple(entry) for entry in entries]


@dataclass(frozen=True)
class RadarConfig:
    """FMCW front-end parameters (77 GHz short-range profile by default)."""

    carrier_frequency_hz: float = 77e9
    chirp_slope_hz_per_s: float = 70e12
    adc_samples_per_chirp: int = 200
    adc_sample_rate_hz: float = 4e6
    chirp_duration_s: float = 50e-6
    frame_period_s: float = 10e-3

    def __post_init__(self):
        check_fields(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive, got "
                                 f"{getattr(self, f.name)!r}")
        if self.adc_samples_per_chirp < 2:
            raise ValueError("need at least 2 ADC samples per chirp")
        sampled = self.adc_samples_per_chirp / self.adc_sample_rate_hz
        if sampled > self.chirp_duration_s * (1 + 1e-9):
            raise ValueError("ADC window longer than the chirp")

    @classmethod
    def from_json(cls, doc) -> "RadarConfig":
        """A config from a JSON object that names every field, once: an
        unknown or a missing key is a ValueError that names it."""
        if not isinstance(doc, dict):
            raise ValueError(f"radar config must be a JSON object, got "
                             f"{doc!r}")
        names = {f.name for f in fields(cls)}
        for what, keys in (("unknown", doc.keys() - names),
                           ("missing", names - doc.keys())):
            if keys:
                raise ValueError(f"{what} radar keys: {sorted(keys)}")
        return cls(**doc)

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def bandwidth_hz(self) -> float:
        # sampled bandwidth, not the full sweep
        return self.chirp_slope_hz_per_s * (self.adc_samples_per_chirp
                                            / self.adc_sample_rate_hz)

    @property
    def frame_rate_hz(self) -> float:
        return 1.0 / self.frame_period_s

    @property
    def range_bin_width_m(self) -> float:
        return SPEED_OF_LIGHT / (2.0 * self.bandwidth_hz)

    @property
    def unambiguous_range_m(self) -> float:
        # f_IF at this range hits the ADC Nyquist edge
        return (SPEED_OF_LIGHT * self.adc_sample_rate_hz
                / (4.0 * self.chirp_slope_hz_per_s))

    def beat_frequency_hz(self, range_m: float) -> float:
        return 2.0 * self.chirp_slope_hz_per_s * range_m / SPEED_OF_LIGHT


@dataclass(frozen=True)
class IntermodTone:
    """Displacement-domain tone at a heart/breath mixing product.

    rule is one of "HR-RR", "HR+RR", "HR+2RR", or an explicit frequency in
    Hz.  Amplitude is in meters at the chest surface.
    """

    rule: str | float
    amplitude_m: float
    phase_rad: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if isinstance(self.rule, str) and self.rule not in INTERMOD_RULES:
            raise ValueError(f"unknown intermod rule {self.rule!r}")
        if self.amplitude_m < 0:
            raise ValueError("tone amplitude must be >= 0")

    def frequency_hz(self, breathing_hz: float, heartbeat_hz: float) -> float:
        if isinstance(self.rule, str):
            return {
                "HR-RR": heartbeat_hz - breathing_hz,
                "HR+RR": heartbeat_hz + breathing_hz,
                "HR+2RR": heartbeat_hz + 2.0 * breathing_hz,
            }[self.rule]
        return float(self.rule)


def _tone(entry) -> IntermodTone:
    """entry as an IntermodTone: one already, or a (rule, amplitude_m)
    or (rule, amplitude_m, phase_rad) sequence."""
    if isinstance(entry, IntermodTone):
        return entry
    if not (isinstance(entry, (list, tuple)) and 2 <= len(entry) <= 3):
        raise ValueError(f"intermod_tones entry {entry!r} must be a (rule, "
                         f"amplitude_m[, phase_rad]) sequence")
    try:
        return IntermodTone(*entry)
    except ValueError as exc:
        raise ValueError(f"intermod_tones entry {entry!r}: {exc}") from exc


@dataclass
class Scenario:
    """Complete generative description of one subject + radar session.

    Harmonic lists hold (amplitude_m, phase_rad) pairs for orders 1..K.
    standoff_m is the static chest range; it is kept as metadata and never
    baked into the motion samples, so phase-extraction tests are offset-free.

    complex_noise_std (sigma) is defined at a different point on each path:
    - slow time (scenario_slow_time): per frame, against the target's unit
      phasor exp(j*theta);
    - cube (synthesize_radar_cube): per ADC sample.  After the symmetric
      Hann range FFT a bin's noise is sigma * sqrt(sum w^2) (8.64 sigma for
      200 samples), while the target gains sum w (99.5) less its straddle
      loss, so a bin's SNR sits about (sum w)^2 / sum w^2 (+21.2 dB) above
      the slow-time figure for the same sigma.
    transmit_power_scale is the target's amplitude on the cube path only;
    the slow-time phasor always has unit modulus.
    """

    radar: RadarConfig = field(default_factory=RadarConfig)
    duration_s: float = 280.0
    breathing_hz: float = 0.26
    breathing_harmonics: list = field(default_factory=lambda: [(1.5e-3, 0.0)])
    heartbeat_hz: float = 76.6 / 60.0
    heartbeat_harmonics: list = field(default_factory=lambda: [(3e-4, 0.0)])
    intermod_tones: list = field(default_factory=list)
    standoff_m: float = 1.0
    clutter: list = field(default_factory=list)
    transmit_power_scale: float = 1.0
    complex_noise_std: float = 0.0
    phase_noise_std: float = 0.0
    seed: int = 0
    allow_amplitude_override: bool = False

    def __post_init__(self):
        check_fields(self)
        self.breathing_harmonics = _pairs(self.breathing_harmonics,
                                          "breathing_harmonics",
                                          "(amplitude_m, phase_rad)")
        self.heartbeat_harmonics = _pairs(self.heartbeat_harmonics,
                                          "heartbeat_harmonics",
                                          "(amplitude_m, phase_rad)")
        self.clutter = _pairs(self.clutter, "clutter", "(range_m, amplitude)")
        self.intermod_tones = list(map(_tone, self.intermod_tones))
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got "
                             f"{self.seed!r}")
        if self.complex_noise_std < 0 or self.phase_noise_std < 0:
            raise ValueError("noise stds must be >= 0")
        if any(rng_m <= 0 for rng_m, _ in self.clutter):
            raise ValueError("clutter range must be positive")
        lo, hi = BREATHING_BAND_HZ
        if not lo <= self.breathing_hz <= hi:
            raise ValueError(f"breathing rate {self.breathing_hz} Hz outside "
                             f"[{lo}, {hi}] Hz")
        lo, hi = HEARTBEAT_BAND_HZ
        if not lo <= self.heartbeat_hz <= hi:
            raise ValueError(f"heart rate {self.heartbeat_hz} Hz outside "
                             f"[{lo}, {hi}] Hz")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not self.breathing_harmonics or not self.heartbeat_harmonics:
            raise ValueError("need at least the fundamental of each source")
        if not self.allow_amplitude_override:
            self._check_amplitudes()
        n = self.duration_s * self.radar.frame_rate_hz
        if abs(n - round(n)) > 1e-6:
            raise ValueError("duration must be an integer number of frames")
        nyquist = self.radar.frame_rate_hz / 2.0
        if self.max_frequency_hz() >= nyquist:
            raise ValueError(f"max simulated frequency "
                             f"{self.max_frequency_hz():.3f} Hz reaches the "
                             f"slow-time Nyquist {nyquist:.3f} Hz")

    def _check_amplitudes(self):
        lo, hi = BREATHING_AMPLITUDE_M
        for amp, _ in self.breathing_harmonics:
            if not lo <= amp <= hi:
                raise ValueError(f"breathing amplitude {amp} m outside "
                                 f"[{lo}, {hi}] m (set "
                                 f"allow_amplitude_override to bypass)")
        lo, hi = HEARTBEAT_AMPLITUDE_M
        for amp, _ in self.heartbeat_harmonics:
            if not lo <= amp <= hi:
                raise ValueError(f"heartbeat amplitude {amp} m outside "
                                 f"[{lo}, {hi}] m (set "
                                 f"allow_amplitude_override to bypass)")

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.radar.frame_rate_hz))

    def max_frequency_hz(self) -> float:
        """The largest |frequency| the record holds: a tone at -f Hz
        aliases as +f Hz does."""
        freqs = [len(self.breathing_harmonics) * self.breathing_hz,
                 len(self.heartbeat_harmonics) * self.heartbeat_hz]
        freqs += [abs(t.frequency_hz(self.breathing_hz, self.heartbeat_hz))
                  for t in self.intermod_tones]
        return max(freqs)


@dataclass(eq=False)
class RadarCube:
    """Raw IF samples, frames x fast-time, complex; cubes compare by
    identity.

    The simulator renders complex128.  A cube read from file
    (ingest.FileCube) holds no samples, only its path and header: its
    `frames` reads and decodes a chunk of frames to complex64, and its `iq`
    the whole file, on each call.  The range FFT runs in complex64 either
    way.
    """

    iq: np.ndarray
    config: RadarConfig

    def __post_init__(self):
        self.iq = np.asarray(self.iq)
        if self.iq.ndim != 2:
            raise ValueError("cube must be frames x fast-time")

    @property
    def n_frames(self) -> int:
        return self.iq.shape[0]

    @property
    def n_fast(self) -> int:
        return self.iq.shape[1]

    def frames(self, start: int, stop: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """iq[start:stop]: a view, or, given `out`, cast into that array."""
        if out is None:
            return self.iq[start:stop]
        out[...] = self.iq[start:stop]
        return out


def synthesize_displacement(scenario: Scenario) -> np.ndarray:
    """Chest motion in meters, one sample per frame (standoff excluded):
    the harmonic series and intermod tones summed at the frame rate."""
    t = np.arange(scenario.n_frames) / scenario.radar.frame_rate_hz
    d = np.zeros_like(t)
    for k, (amp, phase) in enumerate(scenario.breathing_harmonics, start=1):
        d += amp * np.sin(2.0 * np.pi * k * scenario.breathing_hz * t + phase)
    for l, (amp, phase) in enumerate(scenario.heartbeat_harmonics, start=1):
        d += amp * np.sin(2.0 * np.pi * l * scenario.heartbeat_hz * t + phase)
    for tone in scenario.intermod_tones:
        f = tone.frequency_hz(scenario.breathing_hz, scenario.heartbeat_hz)
        d += tone.amplitude_m * np.sin(2.0 * np.pi * f * t + tone.phase_rad)
    return d


def displacement_to_phase(displacement: np.ndarray,
                          radar: RadarConfig) -> PhaseSignal:
    """theta[n] = (4*pi/lambda) * d[n], the ideal demodulated phase at the
    radar's frame rate."""
    theta = 4.0 * np.pi * displacement / radar.wavelength_m
    return PhaseSignal(theta, radar.frame_rate_hz)


def synthesize_slow_time(theta: np.ndarray, complex_noise_std: float = 0.0,
                         phase_noise_std: float = 0.0,
                         seed: int = 0) -> np.ndarray:
    """exp(j*theta) plus circular complex noise and optional phase jitter."""
    theta = np.asarray(theta, dtype=float)
    rng = np.random.default_rng(seed)
    if phase_noise_std > 0:
        theta = theta + rng.normal(0.0, phase_noise_std, theta.size)
    z = np.exp(1j * theta)
    if complex_noise_std > 0:
        scale = complex_noise_std / np.sqrt(2.0)
        z = z + (rng.normal(0.0, scale, theta.size)
                 + 1j * rng.normal(0.0, scale, theta.size))
    return z


def scenario_slow_time(scenario: Scenario) -> np.ndarray:
    """Slow-time complex signal for a scenario, using its own noise and seed."""
    theta = displacement_to_phase(synthesize_displacement(scenario),
                                  scenario.radar).samples
    return synthesize_slow_time(theta, scenario.complex_noise_std,
                                scenario.phase_noise_std, scenario.seed)


def synthesize_radar_cube(scenario: Scenario) -> RadarCube:
    """Render the scene to raw IF samples, one chirp per frame.

    Each scatterer at range d contributes
    A * exp(j*(2*pi*f_IF*(t_i - t_c) + 4*pi*d/lambda)) per chirp, with
    f_IF = 2*S*d/c and t_c the fast-time window center.  Scatterers beyond
    the unambiguous range (f_IF above ADC Nyquist) are rejected.  As in
    synthesize_slow_time, phase_noise_std jitters the target's phase with
    one draw per frame, before any complex noise is drawn.
    """
    cfg = scenario.radar
    target_range = scenario.standoff_m + synthesize_displacement(scenario)

    max_range = float(np.max(target_range))
    for rng_m, _amp in scenario.clutter:
        max_range = max(max_range, rng_m)
    if max_range > cfg.unambiguous_range_m:
        raise ValueError(f"scatterer at {max_range:.3f} m beyond unambiguous "
                         f"range {cfg.unambiguous_range_m:.3f} m")
    if np.min(target_range) <= 0:
        raise ValueError("target range must stay positive")

    n_fast = cfg.adc_samples_per_chirp
    t_fast = (np.arange(n_fast) - (n_fast - 1) / 2.0) / cfg.adc_sample_rate_hz

    rng = np.random.default_rng(scenario.seed)
    jitter = 0.0
    if scenario.phase_noise_std > 0:
        jitter = rng.normal(0.0, scenario.phase_noise_std, scenario.n_frames)

    cube = np.zeros((scenario.n_frames, n_fast), dtype=complex)
    scatterers = [(target_range, scenario.transmit_power_scale, jitter)]
    scatterers += [(np.full(scenario.n_frames, rng_m), amp, 0.0)
                   for rng_m, amp in scenario.clutter]
    for ranges, amp, extra in scatterers:
        f_if = cfg.beat_frequency_hz(ranges)
        const = 4.0 * np.pi * ranges / cfg.wavelength_m + extra
        cube += amp * np.exp(1j * (2.0 * np.pi * np.outer(f_if, t_fast)
                                   + const[:, None]))

    if scenario.complex_noise_std > 0:
        scale = scenario.complex_noise_std / np.sqrt(2.0)
        cube += (rng.normal(0.0, scale, cube.shape)
                 + 1j * rng.normal(0.0, scale, cube.shape))
    return RadarCube(cube, cfg)


def window_samples(span_s: float, sample_rate: float) -> int:
    """Samples in span_s seconds: the one rounding of a window or step."""
    return int(round(span_s * sample_rate))


def window_starts(n_samples: int, sample_rate: float, cpi_s: float,
                  step_s: float) -> list[int]:
    """Start indices of sliding analysis windows over a record; the one
    place that rejects a bad window or step."""
    if not (math.isfinite(cpi_s) and math.isfinite(step_s)):
        raise ValueError(f"window and step must be finite, got {cpi_s} s "
                         f"and {step_s} s")
    n_win = window_samples(cpi_s, sample_rate)
    n_step = window_samples(step_s, sample_rate)
    if n_win <= 0 or n_step <= 0:
        raise ValueError("window and step must be positive")
    if n_win > n_samples:
        raise ValueError(f"window of {n_win} samples longer than record "
                         f"of {n_samples}")
    return list(range(0, n_samples - n_win + 1, n_step))


def sliding_windows(samples: np.ndarray, sample_rate: float, window_s: float,
                    step_s: float) -> tuple[list[int], np.ndarray]:
    """(starts, stack): window_starts over samples and the windows, one per
    row of a strided view on the samples (no copy)."""
    starts = window_starts(samples.size, sample_rate, window_s, step_s)
    stack = sliding_window_view(samples, window_samples(window_s, sample_rate))
    return starts, stack[::window_samples(step_s, sample_rate)]


def window_center(start: int, sample_rate: float, window_s: float) -> float:
    """Time of a window's center, the time its trace entry carries."""
    return start / sample_rate + window_s / 2.0


def reference_trace(scenario: Scenario, cpi_s: float,
                    step_s: float = 1.0) -> HrTrace:
    """Ground-truth HR at each analysis-window center, on the windows the
    trace methods use."""
    fs = scenario.radar.frame_rate_hz
    starts = window_starts(scenario.n_frames, fs, cpi_s, step_s)
    hr_bpm = scenario.heartbeat_hz * 60.0
    trace = HrTrace()
    for i0 in starts:
        trace.append(TraceEntry(window_center(i0, fs, cpi_s), hr_bpm,
                                "reference", 0.0))
    return trace


# --- canned fixtures -------------------------------------------------------

def fig_masking_scenario(duration_s: float = 20.0, seed: int = 0,
                         complex_noise_std: float = 0.0) -> Scenario:
    """Canonical masking fixture: HR-RR and 4th breathing harmonic merge
    just below the heart line and out-power it.

    RR 15.6 BPM, HR 76.6 BPM; the mixing tone at 61.0 BPM merges with the
    62.4 BPM harmonic into a single peak near 62.7 BPM at 20 s windows.
    """
    return Scenario(
        duration_s=duration_s,
        breathing_hz=15.6 / 60.0,
        breathing_harmonics=[(1.8e-3, 0.0), (7.0e-4, 0.3),
                             (2.0e-4, 0.9), (5.5e-4, 0.0)],
        heartbeat_hz=76.6 / 60.0,
        heartbeat_harmonics=[(3.2e-4, 0.0), (1.6e-4, 0.5)],
        intermod_tones=[IntermodTone("HR-RR", 2.2e-4, 0.0),
                        IntermodTone("HR+RR", 1.2e-4, 0.7),
                        IntermodTone("HR+2RR", 1.2e-4, 1.1)],
        complex_noise_std=complex_noise_std,
        seed=seed,
    )


def masking_scenario(seed: int, variant: str | None = None,
                     duration_s: float = 280.0) -> Scenario:
    """Randomized member of the masking family.

    Variant "a": only the 3rd breathing harmonic competes with the heart
    line; intermodulation tones are weak, so cancellation alone recovers
    the heart peak.  Variant "b": the 3rd harmonic and the HR-RR tone both
    compete; sum tones are weak.  Variant "c": the HR+RR and HR+2RR tones
    are strong as well.  In variants b and c the merged HR-RR +
    4th-harmonic masker out-powers the heart line, which is what defeats
    plain peak picking.
    """
    rng = np.random.default_rng(seed)
    if variant is None:
        variant = "b" if rng.random() < 0.5 else "c"
    if variant not in ("a", "b", "c"):
        raise ValueError(f"unknown masking variant {variant!r}")

    rr_hz = rng.uniform(14.5, 17.0) / 60.0
    hr_hz = rng.uniform(70.0, 85.0) / 60.0
    beta1 = rng.uniform(2.6e-4, 3.6e-4)
    alpha1 = rng.uniform(1.2e-3, 2.2e-3)
    alpha2 = alpha1 * rng.uniform(0.35, 0.5)
    alpha3 = beta1 * rng.uniform(1.05, 1.6)     # beats the heart line raw
    if variant == "a":
        alpha4 = beta1 * rng.uniform(0.3, 0.5)
        tone1 = beta1 * rng.uniform(0.05, 0.15)
        sum_scale = rng.uniform(0.02, 0.08)
    else:
        alpha4 = beta1 * rng.uniform(0.7, 1.0)  # half of the merged masker
        tone1 = beta1 * rng.uniform(0.7, 1.0)   # the other half
        if variant == "b":
            sum_scale = rng.uniform(0.05, 0.15)
        else:
            sum_scale = rng.uniform(0.5, 0.8)

    def ph():
        return rng.uniform(0.0, 2.0 * np.pi)

    return Scenario(
        duration_s=duration_s,
        breathing_hz=rr_hz,
        breathing_harmonics=[(alpha1, ph()), (alpha2, ph()),
                             (alpha3, ph()), (alpha4, ph())],
        heartbeat_hz=hr_hz,
        heartbeat_harmonics=[(beta1, ph()), (beta1 * rng.uniform(0.4, 0.6), ph())],
        intermod_tones=[IntermodTone("HR-RR", tone1, ph()),
                        IntermodTone("HR+RR", beta1 * sum_scale, ph()),
                        IntermodTone("HR+2RR", beta1 * sum_scale, ph())],
        standoff_m=rng.uniform(0.6, 1.2),
        complex_noise_std=0.1,
        seed=seed,
    )


FAMILIES = {
    "masking": masking_scenario,
    "masking-a": functools.partial(masking_scenario, variant="a"),
    "masking-b": functools.partial(masking_scenario, variant="b"),
    "masking-c": functools.partial(masking_scenario, variant="c"),
}


def load_scenario(source) -> Scenario:
    """Build a Scenario from a dict (parsed JSON).

    Each key is a Scenario field and its value goes to Scenario as it is,
    null included, but for two spellings: "radar" holds an object of
    RadarConfig fields, and a rate may be given as *_bpm in place of
    *_hz.  Harmonics and clutter are lists of [amplitude_m, phase_rad] and
    [range_m, amplitude] pairs; intermod tones are [rule, amplitude_m,
    phase_rad].  A value of the wrong type or shape is a ValueError, like
    any other bad value.
    """
    if not isinstance(source, dict):
        raise ValueError("scenario source must be a JSON object")
    kwargs = dict(source)
    for name in ("breathing", "heartbeat"):
        if f"{name}_bpm" in kwargs:
            if f"{name}_hz" in kwargs:
                raise ValueError(f"give {name} rate in Hz or BPM, not both")
            bpm = kwargs.pop(f"{name}_bpm")
            if not finite_real(bpm):
                raise ValueError(f"{name}_bpm must be a finite number, got "
                                 f"{bpm!r}")
            kwargs[f"{name}_hz"] = bpm / 60.0
    unknown = kwargs.keys() - {f.name for f in fields(Scenario)}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    if isinstance(kwargs.get("radar"), dict):
        # an absent key keeps its default
        kwargs["radar"] = RadarConfig.from_json(
            {**asdict(RadarConfig()), **kwargs["radar"]})
    return Scenario(**kwargs)
