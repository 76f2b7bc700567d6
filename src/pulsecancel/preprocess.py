"""Raw cube to unwrapped slow-time phase.

The range FFT runs in single precision, a fixed chunk of frames at a time:
each chunk is cast into one reused complex64 buffer (a file cube's int16
words are read and decoded straight into it, so no cube is ever held
whole), windowed and transformed in place with scipy.fft, and only a run
of its n_fast/2 one-sided bins is copied into a contiguous frames x bins
array.  cube_phase keeps just the range gate's bins and the neighbors
phase enhancement reads.  Bin numbers are absolute one-sided bin indices
wherever a run is held.
The detection map is each range bin's residual power after average
cancellation (subtracting the bin's across-frame complex mean), summed in
float64 as real^2 + imag^2 over the range gate's bins only.  Phase is
demodulated in float64 from the uncancelled bin values: for chest motion
spanning a sizable arc of the unit circle, removing the bin mean also
removes part of the target's own phasor and bends the recovered phase.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .scenario import RadarCube, RadarConfig
from .spectral import _hann
from .types import PhaseSignal

# Frames per block when summing residual power; bounds the float64
# temporaries of _residual_power to a few MB whatever the record length.
_POWER_BLOCK_FRAMES = 2048

# Frames decoded, windowed and transformed at a time by range_profiles;
# bounds its complex64 scratch buffer (512 x 200 samples: 800 kB) whatever
# the record length.
_FFT_CHUNK_FRAMES = 512


class NoTargetError(RuntimeError):
    """Range gate holds no energy to lock onto."""


@dataclass
class RangeProfiles:
    """Windowed range FFT per frame: complex64 frames x a run of one-sided
    bins.

    Column j of `values` is one-sided bin first_bin + j.  range_profiles
    fills `values` a chunk of frames at a time, so it is a C-contiguous
    array that owns just frames x held-bins complex64 samples; no
    two-sided spectra stay alive behind it.  The one-sided bins number
    config.adc_samples_per_chirp // 2, held or not.
    """

    values: np.ndarray            # frames x bins, complex64, uncancelled
    slow_time_rate: float
    bin_width_m: float
    config: RadarConfig
    first_bin: int = 0

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    @property
    def held(self) -> range:
        """The absolute one-sided bins `values` holds."""
        return range(self.first_bin, self.first_bin + self.n_bins)

    def bin_ranges(self) -> np.ndarray:
        return np.arange(self.first_bin,
                         self.first_bin + self.n_bins) * self.bin_width_m

    def mean_power(self) -> np.ndarray:
        """Across-frame residual power per held bin, mean |x - mean x|^2.

        This is the power average cancellation leaves, for every held bin;
        detect_target_bin sums the same quantity over its gate only.
        """
        return _residual_power(self.values)


def gate_bins(n_bins: int, bin_width_m: float, min_range_m: float,
              max_range_m: float) -> range:
    """The range gate's one-sided bins: every bin b < n_bins whose range
    b * bin_width_m lies in [min_range_m, max_range_m].

    The one gate rule, for cube_phase's held run and detect_target_bin
    alike.  Bin ranges increase, so the gate is one run.  An inverted gate,
    or one that covers no bin, raises ValueError.
    """
    if min_range_m > max_range_m:
        raise ValueError("range gate is inverted")
    ranges = np.arange(n_bins) * bin_width_m
    gate = np.flatnonzero((ranges >= min_range_m) & (ranges <= max_range_m))
    if gate.size == 0:
        raise ValueError(f"range gate [{min_range_m}, {max_range_m}] m "
                         f"covers no bins (bin width {bin_width_m:.4f} m)")
    return range(int(gate[0]), int(gate[-1]) + 1)


def _residual_power(values: np.ndarray) -> np.ndarray:
    """Mean |x - mean x|^2 down each column of frames x bins `values`.

    The mean is taken in complex128 and the residual summed in float64 as
    real^2 + imag^2 (no abs), a block of frames at a time, so no cancelled
    copy of the spectra is made and a bin whose static part dwarfs its
    motion keeps its digits.
    """
    n_frames, n_bins = values.shape
    mean = np.mean(values, axis=0, dtype=np.complex128)
    power = np.zeros(2 * n_bins)
    for start in range(0, n_frames, _POWER_BLOCK_FRAMES):
        # complex128 residual viewed as interleaved (real, imag) float64
        block = (values[start:start + _POWER_BLOCK_FRAMES] - mean
                 ).view(np.float64)
        power += np.einsum("ij,ij->j", block, block)
    return power.reshape(n_bins, 2).sum(axis=1) / n_frames


def _one_sided_bins(cube: RadarCube) -> int:
    """How many one-sided bins cube's range FFT has: n_fast // 2, with
    n_fast the cube's and its config's fast-time samples per frame."""
    if cube.n_fast < 4:
        raise ValueError("too few fast-time samples for a range FFT")
    if cube.n_fast != cube.config.adc_samples_per_chirp:
        raise ValueError(f"cube has {cube.n_fast} fast-time samples per "
                         f"frame, its config "
                         f"{cube.config.adc_samples_per_chirp}")
    return cube.n_fast // 2


def range_profiles(cube: RadarCube, bins: range | None = None
                   ) -> RangeProfiles:
    """Hann-windowed FFT over fast time, keeping the run `bins` (by default
    all n_fast/2) of one-sided bins.

    The window is symmetric to match the chirp-center phase reference used
    by the simulator, so a static scatterer produces a frame-constant
    complex value in its bin.  _FFT_CHUNK_FRAMES frames at a time,
    cube.frames casts (or, for a file cube, reads and decodes) into one
    reused complex64 buffer, which is windowed and transformed in place;
    every frame is transformed whatever `bins` holds, and each frame's
    transform is the same as a one-shot FFT of the whole windowed complex64
    cube, bit for bit.
    """
    n_half = _one_sided_bins(cube)
    if bins is None:
        bins = range(n_half)
    if not (bins.step == 1 and 0 <= bins.start < bins.stop <= n_half):
        raise ValueError(f"bins {bins} is not a non-empty run of the "
                         f"one-sided bins 0..{n_half - 1}")
    n_fast = cube.n_fast
    window = _hann(n_fast, False)
    n_frames = cube.n_frames
    values = np.empty((n_frames, len(bins)), dtype=np.complex64)
    buffer = np.empty((min(n_frames, _FFT_CHUNK_FRAMES), n_fast),
                      dtype=np.complex64)
    for start in range(0, n_frames, _FFT_CHUNK_FRAMES):
        stop = min(start + _FFT_CHUNK_FRAMES, n_frames)
        windowed = cube.frames(start, stop, out=buffer[:stop - start])
        np.multiply(windowed, window, out=windowed, dtype=np.complex64)
        spectra = scipy.fft.fft(windowed, axis=1, overwrite_x=True)
        values[start:stop] = spectra[:, bins.start:bins.stop]
    return RangeProfiles(
        values=values,
        slow_time_rate=cube.config.frame_rate_hz,
        bin_width_m=cube.config.range_bin_width_m,
        config=cube.config,
        first_bin=bins.start,
    )


def detect_target_bin(profiles: RangeProfiles, min_range_m: float,
                      max_range_m: float) -> int:
    """Bin with maximal residual power (mean_power) inside the range gate.

    The gate is gate_bins over all config.adc_samples_per_chirp // 2
    one-sided bins, and profiles that do not hold all of it raise
    ValueError.  Only the gate's bins are summed.  Ties resolve to the
    nearer bin.  A gate with zero residual power (all static, or empty
    scene) raises NoTargetError.
    """
    gate = gate_bins(profiles.config.adc_samples_per_chirp // 2,
                     profiles.bin_width_m, min_range_m, max_range_m)
    held = profiles.held
    if gate.start < held.start or gate.stop > held.stop:
        raise ValueError(f"profiles hold bins {held.start}.."
                         f"{held.stop - 1}, not all of the range gate's "
                         f"{gate.start}..{gate.stop - 1}")
    power = _residual_power(profiles.values[:, gate.start - held.start:
                                            gate.stop - held.start])
    if not np.isfinite(power).all():
        raise NoTargetError("non-finite power in range gate")
    if np.max(power) <= 0.0:
        raise NoTargetError("no target: residual power in gate is zero")
    return gate.start + int(np.argmax(power))


def _dead(z: np.ndarray) -> np.ndarray:
    """The samples demodulate fills: zero magnitude or non-finite."""
    return (z == 0) | ~np.isfinite(z)


def demodulate(z: np.ndarray) -> tuple[np.ndarray, int]:
    """Arctangent demodulation with unwrap, in double precision.

    Zero-magnitude and non-finite samples carry the previous sample's
    wrapped phase forward; the count of such fills is returned.  (Unwrapped,
    a single NaN would turn every later sample into NaN.)
    """
    z = np.asarray(z, dtype=np.complex128)
    wrapped = np.arctan2(z.imag, z.real)
    dead = _dead(z)
    dropouts = int(np.count_nonzero(dead))
    if dropouts:
        # a dead first sample (and the dead run after it) reads 0: arctan2
        # of complex(-0.0, 0.0) would say pi
        wrapped[0] = 0.0 if dead[0] else wrapped[0]
        # forward fill: each sample reads its last live sample at or before it
        last_live = np.where(dead, 0, np.arange(z.size))
        wrapped = wrapped[np.maximum.accumulate(last_live)]
    return np.unwrap(wrapped), dropouts


def extract_phase(profiles: RangeProfiles, bin_index: int) -> PhaseSignal:
    """Unwrapped phase of the raw slow-time signal at one held range bin."""
    held = profiles.held
    if bin_index not in held:
        raise ValueError(f"bin {bin_index} outside {held.start}.."
                         f"{held.stop - 1}")
    theta, dropouts = demodulate(profiles.values[:, bin_index - held.start])
    return PhaseSignal(theta, profiles.slow_time_rate,
                       source_bin=bin_index, dropouts=dropouts)


def slow_time_phase(z: np.ndarray, sample_rate: float) -> PhaseSignal:
    """Demodulate a bare slow-time complex signal (no range FFT involved)."""
    theta, dropouts = demodulate(z)
    return PhaseSignal(theta, sample_rate, dropouts=dropouts)


def cube_phase(cube: RadarCube, gate_m: tuple = (0.3, 3.0),
               enhance_width: int = 2, min_corr: float = 0.7) -> PhaseSignal:
    """Full preprocessing chain: range FFT, bin detection, enhanced phase.

    The range FFT keeps only the gate's bins and enhance_width neighbors
    on each side, clipped to the one-sided bins: every bin detection and
    enhance_phase read.  The gate, the width and min_corr are checked
    before any frame is read.
    """
    _check_enhance(enhance_width, min_corr)
    n_half = _one_sided_bins(cube)
    gate = gate_bins(n_half, cube.config.range_bin_width_m,
                     gate_m[0], gate_m[1])
    profiles = range_profiles(cube, range(
        max(0, gate.start - enhance_width),
        min(n_half, gate.stop + enhance_width)))
    target = detect_target_bin(profiles, gate_m[0], gate_m[1])
    return enhance_phase(profiles, target, enhance_width, min_corr)


def _check_enhance(width: int, min_corr: float) -> None:
    if width < 0:
        raise ValueError("width must be >= 0")
    if np.isnan(min_corr):
        raise ValueError("min_corr must be a number, got nan")


def enhance_phase(profiles: RangeProfiles, target_bin: int, width: int = 2,
                  min_corr: float = 0.7) -> PhaseSignal:
    """Correlation-weighted average of the phases around the target bin.

    Neighbors within +-width bins whose zero-mean phase has Pearson
    correlation >= min_corr with the target's contribute, weighted by that
    correlation.  The target itself always carries weight 1, so its weight
    is never below any neighbor's.  Neighbors are clipped to the held
    bins.  width=0 reduces to extract_phase.
    """
    _check_enhance(width, min_corr)
    target = extract_phase(profiles, target_bin)
    if width == 0:
        return target

    t_mean = float(np.mean(target.samples))
    t_zero = target.samples - t_mean
    t_std = float(np.std(t_zero))

    held = profiles.held
    lo = max(held.start, target_bin - width)
    hi = min(held.stop - 1, target_bin + width)
    acc = t_zero.copy()
    total = 1.0
    # the contributing bins with fills; a frame is one dropout when any of
    # them was filled there
    filled = [target_bin] if target.dropouts else []
    for b in range(lo, hi + 1):
        if b == target_bin:
            continue
        neighbor = extract_phase(profiles, b)
        n_zero = neighbor.samples - np.mean(neighbor.samples)
        n_std = float(np.std(n_zero))
        if t_std == 0.0 or n_std == 0.0:
            continue
        corr = float(np.dot(t_zero, n_zero)
                     / (t_zero.size * t_std * n_std))
        if corr >= min_corr:
            acc += corr * n_zero
            total += corr
            if neighbor.dropouts:
                filled.append(b)
    dead = _dead(profiles.values[:, [b - held.start for b in filled]]
                 ).any(axis=1)
    return PhaseSignal(t_mean + acc / total, profiles.slow_time_rate,
                       source_bin=target_bin,
                       dropouts=int(np.count_nonzero(dead)))
