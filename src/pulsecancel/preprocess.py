"""Raw cube to unwrapped slow-time phase.

The range FFT runs in single precision: cubes of any complex dtype are
windowed into complex64 and transformed with scipy.fft, and only that one
copy of the spectra is kept.  The detection map is each range bin's
residual power after average cancellation (subtracting the bin's
across-frame complex mean), computed from those spectra in float64.  Phase
is demodulated in float64 from the uncancelled bin values: for chest
motion spanning a sizable arc of the unit circle, removing the bin mean
also removes part of the target's own phasor and bends the recovered phase.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.signal import get_window

from .scenario import RadarCube, RadarConfig
from .types import PhaseSignal

# Frames per block when summing residual power; bounds the float64
# temporaries of mean_power to a few MB whatever the record length.
_POWER_BLOCK_FRAMES = 2048


class NoTargetError(RuntimeError):
    """Range gate holds no energy to lock onto."""


@dataclass
class RangeProfiles:
    """Windowed range FFT per frame: complex64 frames x one-sided bins."""

    values: np.ndarray            # frames x bins, complex64, uncancelled
    slow_time_rate: float
    bin_width_m: float
    config: RadarConfig

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_bins(self) -> int:
        return self.values.shape[1]

    def bin_ranges(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_width_m

    def mean_power(self) -> np.ndarray:
        """Across-frame residual power per bin, mean |x - mean x|^2.

        This is the power average cancellation leaves.  It is summed in
        float64 a block of frames at a time, so no cancelled copy of the
        spectra is made and a bin whose static part dwarfs its motion keeps
        its digits.
        """
        mean = np.mean(self.values, axis=0, dtype=np.complex128)
        power = np.zeros(self.n_bins)
        for start in range(0, self.n_frames, _POWER_BLOCK_FRAMES):
            block = self.values[start:start + _POWER_BLOCK_FRAMES] - mean
            power += np.sum(np.abs(block) ** 2, axis=0)
        return power / self.n_frames


def range_profiles(cube: RadarCube) -> RangeProfiles:
    """Hann-windowed FFT over fast time, keeping n_fast/2 one-sided bins.

    The window is symmetric to match the chirp-center phase reference used
    by the simulator, so a static scatterer produces a frame-constant
    complex value in its bin.  Windowing casts the cube to complex64, and
    the transform runs in that precision.
    """
    n_fast = cube.n_fast
    if n_fast < 4:
        raise ValueError("too few fast-time samples for a range FFT")
    window = get_window("hann", n_fast, fftbins=False)
    windowed = np.multiply(cube.iq, window, dtype=np.complex64)
    spectra = scipy.fft.fft(windowed, axis=1, overwrite_x=True)
    return RangeProfiles(
        values=spectra[:, :n_fast // 2],
        slow_time_rate=cube.config.frame_rate_hz,
        bin_width_m=cube.config.range_bin_width_m,
        config=cube.config,
    )


def detect_target_bin(profiles: RangeProfiles, min_range_m: float,
                      max_range_m: float) -> int:
    """Bin with maximal residual power (mean_power) inside the range gate.

    Ties resolve to the nearer bin.  A gate with zero residual power (all
    static, or empty scene) raises NoTargetError.
    """
    if min_range_m > max_range_m:
        raise ValueError("range gate is inverted")
    ranges = profiles.bin_ranges()
    gate = np.flatnonzero((ranges >= min_range_m) & (ranges <= max_range_m))
    if gate.size == 0:
        raise ValueError(f"range gate [{min_range_m}, {max_range_m}] m "
                         f"covers no bins (bin width "
                         f"{profiles.bin_width_m:.4f} m)")
    power = profiles.mean_power()[gate]
    if not np.isfinite(power).all():
        raise NoTargetError("non-finite power in range gate")
    if np.max(power) <= 0.0:
        raise NoTargetError("no target: residual power in gate is zero")
    return int(gate[np.argmax(power)])


def demodulate(z: np.ndarray) -> tuple[np.ndarray, int]:
    """Arctangent demodulation with unwrap, in double precision.

    Zero-magnitude samples carry the previous sample's wrapped phase
    forward; the count of such fills is returned.
    """
    z = np.asarray(z, dtype=np.complex128)
    wrapped = np.arctan2(z.imag, z.real)
    dead = np.abs(z) == 0.0
    dropouts = int(np.count_nonzero(dead))
    if dropouts:
        for i in np.flatnonzero(dead):
            wrapped[i] = wrapped[i - 1] if i > 0 else 0.0
    return np.unwrap(wrapped), dropouts


def extract_phase(profiles: RangeProfiles, bin_index: int) -> PhaseSignal:
    """Unwrapped phase of the raw slow-time signal at one range bin."""
    if not 0 <= bin_index < profiles.n_bins:
        raise ValueError(f"bin {bin_index} outside 0..{profiles.n_bins - 1}")
    theta, dropouts = demodulate(profiles.values[:, bin_index])
    return PhaseSignal(theta, profiles.slow_time_rate,
                       source_bin=bin_index, dropouts=dropouts)


def slow_time_phase(z: np.ndarray, sample_rate: float) -> PhaseSignal:
    """Demodulate a bare slow-time complex signal (no range FFT involved)."""
    theta, dropouts = demodulate(z)
    return PhaseSignal(theta, sample_rate, dropouts=dropouts)


def cube_phase(cube: RadarCube, gate_m: tuple = (0.3, 3.0),
               enhance_width: int = 2, min_corr: float = 0.7) -> PhaseSignal:
    """Full preprocessing chain: range FFT, bin detection, enhanced phase."""
    profiles = range_profiles(cube)
    target = detect_target_bin(profiles, gate_m[0], gate_m[1])
    return enhance_phase(profiles, target, enhance_width, min_corr)


def enhance_phase(profiles: RangeProfiles, target_bin: int, width: int = 2,
                  min_corr: float = 0.7) -> PhaseSignal:
    """Correlation-weighted average of the phases around the target bin.

    Neighbors within +-width bins whose zero-mean phase has Pearson
    correlation >= min_corr with the target's contribute, weighted by that
    correlation.  The target itself always carries weight 1, so its weight
    is never below any neighbor's.  width=0 reduces to extract_phase.
    """
    if width < 0:
        raise ValueError("width must be >= 0")
    target = extract_phase(profiles, target_bin)
    if width == 0:
        target.enhanced = True
        return target

    t_mean = float(np.mean(target.samples))
    t_zero = target.samples - t_mean
    t_std = float(np.std(t_zero))

    lo = max(0, target_bin - width)
    hi = min(profiles.n_bins - 1, target_bin + width)
    acc = t_zero.copy()
    total = 1.0
    dropouts = target.dropouts
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
            dropouts += neighbor.dropouts
    return PhaseSignal(t_mean + acc / total, profiles.slow_time_rate,
                       source_bin=target_bin, enhanced=True,
                       dropouts=dropouts)
