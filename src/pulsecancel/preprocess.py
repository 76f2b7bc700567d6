"""Raw cube to unwrapped slow-time phase.

The range FFT runs in single precision, a fixed chunk of frames at a time:
each chunk is cast into one reused complex64 buffer (a file cube's int16
words are read and decoded straight into it, so no cube is ever held
whole), windowed and transformed in place by numpy.fft's single-precision
transform (_range_fft).  range_profiles copies each chunk's n_fast/2
one-sided bins into a contiguous frames x bins array; cube_phase holds no
profile at all.
The detection map is each range bin's residual power after average
cancellation (subtracting the bin's across-frame complex mean), summed in
float64 as real^2 + imag^2 over the range gate's bins only.  It is
computed a chunk of frames at a time: each chunk's float64 sum and
residual sum of squares, per real and imaginary part, merged into the
running ones by the pairwise update of Chan, Golub and LeVeque, so full
profiles and a streamed pass give the same bits.
cube_phase reads the cube once: while it detects the bin from the FFT
chunks, it keeps each chunk's column of the bin that leads the first chunk.
Only when the record's bin is another does it transform the cube a second
time and keep that bin's column.  Either way the phase is
extract_phase(range_profiles(cube), bin), bit for bit; its memory is set by
the chunk, plus the phase itself.  Phase is demodulated in float64 from the
uncancelled bin values: for chest motion spanning a sizable arc of the unit
circle, removing the bin mean also removes part of the target's own phasor
and bends the recovered phase.
"""

import functools
from dataclasses import dataclass

import numpy as np
import numpy.fft       # loaded here, not lazily inside a first transform

from .scenario import CHUNK_FRAMES, RadarCube, RadarConfig
from .spectral import _hann
from .types import PhaseSignal, stage_sink


class NoTargetError(RuntimeError):
    """Range gate holds no energy to lock onto."""


@dataclass(eq=False)
class RangeProfiles:
    """Windowed range FFT per frame: complex64 frames x one-sided bins;
    profiles compare by identity.

    range_profiles fills `values` a chunk of frames at a time, so it is a
    C-contiguous array that owns just frames x n_fast/2 complex64 samples;
    no two-sided spectra stay alive behind it.  Profiles grow with the
    record; cube_phase streams the same chunks instead, and its detection
    is the same statistic as mean_power's, bit for bit.
    """

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

        This is the power average cancellation leaves, for every bin;
        detect_target_bin sums the same quantity over its gate only.
        """
        return _residual_power(self.values)


def gate_bins(n_bins: int, bin_width_m: float, min_range_m: float,
              max_range_m: float) -> range:
    """The range gate's one-sided bins: every bin b < n_bins whose range
    b * bin_width_m lies in [min_range_m, max_range_m].

    The one gate rule, for cube_phase and detect_target_bin alike.  Bin
    ranges increase, so the gate is one run.  An inverted gate, or one that
    covers no bin, raises ValueError.
    """
    if min_range_m > max_range_m:
        raise ValueError("range gate is inverted")
    ranges = np.arange(n_bins) * bin_width_m
    gate = np.flatnonzero((ranges >= min_range_m) & (ranges <= max_range_m))
    if gate.size == 0:
        raise ValueError(f"range gate [{min_range_m}, {max_range_m}] m "
                         f"covers no bins (bin width {bin_width_m:.4f} m)")
    return range(int(gate[0]), int(gate[-1]) + 1)


def _moments(chunk: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(frames, sum, sum of squared residuals about the mean) down each
    float64 part of a frames x bins complex chunk, its parts interleaved
    (real, imag) per bin.

    The chunk is first copied to a contiguous complex128 array, so the
    bits depend on its values alone, not on the layout it is viewed from.
    """
    parts = chunk.astype(np.complex128).view(np.float64)
    total = parts.sum(axis=0)
    parts -= total / len(parts)
    return len(parts), total, np.einsum("ij,ij->j", parts, parts)


def _merge(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """The moments of a's frames and b's together: the pairwise update of
    Chan, Golub & LeVeque in its sums form, S = S_a + S_b
    + (n_b T_a - n_a T_b)^2 / (n_a n_b (n_a + n_b)).

    Each part's residual is taken about its own mean and only the means'
    difference enters squared, so a bin whose static part dwarfs its
    motion keeps its digits, as E|x|^2 - |E x|^2 would not.  Carrying
    sums, not a running mean, also leaves no mean rounded at every chunk:
    under 1000x static clutter that drift alone put the power 3e-14 off
    correctly rounded sums.
    """
    n_a, t_a, s_a = a
    n_b, t_b, s_b = b
    d = n_b * t_a - n_a * t_b
    return (n_a + n_b, t_a + t_b,
            s_a + s_b + d * d / (n_a * n_b * (n_a + n_b)))


def _power(moments: tuple) -> np.ndarray:
    """Mean |x - mean x|^2 per bin from merged moments: the real and
    imaginary parts' residual sums, added per bin, over the frames."""
    n, _, m2 = moments
    return m2.reshape(-1, 2).sum(axis=1) / n


def _residual_power(values: np.ndarray) -> np.ndarray:
    """Mean |x - mean x|^2 down each column of frames x bins `values`,
    merged over the CHUNK_FRAMES chunks cube_phase streams, in frame
    order, holding one chunk's moments at a time."""
    return _power(functools.reduce(_merge, (
        _moments(values[start:start + CHUNK_FRAMES])
        for start in range(0, len(values), CHUNK_FRAMES))))


def _one_sided_bins(cube: RadarCube) -> int:
    """How many one-sided bins cube's range FFT has: n_fast // 2, with
    n_fast the cube's and its config's fast-time samples per frame.  A
    cube with no frames raises ValueError."""
    if cube.n_frames == 0:
        raise ValueError("cube has no frames")
    if cube.n_fast < 4:
        raise ValueError("too few fast-time samples for a range FFT")
    if cube.n_fast != cube.config.adc_samples_per_chirp:
        raise ValueError(f"cube has {cube.n_fast} fast-time samples per "
                         f"frame, its config "
                         f"{cube.config.adc_samples_per_chirp}")
    return cube.n_fast // 2


def _range_fft(cube: RadarCube):
    """(first frame, two-sided range spectra) for each CHUNK_FRAMES frames
    of cube in order: the one FFT route of range_profiles and cube_phase.

    Each chunk is cast (or read and decoded) by cube.frames into one reused
    complex64 buffer, Hann-windowed and transformed in place there, so its
    spectra are valid until the next chunk is asked for.  The window is the
    float32 Hann window times n_fast.  The transform is forward-normalized
    (times 1/n_fast), which keeps numpy in its single-precision loop: its
    default-normalized complex64 transform runs in double precision,
    several times slower.  The window's factor n_fast undoes the 1/n_fast,
    so the spectra keep the unnormalized scale.
    """
    n_frames = cube.n_frames
    buffer = np.empty((min(n_frames, CHUNK_FRAMES), cube.n_fast),
                      dtype=np.complex64)
    window = (_hann(cube.n_fast, False) * cube.n_fast).astype(np.float32)
    for start in range(0, n_frames, CHUNK_FRAMES):
        stop = min(start + CHUNK_FRAMES, n_frames)
        chunk = cube.frames(start, stop, out=buffer[:stop - start])
        chunk *= window
        yield start, np.fft.fft(chunk, axis=1, norm="forward", out=chunk)


def range_profiles(cube: RadarCube) -> RangeProfiles:
    """Hann-windowed FFT over fast time, keeping the n_fast/2 one-sided
    bins.

    The window is symmetric to match the chirp-center phase reference used
    by the simulator, so a static scatterer produces a frame-constant
    complex value in its bin.  The chunks are _range_fft's; each frame's
    transform is the same as a one-shot transform of the whole cube by the
    same route (the Hann window times n_fast in float32, then numpy's
    forward-normalized complex64 FFT), bit for bit.
    """
    n_half = _one_sided_bins(cube)
    values = np.empty((cube.n_frames, n_half), dtype=np.complex64)
    for start, spectra in _range_fft(cube):
        values[start:start + len(spectra)] = spectra[:, :n_half]
    return RangeProfiles(
        values=values,
        slow_time_rate=cube.config.frame_rate_hz,
        bin_width_m=cube.config.range_bin_width_m,
        config=cube.config,
    )


def detect_target_bin(profiles: RangeProfiles, min_range_m: float,
                      max_range_m: float) -> int:
    """Bin with maximal residual power (mean_power) inside the range gate.

    The gate is gate_bins over the profiles' bins, and only its bins are
    summed.  Ties resolve to the nearer bin.  A gate with zero residual
    power (all static, or empty scene) raises NoTargetError.
    """
    gate = gate_bins(profiles.n_bins, profiles.bin_width_m, min_range_m,
                     max_range_m)
    return _strongest(gate, _residual_power(
        profiles.values[:, gate.start:gate.stop]))


def _strongest(gate: range, power: np.ndarray) -> int:
    """The gate's bin of maximal residual power `power` (one entry per gate
    bin), the nearer on a tie; NoTargetError when there is none."""
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
    a single NaN would turn every later sample into NaN.)  The phase is
    np.unwrap of the filled wrapped phase, bit for bit.

    Memory: the output (8 B a frame) plus one stage's work at a time,
    about 27 B a frame at the peak: the fill's int64 index and float64
    copy, then _unwrap's two float64 step arrays and its byte masks.
    """
    # arctan2 widens the parts as given to float64, exactly as a complex128
    # copy would, without holding one
    z = np.asarray(z)
    wrapped = np.arctan2(z.imag, z.real, dtype=np.float64)
    dead = _dead(z)
    dropouts = int(np.count_nonzero(dead))
    if dropouts:
        wrapped = _fill(wrapped, dead)
    del dead
    return _unwrap(wrapped), dropouts


def _fill(wrapped: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """The wrapped phase with each dead sample reading the last live
    sample at or before it; a dead first sample (and the dead run after
    it) reads 0, where arctan2 of complex(-0.0, 0.0) would say pi."""
    wrapped[0] = 0.0 if dead[0] else wrapped[0]
    last_live = np.arange(wrapped.size)
    last_live[dead] = 0
    return wrapped[np.maximum.accumulate(last_live, out=last_live)]


def _unwrap(p: np.ndarray) -> np.ndarray:
    """np.unwrap(p) at its default period 2 pi, written over p, bit for
    bit: np.unwrap's own operations in its order, each into a buffer it
    already holds.  Each step is wrapped into [-pi, pi), a step of exactly
    +pi keeps +pi, steps already inside (-pi, pi) are not corrected, and
    the corrections are summed onto p."""
    dd = np.diff(p)
    correction = dd + np.pi
    np.mod(correction, 2.0 * np.pi, out=correction)
    correction -= np.pi
    np.copyto(correction, np.pi, where=(correction == -np.pi) & (dd > 0))
    correction -= dd
    np.abs(dd, out=dd)
    np.copyto(correction, 0.0, where=dd < np.pi)
    del dd
    p[1:] += np.cumsum(correction, out=correction)
    return p


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


def cube_phase(cube: RadarCube, gate_m: tuple = (0.3, 3.0)) -> PhaseSignal:
    """Full preprocessing chain: range FFT, bin detection, phase, in one
    pass over the cube when the bin that leads its first chunk is the
    record's.

    The pass runs range_profiles' chunked FFT and merges each chunk's gate
    moments: its target is detect_target_bin(range_profiles(cube), *gate_m),
    the same power bit for bit.  After the first chunk it holds the gate
    bin with the most residual power so far (the nearer on a tie) and keeps
    that bin's column of every chunk's spectra.  When the target is another
    bin, the cube is transformed once more for that bin's column.  Either
    way the phase, bin and dropouts are
    extract_phase(range_profiles(cube), target)'s, bit for bit.  Memory is
    a chunk's buffer plus the phase.  The cube and the gate are checked
    before any frame is read.  Within types.record_stages it reports
    front_end, second_pass (when taken) and demodulate.
    """
    gate = gate_bins(_one_sided_bins(cube), cube.config.range_bin_width_m,
                     gate_m[0], gate_m[1])
    stage = stage_sink()
    values, target, held = stage("front_end", _front_end, cube, gate)
    if target != held:
        stage("second_pass", _second_pass, cube, values, target)
    theta, dropouts = stage("demodulate", demodulate, values)
    return PhaseSignal(theta, cube.config.frame_rate_hz, source_bin=target,
                       dropouts=dropouts)


def _front_end(cube: RadarCube, gate: range) -> tuple:
    """cube_phase's pass: (the column of the first chunk's leading gate
    bin, the record's bin, that leading bin)."""
    values = np.empty(cube.n_frames, dtype=np.complex64)
    for start, spectra in _range_fft(cube):
        chunk_moments = _moments(spectra[:, gate.start:gate.stop])
        if start:
            moments = _merge(moments, chunk_moments)
        else:
            moments = chunk_moments
            held = gate.start + int(np.argmax(_power(moments)))
        values[start:start + len(spectra)] = spectra[:, held]
    return values, _strongest(gate, _power(moments)), held


def _second_pass(cube: RadarCube, values: np.ndarray, target: int) -> None:
    """Overwrite values with bin target's column, transforming the cube
    once more."""
    for start, spectra in _range_fft(cube):
        values[start:start + len(spectra)] = spectra[:, target]


def enhance_phase(profiles: RangeProfiles, target_bin: int, width: int = 2,
                  min_corr: float = 0.7) -> PhaseSignal:
    """Correlation-weighted average of the phases around the target bin.

    Neighbors within +-width bins whose zero-mean phase has Pearson
    correlation >= min_corr with the target's contribute, weighted by that
    correlation.  The target itself always carries weight 1, so its weight
    is never below any neighbor's.  Neighbors are clipped to the
    profiles' bins.  width=0 reduces to extract_phase.

    No pipeline path calls it: cube_phase demodulates the target bin alone,
    since a neighbor whose unwrap slips drags the average far off the
    target's phase.  It is kept only while the benchmark tracer names it.
    """
    if width < 0:
        raise ValueError("width must be >= 0")
    if np.isnan(min_corr):
        raise ValueError("min_corr must be a number, got nan")
    target = extract_phase(profiles, target_bin)
    if width == 0:
        return target

    t_mean = float(np.mean(target.samples))
    t_zero = target.samples - t_mean
    t_std = float(np.std(t_zero))

    lo = max(0, target_bin - width)
    hi = min(profiles.n_bins - 1, target_bin + width)
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
    dead = _dead(profiles.values[:, filled]).any(axis=1)
    return PhaseSignal(t_mean + acc / total, profiles.slow_time_rate,
                       source_bin=target_bin,
                       dropouts=int(np.count_nonzero(dead)))
