"""Windowed power spectra and interpolated peak picking.

power_spectrum gives one window's full zero-padded spectrum.  band_power
gives a stack of windows' spectra on the same grid, but only up to the
highest frequency a caller reads: one chirp-z transform (Rabiner, Schafer
& Rader, 1969) in place of the padded FFT.  The windows are real, so it
transforms them in pairs, one as the real and one as the imaginary part
of a complex row, and separates the two spectra by the conjugate symmetry
of a real signal's spectrum (Press et al., Numerical Recipes, "FFT of two
real functions simultaneously").  A row is then exact to rounding of the
larger of its pair, and a constant window gets exactly zero power in both
(its first sample, not its rounded mean, is removed).  Every transform is
numpy.fft's: band_power's two run in place (out=) on a complex128 buffer
that holds a group of pairs, padded to the next 11-smooth length
(_fast_len).  Peak picking works on stacks of spectra (band_peaks);
top_peaks is a stack of one.  Every selection from a stack's peaks has one
pick rule (strongest_peaks): a masked argmax over the powers of the peaks
it may take, so the strongest wins and ties go to the lower frequency.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft       # loaded here, not lazily inside a first transform

from .types import equal_fields


@dataclass
class Spectrum:
    """One-sided power spectrum of a mean-removed, Hann-windowed, padded
    window.

    Power is normalized so the bins sum to the windowed signal's energy
    (Parseval).  Grid spacing is sample_rate / (n_samples * zero_pad_factor).
    """

    frequencies: np.ndarray
    power: np.ndarray
    sample_rate: float
    window_seconds: float
    zero_pad_factor: int

    __eq__ = equal_fields

    @property
    def spacing_hz(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def native_resolution_hz(self) -> float:
        """Resolution of the un-padded window, 1 / window_seconds."""
        return 1.0 / self.window_seconds


@dataclass(frozen=True)
class Peak:
    frequency_hz: float
    power: float


@lru_cache(maxsize=8)
def _hann(n: int, periodic: bool) -> np.ndarray:
    """n-point Hann window, periodic (the spectra's) or symmetric (the
    range FFT's), cached and returned read-only.

    The samples are 0.5 + 0.5 cos on an even grid over [-pi, pi], the
    reference Hann window's own sum, bit for bit; np.hanning and
    0.5 - 0.5 cos(2 pi k / (n - 1)) differ from them at rounding.
    """
    w = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + periodic)))[:n]
    w.flags.writeable = False
    return w


def _check_window(n: int, sample_rate: float, zero_pad_factor: int):
    if n < 16:
        raise ValueError("window too short for spectral analysis")
    try:
        operator.index(zero_pad_factor)
    except TypeError:
        raise ValueError(f"zero_pad_factor must be an integer, got "
                         f"{zero_pad_factor!r}") from None
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise ValueError(f"sample_rate must be finite and positive, got "
                         f"{sample_rate}")


def _one_sided(power: np.ndarray, n_fft: int) -> np.ndarray:
    """Parseval-normalizes, in place, |X|^2 of the first bins of an
    n_fft-point DFT.

    Interior bins carry both halves of the two-sided spectrum; the Nyquist
    bin of an even transform, when present, carries one.  A stack's rows
    are doubled one at a time, since numpy buffers a 2-D view whose rows
    are not adjacent (130 kB for a 16 x 674 stack) and nothing for a row.
    """
    power /= n_fft
    for row in np.atleast_2d(power):
        row[1:] *= 2.0
    if n_fft % 2 == 0 and power.shape[-1] == n_fft // 2 + 1:
        power[..., -1] /= 2.0
    return power


@lru_cache(maxsize=4)
def _grid(n_fft: int, sample_rate: float) -> np.ndarray:
    """power_spectrum's frequencies: the one-sided grid of an n_fft-point
    DFT at sample_rate (rfftfreq), cached read-only."""
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    freqs.flags.writeable = False
    return freqs


def power_spectrum(x: np.ndarray, sample_rate: float,
                   zero_pad_factor: int = 8) -> Spectrum:
    """Magnitude-squared one-sided FFT of one analysis window.

    The mean is removed into one fresh buffer and the Hann window applied
    to it in place; np.fft.rfft pads it to x.size * zero_pad_factor
    points.  The power is re^2 + im^2 of its output (np.abs would go
    through hypot), Parseval-normalized as band_power's.  frequencies is
    the cached, read-only grid of that length and rate.  Raises ValueError
    on a non-finite sample, as band_power does.  A constant window has its
    first sample removed, as in band_power, so its power is exactly zero.

    Memory: the windowed copy dies once the transform exists, and im^2 is
    squared into the transform's own imaginary part, so the call holds the
    complex transform and the power and nothing else (192 kB for 2,000
    samples at pad 8, where a third temporary for im^2 and the copy made
    it 273 kB).  The grid is looked up first, so a cold grid's build
    (rfftfreq's integer and float arrays) is done before the transform
    and the power are held.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("window must be 1-D")
    n = x.size
    _check_window(n, sample_rate, zero_pad_factor)
    if not np.isfinite(x).all():
        raise ValueError("window holds non-finite samples")
    n_fft = n * zero_pad_factor
    frequencies = _grid(n_fft, sample_rate)
    # the mean as np.mean computes it, or a flat window's exact level
    flat = constant_rows(x[None, :]).size > 0
    xw = x - (x[0] if flat else x.sum() / n)
    xw *= _hann(n, True)
    spectrum = np.fft.rfft(xw, n_fft)
    del xw
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag, out=spectrum.imag)
    return Spectrum(
        frequencies=frequencies,
        power=_one_sided(power, n_fft),
        sample_rate=sample_rate,
        window_seconds=n / sample_rate,
        zero_pad_factor=zero_pad_factor,
    )


def _fast_len(target: int) -> int:
    """The smallest 11-smooth number (2^a 3^b 5^c 7^d 11^e) >= target, a
    positive integer: the lengths numpy's FFT (pocketfft) transforms
    fastest.  They are dense, so counting up finds one in a few steps."""
    n = target
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


@lru_cache(maxsize=2)
def _chirp_z(n: int, sample_rate: float, top_hz: float,
             zero_pad_factor: int) -> tuple:
    """Bluestein's chirp-z transform for the bins -(m-1)..(m-1) of the
    padded n * zero_pad_factor-point DFT of n Hann-windowed samples, where
    bins 0..m-1 reach top_hz plus one (a peak at the top bin needs its upper
    neighbor): (the m frequencies, window times pre-chirp, convolution
    length, spectrum of the conjugate chirp, post-chirp of bins 0..m-1),
    read-only.

    With w[k] = exp(-i pi k^2 / n_fft), bin k is w[k] times the
    convolution of the pre-chirped samples with conj(w) at k; the kernel
    spans lags -(n+m-2)..(m-1), so the 2m-1 bins take one convolution of
    _fast_len(n + 2m - 2) points.  w is even in k, so one post-chirp
    serves k and -k.  The chirp reduces k^2 modulo 2 n_fft in integers, so
    its phase carries no rounding that grows with k.
    """
    n_fft = n * zero_pad_factor
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    m = min(int(np.searchsorted(freqs, top_hz, side="right")) + 1,
            freqs.size)
    freqs = freqs[:m].copy()
    k = np.arange(n + m - 1)
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * n_fft)) / n_fft)
    size = _fast_len(n + 2 * m - 2)
    kernel = np.fft.fft(np.conj(np.concatenate([chirp[:0:-1], chirp[:m]])),
                        size)
    pre = _hann(n, True) * chirp[:n]
    post = chirp[:m].copy()
    for a in (freqs, pre, kernel, post):
        a.flags.writeable = False
    return freqs, pre, size, kernel, post


def band_power(windows: np.ndarray, sample_rate: float, top_hz: float,
               zero_pad_factor: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Power spectra of a stack of real windows (one per row), up to top_hz.

    Returns (frequencies, power): frequencies are power_spectrum's grid up
    to top_hz plus one bin.  Rows 2i and 2i+1 share one complex transform,
    as its real and imaginary parts (an odd last row rides alone), and are
    separated by the symmetry of a real signal's spectrum.  So each row of
    power equals power_spectrum of that window over those bins to within
    1e-12 of the larger of its pair's peak powers, not of its own.  A
    constant window has its first sample removed, so it gets exactly zero
    power and adds nothing to its partner's.  Raises ValueError on a
    non-finite sample, which would spread into its partner, and on a
    top_hz that is NaN or not positive.
    A non-finite sample makes its row's mean non-finite, so the stack
    itself is scanned only when a mean is (a finite row's sum can
    overflow).

    Memory: the output plus one group's work.  The pairs are transformed
    a group at a time (_pair_power), in a complex buffer of
    _fast_len(n + 2m - 2) samples a pair that is no larger than the stack
    (4 of the 8 pairs, 215 kB, for 16 windows of 2000 samples), with the
    group's two band slices and two power temporaries: 0.45 MB at the peak
    for 16 windows of 2000 samples, 0.82 MB when the pairs were one buffer.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2:
        raise ValueError("windows must be a 2-D stack")
    rows, n = windows.shape
    _check_window(n, sample_rate, zero_pad_factor)
    if not top_hz > 0:
        raise ValueError("top_hz must be positive")
    mean = np.mean(windows, axis=1)
    if not np.isfinite(mean).all() and not np.isfinite(windows).all():
        raise ValueError("windows hold non-finite samples")
    chirp_z = _chirp_z(n, sample_rate, top_hz, zero_pad_factor)
    freqs = chirp_z[0]
    # a flat row's first sample is its exact mean, where sum / n can round
    # off it
    flat = constant_rows(windows)
    mean[flat] = windows[flat, 0]
    power = np.empty((rows, freqs.size))
    _pair_power(windows, mean, chirp_z, power)
    power *= 0.25
    power[flat] = 0.0
    return freqs, _one_sided(power, n * zero_pad_factor)


def _pair_power(windows: np.ndarray, means: np.ndarray, chirp_z: tuple,
                power: np.ndarray):
    """band_power's transform: four times the power of each row of
    windows less its mean (means, one per row), written into power, a
    group of pairs at a time; the group's buffers die on return.

    Each complex row holds a pair, the even window as its real part and
    the odd one as its imaginary part (an odd last window alone), and gets
    _chirp_z's pre-chirp, kernel and post-chirp.  With Z[k] = A[k] + i B[k]
    on bins -(m-1)..(m-1), A and B the spectra of the real and imaginary
    rows, 2A[k] = Z[k] + conj Z[-k] and 2i B[k] = Z[k] - conj Z[-k]; each
    row's power is re^2 + im^2 of that.

    A chirp, or a result row, is applied one row at a time: numpy
    buffers (copies) a 1-D operand broadcast over a 2-D one, or a 2-D
    view whose rows are not adjacent, and allocates nothing for one row.
    The power sums run on whole groups of contiguous rows and are copied
    into power's rows.
    """
    rows, n = windows.shape
    freqs, pre, size, kernel, post = chirp_z
    m = freqs.size
    count, pairs = rows - rows // 2, rows // 2
    group = max(1, min(count, windows.nbytes // (16 * size)))
    y = np.empty((group, size), dtype=complex)
    z = np.empty((group, m), dtype=complex)
    z_neg = np.empty((group, m), dtype=complex)
    re, im = np.empty((2, group, m))
    for c0 in range(0, count, group):
        k = min(group, count - c0)
        y[:k, n:] = 0.0
        for r, row in enumerate(y[:k]):
            i = 2 * (c0 + r)
            np.subtract(windows[i], means[i], out=row.real[:n])
            if i + 1 < rows:
                np.subtract(windows[i + 1], means[i + 1], out=row.imag[:n])
            else:
                row.imag[:n] = 0.0
            row[:n] *= pre
        np.fft.fft(y[:k], axis=1, out=y[:k])
        for row in y[:k]:
            row *= kernel
        np.fft.ifft(y[:k], axis=1, out=y[:k])
        for row, zr, nr in zip(y[:k], z, z_neg):
            np.multiply(row[n + m - 2:n + 2 * m - 2], post, out=zr)
            np.multiply(row[n + m - 2:n - 2:-1], post, out=nr)
        np.conj(z_neg[:k], out=z_neg[:k])
        # even windows from Z + conj Z[-k], odd ones from Z - conj Z[-k]
        for out, combine, j in ((power[2 * c0:2 * (c0 + k):2], np.add, k),
                                (power[2 * c0 + 1:2 * (c0 + k):2],
                                 np.subtract, min(c0 + k, pairs) - c0)):
            combine(z[:j].real, z_neg[:j].real, out=re[:j])
            np.square(re[:j], out=re[:j])
            combine(z[:j].imag, z_neg[:j].imag, out=im[:j])
            np.square(im[:j], out=im[:j])
            re[:j] += im[:j]
            out[...] = re[:j]


# a peak's column and its two neighbors, as column offsets
_NEIGHBORHOOD = np.array([-1, 0, 1])


def _refine(freqs: np.ndarray, power: np.ndarray, rows: np.ndarray,
            cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three-point quadratic interpolation around power[rows, cols], in
    log power.  Returns the (frequencies, powers) of the fitted maxima.

    Bins whose neighborhood cannot support the fit (a non-positive
    neighbor, or curvature that is not a maximum) keep their sampled
    frequency and power unchanged.  The neighborhoods are gathered, and
    their logs taken, as one peaks x 3 array.
    """
    y = power[rows[:, None], cols[:, None] + _NEIGHBORHOOD]
    ok = np.minimum(y[:, 0], y[:, 2]) > 0.0
    l0, l1, l2 = np.log(np.where(ok[:, None], y, 1.0)).T
    slope = l0 - l2
    denom = l0 - 2.0 * l1 + l2
    good = ok & (denom < 0.0)
    # a fit that fails divides its finite slope by -inf: a zero step
    delta = 0.5 * slope / np.where(good, denom, -np.inf)
    spacing = float(freqs[1] - freqs[0]) if cols.size else 0.0
    f_out = freqs[cols] + delta * spacing
    p_out = np.where(good, np.exp(l1 - 0.25 * slope * delta), y[:, 1])
    return f_out, p_out


def local_peaks(freqs: np.ndarray, power: np.ndarray, a: int,
                b: int) -> tuple:
    """Interpolated strict local maxima of each row of power (on grid
    freqs) in columns [a, b), 1 <= a <= b <= len(freqs) - 1.  Returns
    (rows, cols, frequencies, powers), one entry per peak, by row and then
    by column."""
    block = power[:, a - 1:b + 1]
    mid = block[:, 1:-1]
    rows, cols = np.nonzero((mid > block[:, :-2]) & (mid > block[:, 2:]))
    cols += a
    return (rows, cols, *_refine(freqs, power, rows, cols))


def strongest_peaks(peaks: tuple, mine: np.ndarray, k: int) -> np.ndarray:
    """The k strongest of local_peaks' peaks that each selection may take:
    frequencies and powers, 2 x selections x k, strongest first, nan where
    a selection has fewer than k.

    mine is a selections x peaks mask.  Each pick is a row argmax over the
    kept powers, -inf elsewhere and in a first column that reads nan, and
    drops the peak it takes.  local_peaks lists a row's peaks by column,
    so ties go to the lower frequency.
    """
    _, _, f, p = peaks
    kept = np.full((len(mine), p.size + 1), -np.inf)
    np.copyto(kept[:, 1:], p, where=mine)
    picks = np.empty((k, len(mine)), dtype=np.intp)
    for i in range(k):
        kept.argmax(axis=1, out=picks[i])
        if i + 1 < k:
            kept[np.arange(len(mine)), picks[i]] = -np.inf
    table = np.empty((2, p.size + 1))
    table[:, 0] = np.nan
    table[0, 1:], table[1, 1:] = f, p
    return table[:, picks.T]


def band_peaks(freqs: np.ndarray, power: np.ndarray, lo_hz: float,
               hi_hz: float, k: int = 1) -> np.ndarray:
    """Stack form of top_peaks over rows of power on one grid: each row
    takes its own peaks.  Returns strongest_peaks' frequencies and powers,
    2 x rows x k."""
    a = max(int(freqs.searchsorted(lo_hz, side="left")), 1)
    b = min(int(freqs.searchsorted(hi_hz, side="right")), freqs.size - 1)
    peaks = local_peaks(freqs, power, min(a, b), b)
    return strongest_peaks(peaks,
                           peaks[0] == np.arange(power.shape[0])[:, None], k)


def constant_rows(windows: np.ndarray) -> np.ndarray:
    """Indices of the rows of a 2-D stack whose samples all equal their
    first.  A constant row ends at its first sample, so only those rows
    are compared in full."""
    flat = np.flatnonzero(windows[:, 0] == windows[:, -1])
    if flat.size:           # a stack with no such row skips the rest
        flat = flat[(windows[flat] == windows[flat, :1]).all(axis=1)]
    return flat


def row_medians(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """np.median(values[i][mask[i]]) for each row i of the mask (values
    broadcast against it), nan where a row's mask selects nothing."""
    count = mask.sum(axis=1)
    ordered = np.where(mask, values, np.inf)
    ordered.sort(axis=1)
    rows = np.arange(ordered.shape[0])
    # the middle pair; a row that selects nothing reads its last and first
    # columns, and nan replaces them
    below = count - 1
    mid = (ordered[rows, below // 2] + ordered[rows, (below + 1) // 2]) / 2.0
    return np.where(count > 0, mid, np.nan)


def top_peaks(spectrum: Spectrum, lo_hz: float, hi_hz: float,
              k: int = 1) -> list[Peak]:
    """Strongest k interpolated peaks with lo <= f <= hi.

    Peaks are strict local maxima of the padded spectrum; band-edge power
    ramps from out-of-band interferers therefore never count.  Ties order
    toward the lower frequency.  May return fewer than k peaks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lo_hz < hi_hz:      # a NaN edge too
        raise ValueError(f"band must satisfy lo < hi, got {lo_hz}:{hi_hz} "
                         f"Hz")
    f, p = band_peaks(spectrum.frequencies, spectrum.power[None, :], lo_hz,
                      hi_hz, k)[:, 0].tolist()
    return [Peak(fi, pi) for fi, pi in zip(f, p) if not math.isnan(fi)]


def band_peak_power(spectrum: Spectrum, f_hz: float,
                    halfwidth_hz: float) -> float:
    """Max power within +-halfwidth of a frequency (leakage-tolerant probe)."""
    sel = np.abs(spectrum.frequencies - f_hz) <= halfwidth_hz
    if not np.any(sel):
        raise ValueError(f"no bins within {halfwidth_hz} Hz of {f_hz} Hz")
    return float(np.max(spectrum.power[sel]))
