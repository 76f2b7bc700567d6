"""Windowed power spectra and interpolated peak picking.

power_spectrum gives one window's full zero-padded spectrum.  band_power
gives a stack of windows' spectra on the same grid, but only up to the
highest frequency a caller reads: one chirp-z transform (Rabiner, Schafer
& Rader, 1969) in place of the padded FFT.  Peak picking works on stacks
of spectra (band_peaks); top_peaks is a stack of one.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.signal import get_window


@dataclass
class Spectrum:
    """One-sided power spectrum of a mean-removed, tapered, padded window.

    Power is normalized so the bins sum to the tapered signal's energy
    (Parseval).  Grid spacing is sample_rate / (n_samples * zero_pad_factor).
    """

    frequencies: np.ndarray
    power: np.ndarray
    sample_rate: float
    window_seconds: float
    zero_pad_factor: int
    taper: str

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
def _taper(taper: str, n: int) -> np.ndarray:
    """Window samples, cached per (taper, n) and returned read-only."""
    w = get_window(taper, n, fftbins=True)
    w.flags.writeable = False
    return w


def _check_window(n: int, sample_rate: float, zero_pad_factor: int):
    if n < 16:
        raise ValueError("window too short for spectral analysis")
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")


def _one_sided(spec: np.ndarray, n_fft: int) -> np.ndarray:
    """Power of the first bins of an n_fft-point DFT, Parseval-normalized.

    Interior bins carry both halves of the two-sided spectrum; the Nyquist
    bin of an even transform, when present, carries one.
    """
    power = np.abs(spec) ** 2 / n_fft
    power[..., 1:] *= 2.0
    if n_fft % 2 == 0 and spec.shape[-1] == n_fft // 2 + 1:
        power[..., -1] /= 2.0
    return power


def power_spectrum(x: np.ndarray, sample_rate: float,
                   zero_pad_factor: int = 8,
                   taper: str = "hann") -> Spectrum:
    """Magnitude-squared one-sided FFT of one analysis window."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("window must be 1-D")
    _check_window(x.size, sample_rate, zero_pad_factor)
    xw = (x - np.mean(x)) * _taper(taper, x.size)
    n_fft = x.size * zero_pad_factor
    return Spectrum(
        frequencies=np.fft.rfftfreq(n_fft, 1.0 / sample_rate),
        power=_one_sided(np.fft.rfft(xw, n_fft), n_fft),
        sample_rate=sample_rate,
        window_seconds=x.size / sample_rate,
        zero_pad_factor=zero_pad_factor,
        taper=taper,
    )


@lru_cache(maxsize=8)
def _band_grid(n_fft: int, sample_rate: float, top_hz: float) -> np.ndarray:
    """The padded grid's bins up to top_hz plus one (read-only): a peak at
    the top bin needs its upper neighbor."""
    freqs = np.fft.rfftfreq(n_fft, 1.0 / sample_rate)
    k = min(int(np.searchsorted(freqs, top_hz, side="right")) + 1,
            freqs.size)
    band = freqs[:k].copy()
    band.flags.writeable = False
    return band


@lru_cache(maxsize=2)
def _chirp_z(n: int, m: int, n_fft: int, taper: str) -> tuple:
    """Bluestein's chirp-z transform for bins 0..m-1 of the n_fft-point DFT
    of n tapered samples: (taper times pre-chirp, convolution length,
    spectrum of the conjugate chirp), read-only.

    The chirp exp(-i pi k^2 / n_fft) reduces k^2 modulo 2 n_fft in
    integers, so its phase carries no rounding that grows with k.  The
    post-chirp has unit modulus, and power never needs it.
    """
    k = np.arange(max(n, m))
    chirp = np.exp(-1j * np.pi * ((k * k) % (2 * n_fft)) / n_fft)
    size = scipy.fft.next_fast_len(n + m - 1)
    kernel = scipy.fft.fft(np.conj(np.concatenate([chirp[n - 1:0:-1],
                                                   chirp[:m]])), size)
    pre = _taper(taper, n) * chirp[:n]
    for a in (pre, kernel):
        a.flags.writeable = False
    return pre, size, kernel


def band_power(windows: np.ndarray, sample_rate: float, top_hz: float,
               zero_pad_factor: int = 8,
               taper: str = "hann") -> tuple[np.ndarray, np.ndarray]:
    """Power spectra of a stack of windows (one per row), up to top_hz.

    Returns (frequencies, power): frequencies are power_spectrum's grid up
    to top_hz plus one bin, and each row of power equals power_spectrum of
    that window over those bins, to rounding.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim != 2:
        raise ValueError("windows must be a 2-D stack")
    rows, n = windows.shape
    _check_window(n, sample_rate, zero_pad_factor)
    n_fft = n * zero_pad_factor
    freqs = _band_grid(n_fft, sample_rate, float(top_hz))
    pre, size, kernel = _chirp_z(n, freqs.size, n_fft, taper)
    y = np.zeros((rows, size), dtype=complex)
    np.subtract(windows, np.mean(windows, axis=1, keepdims=True),
                out=y[:, :n])
    y[:, :n] *= pre
    y = scipy.fft.fft(y, axis=1, overwrite_x=True)
    y *= kernel
    y = scipy.fft.ifft(y, axis=1, overwrite_x=True)
    return freqs, _one_sided(y[:, n - 1:n - 1 + freqs.size], n_fft)


def _refine(freqs: np.ndarray, power: np.ndarray, rows: np.ndarray,
            cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three-point quadratic interpolation around power[rows, cols], in
    log power.  Returns the (frequencies, powers) of the fitted maxima.

    Bins whose neighborhood cannot support the fit (a non-positive
    neighbor, or curvature that is not a maximum) keep their sampled
    frequency and power unchanged.
    """
    y0, y1, y2 = (power[rows, cols - 1], power[rows, cols],
                  power[rows, cols + 1])
    ok = np.minimum(y0, y2) > 0.0
    l0, l1, l2 = (np.log(np.where(ok, y, 1.0)) for y in (y0, y1, y2))
    denom = l0 - 2.0 * l1 + l2
    good = ok & (denom < 0.0)
    delta = np.where(good, 0.5 * (l0 - l2) / np.where(good, denom, -1.0), 0.0)
    spacing = float(freqs[1] - freqs[0]) if cols.size else 0.0
    f_out = freqs[cols] + delta * spacing
    p_out = np.where(good, np.exp(l1 - 0.25 * (l0 - l2) * delta), y1)
    return f_out, p_out


def local_peaks(freqs: np.ndarray, power: np.ndarray, a: int,
                b: int) -> tuple:
    """Interpolated strict local maxima of each row of power (on grid
    freqs) in columns [a, b), 1 <= a <= b <= len(freqs) - 1.  Returns
    (rows, cols, frequencies, powers), one entry per peak."""
    block = power[:, a - 1:b + 1]
    mid = block[:, 1:-1]
    rows, cols = np.nonzero((mid > block[:, :-2]) & (mid > block[:, 2:]))
    cols += a
    return (rows, cols, *_refine(freqs, power, rows, cols))


def strongest_peaks(peaks: tuple, keep, n_rows: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k strongest of the peaks that keep selects, per row:
    (frequencies, powers), each n_rows x k, strongest first, nan where a
    row has fewer than k.  Ties go to the lower frequency: peaks come in
    local_peaks' order (by row, then column) and the sort is stable."""
    rows, _, f, p = (x[keep] for x in peaks)
    order = np.lexsort((-p, rows))
    rows, f, p = rows[order], f[order], p[order]
    rank = np.arange(rows.size) - rows.searchsorted(rows)   # place in row
    top = rank < k
    out_f = np.full((n_rows, k), np.nan)
    out_p = np.full((n_rows, k), np.nan)
    out_f[rows[top], rank[top]] = f[top]
    out_p[rows[top], rank[top]] = p[top]
    return out_f, out_p


def band_peaks(freqs: np.ndarray, power: np.ndarray, lo_hz: float,
               hi_hz: float, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Stack form of top_peaks over rows of power on one grid.  Returns
    strongest_peaks' (frequencies, powers), each rows x k."""
    a = max(int(freqs.searchsorted(lo_hz, side="left")), 1)
    b = min(int(freqs.searchsorted(hi_hz, side="right")), freqs.size - 1)
    peaks = local_peaks(freqs, power, min(a, b), b)
    return strongest_peaks(peaks, slice(None), power.shape[0], k)


def row_medians(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """np.median(values[i][mask[i]]) for each row i of the mask (values
    broadcast against it), nan where a row's mask selects nothing."""
    count = np.count_nonzero(mask, axis=1)
    ordered = np.sort(np.where(mask, values, np.inf), axis=1)
    rows = np.arange(ordered.shape[0])
    lo = ordered[rows, np.maximum(count - 1, 0) // 2]
    hi = ordered[rows, count // 2]
    return np.where(count > 0, (lo + hi) / 2.0, np.nan)


def top_peaks(spectrum: Spectrum, lo_hz: float, hi_hz: float,
              k: int = 1) -> list[Peak]:
    """Strongest k interpolated peaks with lo <= f <= hi.

    Peaks are strict local maxima of the padded spectrum; band-edge power
    ramps from out-of-band interferers therefore never count.  Ties order
    toward the lower frequency.  May return fewer than k peaks.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if lo_hz >= hi_hz:
        raise ValueError("band must satisfy lo < hi")
    f, p = band_peaks(spectrum.frequencies, spectrum.power[None, :], lo_hz,
                      hi_hz, k)
    return [Peak(fi, pi) for fi, pi in zip(f[0].tolist(), p[0].tolist())
            if not math.isnan(fi)]


def band_peak_power(spectrum: Spectrum, f_hz: float,
                    halfwidth_hz: float) -> float:
    """Max power within +-halfwidth of a frequency (leakage-tolerant probe)."""
    sel = np.abs(spectrum.frequencies - f_hz) <= halfwidth_hz
    if not np.any(sel):
        raise ValueError(f"no bins within {halfwidth_hz} Hz of {f_hz} Hz")
    return float(np.max(spectrum.power[sel]))
