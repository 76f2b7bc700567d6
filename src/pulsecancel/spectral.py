"""Windowed power spectra and interpolated peak picking."""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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


def _band_slice(freqs: np.ndarray, lo_hz: float, hi_hz: float) -> tuple:
    """Index range [a, b) of the sorted grid with lo <= f <= hi."""
    a = int(np.searchsorted(freqs, lo_hz, side="left"))
    b = int(np.searchsorted(freqs, hi_hz, side="right"))
    return a, b


def power_spectrum(x: np.ndarray, sample_rate: float,
                   zero_pad_factor: int = 8,
                   taper: str = "hann") -> Spectrum:
    """Magnitude-squared one-sided FFT of one analysis window."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("window must be 1-D")
    if x.size < 16:
        raise ValueError("window too short for spectral analysis")
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")

    w = _taper(taper, x.size)
    xw = (x - np.mean(x)) * w
    n_fft = x.size * zero_pad_factor
    spec = np.fft.rfft(xw, n_fft)
    power = np.abs(spec) ** 2 / n_fft
    # interior bins carry both halves of the two-sided spectrum
    power[1:] *= 2.0
    if n_fft % 2 == 0:
        power[-1] /= 2.0
    return Spectrum(
        frequencies=np.fft.rfftfreq(n_fft, 1.0 / sample_rate),
        power=power,
        sample_rate=sample_rate,
        window_seconds=x.size / sample_rate,
        zero_pad_factor=zero_pad_factor,
        taper=taper,
    )


def _refine(freqs: np.ndarray, power: np.ndarray,
            idx: np.ndarray) -> list[Peak]:
    """Three-point quadratic interpolation around each bin, in log power.

    Bins whose neighborhood cannot support the fit (a non-positive
    neighbor, or curvature that is not a maximum) keep their sampled
    frequency and power unchanged.
    """
    y0, y1, y2 = power[idx - 1], power[idx], power[idx + 1]
    f_out = freqs[idx].astype(float)
    p_out = y1.astype(float)
    ok = np.minimum(y0, y2) > 0.0
    if np.any(ok):
        l0, l1, l2 = np.log(y0[ok]), np.log(y1[ok]), np.log(y2[ok])
        denom = l0 - 2.0 * l1 + l2
        good = denom < 0.0
        delta = np.where(good, 0.5 * (l0 - l2) / np.where(good, denom, -1.0),
                         0.0)
        spacing = float(freqs[1] - freqs[0])
        f_out[ok] = np.where(good, f_out[ok] + delta * spacing, f_out[ok])
        p_out[ok] = np.where(good, np.exp(l1 - 0.25 * (l0 - l2) * delta),
                             p_out[ok])
    return [Peak(float(f), float(p)) for f, p in zip(f_out, p_out)]


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
    freqs, power = spectrum.frequencies, spectrum.power
    a, b = _band_slice(freqs, lo_hz, hi_hz)
    a, b = max(a, 1), min(b, freqs.size - 1)
    if a >= b:
        return []
    block = power[a - 1:b + 1]
    local_max = (block[1:-1] > block[:-2]) & (block[1:-1] > block[2:])
    candidates = np.flatnonzero(local_max) + a
    if candidates.size == 0:
        return []
    peaks = _refine(freqs, power, candidates)
    peaks.sort(key=lambda p: (-p.power, p.frequency_hz))
    return peaks[:k]


def band_peak_power(spectrum: Spectrum, f_hz: float,
                    halfwidth_hz: float) -> float:
    """Max power within +-halfwidth of a frequency (leakage-tolerant probe)."""
    sel = np.abs(spectrum.frequencies - f_hz) <= halfwidth_hz
    if not np.any(sel):
        raise ValueError(f"no bins within {halfwidth_hz} Hz of {f_hz} Hz")
    return float(np.max(spectrum.power[sel]))
