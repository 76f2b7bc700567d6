"""Heart-rate tracking by harmonic credibility.

A fundamental-band peak is only trusted when a peak near its double
corroborates it.  Untrusted windows fall back to narrow re-search regions
around the track's established rate, or hold the last estimate.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .anls import BREATHING_GRID_HZ, _median_refit, breathing_track
from .spectral import Spectrum, top_peaks, power_spectrum
from .types import HrTrace, PhaseSignal, TraceEntry
from .scenario import window_starts

TAG_RELIABLE_1 = "reliable-1st-peak"
TAG_RELIABLE_2 = "reliable-2nd-peak"
TAG_REFINED = "refined"

HEART_BAND_HZ = (0.7, 2.0)


@dataclass(frozen=True)
class AhetConfig:
    deviation_threshold_hz: float = 0.1     # credibility gap bound
    jump_threshold_hz: float = 0.1          # window-to-window fluctuation bound
    fundamental_band_hz: tuple = HEART_BAND_HZ
    harmonic_ceiling_hz: float = 4.0
    stable_count: int = 5
    harmonic_floor: float = 10.0            # harmonic peak vs in-region median power

    def __post_init__(self):
        if self.deviation_threshold_hz <= 0 or self.jump_threshold_hz <= 0:
            raise ValueError("thresholds must be positive")
        lo, hi = self.fundamental_band_hz
        if not 0 < lo < hi:
            raise ValueError("bad fundamental band")
        if self.harmonic_ceiling_hz <= hi:
            raise ValueError("harmonic ceiling must sit above the band")
        if self.stable_count < 1:
            raise ValueError("stable_count must be >= 1")


@dataclass
class TrackerState:
    stable_history: list = field(default_factory=list)  # (hz, tag) pairs
    h_bar_hz: float | None = None                       # frozen once
    last_estimate_hz: float | None = None


def credibility(f_fund_hz: float, f_harm_hz: float,
                threshold_hz: float) -> tuple[float, bool]:
    """Gap between the doubled fundamental and the harmonic, and whether
    it is small enough to trust the pair."""
    delta = abs(2.0 * f_fund_hz - f_harm_hz)
    return delta, delta <= threshold_hz


def conventional_hr(spectrum: Spectrum,
                    band_hz: tuple = HEART_BAND_HZ) -> float:
    """Plain strongest-peak estimate in the heart band, in Hz."""
    peaks = top_peaks(spectrum, band_hz[0], band_hz[1], 1)
    if not peaks:
        raise ValueError("no spectral peak in the heart band")
    return peaks[0].frequency_hz


def _combine(f_fund_hz: float, f_harm_hz: float) -> float:
    """Equal-weight blend of the fundamental and the halved harmonic."""
    return 0.5 * f_fund_hz + 0.5 * (f_harm_hz / 2.0)


def _harmonic_peak(spectrum: Spectrum, f_cand_hz: float, config: AhetConfig):
    """Strongest plausible harmonic for a fundamental candidate.

    The search region starts just under the candidate's double so a slightly
    flat harmonic still lands inside, and runs to the harmonic ceiling.  A
    peak that does not clear the in-region median power by harmonic_floor is
    treated as noise rather than a harmonic.
    """
    lo = 2.0 * f_cand_hz - config.deviation_threshold_hz
    hi = config.harmonic_ceiling_hz
    if lo >= hi:
        return None
    peaks = top_peaks(spectrum, lo, hi, 1)
    if not peaks:
        return None
    peak = peaks[0]
    if config.harmonic_floor > 0:
        a = int(np.searchsorted(spectrum.frequencies, lo, side="left"))
        b = int(np.searchsorted(spectrum.frequencies, hi, side="right"))
        floor = float(np.median(spectrum.power[a:b])) if b > a else 0.0
        if floor > 0 and peak.power < config.harmonic_floor * floor:
            return None
    return peak


def _refined_search(spectrum: Spectrum, state: TrackerState,
                    config: AhetConfig):
    """Re-search narrow regions around the established rate h_bar."""
    va = config.jump_threshold_hz
    f_lo, f_hi = state.h_bar_hz - va, state.h_bar_hz + va
    fund = top_peaks(spectrum, f_lo, f_hi, 1)
    if not fund:
        return None
    harm = top_peaks(spectrum, 2.0 * f_lo, 2.0 * f_hi, 1)
    if not harm:
        return fund[0].frequency_hz, TAG_REFINED, math.inf
    delta = abs(2.0 * fund[0].frequency_hz - harm[0].frequency_hz)
    return (_combine(fund[0].frequency_hz, harm[0].frequency_hz),
            TAG_REFINED, delta)


def ahet_step(spectrum: Spectrum, state: TrackerState,
              config: AhetConfig = AhetConfig()):
    """One tracking update.  Returns (f_hz, tag, delta_hz, state).

    The two strongest fundamental-band peaks are tried in order; the first
    whose harmonic corroborates it wins.  Otherwise the refined regions
    around h_bar are searched, and failing that the last estimate holds.
    Reliable estimates that do not jump accumulate into the stable history
    until h_bar freezes (once, forever).
    """
    band = config.fundamental_band_hz
    fund_peaks = top_peaks(spectrum, band[0], band[1], 2)

    chosen = None
    first_pair = None
    for rank, peak in enumerate(fund_peaks):
        harm = _harmonic_peak(spectrum, peak.frequency_hz, config)
        if harm is None:
            continue
        delta, ok = credibility(peak.frequency_hz, harm.frequency_hz,
                                config.deviation_threshold_hz)
        if first_pair is None:
            first_pair = (peak, harm, delta)
        if ok:
            tag = TAG_RELIABLE_1 if rank == 0 else TAG_RELIABLE_2
            chosen = (_combine(peak.frequency_hz, harm.frequency_hz),
                      tag, delta)
            break

    if chosen is not None and state.h_bar_hz is not None \
            and state.last_estimate_hz is not None \
            and abs(chosen[0] - state.last_estimate_hz) > config.jump_threshold_hz:
        # credible but implausibly far from the running track
        chosen = None

    if chosen is None:
        if state.h_bar_hz is not None:
            chosen = _refined_search(spectrum, state, config)
        if chosen is None:
            if state.last_estimate_hz is not None:
                chosen = (state.last_estimate_hz, TAG_REFINED, math.inf)
            elif first_pair is not None:
                peak, harm, delta = first_pair
                chosen = (_combine(peak.frequency_hz, harm.frequency_hz),
                          TAG_REFINED, delta)
            elif fund_peaks:
                chosen = (fund_peaks[0].frequency_hz, TAG_REFINED, math.inf)
            else:
                raise ValueError("no usable peak in the fundamental band")

    f_hz, tag, delta = chosen
    f_hz = min(max(f_hz, band[0]), band[1])

    if tag in (TAG_RELIABLE_1, TAG_RELIABLE_2) and state.h_bar_hz is None:
        if (state.last_estimate_hz is None
                or abs(f_hz - state.last_estimate_hz) <= config.jump_threshold_hz):
            state.stable_history.append((f_hz, tag))
            if len(state.stable_history) >= config.stable_count:
                values = [hz for hz, _ in state.stable_history]
                state.h_bar_hz = float(np.mean(values))
    state.last_estimate_hz = f_hz
    return f_hz, tag, delta, state


# --- full-record drivers ---------------------------------------------------

def _cpi_windows(phase: PhaseSignal, cpi_s: float, step_s: float):
    fs = phase.sample_rate
    n_cpi = int(round(cpi_s * fs))
    for i0 in window_starts(phase.samples.size, fs, cpi_s, step_s):
        yield i0, i0 / fs + cpi_s / 2.0, phase.samples[i0:i0 + n_cpi]


def _cancel_stage(phase: PhaseSignal, anls_window_s: float,
                  anls_step_s: float, grid: tuple, anls_order: int):
    """Breathing cancellation for the CPI windows of one record.

    The breathing track is fitted once per record.  The returned
    cancel(i0, segment) refits the median fundamental of the subwindows
    lying inside the window over the whole window, and returns the fit's
    residual.  That stands in for projecting the window off lagged copies
    of the fitted reference: a lagged harmonic series is another harmonic
    series at the same fundamental, so the lags (up to their zero-filled
    leading samples) lie in the sin/cos + intercept span the fit has
    already projected out.
    """
    fs = phase.sample_rate
    track = breathing_track(phase, anls_window_s, anls_step_s, grid,
                            anls_order)
    starts_s, sub_hz = track.starts_s(), track.hz()

    def cancel(i0: int, segment: np.ndarray) -> np.ndarray:
        start_s = i0 / fs
        end_s = start_s + segment.size / fs
        inside = (starts_s >= start_s - 1e-9) \
            & (starts_s + anls_window_s <= end_s + 1e-9)
        if not np.any(inside):
            raise ValueError("no breathing subwindow fits inside the CPI "
                             "window")
        model = _median_refit(segment, fs, sub_hz[inside], anls_order)
        return segment - model.predict(segment.size, fs, include_offset=True)

    return cancel


def _track(phase: PhaseSignal, cpi_s: float, step_s: float, cancel, decide,
           hold: tuple, zero_pad_factor: int, taper: str) -> HrTrace:
    """Per sliding window: optional cancel stage, spectrum, decision.

    decide(spectrum) returns (f_hz, tag, delta_hz).  A window whose stages
    raise ValueError or LinAlgError holds the previous estimate, tagged
    hold = (tag, delta_hz); a failure on the very first window propagates.
    """
    fs = phase.sample_rate
    trace = HrTrace()
    last_hz = None
    for i0, center_s, segment in _cpi_windows(phase, cpi_s, step_s):
        try:
            if cancel is not None:
                segment = cancel(i0, segment)
            spectrum = power_spectrum(segment, fs, zero_pad_factor, taper)
            f_hz, tag, delta = decide(spectrum)
        except (ValueError, np.linalg.LinAlgError):
            if last_hz is None:
                raise
            f_hz, (tag, delta) = last_hz, hold
        last_hz = f_hz
        trace.append(TraceEntry(center_s, f_hz * 60.0, tag, delta))
    return trace


def _strongest_peak(band_hz: tuple, tag: str):
    return lambda spectrum: (conventional_hr(spectrum, band_hz), tag, 0.0)


def ahet_trace(phase: PhaseSignal, cpi_s: float = 20.0, step_s: float = 1.0,
               config: AhetConfig = AhetConfig(),
               anls_window_s: float = 5.0, anls_step_s: float = 1.0,
               grid: tuple = BREATHING_GRID_HZ, anls_order: int = 3,
               zero_pad_factor: int = 8, taper: str = "hann") -> HrTrace:
    """Full pipeline per sliding window: breathing reconstruction,
    cancellation, spectrum, credibility tracking.

    A window that fails any stage holds the previous estimate (tagged
    refined with an infinite gap); a failure on the very first window
    propagates.
    """
    cancel = _cancel_stage(phase, anls_window_s, anls_step_s, grid,
                           anls_order)
    state = TrackerState()

    # a held window leaves state alone: its last estimate is the held value
    def decide(spectrum):
        return ahet_step(spectrum, state, config)[:3]

    return _track(phase, cpi_s, step_s, cancel, decide,
                  (TAG_REFINED, math.inf), zero_pad_factor, taper)


def conventional_trace(phase: PhaseSignal, cpi_s: float = 20.0,
                       step_s: float = 1.0,
                       band_hz: tuple = HEART_BAND_HZ,
                       zero_pad_factor: int = 8,
                       taper: str = "hann") -> HrTrace:
    """Strongest-peak tracking on the raw phase, window by window."""
    return _track(phase, cpi_s, step_s, None,
                  _strongest_peak(band_hz, "conventional"),
                  ("conventional", 0.0), zero_pad_factor, taper)


def eca_conventional_trace(phase: PhaseSignal, cpi_s: float = 20.0,
                           step_s: float = 1.0,
                           band_hz: tuple = HEART_BAND_HZ,
                           anls_window_s: float = 5.0,
                           anls_step_s: float = 1.0,
                           grid: tuple = BREATHING_GRID_HZ,
                           anls_order: int = 3,
                           zero_pad_factor: int = 8,
                           taper: str = "hann") -> HrTrace:
    """Strongest-peak tracking after breathing cancellation (no credibility)."""
    cancel = _cancel_stage(phase, anls_window_s, anls_step_s, grid,
                           anls_order)
    return _track(phase, cpi_s, step_s, cancel,
                  _strongest_peak(band_hz, "eca"), ("eca", 0.0),
                  zero_pad_factor, taper)
