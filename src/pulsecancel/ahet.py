"""Heart-rate tracking by harmonic credibility.

A fundamental-band peak is only trusted when a peak near its double
corroborates it.  Untrusted windows fall back to narrow re-search regions
around the track's established rate, or hold the last estimate.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .anls import BreathingTrack, breathing_track
from .spectral import (Spectrum, band_peaks, band_power, local_peaks,
                       row_medians, strongest_peaks)
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


def _strongest_hz(f_hz: float) -> float:
    if math.isnan(f_hz):
        raise ValueError("no spectral peak in the heart band")
    return f_hz


def conventional_hr(spectrum: Spectrum,
                    band_hz: tuple = HEART_BAND_HZ) -> float:
    """Plain strongest-peak estimate in the heart band, in Hz."""
    f_hz, _ = band_peaks(spectrum.frequencies, spectrum.power[None, :],
                         band_hz[0], band_hz[1], 1)
    return _strongest_hz(float(f_hz[0, 0]))


def _combine(f_fund_hz: float, f_harm_hz: float) -> float:
    """Equal-weight blend of the fundamental and the halved harmonic."""
    return 0.5 * f_fund_hz + 0.5 * (f_harm_hz / 2.0)


def _measure(freqs: np.ndarray, power: np.ndarray,
             config: AhetConfig) -> tuple:
    """What each spectrum (row of power) offers the tracker: its two
    strongest fundamental-band peaks and, for each, its harmonic.  Returns
    (fund_hz, harm_hz), rows x 2, nan where a peak or harmonic is missing.

    A candidate's harmonic is the strongest peak from just under its double
    (so a slightly flat harmonic still lands inside) up to the harmonic
    ceiling.  A peak that does not clear that region's median power by
    harmonic_floor is treated as noise rather than a harmonic.
    """
    band, hi = config.fundamental_band_hz, config.harmonic_ceiling_hz
    # bins past the harmonic ceiling's upper neighbor are never read
    n = int(freqs.searchsorted(hi, side="right")) + 1
    freqs, power = freqs[:n], power[:, :n]
    rows = power.shape[0]
    edge = freqs.size - 1
    a_band = min(max(int(freqs.searchsorted(band[0], side="left")), 1), edge)
    b_band = min(int(freqs.searchsorted(band[1], side="right")), edge)
    b = min(int(freqs.searchsorted(hi, side="right")), edge)
    # one peak search serves the band and every harmonic region
    peaks = local_peaks(freqs, power, 1, b)
    peak_rows, peak_cols = peaks[:2]
    fund_hz, _ = strongest_peaks(
        peaks, (peak_cols >= a_band) & (peak_cols < b_band), rows, 2)

    # candidate i of row r searches as row r + i * rows of its own
    lo = 2.0 * fund_hz.T.ravel() - config.deviation_threshold_hz
    a = freqs.searchsorted(np.where(lo < hi, lo, np.nan), side="left")
    both = (np.concatenate([peak_rows, peak_rows + rows]),
            *(np.concatenate([x, x]) for x in peaks[1:]))
    harm_hz, harm_p = strongest_peaks(
        both, both[1] >= np.maximum(a[both[0]], 1), 2 * rows, 1)
    harm_hz = harm_hz[:, 0]
    if config.harmonic_floor > 0:
        in_floor = np.arange(freqs.searchsorted(hi, side="right"))
        floor = row_medians(np.concatenate([power[:, :in_floor.size]] * 2),
                            in_floor >= a[:, None])
        harm_hz[(floor > 0)
                & (harm_p[:, 0] < config.harmonic_floor * floor)] = np.nan
    return fund_hz, harm_hz.reshape(2, rows).T


def _refined_search(freqs: np.ndarray, power: np.ndarray,
                    state: TrackerState, config: AhetConfig):
    """Re-search narrow regions around the established rate h_bar in one
    window's spectrum (power on grid freqs)."""
    va = config.jump_threshold_hz
    f_lo, f_hi = state.h_bar_hz - va, state.h_bar_hz + va
    fund = float(band_peaks(freqs, power[None, :], f_lo, f_hi)[0][0, 0])
    if math.isnan(fund):
        return None
    harm = float(band_peaks(freqs, power[None, :], 2.0 * f_lo,
                            2.0 * f_hi)[0][0, 0])
    if math.isnan(harm):
        return fund, TAG_REFINED, math.inf
    return _combine(fund, harm), TAG_REFINED, abs(2.0 * fund - harm)


def _top_hz(config: AhetConfig) -> float:
    """Highest frequency the tracker reads: the harmonic ceiling, or the
    refined harmonic region around an h_bar at the top of the band."""
    return max(config.harmonic_ceiling_hz,
               2.0 * (config.fundamental_band_hz[1] + config.jump_threshold_hz))


def _decide(fund_hz, harm_hz, freqs: np.ndarray, power: np.ndarray,
            state: TrackerState, config: AhetConfig):
    """ahet_step's sequential update from one window's _measure row; only
    the refined search reads the window's spectrum (power on grid freqs)."""
    band = config.fundamental_band_hz
    fund_hz, harm_hz = fund_hz.tolist(), harm_hz.tolist()

    chosen = None
    first_pair = None
    for rank, (f_fund, f_harm) in enumerate(zip(fund_hz, harm_hz)):
        if math.isnan(f_harm):      # also when there is no such peak
            continue
        delta, ok = credibility(f_fund, f_harm,
                                config.deviation_threshold_hz)
        if first_pair is None:
            first_pair = (f_fund, f_harm, delta)
        if ok:
            tag = TAG_RELIABLE_1 if rank == 0 else TAG_RELIABLE_2
            chosen = (_combine(f_fund, f_harm), tag, delta)
            break

    if chosen is not None and state.h_bar_hz is not None \
            and state.last_estimate_hz is not None \
            and abs(chosen[0] - state.last_estimate_hz) > config.jump_threshold_hz:
        # credible but implausibly far from the running track
        chosen = None

    if chosen is None:
        if state.h_bar_hz is not None:
            chosen = _refined_search(freqs, power, state, config)
        if chosen is None:
            if state.last_estimate_hz is not None:
                chosen = (state.last_estimate_hz, TAG_REFINED, math.inf)
            elif first_pair is not None:
                f_fund, f_harm, delta = first_pair
                chosen = (_combine(f_fund, f_harm), TAG_REFINED, delta)
            elif not math.isnan(fund_hz[0]):
                chosen = (fund_hz[0], TAG_REFINED, math.inf)
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
    return f_hz, tag, delta


def ahet_step(spectrum: Spectrum, state: TrackerState,
              config: AhetConfig = AhetConfig()):
    """One tracking update.  Returns (f_hz, tag, delta_hz, state).

    The two strongest fundamental-band peaks are tried in order; the first
    whose harmonic corroborates it wins.  Otherwise the refined regions
    around h_bar are searched, and failing that the last estimate holds.
    Reliable estimates that do not jump accumulate into the stable history
    until h_bar freezes (once, forever).  This is _measure, then _decide:
    ahet_trace runs the same two stages, _measure over a block of windows.
    """
    fund_hz, harm_hz = _measure(spectrum.frequencies,
                                spectrum.power[None, :], config)
    return (*_decide(fund_hz[0], harm_hz[0], spectrum.frequencies,
                     spectrum.power, state, config), state)


# --- full-record drivers ---------------------------------------------------

# Windows per block: stacking a whole record's windows at once multiplies
# the driver's memory peak, while blocks this size already share the
# per-call overhead of the transform and the peak search.
_BLOCK = 16


def _windows(phase: PhaseSignal, cpi_s: float, step_s: float) -> tuple:
    """The sliding windows: (starts, centers_s, stack), their start indices
    and center times as lists, and the windows one per row of a view on
    the samples (no copy)."""
    fs = phase.sample_rate
    starts = window_starts(phase.samples.size, fs, cpi_s, step_s)
    # window_starts steps by this same rounded count from 0
    stack = sliding_window_view(phase.samples, int(round(cpi_s * fs)))
    return (starts, [i0 / fs + cpi_s / 2.0 for i0 in starts],
            stack[::int(round(step_s * fs))])


def _cpi_windows(phase: PhaseSignal, cpi_s: float, step_s: float):
    """(start, center_s, samples) of each sliding window, in order."""
    return zip(*_windows(phase, cpi_s, step_s))


def _track(phase: PhaseSignal, cpi_s: float, step_s: float,
           track: BreathingTrack | None, measure, decide, hold: tuple,
           top_hz: float, zero_pad_factor: int, taper: str) -> HrTrace:
    """Sliding windows a block at a time: track.residuals (when given),
    band_power up to top_hz, measure over the block, then decide per window.

    measure(freqs, power) returns arrays indexed by window first;
    decide(*its row for the window) returns (f_hz, tag, delta_hz).
    A window whose stages raise ValueError or LinAlgError holds the
    previous estimate, tagged hold = (tag, delta_hz); a failure on the very
    first window propagates.  A block-wide stage that raises fails every
    window of its block.
    """
    fs = phase.sample_rate
    starts, centers_s, stack = _windows(phase, cpi_s, step_s)
    trace = HrTrace()
    last_hz = None
    for b0 in range(0, len(starts), _BLOCK):
        windows = stack[b0:b0 + _BLOCK]
        errors = [None] * len(windows)
        try:
            if track is not None:
                windows, errors = track.residuals(
                    windows, np.array(starts[b0:b0 + _BLOCK]) / fs)
            freqs, power = band_power(windows, fs, top_hz, zero_pad_factor,
                                      taper)
            measured = measure(freqs, power)
        except (ValueError, np.linalg.LinAlgError) as exc:
            errors = [exc] * len(windows)
        for j, center_s in enumerate(centers_s[b0:b0 + _BLOCK]):
            try:
                if errors[j] is not None:
                    raise errors[j]
                f_hz, tag, delta = decide(*(m[j] for m in measured))
            except (ValueError, np.linalg.LinAlgError):
                if last_hz is None:
                    raise
                f_hz, (tag, delta) = last_hz, hold
            last_hz = f_hz
            trace.append(TraceEntry(center_s, f_hz * 60.0, tag, delta))
    return trace


def _strongest_peak(band_hz: tuple, tag: str) -> tuple:
    """_track's (measure, decide, hold, top_hz) for a strongest-peak
    method."""
    def measure(freqs, power):
        return band_peaks(freqs, power, band_hz[0], band_hz[1], 1)[:1]

    def decide(f_hz):
        return _strongest_hz(float(f_hz[0])), tag, 0.0

    return measure, decide, (tag, 0.0), band_hz[1]


def ahet_trace(phase: PhaseSignal, cpi_s: float = 20.0, step_s: float = 1.0,
               config: AhetConfig = AhetConfig(),
               track: BreathingTrack | None = None,
               zero_pad_factor: int = 8, taper: str = "hann") -> HrTrace:
    """Full pipeline per sliding window: breathing reconstruction,
    cancellation, spectrum, credibility tracking.

    track is the record's anls.breathing_track (None fits one with its
    defaults).  A window that fails any stage holds the previous estimate
    (tagged refined with an infinite gap); a failure on the very first
    window propagates.
    """
    if track is None:
        track = breathing_track(phase)
    state = TrackerState()

    # the refined search reads each window's spectrum: its grid and row
    def measure(freqs, power):
        return (*_measure(freqs, power, config),
                np.broadcast_to(freqs, power.shape), power)

    # a held window leaves state alone: its last estimate is the held value
    def decide(fund_hz, harm_hz, freqs, power):
        return _decide(fund_hz, harm_hz, freqs, power, state, config)

    return _track(phase, cpi_s, step_s, track, measure, decide,
                  (TAG_REFINED, math.inf), _top_hz(config), zero_pad_factor,
                  taper)


def conventional_trace(phase: PhaseSignal, cpi_s: float = 20.0,
                       step_s: float = 1.0,
                       band_hz: tuple = HEART_BAND_HZ,
                       zero_pad_factor: int = 8,
                       taper: str = "hann") -> HrTrace:
    """Strongest-peak tracking on the raw phase, window by window."""
    return _track(phase, cpi_s, step_s, None,
                  *_strongest_peak(band_hz, "conventional"), zero_pad_factor,
                  taper)


def eca_conventional_trace(phase: PhaseSignal, cpi_s: float = 20.0,
                           step_s: float = 1.0,
                           band_hz: tuple = HEART_BAND_HZ,
                           track: BreathingTrack | None = None,
                           zero_pad_factor: int = 8,
                           taper: str = "hann") -> HrTrace:
    """Strongest-peak tracking after breathing cancellation (no credibility)."""
    if track is None:
        track = breathing_track(phase)
    return _track(phase, cpi_s, step_s, track,
                  *_strongest_peak(band_hz, "eca"), zero_pad_factor, taper)
