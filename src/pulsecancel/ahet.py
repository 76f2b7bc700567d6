"""Heart-rate tracking by harmonic credibility.

A fundamental-band peak is only trusted when a peak near its double
corroborates it.  Untrusted windows fall back to narrow re-search regions
around the track's established rate, or hold the last estimate.
"""

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .anls import BreathingTrack, breathing_track
from .spectral import (Spectrum, band_peaks, band_power, local_peaks,
                       row_medians, strongest_peaks)
from .types import (HrTrace, PhaseSignal, TraceEntry, check_fields,
                    stage_sink)
from .scenario import HEARTBEAT_BAND_HZ, sliding_windows, window_center

TAG_RELIABLE_1 = "reliable-1st-peak"
TAG_RELIABLE_2 = "reliable-2nd-peak"
TAG_REFINED = "refined"

HARMONIC_CEILING_HZ = 4.0   # harmonics are searched up to here
STABLE_COUNT = 5            # stable reliable estimates before h_bar freezes
HARMONIC_FLOOR = 10.0       # harmonic peak vs in-region median power


@dataclass(frozen=True)
class AhetConfig:
    deviation_threshold_hz: float = 0.1     # credibility gap bound
    jump_threshold_hz: float = 0.1          # window-to-window fluctuation bound

    def __post_init__(self):
        check_fields(self)
        if min(self.deviation_threshold_hz, self.jump_threshold_hz) <= 0:
            raise ValueError("thresholds must be positive")


_DEFAULT = AhetConfig()


@dataclass
class TrackerState:
    stable_history: list = field(default_factory=list)  # rates in Hz
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


def _heart_peaks(freqs: np.ndarray, power: np.ndarray) -> tuple:
    """The strongest-peak methods' measure: each row's strongest
    heart-band peak: band_peaks' frequencies and powers, 2 x rows x 1."""
    return band_peaks(freqs, power, *HEARTBEAT_BAND_HZ, 1)


def conventional_hr(spectrum: Spectrum) -> float:
    """Plain strongest-peak estimate in the heart band, in Hz."""
    f_hz, _ = _heart_peaks(spectrum.frequencies, spectrum.power[None, :])
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
    HARMONIC_FLOOR is treated as noise rather than a harmonic.
    """
    band, hi = HEARTBEAT_BAND_HZ, HARMONIC_CEILING_HZ
    # bins past the harmonic ceiling's upper neighbor are never read
    n = int(freqs.searchsorted(hi, side="right")) + 1
    freqs, power = freqs[:n], power[:, :n]
    rows, top = power.shape[0], n - 1
    edge = freqs.size - 1
    a_band = min(max(int(freqs.searchsorted(band[0], side="left")), 1), edge)
    b_band = min(int(freqs.searchsorted(band[1], side="right")), edge)
    b = min(top, edge)
    # one peak search serves the band and every harmonic region, from the
    # band's low edge or the lowest harmonic region's start if that is
    # lower: a band peak lies above its bin less half a bin, so its region
    # starts above 2 (f[a_band] - 1 bin) - deviation (at the defaults,
    # 1.29 Hz against the band's 0.7 Hz)
    low = freqs.searchsorted(2.0 * (freqs[a_band] - (freqs[1] - freqs[0]))
                             - config.deviation_threshold_hz)
    peaks = local_peaks(freqs, power, min(max(int(low), 1), a_band, b), b)
    peak_rows, peak_cols, _, _ = peaks
    # every selection is strongest_peaks' masked argmax: row r's two
    # fundamentals from its band peaks, and the harmonic of candidate i of
    # row r (entry r + i * rows of lo, a and cand) from its row's peaks at
    # or past column a
    in_band = (peak_cols >= a_band) & (peak_cols < b_band)
    fund_hz, _ = strongest_peaks(
        peaks, (peak_rows == np.arange(rows)[:, None]) & in_band, 2)
    lo = 2.0 * fund_hz.T.ravel() - config.deviation_threshold_hz
    a = freqs.searchsorted(np.where(lo < hi, lo, np.nan), side="left")
    cand = np.arange(2 * rows) % rows
    mine = (peak_rows == cand[:, None]) & (peak_cols >= a[:, None])
    harm_hz, harm_p = strongest_peaks(peaks, mine, 1)[..., 0]
    # the floor's region runs from a up to the harmonic ceiling, and the
    # sort starts at the lowest of the regions; a candidate without a
    # harmonic reads nan power, which no floor changes
    start = int(a.min(initial=top - 1))
    floor = row_medians(power[cand, start:top],
                        np.arange(start, top) >= a[:, None])
    harm_hz[(floor > 0) & (harm_p < HARMONIC_FLOOR * floor)] = np.nan
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
    return max(HARMONIC_CEILING_HZ,
               2.0 * (HEARTBEAT_BAND_HZ[1] + config.jump_threshold_hz))


def _decide(fund_hz, harm_hz, freqs: np.ndarray, power: np.ndarray,
            state: TrackerState, config: AhetConfig):
    """ahet_step's sequential update from one window's _measure row; only
    the refined search reads the window's spectrum (power on grid freqs)."""
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
    f_hz = min(max(f_hz, HEARTBEAT_BAND_HZ[0]), HEARTBEAT_BAND_HZ[1])

    if tag in (TAG_RELIABLE_1, TAG_RELIABLE_2) and state.h_bar_hz is None:
        if (state.last_estimate_hz is None
                or abs(f_hz - state.last_estimate_hz) <= config.jump_threshold_hz):
            state.stable_history.append(f_hz)
            if len(state.stable_history) >= STABLE_COUNT:
                state.h_bar_hz = float(np.mean(state.stable_history))
    state.last_estimate_hz = f_hz
    return f_hz, tag, delta


def ahet_step(spectrum: Spectrum, state: TrackerState):
    """One tracking update at the default AhetConfig.  Returns (f_hz, tag,
    delta_hz, state).

    The two strongest fundamental-band peaks are tried in order; the first
    whose harmonic corroborates it wins.  Otherwise the refined regions
    around h_bar are searched, and failing that the last estimate holds.
    Reliable estimates that do not jump accumulate into the stable history
    until h_bar freezes (once, forever).  This is _measure, then _decide:
    ahet_trace runs the same two stages, _measure over a block of windows.
    """
    fund_hz, harm_hz = _measure(spectrum.frequencies,
                                spectrum.power[None, :], _DEFAULT)
    return (*_decide(fund_hz[0], harm_hz[0], spectrum.frequencies,
                     spectrum.power, state, _DEFAULT), state)


# --- full-record drivers ---------------------------------------------------

# Windows per block: stacking a whole record's windows at once multiplies
# the driver's memory peak, while blocks this size already share the
# per-call overhead of the transform and the peak search.
_BLOCK = 16


def _track(phase: PhaseSignal, cpi_s: float, step_s: float,
           track: BreathingTrack | None, measure, methods: list,
           top_hz: float, zero_pad_factor: int) -> list:
    """Sliding windows a block at a time: one track.residuals (when given),
    one band_power up to top_hz and one measure per block, then every
    method's decision over its rows.

    measure(freqs, power) returns arrays indexed by window first.  A method
    is a (decide, hold) pair: decide(*the window's row of each, freqs, its
    power row) returns (f_hz, tag, delta_hz).  Returns one trace per
    method, in order.

    Each method keeps its own estimates.  A window whose stages raise
    ValueError or LinAlgError holds that method's previous estimate,
    tagged hold = (tag, delta_hz); a block-wide stage that raises fails
    every window of its block.  A failure on a method's very first window
    propagates.  Within types.record_stages it reports residuals,
    band_power and measure per block, and decide per window and method.

    Memory: one block's working set above the traces.  A block's residual
    rows are dropped once band_power has read them, and its power and
    measures once its decisions are made, so nothing of block k is alive
    while block k+1's stages run.  For 16 windows of 2000 samples the
    peak is the rows plus band_power's work on them, 0.69 MB (1.16 MB
    when the rows and the previous block's power stayed referenced); the
    cube-run record's whole trace from its cube peaks at 2.44 MB.
    """
    stage = stage_sink()
    fs = phase.sample_rate
    starts, stack = sliding_windows(phase.samples, fs, cpi_s, step_s)
    traces = [HrTrace() for _ in methods]
    last_hz = [None] * len(methods)
    for b0 in range(0, len(starts), _BLOCK):
        block = starts[b0:b0 + _BLOCK]
        windows = stack[b0:b0 + _BLOCK]
        errors = [None] * len(windows)
        try:
            if track is not None:
                windows, errors = stage("residuals", track.residuals,
                                        windows, block)
            freqs, power = stage("band_power", band_power, windows, fs,
                                 top_hz, zero_pad_factor)
            windows = None                # band_power has read the rows
            measured = stage("measure", measure, freqs, power)
        except (ValueError, np.linalg.LinAlgError) as exc:
            errors = [exc] * len(block)
        for r, (decide, hold) in enumerate(methods):
            for j, i0 in enumerate(block):
                try:
                    if errors[j] is not None:
                        raise errors[j]
                    f_hz, tag, delta = stage("decide", decide,
                                             *(m[j] for m in measured),
                                             freqs, power[j])
                except (ValueError, np.linalg.LinAlgError):
                    if last_hz[r] is None:
                        raise
                    f_hz, (tag, delta) = last_hz[r], hold
                last_hz[r] = f_hz
                traces[r].append(TraceEntry(window_center(i0, fs, cpi_s),
                                            f_hz * 60.0, tag, delta))
        # nothing of this block stays alive while the next one's stages run
        windows = power = measured = None
    return traces


def _strongest_peak(tag: str) -> tuple:
    """_track's method for a strongest-peak decision: the first column of
    the measure's first array (_heart_peaks' or _measure's)."""
    def decide(f_hz, *_):
        return _strongest_hz(float(f_hz[0])), tag, 0.0

    return decide, (tag, 0.0)


def _tracker(config: AhetConfig) -> tuple:
    """_track's method for the credibility tracker, with a fresh state.  A
    held window leaves the state alone: its last estimate is the held
    value."""
    return (functools.partial(_decide, state=TrackerState(), config=config),
            (TAG_REFINED, math.inf))


# traces kept by the open shared_cancellation scope, or None outside one
_SHARED = contextvars.ContextVar("pulsecancel_shared_cancellation",
                                 default=None)


@contextlib.contextmanager
def shared_cancellation():
    """Within the scope, eca_conventional_trace and ahet_trace on the same
    record share one cancel-and-spectrum pass.

    The first cancelling call runs both methods over one track.residuals,
    one band_power and one _measure per block (eca reads its first
    fundamental column), returns its own trace and keeps the other's.  A
    window without a heart-band peak fails both methods, so a failure on
    the first window propagates and keeps nothing.  A later call of the
    other method takes the kept trace when it names the same phase object,
    an equal BreathingTrack, and equal cpi_s, step_s, zero_pad_factor and
    AhetConfig (eca's is the default one); any other call computes on its
    own.  A kept trace is what that call would compute alone, bit for bit.
    Outside a scope every call computes alone.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _cancelling(method: str, phase: PhaseSignal, cpi_s: float,
                step_s: float, track: BreathingTrack | None,
                config: AhetConfig, zero_pad_factor: int) -> HrTrace:
    """The "eca" or "ahet" trace over track's residuals, on the tracker's
    grid for config: alone, or within shared_cancellation from one pass
    that keeps the other method's trace."""
    if track is None:
        track = stage_sink()("breathing_track", breathing_track, phase)
    shared = _SHARED.get()
    key = (phase, track, cpi_s, step_s, zero_pad_factor, config)
    if shared is not None and (method, key) in shared:
        return shared.pop((method, key))
    methods = {"eca": _strongest_peak("eca"), "ahet": _tracker(config)}
    if shared is None:
        methods = {method: methods[method]}
    # eca alone reads its strongest peak without the harmonic search
    measure = (functools.partial(_measure, config=config)
               if "ahet" in methods else _heart_peaks)
    traces = dict(zip(methods, _track(phase, cpi_s, step_s, track, measure,
                                      list(methods.values()),
                                      _top_hz(config), zero_pad_factor)))
    mine = traces.pop(method)
    for other, trace in traces.items():
        shared[(other, key)] = trace
    return mine


def ahet_trace(phase: PhaseSignal, cpi_s: float = 20.0, step_s: float = 1.0,
               config: AhetConfig = AhetConfig(),
               track: BreathingTrack | None = None,
               zero_pad_factor: int = 8) -> HrTrace:
    """Full pipeline per sliding window: breathing reconstruction,
    cancellation, spectrum, credibility tracking.

    track is the record's anls.breathing_track (None fits one with its
    defaults; within types.record_stages that fit is reported as
    breathing_track).  A window that fails any stage holds the previous
    estimate (tagged refined with an infinite gap); a failure on the very
    first window propagates.  Within shared_cancellation it shares its
    pass with eca_conventional_trace.
    """
    return _cancelling("ahet", phase, cpi_s, step_s, track, config,
                       zero_pad_factor)


def conventional_trace(phase: PhaseSignal, cpi_s: float = 20.0,
                       step_s: float = 1.0,
                       zero_pad_factor: int = 8) -> HrTrace:
    """Strongest-peak tracking on the raw phase, window by window."""
    return _track(phase, cpi_s, step_s, None, _heart_peaks,
                  [_strongest_peak("conventional")], HEARTBEAT_BAND_HZ[1],
                  zero_pad_factor)[0]


def eca_conventional_trace(phase: PhaseSignal, cpi_s: float = 20.0,
                           step_s: float = 1.0,
                           track: BreathingTrack | None = None,
                           zero_pad_factor: int = 8) -> HrTrace:
    """Strongest-peak tracking after breathing cancellation (no
    credibility).

    It reads the spectra on the tracker's default grid (674 bins at a
    20 s CPI), shared or not, so within shared_cancellation its pass also
    gives ahet_trace's, and its output never depends on the caller.
    """
    return _cancelling("eca", phase, cpi_s, step_s, track, AhetConfig(),
                       zero_pad_factor)
