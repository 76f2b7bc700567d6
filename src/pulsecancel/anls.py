"""Nonlinear least-squares reconstruction of the breathing component.

The breathing rate is found by grid search: for each candidate fundamental
the phase segment is projected onto a sin/cos harmonic basis and the
candidate with minimal residual wins.  Amplitudes come from the same
least-squares fit.  All solves go through orthogonal QR factorizations; no
normal-equation inverses.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import groupby

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solve_triangular

from .spectral import row_medians
from .types import PhaseSignal

BREATHING_GRID_HZ = (0.1, 0.5, 1.0 / 600.0)
_NO_SUBWINDOW = "no breathing subwindow inside the segment"


@dataclass
class HarmonicModel:
    """Fitted harmonic series x(t) ~ offset + sum_k a_k sin + b_k cos."""

    fundamental_hz: float
    order: int
    coefficients: np.ndarray      # (order, 2): sin and cos weight per k
    residual_power: float         # mean squared residual of the fit
    offset: float = 0.0           # intercept fitted jointly with the harmonics
    window_start_s: float = 0.0

    def __eq__(self, other):
        """Field by field, the coefficient arrays element by element."""
        if not isinstance(other, HarmonicModel):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def amplitudes(self) -> np.ndarray:
        return np.hypot(self.coefficients[:, 0], self.coefficients[:, 1])

    def phases(self) -> np.ndarray:
        return np.arctan2(self.coefficients[:, 1], self.coefficients[:, 0])

    def predict(self, n: int, sample_rate: float,
                include_offset: bool = False) -> np.ndarray:
        design = _design(self.fundamental_hz, self.order, n, sample_rate)
        out = design[:, :2 * self.order] @ self.coefficients.reshape(-1)
        if include_offset:
            out = out + self.offset
        return out


@dataclass(frozen=True)
class BreathingTrack:
    """Breathing fundamentals across a record: subwindow i spans window_s
    seconds from starts_s[i] and fits best at hz[i] with order harmonics.
    Tracks compare and hash by value."""

    starts_s: tuple
    hz: tuple
    order: int = 3
    window_s: float = 5.0
    step_s: float = 1.0
    sample_rate: float = 100.0

    def __len__(self):
        return len(self.hz)

    def _refit_hz(self, starts_s, n: int) -> np.ndarray:
        """Median fundamental of the subwindows inside each n-sample
        segment starting starts_s into the record (robust to a few bad
        ones); nan where none is inside."""
        fs = self.sample_rate
        span_s = round(self.window_s * fs) / fs      # a subwindow's samples
        sub_s = np.array(self.starts_s)
        starts_s = np.asarray(starts_s, dtype=float)[:, None]
        inside = (sub_s >= starts_s - 1e-9) \
            & (sub_s + span_s <= starts_s + n / fs + 1e-9)
        return row_medians(np.array(self.hz), inside)

    def refit(self, segment: np.ndarray,
              start_s: float = 0.0) -> HarmonicModel:
        """Fit a segment starting start_s into the record at the median
        fundamental of the subwindows inside it."""
        f_hat = float(self._refit_hz([start_s], len(segment))[0])
        if math.isnan(f_hat):
            raise ValueError(_NO_SUBWINDOW)
        return fit_amplitudes(segment, self.sample_rate, f_hat, self.order,
                              window_start_s=start_s)

    def residual(self, segment: np.ndarray,
                 start_s: float = 0.0) -> np.ndarray:
        """The segment minus its refit, harmonics and intercept: the
        pipeline's cancel step.  Lagged copies of the reference are harmonic
        series at the same fundamental, so (but for their zero-filled heads)
        projecting them off too would remove nothing more."""
        model = self.refit(segment, start_s)
        return segment - model.predict(len(segment), self.sample_rate,
                                       include_offset=True)

    def residuals(self, windows: np.ndarray, starts_s) -> tuple:
        """residual() of every row of a stack of equal-length windows, in
        order of their starts.

        Returns (residuals, errors): errors[i] is the ValueError or
        LinAlgError that window i's refit raised (its row is then left as
        it was), or None.  Each run of windows refit at the same
        fundamental shares one factorization, and their residuals are
        X - (X Q) Q^T for its orthonormal Q.
        """
        out = np.array(windows, dtype=float)
        n = out.shape[1]
        errors = [None] * len(out)
        i = 0
        # nan (no subwindow inside) equals nothing: each is its own run
        for f_hat, run in groupby(self._refit_hz(starts_s, n).tolist()):
            j = i + len(list(run))
            try:
                if math.isnan(f_hat):
                    raise ValueError(_NO_SUBWINDOW)
                _, q, _ = _checked_factorization(f_hat, self.order, n,
                                                 self.sample_rate)
            except (ValueError, np.linalg.LinAlgError) as exc:
                errors[i:j] = [exc] * (j - i)
            else:
                x = out[i:j]
                x -= (x @ q) @ q.T
            i = j
        return out, errors


@dataclass
class ReferenceFit:
    """Breathing reference reconstructed over one analysis window."""

    s_ref: np.ndarray
    model: HarmonicModel
    subwindow_hz: np.ndarray


def harmonic_matrix(fundamental_hz: float, order: int, n: int,
                    sample_rate: float) -> np.ndarray:
    """Design matrix of sin/cos pairs for harmonics 1..order.

    Columns 2k-2 and 2k-1 (0-based) hold sin and cos of harmonic k, which
    linearizes the unknown per-harmonic phases.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if n < 1:
        raise ValueError("need at least one sample")
    if fundamental_hz < 0:
        raise ValueError("fundamental must be >= 0")
    if order * fundamental_hz >= sample_rate / 2.0:
        raise ValueError(f"harmonic {order} of {fundamental_hz} Hz reaches "
                         f"Nyquist at fs={sample_rate} Hz")
    t = np.arange(n) / sample_rate
    h = np.empty((n, 2 * order))
    for k in range(1, order + 1):
        arg = 2.0 * np.pi * k * fundamental_hz * t
        h[:, 2 * k - 2] = np.sin(arg)
        h[:, 2 * k - 1] = np.cos(arg)
    return h


@lru_cache(maxsize=64)
def _design(fundamental_hz: float, order: int, n: int,
            sample_rate: float) -> np.ndarray:
    """Intercept-augmented design, cached read-only: harmonic_matrix
    columns followed by a column of ones.

    Cached on its own so HarmonicModel.predict at any length renders from
    it without factorizing it or evicting the refit factorizations.
    """
    design = np.hstack([harmonic_matrix(fundamental_hz, order, n,
                                        sample_rate), np.ones((n, 1))])
    design.flags.writeable = False
    return design


@lru_cache(maxsize=64)
def _design_factorization(fundamental_hz: float, order: int, n: int,
                          sample_rate: float) -> tuple:
    """Intercept-augmented design with its reduced QR and singular values.

    Sliding analysis refits the same few fundamentals at a fixed window
    length over and over; the factorization depends only on the design,
    so it is cached with it (arrays read-only).  The singular values of R
    equal those of the design, giving the rank check without a second
    factorization.
    """
    design = _design(fundamental_hz, order, n, sample_rate)
    q, r = np.linalg.qr(design)
    sv = np.linalg.svd(r, compute_uv=False)
    for a in (q, r, sv):
        a.flags.writeable = False
    return design, q, r, sv


def _checked_factorization(fundamental_hz: float, order: int, n: int,
                           sample_rate: float) -> tuple:
    """(design, Q, R) of an n-sample fit, after the length and rank checks:
    a rank-deficient design (e.g. fundamental at 0) is rejected."""
    if n < 2 * order + 1:
        raise ValueError(f"segment of {n} samples too short for "
                         f"{2 * order} coefficients")
    design, q, r, sv = _design_factorization(fundamental_hz, order, n,
                                             sample_rate)
    cutoff = np.finfo(float).eps * max(design.shape) * sv[0]
    if int(np.count_nonzero(sv > cutoff)) < 2 * order + 1:
        cond = np.inf if sv[-1] == 0 else sv[0] / sv[-1]
        raise ValueError(f"rank-deficient harmonic design at "
                         f"{fundamental_hz} Hz (condition ~ {cond:.3e})")
    return design, q, r


def fit_amplitudes(segment: np.ndarray, sample_rate: float,
                   fundamental_hz: float, order: int = 3,
                   window_start_s: float = 0.0) -> HarmonicModel:
    """Least-squares harmonic fit at a fixed fundamental.

    An intercept column is fitted jointly with the harmonics: sin/cos
    columns are not mean-free over a fraction of a cycle, so removing the
    segment mean up front would leave a constant the true model cannot
    absorb and bias the fit toward slow candidates.  A rank-deficient
    design (e.g. fundamental at 0) is rejected.
    """
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1:
        raise ValueError("segment must be 1-D")
    design, q, r = _checked_factorization(fundamental_hz, order, x.size,
                                          sample_rate)
    coef = solve_triangular(r, q.T @ x, check_finite=False)
    resid = x - design @ coef
    return HarmonicModel(
        fundamental_hz=float(fundamental_hz),
        order=order,
        coefficients=coef[:2 * order].reshape(order, 2),
        residual_power=float(np.dot(resid, resid) / x.size),
        offset=float(coef[-1]),
        window_start_s=window_start_s,
    )


def grid_frequencies(lo_hz: float, hi_hz: float, step_hz: float) -> np.ndarray:
    if not (lo_hz > 0 and hi_hz > lo_hz and step_hz > 0):
        raise ValueError("grid must satisfy 0 < lo < hi with positive step")
    count = int(round((hi_hz - lo_hz) / step_hz)) + 1
    freqs = lo_hz + step_hz * np.arange(count)
    return freqs[freqs <= hi_hz + 1e-12]


@lru_cache(maxsize=4)
def _orthonormal_bases(n: int, sample_rate: float, order: int,
                       grid: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Stacked orthonormal bases Q(f) for every grid frequency.

    Columns are centered before factorization: projecting the demeaned
    segment onto span of the centered columns equals the joint fit with an
    intercept, keeping the grid search consistent with fit_amplitudes.
    The bases are flattened to one (F * k, n) matrix so the whole grid is
    scored with a single matrix-vector product.  Cached per (n, fs, order,
    grid) and returned read-only: the bases depend only on geometry, so
    sliding windows of equal length reuse one QR batch.
    """
    freqs = grid_frequencies(*grid)
    designs = np.stack([harmonic_matrix(f, order, n, sample_rate)
                        for f in freqs])
    designs = designs - designs.mean(axis=1, keepdims=True)
    q, _ = np.linalg.qr(designs)
    flat = np.ascontiguousarray(q.transpose(0, 2, 1).reshape(-1, n))
    for a in (freqs, flat):
        a.flags.writeable = False
    return freqs, flat


def _best_fundamentals(segments: np.ndarray, sample_rate: float,
                       grid: tuple, order: int) -> np.ndarray:
    """Grid frequency with minimal residual for each row of a stack of
    equal-length segments.

    Residuals are evaluated as ||x||^2 - ||Q(f)^T x||^2 for each demeaned
    row x over precomputed orthonormal bases, one matrix product for the
    whole grid and stack.  Ties go to the lower frequency.
    """
    if segments.shape[1] < 2 * order + 1:
        raise ValueError("segment too short for the requested order")
    freqs, bases = _orthonormal_bases(segments.shape[1], sample_rate, order,
                                      tuple(grid))
    segs = segments - segments.mean(axis=1, keepdims=True)
    proj = (bases @ segs.T).reshape(freqs.size, -1, len(segs))
    resid = np.einsum("wn,wn->w", segs, segs) \
        - np.einsum("fkw,fkw->fw", proj, proj)
    return freqs[np.argmin(resid, axis=0)]


def estimate_breathing(segment: np.ndarray, sample_rate: float,
                       grid: tuple = BREATHING_GRID_HZ, order: int = 3,
                       window_start_s: float = 0.0) -> HarmonicModel:
    """Grid search for the breathing fundamental with minimal residual
    (a stack of one for breathing_track's scorer), then the amplitude fit
    at the winner."""
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1:
        raise ValueError("segment must be 1-D")
    f_hat = float(_best_fundamentals(x[None, :], sample_rate, grid, order)[0])
    return fit_amplitudes(x, sample_rate, f_hat, order,
                          window_start_s=window_start_s)


def breathing_track(phase: PhaseSignal, window_s: float = 5.0,
                    step_s: float = 1.0, grid: tuple = BREATHING_GRID_HZ,
                    order: int = 3) -> BreathingTrack:
    """Sliding-subwindow breathing fundamentals over a whole record.

    All subwindows are scored against the shared basis stack in one matrix
    product; the fundamentals match per-subwindow estimate_breathing.
    """
    fs = phase.sample_rate
    n_win = int(round(window_s * fs))
    n_step = int(round(step_s * fs))
    if n_win > phase.samples.size:
        raise ValueError("record shorter than one analysis subwindow")
    if n_step <= 0:
        raise ValueError("step must be positive")
    starts = range(0, phase.samples.size - n_win + 1, n_step)
    # a view: the scorer's demeaned stack is the subwindows' only copy
    subwindows = sliding_window_view(phase.samples, n_win)[::n_step]
    hz = _best_fundamentals(subwindows, fs, grid, order)
    return BreathingTrack(tuple(i0 / fs for i0 in starts), tuple(hz.tolist()),
                          order, window_s, step_s, fs)


def reconstruct_reference(phase: PhaseSignal, window_s: float = 5.0,
                          step_s: float = 1.0,
                          grid: tuple = BREATHING_GRID_HZ,
                          order: int = 3) -> ReferenceFit:
    """Breathing reference for one analysis window: the refit of its own
    breathing track (BreathingTrack.refit) over the whole window."""
    track = breathing_track(phase, window_s, step_s, grid, order)
    model = track.refit(phase.samples)
    s_ref = model.predict(phase.samples.size, phase.sample_rate)
    return ReferenceFit(s_ref=s_ref, model=model,
                       subwindow_hz=np.array(track.hz))
