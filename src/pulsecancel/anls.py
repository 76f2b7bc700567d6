"""Nonlinear least-squares reconstruction of the breathing component.

Both the grid search and the refits work on the window's centred time
axis t' = (k - (n - 1) / 2) / fs.  There cos(k w t') and the intercept are
even about the window's centre and sin(k w t') is odd, so the two sets are
orthogonal and every fit splits into two half-length problems (the
centrosymmetric reduction of Cantoni and Butler, Linear Algebra Appl. 13,
1976), each over the window's head rows weighted sqrt(2) (an odd n's
middle row 1) so that a half's Gram matrix is the whole window's.

The breathing rate is found by grid search: for each candidate fundamental
the demeaned phase segment is projected onto its sin/cos harmonic basis
and the candidate with minimal residual wins.  The grid's orthonormal bases
are held as one factor per half: a shared orthonormal span of a few dozen
directions and each basis's coordinates in it, so scoring a segment
against the whole grid costs one projection of each folded part onto its
half's span and one small product per half.

One cache serves every refit at a fixed fundamental and length:
_refit_basis fits the harmonic-plus-intercept design in the same two
halves.  Each entry holds the head rows of the two orthonormal bases, from
a Householder QR (numpy's np.linalg.qr) of each weighted half design:
ceil(n/2) (order + 1) + floor(n/2) order float64s, half of a full
n x (2 order + 1) Q, plus one (2 order + 1)-square map from coordinates to
coefficients built from the inverses of the two triangles R_e, R_o.  No
cache holds a design, no normal equations are formed and nothing is solved
per fit.

A window is folded into its even part, x_head + reversed x_tail (with an
odd n's middle sample), and its odd part, x_head - reversed x_tail; each
is projected onto its half.  The block route (BreathingTrack.residuals,
the one cancel step, which the trace drivers and the spectra dump run)
folds each block once, projects each run of windows at one fundamental,
and writes every residual head, mirrored tail and middle over the spent
parts.  The per-window fit (_fit_with_residual, behind fit_amplitudes and
reconstruct_reference) folds and projects one window the same way and
takes coefficients through the entry's map; reconstruct_reference's
reference is the fit's own projection, the window less its residual and
offset, so nothing is rendered from the coefficients.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .scenario import BREATHING_BAND_HZ, sliding_windows, window_samples
from .spectral import constant_rows, row_medians
from .types import PhaseSignal, equal_fields

BREATHING_GRID_HZ = (*BREATHING_BAND_HZ, 1.0 / 600.0)
# The grid factor (_factored_bases) is built this many grid frequencies at a
# time, and resolves every half basis onto its span to this absolute
# tolerance.
_SPAN_CHUNK = 16
_SPAN_TOL = 1e-13
# _best_fundamentals scores this many segments at a time, so its projection
# holds this many columns however long the record is.
_SCORE_ROWS = 32
_NO_SUBWINDOW = "no breathing subwindow inside the segment"
_NON_FINITE = "breathing segment holds non-finite samples"


@dataclass
class HarmonicModel:
    """Fitted harmonic series x(t) ~ offset + sum_k a_k sin + b_k cos."""

    fundamental_hz: float
    order: int
    coefficients: np.ndarray      # (order, 2): sin and cos weight per k
    residual_power: float         # mean squared residual of the fit
    offset: float = 0.0           # intercept fitted jointly with the harmonics

    __eq__ = equal_fields


@dataclass(frozen=True)
class BreathingTrack:
    """Breathing fundamentals across a record: subwindow i spans window_s
    seconds from sample starts[i] and fits best at hz[i] with order
    harmonics.  starts (int64) and hz (float64) are read-only arrays, the
    track's one copy.  Tracks compare field by field and hash by value."""

    starts: np.ndarray
    hz: np.ndarray
    order: int = 3
    window_s: float = 5.0
    sample_rate: float = 100.0

    __eq__ = equal_fields

    def __post_init__(self):
        """Reject a track the refits cannot read: a start per finite
        fundamental, strictly increasing integer sample indices, at least
        one harmonic, and a finite, positive window and sample rate.  The
        starts and rates are kept as read-only copies."""
        starts = np.array(self.starts)
        # a copy, with -0.0 made 0.0 so equal tracks hash alike
        hz = np.asarray(self.hz, dtype=float) + 0.0
        if starts.ndim != 1 or starts.size == 0 or starts.shape != hz.shape:
            raise ValueError(f"a track needs one fundamental per subwindow "
                             f"start, got {starts.size} starts and "
                             f"{hz.size} fundamentals")
        increasing = (starts[1:] > starts[:-1]).all()
        if starts.dtype.kind not in "iu" or not increasing:
            raise ValueError("subwindow starts must be strictly increasing "
                             "integer sample indices")
        if not np.isfinite(hz).all():
            raise ValueError("subwindow fundamentals must be finite")
        if not self.order >= 1:
            raise ValueError(f"order must be at least 1, got {self.order}")
        for name in ("window_s", "sample_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{value}")
        for name, a in (("starts", starts.astype(np.int64, copy=False)),
                        ("hz", hz)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __hash__(self):
        return hash((self.starts.tobytes(), self.hz.tobytes(), self.order,
                     self.window_s, self.sample_rate))

    def __len__(self):
        return len(self.hz)

    def _refit_hz(self, starts, n: int) -> np.ndarray:
        """Median fundamental of the subwindows inside each n-sample
        segment starting at sample starts[i] of the record (robust to a few
        bad ones); nan where none is inside.  A start in seconds, or any
        other non-integer, is a ValueError.

        The track's subwindow starts increase, so the subwindows inside a
        segment are one run of them, found by bisection: the work is set by
        the segments and their length, not by the record's."""
        starts = np.asarray(starts)
        if starts.dtype.kind not in "iu":
            raise ValueError(f"segment starts are sample indices, got "
                             f"{starts.dtype} values")
        # run i is lo[i]:hi[i]: the subwindows starting at or after
        # starts[i] and ending at or before starts[i] + n, so starting at or
        # before starts[i] + n - n_sub (exact in integers)
        n_sub = window_samples(self.window_s, self.sample_rate)
        lo = self.starts.searchsorted(starts, "left")
        hi = self.starts.searchsorted(starts + (n - n_sub), "right")
        index = lo[:, None] + np.arange((hi - lo).max(initial=1))
        return row_medians(self.hz.take(index, mode="clip"),
                           index < hi[:, None])

    def _fit(self, segment: np.ndarray, start: int) -> tuple:
        """_fit_with_residual of a segment starting at sample start of the
        record, at the median fundamental of the subwindows inside it."""
        f_hat = float(self._refit_hz([start], len(segment))[0])
        if math.isnan(f_hat):
            raise ValueError(_NO_SUBWINDOW)
        return _fit_with_residual(segment, self.sample_rate, f_hat,
                                  self.order)

    def residuals(self, windows: np.ndarray, starts) -> tuple:
        """The pipeline's cancel step: each row of a stack of equal-length
        windows, in order of their sample starts, less its refit (harmonics
        and intercept) at the median fundamental of the subwindows inside
        it.  Lagged copies of the reference are harmonic series at the same
        fundamental, so (but for their zero-filled heads) projecting them
        off too would remove nothing more.

        Returns (residuals, errors): errors[i] is the ValueError or
        LinAlgError that window i's refit raised (its row is then left as
        it was, bit for bit), or None.  The stack is folded once into its
        even and odd parts (_fold).  Each run of windows refit at the same
        fundamental shares one _refit_basis entry, and each part S of the
        run is replaced by its projection (S H) H^T onto the entry's half
        H.  The projections are then taken off every row's head, mirrored
        tail and middle at once (_take_off).  An exactly constant row, which
        the intercept fits exactly, gets an exactly zero residual rather
        than the projections' rounding (spectral.constant_rows' test), and
        the rows whose refit failed are copied as they were.

        Memory: two arrays of the stack's size, _fold's head and tail
        copies and its parts' buffer, which _take_off overwrites with the
        residuals: 0.52 MB at the peak for 16 windows of 2000 samples,
        0.77 MB when the residuals were a third array.
        """
        x = np.asarray(windows, dtype=float)
        n = x.shape[1]
        errors = [None] * len(x)
        parts = np.empty(x.size)
        head, tail, s_even, s_odd = _fold(x, parts)
        i = 0
        # nan (no subwindow inside) equals nothing: each is its own run
        for f_hat, run in groupby(self._refit_hz(starts, n).tolist()):
            j = i + len(list(run))
            try:
                if math.isnan(f_hat):
                    raise ValueError(_NO_SUBWINDOW)
                basis = _refit_basis(f_hat, self.order, n, self.sample_rate)
            except (ValueError, np.linalg.LinAlgError) as exc:
                errors[i:j] = [exc] * (j - i)
            else:
                for part, half in ((s_even[i:j], basis.even),
                                   (s_odd[i:j], basis.odd)):
                    np.matmul(part @ half, half.T, out=part)
            i = j
        out = _take_off(x, head, tail, s_even, s_odd, parts.reshape(x.shape))
        out[constant_rows(x)] = 0.0
        failed = [k for k, e in enumerate(errors) if e is not None]
        if failed:
            out[failed] = x[failed]
        return out, errors


@dataclass
class ReferenceFit:
    """Breathing reference reconstructed over one analysis window."""

    s_ref: np.ndarray
    model: HarmonicModel
    subwindow_hz: np.ndarray

    __eq__ = equal_fields


def harmonic_matrix(fundamental_hz: float, order: int, n: int,
                    sample_rate: float) -> np.ndarray:
    """Design matrix of sin/cos pairs for harmonics 1..order.

    Columns 2k-2 and 2k-1 (0-based) hold sin and cos of harmonic k, which
    linearizes the unknown per-harmonic phases.
    """
    arg = _harmonic_phases(np.array([fundamental_hz], dtype=float), order,
                           n, sample_rate)[0]
    # row-major: a column-major design rounds the refit products otherwise
    h = np.empty((n, order, 2))
    h[..., 0] = np.sin(arg).T
    h[..., 1] = np.cos(arg).T
    return h.reshape(n, 2 * order)


def _harmonic_phases(freqs: np.ndarray, order: int, n: int,
                     sample_rate: float, origin: float = 0.0) -> np.ndarray:
    """The phase of harmonic k = 1..order of each of freqs at samples
    0..n-1, (freqs.size, order, n), with harmonic_matrix's checks on every
    fundamental.  Sample k is at time (k - origin) / sample_rate."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if n < 1:
        raise ValueError("need at least one sample")
    # NaN passes both range checks below, an infinite rate the second
    if not np.isfinite(freqs).all():
        raise ValueError(f"fundamental must be finite, got "
                         f"{freqs[~np.isfinite(freqs)][0]} Hz")
    if not math.isfinite(sample_rate):
        raise ValueError(f"sample rate must be finite, got {sample_rate} Hz")
    if freqs.min() < 0:
        raise ValueError("fundamental must be >= 0")
    if order * freqs.max() >= sample_rate / 2.0:
        raise ValueError(f"harmonic {order} of {freqs.max()} Hz reaches "
                         f"Nyquist at fs={sample_rate} Hz")
    # 0.0 - origin: +0.0 at the default origin, whose first sample the
    # t-from-0 designs have always had at +0.0 s; every k - origin is exact
    t = np.arange(0.0 - origin, n - origin) / sample_rate
    return (2.0 * np.pi * np.arange(1, order + 1)
            * freqs[:, None])[..., None] * t


def _head_weights(n: int) -> np.ndarray:
    """The (ceil(n/2), 1) weights of an n-sample window's head rows and an
    odd n's middle row: sqrt(2), the middle 1, so that the weighted head
    rows of an even or an odd column have the whole column's norm."""
    weight = np.full((n - n // 2, 1), math.sqrt(2.0))
    weight[n // 2:] = 1.0
    return weight


def _centred_half(freqs: np.ndarray, order: int, n: int,
                  sample_rate: float, odd: bool) -> np.ndarray:
    """One half of each of freqs' harmonic design on an n-sample window's
    centred axis t' = (k - (n - 1) / 2) / fs, weighted by _head_weights:
    the even columns cos k w t' over the head rows and an odd n's middle
    row (freqs.size, ceil(n/2), order), or the odd columns sin k w t' over
    the head rows (freqs.size, floor(n/2), order).  Each design is
    Fortran-ordered (columns contiguous); _harmonic_phases' checks apply."""
    rows = n // 2 if odd else n - n // 2
    arg = _harmonic_phases(freqs, order, rows, sample_rate,
                           origin=(n - 1) / 2.0)
    (np.sin if odd else np.cos)(arg, out=arg)
    arg *= _head_weights(n)[:rows].T
    return arg.transpose(0, 2, 1)


class _RefitBasis(NamedTuple):
    """A _refit_basis entry, read-only.  even and odd are the head rows of
    the orthonormal bases of the centred design's even columns [cos k w
    t', 1] (ceil(n/2) rows, an odd n's middle row last) and odd columns
    [sin k w t'] (floor(n/2) rows).  A fit's coordinates c on them, even
    first, give its coefficients, coefficients @ c: the sin/cos weights
    about the window's first sample in harmonic_matrix's column order,
    then the offset."""

    even: np.ndarray
    odd: np.ndarray
    coefficients: np.ndarray


def _fold(x: np.ndarray, parts: np.ndarray | None = None) -> tuple:
    """(head, tail, even, odd) of each row (last axis) of x, n samples:
    contiguous copies of its floor(n/2) head samples and of its tail
    reversed, its even part head + tail followed by an odd n's middle
    sample, and its odd part head - tail.  A row's coordinates on a
    _RefitBasis half are its part times that half.  (numpy runs an
    elementwise op on contiguous rows several times faster than on the
    rows' strided or reversed halves, so each half is copied once.)

    even and odd are laid end to end in parts, a flat float64 buffer of
    x's size (new when None), so that _take_off can write the residual
    over them once they are spent.  Memory: the head and tail copies and
    that buffer, two arrays of x's size (0.51 MB for a 16 x 2000 block)."""
    n = x.shape[-1]
    m = n // 2
    lead = x.shape[:-1]
    head, tail = x[..., :m].copy(), x[..., ::-1][..., :m].copy()
    if parts is None:
        parts = np.empty(x.size)
    split = x.size // n * (n - m)
    even = parts[:split].reshape(lead + (n - m,))
    odd = parts[split:].reshape(lead + (m,))
    np.add(head, tail, out=even[..., :m])
    even[..., m:] = x[..., m:n - m]
    np.subtract(head, tail, out=odd)
    return head, tail, even, odd


def _take_off(x: np.ndarray, head: np.ndarray, tail: np.ndarray,
              p_even: np.ndarray, p_odd: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Each row of x (last axis, n samples) minus the series whose even
    and odd parts have the head rows p_even (ceil(n/2) samples, an odd
    n's middle last) and p_odd (floor(n/2)): both off the head, the even
    one off the reversed tail with the odd one added back (in place in
    _fold's head and tail), the even one off the middle, written out in
    out (x's shape; new when None).  out may hold p_even and p_odd, as
    _fold's buffer does: they are spent before it is written.  Memory:
    an odd n's middle column, and out when it is new (256 kB for 16
    windows of 2000 samples, none when it is _fold's buffer)."""
    n = x.shape[-1]
    m = n // 2
    head -= p_even[..., :m]
    head -= p_odd
    tail -= p_even[..., :m]
    tail += p_odd
    middle = x[..., m:n - m] - p_even[..., m:]
    if out is None:
        out = np.empty(x.shape)
    out[..., :m] = head
    out[..., ::-1][..., :m] = tail
    out[..., m:n - m] = middle
    return out


@lru_cache(maxsize=64)
def _refit_basis(fundamental_hz: float, order: int, n: int,
                 sample_rate: float) -> _RefitBasis:
    """An n-sample refit's harmonic-plus-intercept design on the window's
    centred axis t' = (k - (n - 1) / 2) / fs, factored in two halves and
    cached read-only (_RefitBasis); no cache keeps the design.

    On t' the columns cos(k w t') and the intercept are even about the
    window's centre and sin(k w t') odd, so the two sets are orthogonal.
    Each set's head rows, weighted by sqrt(2) (the middle row by 1) so
    that their Gram matrix is the whole window's, get their own
    Householder QR (np.linalg.qr), Q_e R_e and Q_o R_o; the entry keeps the
    Q rows unweighted, the head rows of the window's orthonormal bases.
    That is ceil(n/2) (order + 1) + floor(n/2) order float64s, 56 kB at
    n = 2000 and order 3 where a full Q held 112 kB.  coefficients is
    blockdiag(R_e^-1, R_o^-1) turned from the centred axis to the first
    sample, each harmonic's (sin, cos) pair by phi_k = 2 pi k f (n - 1) /
    (2 fs), the phase of harmonic k at the window's centre, a
    (2 order + 1)-square map.

    Sliding analysis refits the same few fundamentals at a fixed window
    length over and over; the factorization depends only on the design.  A
    segment too short for the coefficients, or a rank-deficient design
    (e.g. fundamental at 0), raises ValueError and caches nothing.  The
    length check runs before the design is built.  The singular values of
    R_e and R_o together are those of the whole design, giving the rank
    check without a second factorization.
    """
    if n < 2 * order + 1:
        raise ValueError(f"segment of {n} samples too short for "
                         f"{2 * order} coefficients")
    m = n // 2
    f = np.array([fundamental_hz], dtype=float)
    weight = _head_weights(n)
    even = np.hstack([_centred_half(f, order, n, sample_rate, False)[0],
                      weight])
    odd = _centred_half(f, order, n, sample_rate, True)[0]
    (q_e, r_e), (q_o, r_o) = np.linalg.qr(even), np.linalg.qr(odd)
    sv = np.concatenate([np.linalg.svd(r, compute_uv=False)
                         for r in (r_e, r_o)])
    cutoff = np.finfo(float).eps * n * sv.max()
    if int(np.count_nonzero(sv > cutoff)) < 2 * order + 1:
        cond = np.inf if sv.min() == 0 else sv.max() / sv.min()
        raise ValueError(f"rank-deficient harmonic design at "
                         f"{fundamental_hz} Hz (condition ~ {cond:.3e})")
    q_e /= weight
    q_o /= weight[:m]
    # turn takes the centred fit's cos weights, offset and sin weights (the
    # halves' column order) to sin/cos weights about the first sample and
    # the offset (harmonic_matrix's order)
    phi = np.arange(1, order + 1) * (np.pi * fundamental_hz * (n - 1)
                                     / sample_rate)
    cos, sin = np.cos(phi), np.sin(phi)
    k = np.arange(order)
    turn = np.zeros((2 * order + 1, 2 * order + 1))
    turn[2 * k, k], turn[2 * k, order + 1 + k] = sin, cos
    turn[2 * k + 1, k], turn[2 * k + 1, order + 1 + k] = cos, -sin
    turn[-1, order] = 1.0
    triangles = np.zeros_like(turn)
    triangles[:order + 1, :order + 1] = r_e
    triangles[order + 1:, order + 1:] = r_o
    # the inverse of blockdiag(R_e, R_o) is blockdiag(R_e^-1, R_o^-1)
    entry = _RefitBasis(q_e, q_o, turn @ np.linalg.inv(triangles))
    for a in entry:
        a.flags.writeable = False
    return entry


def fit_amplitudes(segment: np.ndarray, sample_rate: float,
                   fundamental_hz: float, order: int = 3) -> HarmonicModel:
    """Least-squares harmonic fit at a fixed fundamental.

    An intercept column is fitted jointly with the harmonics: sin/cos
    columns are not mean-free over a fraction of a cycle, so removing the
    segment mean up front would leave a constant the true model cannot
    absorb and bias the fit toward slow candidates.  A rank-deficient
    design (e.g. fundamental at 0) is rejected, and so is a segment with a
    non-finite sample, as breathing_track's scorer rejects it.

    The segment is folded (_fold) and projected onto the two halves of its
    _refit_basis entry; the coefficients are the entry's coefficients map
    (the inverse triangles, turned) times those coordinates, so nothing
    is solved.  The residual is the segment with both projections taken
    off.
    """
    return _fit_with_residual(segment, sample_rate, fundamental_hz, order)[0]


def _fit_with_residual(segment: np.ndarray, sample_rate: float,
                       fundamental_hz: float, order: int) -> tuple:
    """(fit_amplitudes' model, the residual it measures)."""
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1:
        raise ValueError("segment must be 1-D")
    if not np.isfinite(x).all():
        raise ValueError(_NON_FINITE)
    basis = _refit_basis(fundamental_hz, order, x.size, sample_rate)
    head, tail, s_even, s_odd = _fold(x)
    c_even, c_odd = s_even @ basis.even, s_odd @ basis.odd
    resid = _take_off(x, head, tail, basis.even @ c_even, basis.odd @ c_odd)
    coef = basis.coefficients @ np.concatenate([c_even, c_odd])
    model = HarmonicModel(
        fundamental_hz=float(fundamental_hz),
        order=order,
        coefficients=coef[:-1].reshape(order, 2),
        residual_power=float(np.dot(resid, resid) / x.size),
        offset=float(coef[-1]),
    )
    return model, resid


def grid_frequencies(lo_hz: float, hi_hz: float, step_hz: float) -> np.ndarray:
    if not all(map(math.isfinite, (lo_hz, hi_hz, step_hz))):
        raise ValueError(f"grid must be finite, got lo:hi:step "
                         f"{lo_hz!r}:{hi_hz!r}:{step_hz!r}")
    if not (lo_hz > 0 and hi_hz > lo_hz and step_hz > 0):
        raise ValueError("grid must satisfy 0 < lo < hi with positive step")
    count = int(round((hi_hz - lo_hz) / step_hz)) + 1
    freqs = lo_hz + step_hz * np.arange(count)
    return freqs[freqs <= hi_hz + 1e-12]


class _GridFactor(NamedTuple):
    """A _factored_bases entry, read-only: the grid frequencies and, per
    half, its span's head rows (ceil(n/2) rows, an odd n's middle last,
    for the even half; floor(n/2) for the odd) and every grid frequency's
    (order) coordinate rows on it, stacked in grid order."""

    freqs: np.ndarray
    even: np.ndarray
    even_coords: np.ndarray
    odd: np.ndarray
    odd_coords: np.ndarray


@lru_cache(maxsize=4)
def _factored_bases(n: int, sample_rate: float, order: int,
                    grid: tuple) -> _GridFactor:
    """The orthonormal bases Q(f) of every grid frequency, each half
    factored through one shared span.  Cached per (n, fs, order, grid) and
    returned read-only (_GridFactor): the bases depend only on geometry, so
    sliding windows of equal length reuse one build.

    Q(f) spans the harmonic design's columns demeaned over the window:
    projecting the demeaned segment onto it equals the joint fit with an
    intercept, keeping the grid search consistent with fit_amplitudes.  On
    the centred axis (_centred_half) it splits in two orthogonal halves:
    the even one, the cos k w t' columns demeaned over the whole window
    (the intercept is even), and the odd one, the sin k w t' columns, whose
    mean is zero.  Each half's basis is the QR basis of its weighted head
    rows (_head_weights), whose inner products are the whole window's.

    Per half, span is an orthonormal basis of the weighted head rows that
    holds every grid frequency's half basis, kept unweighted as head rows
    (as _refit_basis keeps its halves), and coords the (F * order) x r
    stack of those bases' coordinates in it: a folded part s (_fold) has
    coordinates coords_f (span^T s) on f's half, and every entry of a
    weighted half basis less span coords_f^T is at most _SPAN_TOL.  The
    bases are sinusoids of a narrow band over a short window, so each r
    stays a few dozen (20 and 20 at the defaults) where its stack has
    F * order rows.

    The spans grow _SPAN_CHUNK grid frequencies at a time, a coarse
    subsample spread over the whole grid first so that later chunks rarely
    add to them; each chunk's half bases grow their half's span
    (_grow_span).  A chunk's coordinates are taken against the span after
    its own directions join; the directions later chunks add hold at most
    _SPAN_TOL of its rows, and its coordinates on them are left zero.

    Memory: the output plus one half of one chunk.  Each half's design,
    QR basis, leftover and SVD factors die before the next half's are
    made, so the peak is the spans and the coordinate blocks so far plus
    one half-chunk's work: 0.59 MB for the 0.32 MB table at the defaults,
    2.7 MB for the 1.7 MB table at n = 2000.
    """
    freqs = grid_frequencies(*grid)
    in_coarse = np.zeros(freqs.size, dtype=bool)
    in_coarse[np.linspace(0, freqs.size - 1, _SPAN_CHUNK).round()
              .astype(int)] = True
    coarse, rest = np.flatnonzero(in_coarse), np.flatnonzero(~in_coarse)
    chunks = [coarse] + [rest[i:i + _SPAN_CHUNK]
                         for i in range(0, rest.size, _SPAN_CHUNK)]
    m = n // 2
    spans = [np.empty((n - m, 0)), np.empty((m, 0))]
    blocks = [[], []]
    for idx in chunks:
        for h, odd in enumerate((False, True)):
            spans[h], block = _grow_span(spans[h], _half_bases(
                freqs[idx], order, n, sample_rate, odd))
            blocks[h].append(block)
    weight = _head_weights(n)
    halves = []
    for span, w in zip(spans, (weight, weight[:m])):
        coords = np.zeros((freqs.size, order, span.shape[1]))
        for idx, block in zip(chunks, blocks.pop(0)):
            coords[idx, :, :block.shape[1]] = block.reshape(idx.size, order,
                                                            -1)
        halves += [span / w, coords.reshape(-1, span.shape[1])]
    entry = _GridFactor(freqs, *halves)
    for a in entry:
        a.flags.writeable = False
    return entry


def _half_bases(freqs: np.ndarray, order: int, n: int, sample_rate: float,
                odd: bool) -> np.ndarray:
    """The weighted head rows of freqs' orthonormal even or odd half bases
    (_factored_bases), each basis's order columns as rows: (freqs.size *
    order, ceil(n/2)) or (freqs.size * order, floor(n/2)).  The cos columns
    are demeaned over the whole window, where the mean of weighted rows is
    their sum weighted once more, over n."""
    half = _centred_half(freqs, order, n, sample_rate, odd)
    if not odd:
        weight = _head_weights(n)
        half -= weight * (weight.T @ half / n)
    return np.linalg.qr(half)[0].transpose(0, 2, 1).reshape(-1, half.shape[1])


def _grow_span(span: np.ndarray, rows: np.ndarray) -> tuple:
    """One chunk of one half of _factored_bases: (the span grown by the
    directions of the chunk's orthonormal basis rows, the rows' coordinates
    on it).  The rows are projected off the span; where a row keeps more
    than _SPAN_TOL, what is left is projected off once more and the span
    gains the left singular vectors of that leftover whose singular values
    exceed _SPAN_TOL.  Each row's leftover is then bounded by the next
    singular value, which is at most _SPAN_TOL.  Every working array dies
    on return, before the next chunk allocates its own."""
    block = rows @ span
    left = block @ span.T
    np.subtract(rows, left, out=left)
    kept = np.einsum("mn,mn->m", left, left) > _SPAN_TOL ** 2
    if not kept.any():
        return span, block
    left = left[kept]
    left -= (left @ span) @ span.T
    u, sv, _ = np.linalg.svd(left.T, full_matrices=False)
    del left
    new = u[:, :np.count_nonzero(sv > _SPAN_TOL)]
    if not new.shape[1]:
        return span, block
    # a tiny leftover's directions carry its rounding along span
    new -= span @ (span.T @ new)
    span = np.hstack([span, np.linalg.qr(new)[0]])
    return span, rows @ span


def _best_fundamentals(segments: np.ndarray, sample_rate: float,
                       grid: tuple, order: int) -> np.ndarray:
    """Grid frequency with minimal residual for each row of a stack of
    equal-length segments.

    The stack is scored _SCORE_ROWS rows at a time (_grid_residuals), so
    the scorer's copies and projections stay the size of one chunk however
    many rows there are, and each chunk's die before the next chunk's are
    made.  Ties go to the lower frequency.  A segment with a non-finite
    sample is a ValueError.
    """
    if segments.shape[1] < 2 * order + 1:
        raise ValueError("segment too short for the requested order")
    factor = _factored_bases(segments.shape[1], sample_rate, order,
                             tuple(grid))
    best = np.empty(len(segments), dtype=np.intp)
    for i in range(0, len(segments), _SCORE_ROWS):
        best[i:i + _SCORE_ROWS] = np.argmin(
            _grid_residuals(segments[i:i + _SCORE_ROWS], factor), axis=0)
    return factor.freqs[best]


def _grid_residuals(rows: np.ndarray, factor: _GridFactor) -> np.ndarray:
    """The residual of each row (column) at each grid frequency (row) of
    the factor, ||x||^2 - ||c_e||^2 - ||c_o||^2 for the demeaned row x,
    where c_e and c_o are x's coordinates on f's two half bases.  x is
    folded into _fold's parts, and each part's coordinates on f's half are
    coords_f (span^T part): one projection onto the half's span, then one
    small product for the whole grid.  The demeaned copy holds the even
    part, written over its head and middle, and the odd part is half its
    size.  A non-finite sample is a ValueError."""
    if not np.isfinite(rows).all():
        raise ValueError(_NON_FINITE)
    n = rows.shape[1]
    m = n // 2
    x = rows - rows.mean(axis=1, keepdims=True)
    resid = np.einsum("wn,wn->w", x, x)
    tail = x[:, ::-1][:, :m]
    odd = x[:, :m] - tail
    x[:, :m] += tail
    for part, span, coords in ((x[:, :n - m], factor.even,
                                factor.even_coords),
                               (odd, factor.odd, factor.odd_coords)):
        proj = (coords @ (span.T @ part.T)).reshape(factor.freqs.size, -1,
                                                    len(rows))
        resid = resid - np.einsum("fkw,fkw->fw", proj, proj)
        del proj
    return resid


def estimate_breathing(segment: np.ndarray,
                       sample_rate: float) -> HarmonicModel:
    """Grid search over BREATHING_GRID_HZ for the 3-harmonic breathing
    fundamental with minimal residual, then the amplitude fit at the winner.
    The segment is scored as a stack of one by breathing_track's scorer,
    through the grid factor's two halves; a non-finite sample is a
    ValueError."""
    x = np.asarray(segment, dtype=float)
    if x.ndim != 1:
        raise ValueError("segment must be 1-D")
    f_hat = float(_best_fundamentals(x[None, :], sample_rate,
                                     BREATHING_GRID_HZ, 3)[0])
    return fit_amplitudes(x, sample_rate, f_hat)


def breathing_track(phase: PhaseSignal, window_s: float = 5.0,
                    step_s: float = 1.0, grid: tuple = BREATHING_GRID_HZ,
                    order: int = 3) -> BreathingTrack:
    """Sliding-subwindow breathing fundamentals over a whole record.

    The subwindows are scenario.sliding_windows' layout of window_s every
    step_s, which rejects a bad window or step.  The subwindows are scored
    through the grid factor a chunk of rows at a time (_best_fundamentals):
    each chunk is folded once, and each part is projected onto its half's
    shared span, then multiplied by every grid frequency's coordinates on
    it.  The fundamentals match per-subwindow estimate_breathing, and a
    non-finite sample in any subwindow is a ValueError.
    """
    fs = phase.sample_rate
    # a view: the scorer's demeaned and folded chunk is the only copy
    starts, subwindows = sliding_windows(phase.samples, fs, window_s, step_s)
    hz = _best_fundamentals(subwindows, fs, grid, order)
    return BreathingTrack(starts, hz, order, window_s, fs)


def reconstruct_reference(phase: PhaseSignal) -> ReferenceFit:
    """Breathing reference for one analysis window: the harmonics of the
    refit of its own breathing track (breathing_track's defaults) over the
    whole window, at the median fundamental of its subwindows.  s_ref is
    the fit's own projection without the intercept, the window less the
    fit's residual and offset."""
    track = breathing_track(phase)
    model, resid = track._fit(phase.samples, 0)
    s_ref = phase.samples - resid - model.offset
    return ReferenceFit(s_ref=s_ref, model=model,
                       subwindow_hz=track.hz)
