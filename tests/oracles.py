"""Reference computations for the tests, independent of the code they
check."""

import math

import numpy as np

from pulsecancel.anls import harmonic_matrix


def refit_design(track, n, start=0):
    """[harmonic_matrix(f, order, n, fs), 1] on the t-from-0 axis, f the
    track's refit fundamental for the n-sample segment starting at sample
    start.  A segment that holds no subwindow raises the refit's
    ValueError."""
    f_hat = float(track._refit_hz([start], n)[0])
    if math.isnan(f_hat):
        raise ValueError("no breathing subwindow inside the segment")
    return np.hstack([harmonic_matrix(f_hat, track.order, n,
                                      track.sample_rate), np.ones((n, 1))])


def refit_residual(track, segment, start=0):
    """A segment less its least-squares fit (np.linalg.lstsq) on its
    refit_design: what BreathingTrack.residuals cancels, with none of its
    cached bases, folds or take-offs."""
    segment = np.asarray(segment, dtype=float)
    design = refit_design(track, segment.size, start)
    coef, *_ = np.linalg.lstsq(design, segment, rcond=None)
    return segment - design @ coef
