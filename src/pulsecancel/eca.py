"""Extensive cancellation of the breathing subspace.

The reconstructed breathing reference and a few delayed copies of it span a
subspace; the phase is projected onto that subspace's orthogonal complement,
which removes breathing harmonics while leaving uncorrelated content (the
heartbeat) intact.

The least-squares fit factors once.  The lags, an intercept column and the
phase itself are laid out as one column-major matrix [X 1 theta], and its
reduced QR is taken with R alone (Golub & Van Loan, Matrix Computations,
section 5.3).  R's leading (order + 1) block is the design's R: its
singular values give the condition, and it is the triangle of the solve.
R's last column above the diagonal is Q^T theta, the solve's right-hand
side, so Q is never formed.
"""

from dataclasses import dataclass

import numpy as np

from .types import equal_fields

RIDGE = 1e-8               # relative regularizer, engaged past MAX_CONDITION
MAX_CONDITION = 1e10


@dataclass
class EcaResult:
    cancelled: np.ndarray
    weights: np.ndarray
    condition: float
    residual_ratio: float          # ||cancelled||^2 / mean-removed input power
    degenerate: bool = False
    ridge_epsilon: float = 0.0
    offset: float = 0.0            # intercept removed alongside the lag fit

    __eq__ = equal_fields


def _lag_columns(reference: np.ndarray, order: int,
                 width: int) -> np.ndarray:
    """N x width column-major array whose first order columns are
    lag_matrix(reference, order); the others are left for the caller."""
    s = np.asarray(reference, dtype=float)
    if s.ndim != 1:
        raise ValueError("reference must be 1-D")
    if not 1 <= order <= s.size:
        raise ValueError(f"order {order} invalid for {s.size} samples")
    x = np.empty((width, s.size)).T
    for m in range(order):
        x[:m, m] = 0.0
        x[m:, m] = s[:s.size - m]
    return x


def lag_matrix(reference: np.ndarray, order: int) -> np.ndarray:
    """N x order matrix whose column m holds reference delayed by m samples.

    Leading samples of each delayed column are zero-filled, so row n is
    [s[n], s[n-1], ..., s[n-order+1]].  The matrix is column-major, the
    layout LAPACK factors.
    """
    return _lag_columns(reference, order, order)


def eca_cancel(theta: np.ndarray, reference: np.ndarray,
               order: int = 5) -> EcaResult:
    """Project theta onto the orthogonal complement of the reference lags
    and an intercept.

    reference is the 1-D breathing signal, as long as theta; its lag matrix
    holds order lagged copies of it.  The weights solve
    min ||theta - [X 1] w|| through one reduced QR of the augmented matrix
    [X 1 theta] (np.linalg.qr, mode="r"; Golub & Van Loan, Matrix
    Computations, section 5.3), built column-major so LAPACK factors it
    without a transposing copy.  No Q is formed: R's leading block is the
    design's own R, whose singular values are the design's and give its
    condition, and R's last column above the diagonal is Q^T theta.  The
    solve R w = Q^T theta is np.linalg.solve on the triangular block, whose
    LU is the block itself, so it is a back substitution.  A small ridge is
    added only when the design's condition exceeds MAX_CONDITION.

    The intercept column is fitted alongside the lags and removed with
    them.  Unwrapped phase carries a standoff offset of thousands of
    radians; without the intercept the solver exploits the sub-percent
    means of the lag columns to chase that constant and skews the lag
    weights away from the breathing fit.  An all-zero reference returns
    theta untouched, flagged degenerate.  A theta that is not 1-D, or a
    non-finite sample in theta or the reference, is a ValueError raised
    before anything is factored.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"theta must be 1-D, got shape {theta.shape}")
    k = order + 1                   # the design's columns: lags, intercept
    augmented = _lag_columns(reference, order, k + 1)
    if augmented.shape[0] != theta.size:
        raise ValueError("reference length must match theta")
    # column 0 is the reference itself
    for name, x in (("theta", theta), ("reference", augmented[:, 0])):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} holds non-finite samples")

    centered = theta - theta.sum() / theta.size     # the mean, as np.mean
    power = float(np.dot(centered, centered))
    if not np.count_nonzero(augmented[:, 0]):
        return EcaResult(theta.copy(), np.zeros(order), np.inf,
                         1.0 if power else 0.0, degenerate=True)

    augmented[:, order] = 1.0
    augmented[:, k] = theta
    design = augmented[:, :k]
    r = np.linalg.qr(augmented, mode="r")
    # fewer rows than columns when N < k + 1: R[:k] is then all of R
    sv = np.linalg.svd(r[:k, :k], compute_uv=False)
    condition = np.inf if sv[-1] == 0 else float(sv[0] / sv[-1])

    epsilon = 0.0
    if condition > MAX_CONDITION:
        epsilon = RIDGE * float(np.mean(np.sum(design * design, axis=0)))
        x_solve = np.vstack([design, np.sqrt(epsilon) * np.eye(k)])
        rhs = np.concatenate([theta, np.zeros(k)])
        coef, _, _, _ = np.linalg.lstsq(x_solve, rhs, rcond=None)
    elif design.shape[0] < k:
        # underdetermined: R is not square, fall back to the minimum-norm fit
        coef, _, _, _ = np.linalg.lstsq(design, theta, rcond=None)
    else:
        coef = np.linalg.solve(r[:k, :k], r[:k, k])

    cancelled = theta - design @ coef
    ratio = float(np.dot(cancelled, cancelled) / power) if power else 0.0
    return EcaResult(cancelled, coef[:-1], condition, ratio,
                     ridge_epsilon=epsilon, offset=float(coef[-1]))
