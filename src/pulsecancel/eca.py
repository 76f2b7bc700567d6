"""Extensive cancellation of the breathing subspace.

The reconstructed breathing reference and a few delayed copies of it span a
subspace; the phase is projected onto that subspace's orthogonal complement,
which removes breathing harmonics while leaving uncorrelated content (the
heartbeat) intact.
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


def lag_matrix(reference: np.ndarray, order: int) -> np.ndarray:
    """N x order matrix whose column m holds reference delayed by m samples.

    Leading samples of each delayed column are zero-filled, so row n is
    [s[n], s[n-1], ..., s[n-order+1]].
    """
    s = np.asarray(reference, dtype=float)
    if s.ndim != 1:
        raise ValueError("reference must be 1-D")
    if not 1 <= order <= s.size:
        raise ValueError(f"order {order} invalid for {s.size} samples")
    x = np.zeros((s.size, order))
    for m in range(order):
        x[m:, m] = s[:s.size - m]
    return x


def eca_cancel(theta: np.ndarray, reference: np.ndarray,
               order: int = 5) -> EcaResult:
    """Project theta onto the orthogonal complement of the reference lags
    and an intercept.

    reference is the 1-D breathing signal, as long as theta; its lag matrix
    holds order lagged copies of it.  The weights solve
    min ||theta - [X 1] w|| through the design's reduced QR (np.linalg.qr),
    as R w = Q^T theta by np.linalg.solve: R is upper triangular, so its
    LU factorization is R itself and the solve is a back substitution.  A
    small ridge is added only when the design's condition exceeds
    MAX_CONDITION.

    The intercept column is fitted alongside the lags and removed with
    them.  Unwrapped phase carries a standoff offset of thousands of
    radians; without the intercept the solver exploits the sub-percent
    means of the lag columns to chase that constant and skews the lag
    weights away from the breathing fit.  An all-zero reference returns
    theta untouched, flagged degenerate.
    """
    theta = np.asarray(theta, dtype=float)
    x = lag_matrix(reference, order)
    if x.shape[0] != theta.size:
        raise ValueError("reference length must match theta")

    centered = theta - np.mean(theta)
    power = float(np.dot(centered, centered))
    if not np.any(x):
        return EcaResult(theta.copy(), np.zeros(x.shape[1]), np.inf,
                         1.0 if power else 0.0, degenerate=True)

    design = np.hstack([x, np.ones((x.shape[0], 1))])
    # one reduced QR serves both the condition check (singular values of R
    # equal those of the design) and the well-conditioned solve
    q, r = np.linalg.qr(design)
    sv = np.linalg.svd(r, compute_uv=False)
    condition = np.inf if sv[-1] == 0 else float(sv[0] / sv[-1])

    epsilon = 0.0
    if condition > MAX_CONDITION:
        epsilon = RIDGE * float(np.mean(np.sum(design * design, axis=0)))
        x_solve = np.vstack([design,
                             np.sqrt(epsilon) * np.eye(design.shape[1])])
        rhs = np.concatenate([theta, np.zeros(design.shape[1])])
        coef, _, _, _ = np.linalg.lstsq(x_solve, rhs, rcond=None)
    elif design.shape[0] < design.shape[1]:
        # underdetermined: R is not square, fall back to the minimum-norm fit
        coef, _, _, _ = np.linalg.lstsq(design, theta, rcond=None)
    else:
        coef = np.linalg.solve(r, q.T @ theta)

    cancelled = theta - design @ coef
    ratio = float(np.dot(cancelled, cancelled) / power) if power else 0.0
    return EcaResult(cancelled, coef[:-1], condition, ratio,
                     ridge_epsilon=epsilon, offset=float(coef[-1]))
