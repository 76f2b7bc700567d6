"""Lag-subspace projection: exact cancellation and projector invariants."""

import numpy as np
import pytest

from pulsecancel.eca import (MAX_CONDITION, RIDGE, EcaResult, eca_cancel,
                             lag_matrix)

FS = 100.0


def breathing_like(n, f_hz=0.26, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    s = np.zeros(n)
    for k, a in enumerate([1.0, 0.35, 0.12], start=1):
        s += a * np.sin(2 * np.pi * k * f_hz * t + rng.uniform(0, 2 * np.pi))
    return s


class TestLagMatrix:
    def test_hand_case(self):
        x = lag_matrix(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(x, [[1.0, 0.0], [2.0, 1.0],
                                          [3.0, 2.0], [4.0, 3.0]])

    def test_row_is_recent_history(self):
        s = np.arange(10.0)
        x = lag_matrix(s, 4)
        np.testing.assert_array_equal(x[6], [6.0, 5.0, 4.0, 3.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="1-D"):
            lag_matrix(np.ones((4, 2)), 2)
        with pytest.raises(ValueError, match="order"):
            lag_matrix(np.ones(4), 0)
        with pytest.raises(ValueError, match="order"):
            lag_matrix(np.ones(4), 5)


class TestExactCancellation:
    def test_in_span_signal_vanishes(self):
        s = breathing_like(2000)
        x = lag_matrix(s, 5)
        theta = x @ np.array([0.8, -0.2, 0.1, 0.05, -0.03])
        result = eca_cancel(theta, s)
        assert np.max(np.abs(result.cancelled)) < 1e-9 * np.max(np.abs(theta))
        assert result.residual_ratio < 1e-18

    def test_constant_offset_is_absorbed_by_intercept(self):
        s = breathing_like(2000, seed=1)
        theta = 2900.0 + 1.3 * s
        result = eca_cancel(theta, s)
        assert np.max(np.abs(result.cancelled)) < 1e-6
        assert result.offset == pytest.approx(2900.0, rel=1e-6)

    def test_out_of_span_component_survives(self):
        s = breathing_like(2000, seed=2)
        t = np.arange(2000) / FS
        heart = 0.5 * np.sin(2 * np.pi * 1.28 * t)
        result = eca_cancel(1.2 * s + heart, s)
        # breathing gone, heart tone intact up to lag-edge leakage
        assert np.linalg.norm(result.cancelled - heart) \
            < 0.05 * np.linalg.norm(heart)


class TestProjectorInvariants:
    """P projects onto the complement of the lags and an intercept,
    [lag_matrix(s, m), ones], as in C01."""

    def instances(self, count=50):
        rng = np.random.default_rng(7)
        for _ in range(count):
            n = int(rng.integers(40, 200))
            m = int(rng.integers(1, 9))
            s = rng.normal(size=n)
            theta = rng.normal(size=n)
            yield theta, s, m

    @staticmethod
    def design(s, order):
        return np.hstack([lag_matrix(s, order), np.ones((s.size, 1))])

    def test_idempotent(self):
        for theta, s, m in self.instances():
            once = eca_cancel(theta, s, m).cancelled
            twice = eca_cancel(once, s, m).cancelled
            assert np.linalg.norm(twice - once) \
                <= 1e-9 * max(np.linalg.norm(theta), 1e-30)

    def test_orthogonal_to_reference_columns(self):
        for theta, s, m in self.instances():
            x = self.design(s, m)
            out = eca_cancel(theta, s, m).cancelled
            bound = 1e-9 * np.linalg.norm(x) * np.linalg.norm(theta)
            assert np.max(np.abs(x.T @ out)) <= max(bound, 1e-30)

    def test_contraction(self):
        for theta, s, m in self.instances():
            out = eca_cancel(theta, s, m).cancelled
            assert np.linalg.norm(out) <= np.linalg.norm(theta) * (1 + 1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=300)
        m = 4
        a, b = rng.normal(size=300), rng.normal(size=300)
        combo = eca_cancel(2.0 * a - 3.0 * b, s, m).cancelled
        parts = 2.0 * eca_cancel(a, s, m).cancelled \
            - 3.0 * eca_cancel(b, s, m).cancelled
        np.testing.assert_allclose(combo, parts, atol=1e-9)


class TestEdgeCases:
    def test_zero_reference_is_degenerate_passthrough(self):
        theta = np.sin(np.arange(500) * 0.1)
        result = eca_cancel(theta, np.zeros(500))
        assert result.degenerate
        np.testing.assert_array_equal(result.cancelled, theta)
        np.testing.assert_array_equal(result.weights, np.zeros(5))
        assert result.condition == np.inf
        assert result.residual_ratio == 1.0

    def test_zero_everything_has_zero_ratio(self):
        result = eca_cancel(np.zeros(100), np.zeros(100))
        assert result.degenerate
        assert result.residual_ratio == 0.0

    def test_ridge_engages_on_ill_conditioned_reference(self):
        # near-constant reference: lag columns are nearly identical
        s = 1.0 + 1e-14 * np.sin(np.arange(1000) * 0.01)
        theta = np.random.default_rng(3).normal(size=1000)
        result = eca_cancel(theta, s)
        assert result.condition > 1e10
        assert result.ridge_epsilon > 0.0
        assert np.all(np.isfinite(result.cancelled))
        assert np.all(np.isfinite(result.weights))

    def test_well_conditioned_reference_skips_ridge(self):
        s = breathing_like(1000, seed=4)
        result = eca_cancel(np.random.default_rng(5).normal(size=1000), s)
        assert result.ridge_epsilon == 0.0
        assert result.condition < 1e10

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="length must match"):
            eca_cancel(np.ones(10), np.ones(11))
        # a reference that is not 1-D, a prebuilt lag matrix included
        for shape in ((10, 2), (11, 2), (10, 2, 1)):
            with pytest.raises(ValueError, match="reference must be 1-D"):
                eca_cancel(np.ones(10), np.ones(shape))

    def test_filter_order_config(self):
        s = breathing_like(500, seed=6)
        result = eca_cancel(np.ones(500), s, order=3)
        assert result.weights.shape == (3,)
        with pytest.raises(ValueError, match="order 0 invalid"):
            eca_cancel(np.ones(500), s, order=0)


class TestEquality:
    def test_results_compare_by_value(self):
        # field by field, the arrays element by element; the generated
        # __eq__ raised on the arrays' ambiguous truth value
        s = breathing_like(2000, seed=7)
        t = np.arange(2000) / FS
        theta = 1.2 * s + 0.5 * np.sin(2 * np.pi * 1.28 * t)
        result = eca_cancel(theta, s)
        assert (result == eca_cancel(theta, s)) is True
        assert (result == eca_cancel(2.0 * theta, s)) is False
        assert (result == eca_cancel(theta, s, order=3)) is False
        assert result != "a result"


def explicit_q_cancel(theta, reference, order=5):
    """The explicit-Q formulation eca_cancel replaced: the design [X 1]
    built row-major, its full reduced QR, and R w = Q^T theta."""
    theta = np.asarray(theta, dtype=float)
    x = np.ascontiguousarray(lag_matrix(reference, order))
    centered = theta - np.mean(theta)
    power = float(np.dot(centered, centered))
    if not np.any(x):
        return EcaResult(theta.copy(), np.zeros(x.shape[1]), np.inf,
                         1.0 if power else 0.0, degenerate=True)
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    q, r = np.linalg.qr(design)
    sv = np.linalg.svd(r, compute_uv=False)
    condition = np.inf if sv[-1] == 0 else float(sv[0] / sv[-1])
    epsilon = 0.0
    if condition > MAX_CONDITION:
        epsilon = RIDGE * float(np.mean(np.sum(design * design, axis=0)))
        x_solve = np.vstack([design,
                             np.sqrt(epsilon) * np.eye(design.shape[1])])
        rhs = np.concatenate([theta, np.zeros(design.shape[1])])
        coef = np.linalg.lstsq(x_solve, rhs, rcond=None)[0]
    elif design.shape[0] < design.shape[1]:
        coef = np.linalg.lstsq(design, theta, rcond=None)[0]
    else:
        coef = np.linalg.solve(r, q.T @ theta)
    cancelled = theta - design @ coef
    ratio = float(np.dot(cancelled, cancelled) / power) if power else 0.0
    return EcaResult(cancelled, coef[:-1], condition, ratio,
                     ridge_epsilon=epsilon, offset=float(coef[-1]))


def oracle_cases():
    """(theta, reference, order) for each branch of the solve."""
    s = breathing_like(2000, seed=8)
    t = np.arange(2000) / FS
    theta = 2900.0 + 1.2 * s + 0.5 * np.sin(2 * np.pi * 1.28 * t) \
        + 0.05 * np.random.default_rng(9).normal(size=2000)
    # a reference that is zero but for its last sample: every delayed
    # copy is exactly zero, so the design is singular
    impulse = np.zeros(2000)
    impulse[-1] = 0.7
    rng = np.random.default_rng(10)
    return {
        "well-conditioned": (theta, s, 5),
        "ridge": (theta, impulse, 5),
        "underdetermined": (rng.normal(size=5), rng.normal(size=5), 5),
        "degenerate": (theta, np.zeros(2000), 5),
    }


class TestSingleFactorization:
    """eca_cancel's one augmented QR against the explicit-Q oracle."""

    @pytest.mark.parametrize("case", sorted(oracle_cases()))
    def test_matches_the_explicit_q_oracle(self, case):
        theta, s, order = oracle_cases()[case]
        got = eca_cancel(theta, s, order)
        want = explicit_q_cancel(theta, s, order)
        scale = np.linalg.norm(theta)
        for name in ("cancelled", "weights", "offset"):
            error = np.max(np.abs(np.subtract(getattr(got, name),
                                              getattr(want, name))))
            assert error <= 1e-12 * scale, (name, error / scale)
        if np.isinf(want.condition):
            assert got.condition == want.condition
        else:
            assert got.condition == pytest.approx(want.condition, rel=1e-12,
                                                  abs=0)
        assert got.ridge_epsilon == want.ridge_epsilon
        assert got.degenerate == want.degenerate
        assert got.residual_ratio == pytest.approx(want.residual_ratio,
                                                   rel=1e-9, abs=1e-15)
        # each case takes the branch it is named for
        assert (got.ridge_epsilon > 0) == (case == "ridge")
        assert got.degenerate == (case == "degenerate")
        assert (theta.size < order + 1) == (case == "underdetermined")

    def test_factors_once_without_q(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counting(a, mode="reduced"):
            calls.append((a.shape, mode, a.flags.f_contiguous))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", counting)
        s = breathing_like(2000, seed=11)
        eca_cancel(np.random.default_rng(12).normal(size=2000), s, order=4)
        # [lags, ones, theta], column-major, R alone
        assert calls == [((2000, 6), "r", True)]


class TestBadInput:
    """Each is a ValueError naming the problem, raised before anything is
    factored."""

    @pytest.fixture(autouse=True)
    def no_factorization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factored bad input")

        for name in ("qr", "svd", "solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_theta(self, bad):
        # a NaN in theta came back as an all-NaN cancelled array
        theta = np.random.default_rng(13).normal(size=200)
        theta[17] = bad
        with pytest.raises(ValueError, match="theta holds non-finite"):
            eca_cancel(theta, breathing_like(200))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_reference(self, bad):
        # it raised LinAlgError "SVD did not converge"
        s = breathing_like(200)
        s[150] = bad
        with pytest.raises(ValueError, match="reference holds non-finite"):
            eca_cancel(np.ones(200), s)

    def test_a_theta_that_is_not_1d(self):
        # it failed in np.dot: shapes (20,10) and (20,10) not aligned
        with pytest.raises(ValueError, match=r"theta must be 1-D, got shape "
                                             r"\(20, 10\)"):
            eca_cancel(np.ones((20, 10)), breathing_like(200))
