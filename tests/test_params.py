"""Tests for parameter validation and the closed-form constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hslog.params import (
    BRENT_RTOL,
    NumericalError,
    ValidationError,
    brent_root,
    check_identities,
    identity_residuals,
    validate_params,
)


P0 = (2.0, 2.0, 2.0, 2.0)
P1 = (3.0, 2.0, 4.0, 4.0)


class TestValidateParams:
    def test_classical_radial_case(self):
        ps = validate_params(*P0)
        assert (ps.p, ps.alpha0, ps.alpha1, ps.theta) == P0

    def test_strict_case_all_margins(self):
        ps = validate_params(*P1)
        # alpha1-p+1 = 2 > 0, alpha0 = 2 >= 1, theta = 4 > 1
        assert ps.alpha1 - ps.p + 1 == 2.0

    def test_sobolev_condition_violated(self):
        with pytest.raises(ValidationError, match="alpha1-p\\+1"):
            validate_params(2.0, 0.0, 0.5, 2.0)

    def test_p_must_exceed_one(self):
        with pytest.raises(ValidationError, match="p > 1"):
            validate_params(1.0, 2.0, 2.0, 2.0)

    def test_transition_condition(self):
        with pytest.raises(ValidationError, match="alpha0"):
            validate_params(2.0, -0.5, 2.0, 2.0)

    def test_theta_condition(self):
        with pytest.raises(ValidationError, match="theta"):
            validate_params(2.0, 2.0, 2.0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            validate_params(float("nan"), 2.0, 2.0, 2.0)


class TestClosedForms:
    def test_classical_values(self):
        ps = validate_params(*P0)
        assert ps.p_star == pytest.approx(6.0, abs=1e-14)
        assert ps.s == pytest.approx(0.5, abs=1e-14)
        assert ps.n == pytest.approx(2.0, abs=1e-14)
        assert ps.m == pytest.approx(2.0, abs=1e-14)
        assert ps.c_hat == pytest.approx(3.0**0.25, rel=1e-14)
        assert ps.kappa == pytest.approx(1.0, abs=1e-14)
        assert ps.beta_max == pytest.approx(1.0, abs=1e-14)

    def test_strict_case_values(self):
        ps = validate_params(*P1)
        assert ps.p_star == pytest.approx(7.5, abs=1e-14)
        assert ps.s == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert ps.n == pytest.approx(1.5, abs=1e-14)
        assert ps.m == pytest.approx(1.5, abs=1e-14)
        assert ps.kappa == pytest.approx(1.0, abs=1e-14)
        assert ps.beta_max == pytest.approx(1.0, abs=1e-14)

    def test_identities_exact_for_rational_cases(self):
        for params in (P0, P1):
            report = check_identities(validate_params(*params))
            assert report.passed
            assert report.max_residual < 1e-12

    def test_injected_fault_detected(self, monkeypatch):
        ps = validate_params(*P0)
        monkeypatch.setitem(ps.__dict__, "s", ps.s + 1e-6)
        report = check_identities(ps)
        assert not report.passed
        assert report.max_residual >= 1e-7

    def test_cached_and_not_part_of_equality(self):
        ps = validate_params(*P1)
        assert ps.sigma_p is ps.sigma_p
        assert "sigma_p" in vars(ps)
        assert ps == validate_params(*P1) and hash(ps) == hash(validate_params(*P1))


def _valid_params(p, off1, m0, m3):
    # keep theta - alpha1 + p >= 0.1 so c_hat's exponent stays representable
    alpha1 = p - 1 + 0.05 + off1                 # alpha1 - p + 1 = 0.05 + off1 > 0
    alpha0 = max(alpha1 - p, 0.0) + m0           # >= alpha1 - p, nonnegative
    theta = max(alpha1 - p, 0.0) + 0.1 + m3      # > alpha1 - p, nonnegative
    return p, alpha0, alpha1, theta


@settings(max_examples=1000, deadline=None)
@given(
    st.floats(min_value=1.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_relation_identities_hold_for_random_admissible_tuples(p, off1, m0, m3):
    ps = validate_params(*_valid_params(p, off1, m0, m3))
    residuals = identity_residuals(ps)
    assert max(residuals) < 1e-12


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=1.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_supercriticality_and_beta_window(p, off1, m0, m3):
    ps = validate_params(*_valid_params(p, off1, m0, m3))
    assert ps.p_star > ps.p
    assert ps.beta_max > 0


class TestBrentRoot:
    @staticmethod
    def _recording(calls):
        def f(x, c):
            calls.append(x)
            return x**3 - 2.0 * x - c
        return f

    def test_each_point_evaluated_once(self):
        calls = []
        f = self._recording(calls)
        x, fx = brent_root(f, 2.0, f(2.0, 5.0), 3.0, f(3.0, 5.0), "x", args=(5.0,), xtol=1e-14)
        assert len(calls) == len(set(calls))
        assert x == brentq(lambda t: t**3 - 2.0 * t - 5.0, 2.0, 3.0, xtol=1e-14)
        assert fx == x**3 - 2.0 * x - 5.0

    def test_returns_the_stored_value_at_the_root(self):
        # a step map: brentq closes in on the jump, where |f| stays 1
        x, fx = brent_root(lambda t: 1.0 if t < 0.3 else -1.0, 0.0, 1.0, 1.0, -1.0, "the jump")
        assert x == pytest.approx(0.3, abs=1e-11)
        assert fx == (1.0 if x < 0.3 else -1.0)

    def test_zero_at_a_bracket_end_needs_no_call(self):
        calls = []
        assert brent_root(self._recording(calls), 1.0, 0.0, 3.0, 22.0, "x",
                          args=(-1.0,)) == (1.0, 0.0)
        assert calls == []


class TestBrentMatchesScipy:
    """brent_root is scipy's brentq started from the caller's f(lo), f(hi):
    the same root and, after brentq's two end calls, the same calls."""

    @staticmethod
    def _both(f, lo, hi, args=(), **tol):
        ours, theirs = [], []

        def f_ours(x, *a):
            ours.append(x)
            return f(x, *a)

        def f_theirs(x, *a):
            theirs.append(x)
            return f(x, *a)

        try:
            x_scipy = brentq(f_theirs, lo, hi, args=args, **tol)
        except RuntimeError:
            x_scipy = None
        f_lo, f_hi = f(lo, *args), f(hi, *args)
        try:
            x, fx = brent_root(f_ours, lo, f_lo, hi, f_hi, "the root", args=args, **tol)
        except NumericalError:
            x = fx = None
        assert theirs[:2] == [lo, hi]
        assert ours == theirs[2:]
        assert x == x_scipy
        if ours and x is not None:
            assert fx == f(x, *args)
        return x, ours

    def test_random_cubics_and_tolerances(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 300:
            c = rng.normal(size=4)
            lo, hi = sorted(rng.uniform(-4.0, 4.0, size=2))

            def cubic(x, c0, c1, c2, c3):
                return ((c0 * x + c1) * x + c2) * x + c3

            f_lo, f_hi = cubic(lo, *c), cubic(hi, *c)
            if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) == (f_hi < 0.0):
                continue
            xtol = 10.0 ** rng.uniform(-16.0, -2.0)
            rtol = BRENT_RTOL * 10.0 ** rng.uniform(0.0, 10.0)
            self._both(cubic, lo, hi, args=tuple(c), xtol=xtol, rtol=rtol,
                       maxiter=int(rng.integers(1, 80)))
            checked += 1

    def test_step_map(self):
        for jump in (0.3, 1.0 / 3.0, 0.7071):
            x, _ = self._both(lambda t: 1.0 if t < jump else -1.0, 0.0, 1.0, xtol=1e-13)
            assert abs(x - jump) < 1e-12

    def test_maxiter_exhaustion(self):
        f = math.cos
        for maxiter in (1, 2, 3, 5):
            # it raises where brentq raises RuntimeError, after the same calls
            x, ours = self._both(f, 0.0, 3.0, xtol=1e-15, maxiter=maxiter)
            assert x is None
            assert len(ours) == maxiter
        with pytest.raises(NumericalError, match="did not converge to the root in 3 "):
            brent_root(f, 0.0, 1.0, 3.0, f(3.0), "the root", xtol=1e-15, maxiter=3)

    def test_t_eps_residual(self):
        from hslog import analysis, bliss
        from hslog.functionals import LogParams, ray_terms
        from hslog.radial import dirichlet_norm, make_grid

        ps = validate_params(*P0)
        grid = make_grid(1000, 3.0)
        lp = LogParams(1.0, 0.5)
        u = bliss.bubble_profile(bliss.BubbleSpec(1e-3), grid, ps)
        args = (ray_terms(u, lp, ps), dirichlet_norm(u, ps) ** ps.p, ps.p)
        x, _ = self._both(analysis._stationarity, 0.5, 2.0, args=args, xtol=1e-15,
                          rtol=8.9e-16, maxiter=200)
        assert x == analysis.solve_t_eps(args[0], args[1], ps)

    def test_luxemburg_residual(self):
        from hslog import orlicz
        from hslog.analysis import random_smooth_profile
        from hslog.functionals import LogParams, ray_terms
        from hslog.radial import make_grid

        ps = validate_params(*P0)
        grid = make_grid(1000, 3.0)
        lp = LogParams(1.0, 0.5)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_smooth_profile(grid, rng)
            terms = ray_terms(u, lp, ps)
            lam = orlicz.luxemburg_norm(u, lp, ps)
            lo, hi = 0.5 * lam, 2.0 * lam
            self._both(orlicz._modular_excess, lo, hi, args=(terms,), xtol=1e-15 * lo,
                       rtol=8.9e-16)

    def test_shooting_residual(self):
        from hslog import shooting
        from hslog.functionals import LogParams

        ps = validate_params(*P0)
        self._both(shooting.boundary_value, 20.0, 50.0, args=(LogParams(1.0, 0.5), ps),
                   xtol=1e-12, maxiter=200)


class TestBrentFailures:
    def test_nan_names_the_root(self):
        with pytest.raises(NumericalError, match="residual of the test root is NaN at 0.5"):
            brent_root(lambda x: math.nan, 0.0, 1.0, 1.0, -1.0, "the test root")
        with pytest.raises(NumericalError, match="the test root is NaN"):
            brent_root(lambda x: -x, 0.0, math.nan, 1.0, -1.0, "the test root")

    def test_same_signs_name_the_root(self):
        with pytest.raises(NumericalError, match="bracket .* of the test root holds no"):
            brent_root(lambda x: 1.0, 0.0, 1.0, 1.0, 2.0, "the test root")

    def test_tolerances_as_scipy(self):
        f = math.cos
        with pytest.raises(ValueError, match="xtol too small"):
            brent_root(f, 0.0, 1.0, 3.0, f(3.0), "x", xtol=0.0)
        with pytest.raises(ValueError, match="rtol too small"):
            brent_root(f, 0.0, 1.0, 3.0, f(3.0), "x", rtol=BRENT_RTOL / 2)
        assert BRENT_RTOL == 4 * np.finfo(float).eps
