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
    bracket_decreasing,
    brent_root,
    check_identities,
    identity_residuals,
    log_residual,
    validate_params,
)


P0 = (2.0, 2.0, 2.0, 2.0)
P1 = (3.0, 2.0, 4.0, 4.0)
EPS = np.finfo(float).eps


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
        # r(x) = ln ||u||^p - (p*-p) x - ln S(e^x), from solve_t_eps's own
        # bracket: x = 0 and the power-law point
        from hslog import analysis, bliss
        from hslog.functionals import LogParams
        from hslog.radial import dirichlet_norm, make_grid
        from helpers import grid_ray_terms

        ps = validate_params(*P0)
        grid = make_grid(1000, 3.0)
        lp = LogParams(1.0, 0.5)
        u = bliss.bubble_profile(bliss.BubbleSpec(1e-3), grid, ps)
        args = (grid_ray_terms(u, lp, ps), dirichlet_norm(u, ps) ** ps.p, ps.p)
        r0 = analysis._log_stationarity(0.0, *args)
        lo, hi = sorted([0.0, r0 / (ps.p_star - ps.p)])
        x, _ = self._both(analysis._log_stationarity, lo, hi, args=args, xtol=2e-16,
                          rtol=8.9e-16, maxiter=200)
        assert math.exp(x) == analysis.solve_t_eps(args[0], args[1], ps)
        # and from a bracket of x* -+ ln 2, with more steps inside
        self._both(analysis._log_stationarity, x - math.log(2.0), x + math.log(2.0),
                   args=args, xtol=2e-16, rtol=8.9e-16, maxiter=200)

    def test_luxemburg_residual(self):
        # g(y) = ln rho(u/e^y), from luxemburg_norm's own bracket: y0 = ln
        # lambda0 and the power-law point
        from hslog import orlicz
        from hslog.functionals import LogParams
        from hslog.radial import make_grid
        from helpers import grid_ray_terms, random_smooth_profile

        ps = validate_params(*P0)
        grid = make_grid(1000, 3.0)
        lp = LogParams(1.0, 0.5)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_smooth_profile(grid, rng)
            terms = grid_ray_terms(u, lp, ps)
            y0 = math.log(np.einsum("i->", terms.w)) / ps.p_star
            y1 = y0 + orlicz._log_modular(y0, terms) / ps.p_star
            lo, hi = sorted([y0, y1])
            y, _ = self._both(orlicz._log_modular, lo, hi, args=(terms,), xtol=2e-16,
                              rtol=8.9e-16)
            assert math.exp(y) == orlicz.luxemburg_norm(u, lp, ps)
            self._both(orlicz._log_modular, y - math.log(2.0), y + math.log(2.0),
                       args=(terms,), xtol=2e-16, rtol=8.9e-16)

    def test_shooting_residual(self):
        from hslog import shooting
        from hslog.functionals import LogParams

        ps = validate_params(*P0)
        self._both(lambda a, *args: shooting.ivp_integrate(a, *args).u, 20.0, 50.0,
                   args=(LogParams(1.0, 0.5), ps),
                   xtol=1e-12, maxiter=200)


class TestLogRootsMatchTheLinearOnes:
    """The roots taken in log coordinates agree within 4 ulp with scipy's
    brentq on the residuals in the unknown itself: rho(u/lambda) - 1 in
    lambda, and d/dt I(t u) in t from (0.5, 2)."""

    @staticmethod
    def _assert_within_4_ulp(ours, theirs):
        for a, b in zip(ours, theirs, strict=True):
            assert abs(a - b) <= 4.0 * np.spacing(max(a, b)), (a, b)

    @pytest.mark.parametrize("params", [P0, P1])
    def test_luxemburg_norm(self, params):
        # profiles of the kinds `orlicz` reads on the README config: 100 random, 6 bubbles
        from hslog import bliss, orlicz
        from hslog.functionals import LogParams
        from hslog.radial import make_grid
        from helpers import grid_ray_terms, random_smooth_profile

        ps = validate_params(*params)
        grid = make_grid(2000, 3.0)
        lp = LogParams(1.0, 0.5)
        rng = np.random.default_rng(2024)
        profiles = [random_smooth_profile(grid, rng) for _ in range(100)]
        profiles += [bliss.bubble_profile(bliss.BubbleSpec(eps, ps.a_hat), grid, ps)
                     for eps in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5)]
        ours, theirs = [], []
        for u in profiles:
            terms = grid_ray_terms(u, lp, ps)
            lam0 = np.einsum("i->", terms.w) ** (1.0 / ps.p_star)
            theirs.append(brentq(lambda lam: orlicz.modular(terms, lam) - 1.0, 0.5 * lam0,
                                 2.0 * lam0, xtol=5e-16 * lam0, rtol=8.9e-16))
            ours.append(orlicz.luxemburg_norm(u, lp, ps))
        self._assert_within_4_ulp(ours, theirs)

    @pytest.mark.parametrize("params", [P0, P1])
    def test_t_eps(self, params):
        from hslog import analysis, bliss
        from hslog.functionals import LogParams, ray_sum, ray_terms

        ps = validate_params(*params)
        lp = LogParams(1.0, 0.5)
        ours, theirs = [], []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            bubble = bliss.bubble_nodes(bliss.BubbleSpec(eps, ps.a_hat), ps)
            terms = ray_terms(bubble.nodes, bubble.u, lp, ps)

            def dI(t):
                return (t ** (ps.p - 1.0) * bubble.norm_p
                        - t ** (ps.p_star - 1.0) * ray_sum(terms, t))

            theirs.append(brentq(dI, 0.5, 2.0, xtol=1e-15, rtol=8.9e-16, maxiter=200))
            ours.append(analysis.solve_t_eps(terms, bubble.norm_p, ps))
        self._assert_within_4_ulp(ours, theirs)


class TestLogResidual:
    def test_zero_within_4_ulp_of_one(self):
        for q in (1.0, 1.0 + 4 * EPS, 1.0 - 4 * EPS, 1.0 - 8 * (EPS / 2)):
            assert log_residual(q) == 0.0
        for q in (1.0 + 5 * EPS, 1.0 - 9 * (EPS / 2), 2.0, 0.5):
            assert log_residual(q) == math.log(q) != 0.0

    def test_zero_nan_and_inf(self):
        # an underflowing ratio reads -inf, not math.log's ValueError
        assert log_residual(0.0) == -math.inf
        assert log_residual(math.inf) == math.inf
        assert math.isnan(log_residual(math.nan))


class TestBracketDecreasing:
    def test_widens_by_ln_2(self):
        # f(x) = c - x: each step moves an end by ln 2, halving or doubling e^x
        calls = []

        def f(x, c):
            calls.append(x)
            return c - x

        lo, f_lo, hi, f_hi = bracket_decreasing(f, 0.0, -3.0, 0.5, -2.5, "x", args=(-3.0,))
        assert calls == pytest.approx([-math.log(2.0) * k for k in range(1, 6)], abs=1e-15)
        assert (lo, f_lo, hi, f_hi) == (calls[-1], -3.0 - calls[-1], 0.5, -2.5)
        calls.clear()
        lo, f_lo, hi, f_hi = bracket_decreasing(f, 0.0, 2.0, 0.5, 1.5, "x", args=(2.0,))
        assert calls == pytest.approx([0.5 + math.log(2.0) * k for k in range(1, 4)], abs=1e-15)
        assert (lo, f_lo, hi, f_hi) == (0.0, 2.0, calls[-1], 2.0 - calls[-1])

    @pytest.mark.parametrize("value,side", [(1.0, "above"), (-1.0, "below")])
    def test_gives_up_after_199_steps(self, value, side):
        calls = []
        with pytest.raises(NumericalError, match=f"could not bracket the test root from {side}"):
            bracket_decreasing(lambda x: calls.append(x) or value, 0.0, value, 1.0, value,
                               "the test root")
        assert len(calls) == 199


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
