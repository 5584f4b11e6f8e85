"""Tests for parameter validation and the derived constants."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from hslog.params import (
    ValidationError,
    brent_root,
    check_identities,
    critical_exponent,
    derived_constants,
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


class TestDerivedConstants:
    def test_classical_values(self):
        dc = derived_constants(validate_params(*P0))
        assert dc.p_star == pytest.approx(6.0, abs=1e-14)
        assert dc.s == pytest.approx(0.5, abs=1e-14)
        assert dc.n == pytest.approx(2.0, abs=1e-14)
        assert dc.m == pytest.approx(2.0, abs=1e-14)
        assert dc.c_hat == pytest.approx(3.0**0.25, rel=1e-14)
        assert dc.kappa == pytest.approx(1.0, abs=1e-14)
        assert dc.beta_max == pytest.approx(1.0, abs=1e-14)

    def test_strict_case_values(self):
        dc = derived_constants(validate_params(*P1))
        assert dc.p_star == pytest.approx(7.5, abs=1e-14)
        assert dc.s == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert dc.n == pytest.approx(1.5, abs=1e-14)
        assert dc.m == pytest.approx(1.5, abs=1e-14)
        assert dc.kappa == pytest.approx(1.0, abs=1e-14)
        assert dc.beta_max == pytest.approx(1.0, abs=1e-14)

    def test_identities_exact_for_rational_cases(self):
        for params in (P0, P1):
            report = check_identities(derived_constants(validate_params(*params)))
            assert report.passed
            assert report.max_residual < 1e-12

    def test_injected_fault_detected(self):
        dc = derived_constants(validate_params(*P0))
        broken = dataclasses.replace(dc, s=dc.s + 1e-6)
        report = check_identities(broken)
        assert not report.passed
        assert report.max_residual >= 1e-7

    def test_critical_exponent_helper(self):
        assert critical_exponent(validate_params(*P1)) == pytest.approx(7.5)


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
    residuals = identity_residuals(derived_constants(ps))
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
    dc = derived_constants(ps)
    assert dc.p_star > ps.p
    assert dc.beta_max > 0


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
        x, fx = brent_root(f, 2.0, f(2.0, 5.0), 3.0, f(3.0, 5.0), args=(5.0,), xtol=1e-14)
        assert len(calls) == len(set(calls))
        assert x == brentq(lambda t: t**3 - 2.0 * t - 5.0, 2.0, 3.0, xtol=1e-14)
        assert fx == x**3 - 2.0 * x - 5.0

    def test_returns_the_stored_value_at_the_root(self):
        # a step map: brentq closes in on the jump, where |f| stays 1
        x, fx = brent_root(lambda t: 1.0 if t < 0.3 else -1.0, 0.0, 1.0, 1.0, -1.0)
        assert x == pytest.approx(0.3, abs=1e-11)
        assert fx == (1.0 if x < 0.3 else -1.0)

    def test_zero_at_a_bracket_end_needs_no_call(self):
        calls = []
        assert brent_root(self._recording(calls), 1.0, 0.0, 3.0, 22.0, args=(-1.0,)) == (1.0, 0.0)
        assert calls == []
