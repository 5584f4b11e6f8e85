"""Tests for parameter validation and the derived constants."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from hslog.params import (
    ValidationError,
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
