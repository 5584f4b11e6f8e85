"""Tests for grids, quadrature, norms, and the pointwise decay bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hslog.params import ValidationError, validate_params
from hslog.radial import (
    Profile,
    dirichlet_norm,
    lq_norm,
    make_grid,
    normalize,
    pointwise_bound_check,
    profile_from_csv,
    profile_to_csv,
    weighted_integral,
    weighted_integral_between,
)

P0 = validate_params(2, 2, 2, 2)


class TestMakeGrid:
    def test_uniform(self):
        g = make_grid(4, 1.0)
        assert np.allclose(g.nodes, [0.25, 0.5, 0.75, 1.0])

    def test_squares(self):
        g = make_grid(4, 2.0)
        assert np.allclose(g.nodes, [0.0625, 0.25, 0.5625, 1.0])

    def test_cubic_grading_first_node(self):
        g = make_grid(2000, 3.0)
        assert g.m == 2000
        assert g.r1 == pytest.approx((1.0 / 2000.0) ** 3, rel=1e-14)
        assert g.nodes[-1] == 1.0
        assert np.all(np.diff(g.nodes) > 0)

    def test_too_small(self):
        with pytest.raises(ValidationError, match="at least 2"):
            make_grid(1, 1.0)

    def test_bad_gamma(self):
        with pytest.raises(ValidationError):
            make_grid(16, 0.5)

    def test_node_power_cached_and_exact(self):
        g = make_grid(16000, 3.0)
        for b in (0.3, 1.0 / 3.0, 0.5, 1, 2, 16):
            e = g.node_power(b)
            assert g.node_power(b) is e
            assert np.array_equal(e, g.nodes**b)
            for k in (1, 7, 11777, 15999):
                assert np.array_equal(e[:k], g.nodes[:k] ** b)

    def test_sine_mode_cached_read_only_and_exact(self):
        g = make_grid(2000, 3.0)
        for k in (1, 2, 7):
            mode = g.sine_mode(k)
            assert g.sine_mode(k) is mode
            assert np.array_equal(mode, np.sin(k * np.pi * (1.0 - g.nodes)))
            assert mode[-1] == 0.0
            with pytest.raises(ValueError):
                mode[0] = 1.0


class TestWeightedIntegral:
    def test_monomial(self):
        g = make_grid(64, 1.0)
        assert weighted_integral(g, np.ones(g.m), 2.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_beta_function_identity(self):
        # int r^2 (1-r)^6 dr = B(3,7) = 2! 6! / 9! = 1/252
        g = make_grid(2000, 1.0)
        val = weighted_integral(g, (1.0 - g.nodes) ** 6, 2.0)
        assert val == pytest.approx(1 / 252, abs=1e-8)

    def test_zero(self):
        g = make_grid(32, 2.0)
        assert weighted_integral(g, np.zeros(g.m), 2.0) == 0.0

    def test_singular_weight_integrable(self):
        # int_0^1 r^(-1/2) dr = 2, constant-extension cell included
        g = make_grid(4000, 3.0)
        assert weighted_integral(g, np.ones(g.m), -0.5) == pytest.approx(2.0, rel=1e-6)

    def test_nonintegrable_weight_rejected(self):
        g = make_grid(32, 1.0)
        with pytest.raises(ValidationError, match="> -1"):
            weighted_integral(g, np.ones(g.m), -1.0)

    def test_refinement_convergence_second_order(self):
        errs = []
        for m in (250, 500, 1000, 2000):
            g = make_grid(m, 1.0)
            errs.append(abs(weighted_integral(g, (1 - g.nodes) ** 6, 2.0) - 1 / 252))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
        assert all(o > 1.8 for o in orders)

    def test_constant_integrand_exact_at_any_resolution(self):
        # degree-2 product, exact per cell; only rounding remains
        for m in (128, 256, 512):
            g = make_grid(m, 1.0)
            assert abs(weighted_integral(g, np.ones(g.m), 2.0) - 1 / 3) < 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=8, max_value=40), st.floats(min_value=1.0, max_value=3.0),
       st.floats(min_value=0.0, max_value=3.0), st.integers(min_value=0, max_value=2**31 - 1))
def test_weighted_integral_linear_and_monotone(m, gamma, w, seed):
    g = make_grid(m, gamma)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=m)
    h = rng.normal(size=m)
    a, b = rng.normal(), rng.normal()
    lhs = weighted_integral(g, a * f + b * h, w)
    rhs = a * weighted_integral(g, f, w) + b * weighted_integral(g, h, w)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    bigger = f + np.abs(h)
    assert weighted_integral(g, bigger, w) >= weighted_integral(g, f, w) - 1e-14


class TestSegmentIntegral:
    def test_matches_full_interval(self):
        g = make_grid(200, 2.0)
        f = np.cos(g.nodes)
        full = weighted_integral_between(g, f, 2.0, 0.0, 1.0)
        assert full == pytest.approx(weighted_integral(g, f, 2.0), rel=1e-9)

    def test_additive_over_splits(self):
        g = make_grid(300, 3.0)
        rng = np.random.default_rng(3)
        f = rng.normal(size=g.m)
        for a, c, b in ((0.0, 0.3, 1.0), (0.1, 0.123456, 0.9), (0.0, 1e-4, 0.5)):
            whole = weighted_integral_between(g, f, 2.0, a, b)
            parts = (weighted_integral_between(g, f, 2.0, a, c)
                     + weighted_integral_between(g, f, 2.0, c, b))
            assert abs(whole - parts) < 1e-12


class TestProfile:
    def test_wrong_shape_rejected(self):
        g = make_grid(64, 1.0)
        with pytest.raises(ValidationError, match="needs 64 values"):
            Profile(g, np.zeros(63))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        g = make_grid(64, 1.0)
        vals = np.zeros(g.m)
        vals[17] = bad
        with pytest.raises(ValidationError, match="finite"):
            Profile(g, vals)

    @pytest.mark.parametrize("c", [2.5, -3.0, 0.0, 1e-300])
    def test_scaled_copy(self, c):
        g = make_grid(128, 2.0)
        u = Profile(g, np.random.default_rng(4).normal(size=g.m))
        v = u.scaled(c)
        assert np.array_equal(v.values, c * u.values)
        assert v.grid is g

    def test_scaled_rejects_a_finite_factor_that_overflows(self):
        g = make_grid(64, 1.0)
        vals = np.linspace(-3e10, 1e10, g.m)
        u = Profile(g, vals)
        with (pytest.raises(ValidationError, match="not finite"),
              pytest.warns(RuntimeWarning, match="overflow")):
            u.scaled(1e300)
        for c in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="not finite"):
                u.scaled(c)
        with (pytest.raises(ValidationError, match="not finite"),
              pytest.warns(RuntimeWarning, match="invalid value")):
            Profile(g, np.zeros(g.m)).scaled(math.inf)     # inf * 0 is nan
        # at the edge of the double range, rejected exactly when some c u_i overflows
        edge = np.finfo(float).max / 3e10
        for c in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf), -edge):
            c = float(c)
            with np.errstate(over="ignore"):
                overflows = not np.all(np.isfinite(c * vals))
            if overflows:
                with (pytest.raises(ValidationError),
                      pytest.warns(RuntimeWarning, match="overflow")):
                    u.scaled(c)
            else:
                assert np.all(np.isfinite(u.scaled(c).values))


class TestDirichletNorm:
    def test_linear_profile(self):
        g = make_grid(2000, 3.0)
        u = Profile(g, 1.0 - g.nodes)
        assert dirichlet_norm(u, P0) == pytest.approx((1 / 3) ** 0.5, rel=1e-9)

    def test_zero(self):
        g = make_grid(64, 1.0)
        assert dirichlet_norm(Profile(g, np.zeros(g.m)), P0) == 0.0

    def test_homogeneity(self):
        g = make_grid(128, 2.0)
        rng = np.random.default_rng(0)
        u = Profile(g, rng.normal(size=g.m))
        assert dirichlet_norm(u.scaled(2.0), P0) == pytest.approx(
            2.0 * dirichlet_norm(u, P0), rel=1e-13)


class TestLqNorm:
    def test_linear_profile(self):
        g = make_grid(2000, 1.0)
        u = Profile(g, 1.0 - g.nodes)
        assert lq_norm(u, 6.0, 2.0) == pytest.approx((1 / 252) ** (1 / 6), rel=5e-7)

    def test_zero(self):
        g = make_grid(64, 1.0)
        assert lq_norm(Profile(g, np.zeros(g.m)), 6.0, 2.0) == 0.0

    def test_scaling(self):
        g = make_grid(128, 2.0)
        rng = np.random.default_rng(1)
        u = Profile(g, rng.normal(size=g.m))
        assert lq_norm(u.scaled(-3.0), 4.0, 2.0) == pytest.approx(
            3.0 * lq_norm(u, 4.0, 2.0), rel=1e-12)


class TestPointwiseBound:
    def test_linear_profile_at_half(self):
        # bound(0.5) = (0.5)^(1/2) ||u|| (0.5)^(-1/2) = ||u|| = 0.577350...
        g = make_grid(2000, 1.0)
        u = Profile(g, 1.0 - g.nodes)
        report = pointwise_bound_check(u, P0)
        assert report.passed
        nrm = dirichlet_norm(u, P0)
        r = 0.5
        bound = ((1 - r) ** 0.5) * nrm * r ** (-0.5)
        assert bound == pytest.approx(0.5773502691896258, rel=1e-9)
        assert bound >= 0.5

    def test_zero_profile(self):
        g = make_grid(64, 1.0)
        report = pointwise_bound_check(Profile(g, np.zeros(g.m)), P0)
        assert report.passed
        assert report.worst_slack == 0.0

    def test_normalized_random_profiles_pass(self):
        g = make_grid(1000, 3.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.normal(size=g.m)
            vals[-1] = 0.0
            u = normalize(Profile(g, vals), P0)
            assert pointwise_bound_check(u, P0).worst_slack >= -1e-12


class TestNormalize:
    def test_linear_profile_scale(self):
        g = make_grid(2000, 3.0)
        u = normalize(Profile(g, 1.0 - g.nodes), P0)
        assert dirichlet_norm(u, P0) == pytest.approx(1.0, abs=1e-14)
        assert u.values[0] == pytest.approx((1.0 - g.r1) * 3**0.5, rel=1e-9)

    def test_unit_profile_unchanged(self):
        g = make_grid(500, 2.0)
        u = normalize(Profile(g, np.sin(math.pi * (1 - g.nodes))), P0)
        again = normalize(u, P0)
        assert np.max(np.abs(again.values - u.values)) < 1e-14

    def test_zero_rejected(self):
        g = make_grid(64, 1.0)
        with pytest.raises(ValidationError, match="zero"):
            normalize(Profile(g, np.zeros(g.m)), P0)


class TestCsvRoundTrip:
    def test_round_trip(self):
        g = make_grid(50, 2.0)
        rng = np.random.default_rng(9)
        u = Profile(g, rng.normal(size=g.m))
        text = profile_to_csv(u)
        assert text.startswith("r,u\n")
        v = profile_from_csv(text)
        assert np.allclose(v.grid.nodes, g.nodes, rtol=1e-11)
        assert np.allclose(v.values, u.values, rtol=1e-11, atol=1e-14)

    def test_header_required(self):
        with pytest.raises(ValidationError, match="header"):
            profile_from_csv("x,y\n0.5,1.0\n1.0,0.0\n")

    def test_malformed_row_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            profile_from_csv("r,u\n0.5,abc\n1.0,0.0\n")
