"""Tests for grids, quadrature, norms, and the pointwise decay bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hslog.params import ValidationError, validate_params
from hslog.radial import (
    Profile,
    dirichlet_norm,
    dirichlet_pairing,
    make_grid,
    pairing_factors,
    pointwise_bound_check,
    profile_to_csv,
    weighted_integral,
)

from helpers import normalize

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

    @pytest.mark.parametrize("nonzero", [(), (0,), (63,), (0, 63), (5, 6, 40), (17,),
                                         tuple(range(64))])
    def test_support_end_is_one_past_the_last_nonzero(self, nonzero):
        g = make_grid(64, 1.0)
        vals = np.full(g.m, -0.0)     # a signed zero counts as zero
        vals[list(nonzero)] = np.linspace(-2.0, -1.0, len(nonzero))
        # the reversed-argmax formula it replaced
        nz = vals != 0.0
        expected = g.m - int(np.argmax(nz[::-1])) if nz.any() else 0
        assert Profile(g, vals).support_end() == expected == (max(nonzero, default=-1) + 1)


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
        assert dirichlet_norm(Profile(g, 2.0 * u.values), P0) == pytest.approx(
            2.0 * dirichlet_norm(u, P0), rel=1e-13)


class TestDirichletPairing:
    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4), (1.5, 1, 1, 1)])
    def test_factors_are_the_plain_formula(self, pv):
        # mom sign(u') |u'|^(p-1), zero slopes included, bit for bit
        ps = validate_params(*pv)
        g = make_grid(500, 3.0)
        vals = np.random.default_rng(4).normal(size=g.m)
        vals[100:140] = 0.25
        u = Profile(g, vals)
        s = u.slopes()
        plain = g.cell_moments(ps.alpha1) * np.sign(s) * np.abs(s) ** (ps.p - 1.0)
        factors = pairing_factors(u, ps)
        assert np.array_equal(factors, plain)
        v = np.random.default_rng(5).normal(size=g.m)
        assert dirichlet_pairing(factors, v, g) == float(np.sum(plain * Profile(g, v).slopes()))


class TestTrimmedDirichlet:
    """With n, the Dirichlet norm, the pairing factors it writes and the
    pairing form the terms of the first n - 1 cells only, and the sums keep
    the bits of the full ones."""

    @pytest.mark.parametrize("zeros_from", [1, 700, 1999, 2000])
    def test_bit_identical_to_full(self, zeros_from):
        g = make_grid(2000, 3.0)
        rng = np.random.default_rng(9)
        u_vals, v_vals = rng.normal(size=(2, g.m))
        u_vals[zeros_from:] = 0.0
        v_vals[zeros_from:] = 0.0
        u = Profile(g, u_vals)
        for ps in (P0, validate_params(3, 2, 4, 4)):
            for n in {min(zeros_from + 1, g.m), g.m}:
                # stale work arrays: the cells past n are written as 0
                work = np.full((2, g.m - 1), np.nan)
                factors = pairing_factors(u, ps)
                assert dirichlet_norm(u, ps, work[0], n, work[1]) == dirichlet_norm(u, ps)
                assert np.array_equal(work[1][:n - 1], factors[:n - 1])
                assert (dirichlet_pairing(work[1], v_vals, g, work[0], n)
                        == dirichlet_pairing(factors, v_vals, g))
                assert not np.any(work[0][n - 1:])

    def test_slopes_past_n_are_zero(self):
        g = make_grid(64, 2.0)
        vals = np.linspace(1.0, 0.0, g.m)
        vals[40:] = 0.0
        full = Profile(g, vals).slopes()
        out = np.full(g.m - 1, np.nan)
        assert np.array_equal(Profile(g, vals).slopes(out, 41), full)


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


class TestCsvRoundTrip:
    def test_round_trip(self):
        # the r,u header, then one row per node in 12 significant digits
        g = make_grid(50, 2.0)
        rng = np.random.default_rng(9)
        u = Profile(g, rng.normal(size=g.m))
        header, *rows = profile_to_csv(u).splitlines()
        assert header == "r,u"
        assert rows == [f"{r:.12g},{v:.12g}" for r, v in zip(g.nodes, u.values)]
        back = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert np.allclose(back[:, 0], g.nodes, rtol=1e-11)
        assert np.allclose(back[:, 1], u.values, rtol=1e-11, atol=1e-14)
