"""Tests for the extremal family, best constants, and concentration pieces."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from hslog import bliss
from hslog.functionals import LogParams
from hslog.params import (
    NumericalError,
    ValidationError,
    derived_constants,
    validate_params,
)
from hslog.radial import Profile, dirichlet_norm, make_grid

P0 = validate_params(2, 2, 2, 2)
P1 = validate_params(3, 2, 4, 4)
DC0 = derived_constants(P0)
DC1 = derived_constants(P1)


class TestBlissValue:
    def test_center_value(self):
        assert bliss.bliss_value(1.0, 0.0, DC0) == pytest.approx(3**0.25, rel=1e-14)

    def test_unit_radius(self):
        assert bliss.bliss_value(1.0, 1.0, DC0) == pytest.approx(
            3**0.25 / 2**0.5, rel=1e-14)

    def test_scaling_law(self):
        # u*_eps(r) = eps^(-(a1-p+1)/p) u*_1(r/eps)
        eps = 1e-3
        for r in (1e-4, 1e-3, 0.1, 1.0):
            lhs = bliss.bliss_value(eps, r, DC0)
            rhs = eps ** (-0.5) * bliss.bliss_value(1.0, r / eps, DC0)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_strictly_decreasing(self):
        r = np.linspace(0, 3, 100)
        v = bliss.bliss_value(0.5, r, DC1)
        assert np.all(np.diff(v) < 0)


class TestBubbleProfile:
    def test_boundary_zero_and_plateau(self):
        g = make_grid(2000, 3.0)
        spec = bliss.BubbleSpec(1e-3, 0.7, 0.2)
        u = bliss.bubble_profile(spec, g, DC0)
        assert u.values[-1] == 0.0
        inside = g.nodes <= 0.2
        expect = 0.7 * bliss.bliss_value(1e-3, g.nodes[inside], DC0)
        assert np.allclose(u.values[inside], expect, rtol=1e-14)
        assert np.all(u.values[g.nodes >= 0.4] == 0.0)

    def test_grid_too_coarse(self):
        g = make_grid(16, 1.0)
        with pytest.raises(ValidationError, match="too coarse"):
            bliss.bubble_profile(bliss.BubbleSpec(1e-4, 1.0, 0.2), g, DC0)

    def test_normalized_amplitude_gives_near_unit_norm(self):
        g = make_grid(4000, 3.0)
        rep = bliss.compute_S(DC0)
        a_hat = rep.a_hat
        for eps in (1e-3, 1e-4):
            u = bliss.bubble_profile(bliss.BubbleSpec(eps, a_hat, 0.2), g, DC0)
            dev = dirichlet_norm(u, P0) ** 2 - 1.0
            assert abs(dev) < 30 * eps    # = O(eps^(s p))


class TestComputeS:
    def test_classical_closed_forms(self):
        rep = bliss.compute_S(DC0)
        assert rep.S_power == pytest.approx(3**1.5 * math.pi / 16, rel=1e-10)
        assert rep.sigma_p == pytest.approx(256 / (27 * math.pi**2), rel=1e-10)
        assert rep.rel_disagreement < 1e-6

    def test_two_integrals_agree_for_p1(self):
        rep = bliss.compute_S(DC1)
        assert rep.rel_disagreement < 1e-6

    def test_two_integrals_agree_for_random_params(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            p = rng.uniform(1.3, 3.5)
            alpha1 = p - 1 + rng.uniform(0.2, 3.0)
            alpha0 = max(alpha1 - p, 0.0) + rng.uniform(0.0, 2.0)
            theta = max(alpha1 - p, 0.0) + rng.uniform(0.1, 3.0)
            dc = derived_constants(validate_params(p, alpha0, alpha1, theta))
            rep = bliss.compute_S(dc)
            assert rep.rel_disagreement < 1e-6

    def test_closed_form_within_one_ulp_of_exact(self):
        exact = 3**1.5 * math.pi / 16
        assert abs(bliss.compute_S(DC0).S_power - exact) <= math.ulp(exact)

    def test_closed_form_matches_both_quadratures(self):
        # each integral by quad, split as compute_S's integrals are, with
        # quad's own error estimate: where quad is off by more than 1e-12,
        # its estimate says so
        def full_line(f):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
                head, e1 = scipy.integrate.quad(f, 0.0, 1.0, limit=400, epsabs=1e-12,
                                                epsrel=1e-12)
                tail, e2 = scipy.integrate.quad(lambda v: f(1.0 / v) / v**2, 1e-14, 1.0,
                                                limit=400, epsabs=1e-12, epsrel=1e-12)
            return head + tail, e1 + e2

        rng = np.random.default_rng(77)
        tuples = [(2, 2, 2, 2), (3, 2, 4, 4)]
        for _ in range(10):
            p = rng.uniform(1.3, 3.5)
            alpha1 = p - 1 + rng.uniform(0.2, 3.0)
            tuples.append((p, max(alpha1 - p, 0.0) + rng.uniform(0.0, 2.0), alpha1,
                           max(alpha1 - p, 0.0) + rng.uniform(0.1, 3.0)))
        for t in tuples:
            dc = derived_constants(validate_params(*t))
            ps, p_star = dc.params, dc.p_star
            s_power = bliss.compute_S(dc).S_power
            for f in (lambda r: r**ps.theta * bliss.bliss_value(1.0, r, dc) ** p_star,
                      lambda r: r**ps.alpha1 * abs(bliss.bliss_deriv(1.0, r, dc)) ** ps.p):
                value, err = full_line(f)
                assert abs(s_power - value) <= 1e-12 * s_power + err

    def test_integrals_are_computed_only_when_read(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("quad called")

        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        rep = bliss.compute_S(DC1)
        assert rep.S > 0 and rep.sigma_p > 0 and rep.a_hat > 0
        with pytest.raises(AssertionError, match="quad called"):
            rep.pstar_integral

    def test_sigma_exponent_forms_identical(self):
        # S^(-p*/p) and S^(-(theta+1)/(alpha1-p+1)) are the same exponent
        for dc in (DC0, DC1):
            ps = dc.params
            rep = bliss.compute_S(dc)
            alt = rep.S ** (-(ps.theta + 1) / (ps.alpha1 - ps.p + 1))
            assert rep.sigma_p == pytest.approx(alt, rel=1e-12)


class TestNormScan:
    def test_fitted_exponents(self):
        eps_list = (1e-2, 1e-3, 1e-4, 1e-5)
        table_d, table_l = bliss.bubble_norm_scan(eps_list, DC0)
        assert abs(table_d.fitted_exponent - 1.0) <= 0.10
        assert abs(table_l.fitted_exponent - 3.0) <= 0.45
        # deviations positive and decreasing as eps shrinks
        assert all(v > 0 for v in table_d.ordinates)
        assert all(v > 0 for v in table_l.ordinates)
        assert np.all(np.diff(table_d.ordinates) < 0)
        assert np.all(np.diff(table_l.ordinates) < 0)

    def test_dirichlet_deviation_sign(self):
        # the cutoff adds more gradient than the tail removes
        assert bliss.bubble_dirichlet_deviation(1e-3, DC0) > 0
        # truncation only loses critical-integral mass
        assert bliss.bubble_lpstar_deviation(1e-3, DC0) < 0

    @pytest.mark.parametrize("deviation", [bliss.bubble_dirichlet_deviation,
                                           bliss.bubble_lpstar_deviation])
    def test_unconverged_quadrature_raises(self, deviation, monkeypatch):
        # the deviations import quad at their call, from scipy.integrate
        real_quad = scipy.integrate.quad
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *a, **k: (real_quad(*a, **k)[0], 1e-3))
        with pytest.raises(NumericalError, match=r"eps=0\.001, r0=0\.2"):
            deviation(1e-3, DC0)


class TestConcentrationFunctional:
    LP = LogParams(1.0, 0.5)

    def test_zero_profile_region(self):
        g = make_grid(1000, 3.0)
        u = bliss.bubble_profile(bliss.BubbleSpec(1e-3, 1.0, 0.2), g, DC0)
        # support ends at 2 r0 = 0.4
        assert bliss.concentration_E(0.5, 1.0, u, self.LP, P0) == 0.0

    def test_unit_log_region_contributes_nothing(self):
        g = make_grid(256, 1.0)
        u = Profile(g, np.full(g.m, math.e - 1.0))
        assert bliss.concentration_E(0.2, 0.8, u, self.LP, P0) == pytest.approx(
            0.0, abs=1e-15)

    def test_three_way_additivity(self):
        g = make_grid(2000, 3.0)
        u = bliss.bubble_profile(bliss.BubbleSpec(1e-3, 1.0, 0.2), g, DC0)
        parts = (bliss.concentration_E(0.0, 3e-3, u, self.LP, P0)
                 + bliss.concentration_E(3e-3, 0.15, u, self.LP, P0)
                 + bliss.concentration_E(0.15, 1.0, u, self.LP, P0))
        whole = bliss.concentration_E(0.0, 1.0, u, self.LP, P0)
        assert abs(whole - parts) < 1e-12

    def test_grows_like_the_lower_bound(self):
        from hslog.analysis import rate_fit

        g = make_grid(4000, 3.0)
        rows = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            u = bliss.bubble_profile(bliss.BubbleSpec(eps, 1.0, 0.2), g, DC0)
            rows.append((eps, bliss.concentration_E(0.0, 1.0, u, self.LP, P0)))
        table = rate_fit(rows, model="power-times-loglog")
        assert all(v > 0 for v in table.ordinates)
        assert abs(table.fitted_exponent - 0.5) <= 0.15 * 0.5
