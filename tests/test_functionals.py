"""Tests for the log-perturbed functionals and the energy."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from hslog import bliss, functionals
from hslog.functionals import (
    _F_BLOCK,
    F_nodes,
    J,
    JNodes,
    LogParams,
    energy_I,
    energy_pairing,
    log_factor_nodes,
    pairing_terms,
    ray_sum,
    ray_terms,
)
from hslog.params import ValidationError, validate_params
from hslog.radial import _GL16_W, _GL16_X, Profile, dirichlet_norm, make_grid, weighted_integral

from helpers import normalize

P0 = validate_params(2, 2, 2, 2)
P1 = validate_params(3, 2, 4, 4)


def linear_profile(m=2000, gamma=1.0):
    g = make_grid(m, gamma)
    return Profile(g, 1.0 - g.nodes)


def log_factor(r, u, lp):
    return log_factor_nodes(np.array([r]) ** lp.beta, np.array([u]), lp)[0]


class TestLogFactor:
    def test_origin_is_one(self):
        assert log_factor(0.0, 123.4, LogParams(1.0, 1.0)) == 1.0
        assert log_factor(0.0, 0.0, LogParams(1.0, 2.0)) == 1.0

    def test_unit_log(self):
        # u = e-1, tau = 1: |ln e| = 1, any positive exponent gives 1
        assert log_factor(0.5, math.e - 1.0, LogParams(1.0, 1.0)) == pytest.approx(1.0)

    def test_zero_log_positive_radius(self):
        assert log_factor(0.5, 0.0, LogParams(1.0, 1.0)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=1.0, max_value=10.0))
    def test_nondecreasing_in_magnitude_for_tau_ge_1(self, r, u, du, tau):
        lp = LogParams(tau, 0.7)
        assert log_factor(r, u + du, lp) >= log_factor(r, u, lp) - 1e-12


class TestJ:
    def test_zero_profile(self):
        u = linear_profile(64)
        z = Profile(u.grid, np.zeros(u.grid.m))
        # at tau = 0.5 the log factor |ln tau|^(r^beta) is nonzero where u = 0
        for lp in (LogParams(1.0, 0.5), LogParams(0.5, 0.5)):
            assert J(z, lp, P0) == 0.0

    def test_against_independent_quadrature(self):
        # reference from adaptive quadrature of r^2 (1-r)^6 ln(tau+1-r)^r dr
        # at rel tol 1e-12; tau = e^e - 1 keeps the log above e on [0,1]
        u = linear_profile(20000)
        tau = math.exp(math.e) - 1.0
        val = J(u, LogParams(tau, 1.0), P0)
        assert val == pytest.approx(0.005392718092933142, abs=1e-9)

    def test_reduces_to_critical_integral_when_factor_is_one(self):
        # constant profile at e - tau makes |ln(tau+|u|)| identically 1
        g = make_grid(64, 1.0)
        u = Profile(g, np.full(g.m, math.e - 1.0))
        lp = LogParams(1.0, 0.7)
        assert J(u, lp, P0) == pytest.approx(J(u, None, P0), rel=1e-14)

    def test_exceeds_critical_integral_for_tau_ge_e(self):
        g = make_grid(512, 2.0)
        rng = np.random.default_rng(11)
        u = Profile(g, rng.normal(size=g.m))
        lp = LogParams(math.e, 0.5)
        assert J(u, lp, P0) >= J(u, None, P0) - 1e-12


class TestSobolevJ0:
    def test_linear_profile(self):
        assert J(linear_profile(2000), None, P0) == pytest.approx(1 / 252, abs=1e-8)

    def test_zero(self):
        g = make_grid(64, 1.0)
        assert J(Profile(g, np.zeros(g.m)), None, P0) == 0.0


class TestPrimitiveF:
    LP = LogParams(1.0, 0.5)

    @pytest.mark.parametrize("ps", [P0, P1, validate_params(2.5, 1.0, 3.0, 2.5)])
    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(2.0, 1.0)])
    def test_derivative_is_the_source(self, ps, lp):
        # d_a F(r, a) = a^(p*-1) ln(tau+a)^(r^beta), the right-hand side of the BVP
        p_star = ps.p_star
        r = np.repeat([1e-6, 0.1, 0.5, 0.9], 4)
        a = np.tile([0.05, 0.8, 3.0, 25.0], 4)
        h = 1e-5 * a
        e = r**lp.beta
        fd = (F_nodes(e, a + h, lp, ps) - F_nodes(e, a - h, lp, ps)) / (2 * h)
        source = a ** (p_star - 1.0) * np.log(lp.tau + a) ** e
        np.testing.assert_allclose(fd, source, rtol=1e-7)

    def test_even_in_state(self):
        e = np.array([0.0, 0.3, 0.3, 0.7, 1.0]) ** self.LP.beta
        u = np.array([2.0, 0.5, 9.0, 1.3, 4.0])
        assert np.array_equal(F_nodes(e, -u, self.LP, P0), F_nodes(e, u, self.LP, P0))

    def test_zero_state_and_origin(self):
        e = np.array([0.0, 0.3, 1.0]) ** self.LP.beta
        assert np.all(F_nodes(e, np.zeros(3), self.LP, P0) == 0.0)
        # the log factor is 1 at r = 0, so F(0, u) = |u|^p* / p*
        for ps in (P0, P1):
            p_star = ps.p_star
            u = np.array([0.5, -2.0, 9.0])
            np.testing.assert_allclose(F_nodes(np.zeros(3), u, self.LP, ps),
                                       np.abs(u) ** p_star / p_star, rtol=1e-14)


class TestGAndPrimitive:
    # G(r, u) = |u|^p* ln(tau+|u|)^(r^beta) / p* - F(r, u), the perturbation
    # term of the by-parts form of the energy (see TestEnergy)
    LP = LogParams(1.0, 0.5)

    def G(self, r, u, ps):
        p_star = ps.p_star
        e = r**self.LP.beta
        return (np.abs(u) ** p_star * log_factor_nodes(e, u, self.LP) / p_star
                - F_nodes(e, u, self.LP, ps))

    def test_vanishes_at_origin(self):
        u = np.array([0.5, -2.0, 5.0, 9.0])
        for ps in (P0, P1):
            scale = np.abs(u) ** ps.p_star
            np.testing.assert_allclose(self.G(np.zeros(4), u, ps) / scale, 0.0, atol=1e-14)

    def test_vanishes_at_zero_state(self):
        r = np.array([0.0, 0.3, 0.7, 1.0])
        for ps in (P0, P1):
            assert np.all(self.G(r, np.zeros(4), ps) == 0.0)


class TestEnergy:
    LP = LogParams(1.0, 0.5)

    def test_zero_profile(self):
        g = make_grid(64, 1.0)
        assert energy_I(Profile(g, np.zeros(g.m)), self.LP, P0) == 0.0

    def test_diverges_to_minus_infinity_along_rays(self):
        u = normalize(linear_profile(500), P0)
        v1 = energy_I(Profile(u.grid, 1e3 * u.values), self.LP, P0)
        v2 = energy_I(Profile(u.grid, 1e4 * u.values), self.LP, P0)
        assert v1 < 0 and v2 < v1

    def test_against_independent_quadrature(self):
        # reference from nested adaptive quadrature (energy of 1-r at
        # tau=1, beta=1/2), abs err below 1e-8
        u = linear_profile(20000)
        assert energy_I(u, self.LP, P0) == pytest.approx(0.16623147784225153, abs=1e-9)

    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(2.0, 1.0)])
    def test_equals_the_by_parts_form(self, lp):
        # I(u) = ||u||^p/p - J(u)/p* + int r^th G(r, u) dr, where
        # G(r, u) = int_0^u g(r, s) ds and
        # g(r, s) = r^beta sign(s)|s|^p* / (p* (tau+|s|) ln(tau+|s|)^(1-r^beta))
        grid = make_grid(120, 2.0)
        # scaled so that the F term is of the order of the norm term
        u = normalize(Profile(grid, _smooth(grid, np.random.default_rng(5))), P0)
        u = Profile(grid, 4.0 * u.values)
        p_star = P0.p_star

        def g_of(s, r):
            e = r**lp.beta
            x = math.log(lp.tau + abs(s))
            if s == 0.0 or x == 0.0:
                return 0.0
            return math.copysign(e * abs(s) ** p_star, s) / (
                p_star * (lp.tau + abs(s)) * x ** (1.0 - e))

        big_g = np.array([quad(g_of, 0.0, v, args=(r,), epsabs=1e-15, epsrel=1e-13)[0]
                          for r, v in zip(grid.nodes, u.values)])
        by_parts = (dirichlet_norm(u, P0) ** P0.p / P0.p - J(u, lp, P0) / p_star
                    + weighted_integral(grid, big_g, P0.theta))
        assert energy_I(u, lp, P0) == pytest.approx(by_parts, abs=1e-12)

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValidationError, match="tau >= 1"):
            energy_I(linear_profile(64), LogParams(0.9, 1.0), P0)


class TestEnergyPairing:
    LP = LogParams(1.0, 0.5)

    def test_zero_base_point(self):
        g = make_grid(256, 2.0)
        z = Profile(g, np.zeros(g.m))
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = Profile(g, rng.normal(size=g.m))
            assert energy_pairing(pairing_terms(z, self.LP, P0), v, P0) == 0.0

    def test_additive_in_direction(self):
        g = make_grid(256, 2.0)
        rng = np.random.default_rng(3)
        u = Profile(g, rng.normal(size=g.m))
        v1 = Profile(g, rng.normal(size=g.m))
        v2 = Profile(g, rng.normal(size=g.m))
        combined = Profile(g, v1.values + v2.values)
        terms = pairing_terms(u, self.LP, P0)
        assert energy_pairing(terms, combined, P0) == pytest.approx(
            energy_pairing(terms, v1, P0) + energy_pairing(terms, v2, P0), abs=1e-12)

    @pytest.mark.parametrize("ps", [P0, P1, validate_params(2.5, 1.0, 3.0, 2.5)])
    def test_matches_central_differences(self, ps):
        g = make_grid(800, 2.0)
        rng = np.random.default_rng(42)
        h = 1e-4
        for _ in range(50):
            u = Profile(g, _smooth(g, rng))
            v = Profile(g, _smooth(g, rng))
            fd = (energy_I(Profile(g, u.values + h * v.values), self.LP, ps)
                  - energy_I(Profile(g, u.values - h * v.values), self.LP, ps)) / (2 * h)
            pairing = energy_pairing(pairing_terms(u, self.LP, ps), v, ps)
            assert abs(fd - pairing) / max(1.0, abs(pairing)) < 1e-5

    def test_rejects_a_direction_on_another_grid(self):
        u = Profile(make_grid(256, 2.0), np.ones(256))
        v = Profile(make_grid(256, 3.0), np.ones(256))
        with pytest.raises(ValidationError, match="on the same grid"):
            energy_pairing(pairing_terms(u, self.LP, P0), v, P0)


def _smooth(grid, rng):
    vals = np.zeros(grid.m)
    for k in range(1, 6):
        vals += rng.normal() / k * np.sin(k * math.pi * (1.0 - grid.nodes))
    return vals


SUPPORT_GRID = make_grid(2000, 3.0)


def _support_profile(kind):
    """A cutoff bubble (zero on [0.4, 1]), a random profile (nonzero up to
    r_(M-1)), one with interior zeros and a zero tail, and the zero profile."""
    g = SUPPORT_GRID
    if kind == "cutoff-bubble":
        return bliss.bubble_profile(bliss.BubbleSpec(1e-3), g, P0)
    vals = _smooth(g, np.random.default_rng(17))
    if kind == "interior-zeros":
        vals[::7] = 0.0
        vals[-13:] = 0.0
    elif kind == "zero":
        vals[:] = 0.0
    return Profile(g, vals)


SUPPORT_KINDS = ["cutoff-bubble", "random", "interior-zeros", "zero"]


def _J_full(u, lp, ps):
    p_star = ps.p_star
    lf = log_factor_nodes(u.grid.nodes**lp.beta, u.values, lp)
    return weighted_integral(u.grid, np.abs(u.values) ** p_star * lf, ps.theta)


def _F_nodes_one_shot(e, u, lp, ps):
    """F_nodes as one 16 x k array expression, the reference for its blocks."""
    a = np.abs(u)
    s = 0.5 * a * (_GL16_X[:, None] + 1.0)
    integrand = s ** (ps.p_star - 1.0) * log_factor_nodes(e, s, lp)
    return 0.5 * a * np.einsum("j,ji->i", _GL16_W, integrand)


def _energy_full(u, lp, ps):
    f = _F_nodes_one_shot(u.grid.nodes**lp.beta, u.values, lp, ps)
    return dirichlet_norm(u, ps) ** ps.p / ps.p - weighted_integral(u.grid, f, ps.theta)


def _pairing_full(u, v, lp, ps):
    p_star = ps.p_star
    su, sv = u.slopes(), v.slopes()
    term1 = float(np.sum(u.grid.cell_moments(ps.alpha1) * np.sign(su)
                         * np.abs(su) ** (ps.p - 1.0) * sv))
    uu = u.values
    f = (np.sign(uu) * np.abs(uu) ** (p_star - 1.0)
         * log_factor_nodes(u.grid.nodes**lp.beta, uu, lp) * v.values)
    return term1 - weighted_integral(u.grid, f, ps.theta)


class TestSupportTrim:
    """Integrands evaluated up to the last nonzero node equal the untrimmed
    full-array formulas bit for bit."""

    LP = LogParams(1.0, 0.5)

    @pytest.mark.parametrize("kind", SUPPORT_KINDS)
    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(2.0, 1.0),
                                    LogParams(0.5, 0.5)])
    def test_J(self, kind, lp):
        # at tau = 0.5 the log factor |ln tau|^(r^beta) is nonzero where u = 0
        u = _support_profile(kind)
        for ps in (P0, P1):
            assert J(u, lp, ps) == _J_full(u, lp, ps)

    @pytest.mark.parametrize("lp", [None, LogParams(1.0, 0.5), LogParams(2.0, 1.0),
                                    LogParams(0.5, 0.5)])
    def test_J_in_a_reused_workspace(self, lp):
        # supports that shrink and grow between evaluations in one workspace
        nodes = JNodes(SUPPORT_GRID.m)
        for kind in ("random", "cutoff-bubble", "zero", "interior-zeros", "cutoff-bubble"):
            u = _support_profile(kind)
            for ps in (P0, P1):
                full = (weighted_integral(u.grid, np.abs(u.values) ** ps.p_star,
                                          ps.theta) if lp is None else _J_full(u, lp, ps))
                assert J(u, lp, ps, nodes) == full
                if lp is None:
                    assert J(u, None, ps) == full

    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(2.0, 1.0)])
    def test_ray_sum_in_its_scratch(self, lp):
        # the scratch is overwritten by each sum
        for kind in SUPPORT_KINDS:
            terms = ray_terms(_support_profile(kind), lp, P1)
            for s in (0.5, 1.0, 3.0, 0.5):
                plain = float(np.einsum("i,i->", terms.w,
                                        np.log(terms.tau + terms.a * s) ** terms.e))
                assert ray_sum(terms, s) == plain

    @pytest.mark.parametrize("kind", SUPPORT_KINDS)
    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(2.0, 1.0)])
    def test_energy_and_pairing(self, kind, lp):
        u = _support_profile(kind)
        v = Profile(u.grid, _smooth(u.grid, np.random.default_rng(23)))
        for ps in (P0, P1):
            assert energy_I(u, lp, ps) == _energy_full(u, lp, ps)
            pairing = energy_pairing(pairing_terms(u, lp, ps), v, ps)
            assert pairing == _pairing_full(u, v, lp, ps)

    @pytest.mark.parametrize("tail", range(17))
    def test_primitive_for_every_tail_length(self, tail):
        # F's Gauss-Legendre sum must not depend on how many nodes it is
        # given: a BLAS matrix-vector product rounds its last k mod 4
        # outputs differently, the fixed-order einsum sum does not
        g = SUPPORT_GRID
        vals = 4.0 * _smooth(g, np.random.default_rng(tail))
        vals[g.m - 1 - tail:] = 0.0
        u = Profile(g, vals)
        assert energy_I(u, self.LP, P1) == _energy_full(u, self.LP, P1)

    @pytest.mark.parametrize("kind,expected", [("cutoff-bubble", 1473), ("random", 1999),
                                               ("interior-zeros", 1987), ("zero", 0)])
    def test_kernel_sees_the_support(self, kind, expected, monkeypatch):
        # one past the last nonzero node
        seen = []
        for name in ("F_nodes", "log_factor_nodes"):
            kernel = getattr(functionals, name)
            monkeypatch.setattr(functionals, name,
                                lambda e, w, *rest, kernel=kernel: seen.append(w.size)
                                or kernel(e, w, *rest))
        u = _support_profile(kind)
        energy_I(u, self.LP, P1)
        energy_pairing(pairing_terms(u, self.LP, P1), u, P1)
        assert seen == [expected, expected]


class TestPrimitiveBlocks:
    """F_nodes, formed in node blocks, equals the one-shot 16 x k form bit
    for bit and allocates no 16 x k array."""

    LP = LogParams(1.0, 0.5)
    README_BUBBLE = bliss.bubble_profile(bliss.BubbleSpec(1e-3), make_grid(16000, 3.0), P0)

    @pytest.mark.parametrize("k", [0, 1, _F_BLOCK - 1, _F_BLOCK, _F_BLOCK + 1,
                                   2 * _F_BLOCK + 3])
    @pytest.mark.parametrize("ps", [P0, P1])
    def test_support_lengths(self, k, ps):
        g = make_grid(2 * _F_BLOCK + 3, 3.0)
        vals = (4.0 * _smooth(g, np.random.default_rng(k)))[:k]
        e = g.node_power(self.LP.beta)[:k]
        for v in (vals, -vals):
            assert np.array_equal(F_nodes(e, v, self.LP, ps), _F_nodes_one_shot(e, v, self.LP, ps))

    @pytest.mark.parametrize("ps", [P0, P1])
    def test_readme_bubble_at_m16000(self, ps):
        u = self.README_BUBBLE
        k = u.support_end()
        assert k == 11788
        e = u.grid.node_power(self.LP.beta)[:k]
        for v in (u.values[:k], -u.values[:k]):
            assert np.array_equal(F_nodes(e, v, self.LP, ps), _F_nodes_one_shot(e, v, self.LP, ps))

    def test_peak_memory_below_one_16_by_k_array(self):
        u = self.README_BUBBLE
        k = u.support_end()
        v, e = u.values[:k], u.grid.node_power(self.LP.beta)[:k]
        tracemalloc.start()
        try:
            F_nodes(e, v, self.LP, P0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * k * 8


class TestSupremumInequalities:
    def test_scaled_bound_below_unit_sphere_value(self):
        # J(u) <= J(u/||u||) ||u||^p* for ||u|| < 1 (log monotone in the state)
        g = make_grid(1000, 3.0)
        rng = np.random.default_rng(8)
        lp = LogParams(1.0, 0.5)
        for _ in range(20):
            u = normalize(Profile(g, _smooth(g, rng)), P0)
            u = Profile(g, rng.uniform(0.05, 0.95) * u.values)
            nrm = dirichlet_norm(u, P0)
            lhs = J(u, lp, P0)
            rhs = J(Profile(g, (1.0 / nrm) * u.values), lp, P0) * nrm**6
            assert lhs <= rhs + 1e-12
