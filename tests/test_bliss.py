"""Tests for the extremal family, best constants, and concentration pieces."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from hslog import analysis, bliss, radial
from hslog.cli import RunConfig
from hslog.functionals import J, LogParams
from hslog.params import NumericalError, ValidationError, validate_params
from hslog.radial import dirichlet_norm, make_grid

from helpers import normalize, plain_log_factor

P0 = validate_params(2, 2, 2, 2)
P1 = validate_params(3, 2, 4, 4)


def _pinned_tuples():
    """The README tuple, p1.cfg's and ten seeded random admissible tuples."""
    rng = np.random.default_rng(77)
    tuples = [(2, 2, 2, 2), (3, 2, 4, 4)]
    for _ in range(10):
        p = rng.uniform(1.3, 3.5)
        alpha1 = p - 1 + rng.uniform(0.2, 3.0)
        tuples.append((p, max(alpha1 - p, 0.0) + rng.uniform(0.0, 2.0), alpha1,
                       max(alpha1 - p, 0.0) + rng.uniform(0.1, 3.0)))
    return tuples


def _extremal_integrands(ps):
    return (lambda r: r**ps.theta * bliss.bliss_value(1.0, r, ps) ** ps.p_star,
            lambda r: r**ps.alpha1 * np.abs(bliss.bliss_deriv(1.0, r, ps)) ** ps.p)


class TestBlissValue:
    def test_center_value(self):
        assert bliss.bliss_value(1.0, 0.0, P0) == pytest.approx(3**0.25, rel=1e-14)

    def test_unit_radius(self):
        assert bliss.bliss_value(1.0, 1.0, P0) == pytest.approx(
            3**0.25 / 2**0.5, rel=1e-14)

    def test_scaling_law(self):
        # u*_eps(r) = eps^(-(a1-p+1)/p) u*_1(r/eps)
        eps = 1e-3
        for r in (1e-4, 1e-3, 0.1, 1.0):
            lhs = bliss.bliss_value(eps, r, P0)
            rhs = eps ** (-0.5) * bliss.bliss_value(1.0, r / eps, P0)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_strictly_decreasing(self):
        r = np.linspace(0, 3, 100)
        v = bliss.bliss_value(0.5, r, P1)
        assert np.all(np.diff(v) < 0)


class TestBubbleProfile:
    def test_boundary_zero_and_plateau(self):
        g = make_grid(2000, 3.0)
        spec = bliss.BubbleSpec(1e-3, 0.7, 0.2)
        u = bliss.bubble_profile(spec, g, P0)
        assert u.values[-1] == 0.0
        inside = g.nodes <= 0.2
        expect = 0.7 * bliss.bliss_value(1e-3, g.nodes[inside], P0)
        assert np.allclose(u.values[inside], expect, rtol=1e-14)
        assert np.all(u.values[g.nodes >= 0.4] == 0.0)

    def test_cached_cutoff_is_bit_identical_and_values_writable(self):
        # two plateau edges on one grid, each built once and read again; the
        # returned values are the profile's own, which the ascent overwrites
        g = make_grid(2000, 3.0)
        for r0 in (0.2, 0.45, 0.2, 0.45):
            spec = bliss.BubbleSpec(1e-3, P0.a_hat, r0)
            u = bliss.bubble_profile(spec, g, P0)
            ref = P0.a_hat * bliss.cutoff_eta(g.nodes, r0) * bliss.bliss_value(1e-3, g.nodes, P0)
            assert np.array_equal(u.values, ref)
            assert u.values.flags.writeable
            u.values[:] = -1.0
        assert np.array_equal(bliss.bubble_profile(spec, g, P0).values, ref)

    def test_grid_too_coarse(self):
        g = make_grid(16, 1.0)
        with pytest.raises(ValidationError, match="too coarse"):
            bliss.bubble_profile(bliss.BubbleSpec(1e-4, 1.0, 0.2), g, P0)

    def test_normalized_amplitude_gives_near_unit_norm(self):
        g = make_grid(4000, 3.0)
        for eps in (1e-3, 1e-4):
            u = bliss.bubble_profile(bliss.BubbleSpec(eps, P0.a_hat, 0.2), g, P0)
            dev = dirichlet_norm(u, P0) ** 2 - 1.0
            assert abs(dev) < 30 * eps    # = O(eps^(s p))


class TestComputeS:
    def test_classical_closed_forms(self):
        assert P0.S_power == pytest.approx(3**1.5 * math.pi / 16, rel=1e-10)
        assert P0.sigma_p == pytest.approx(256 / (27 * math.pi**2), rel=1e-10)
        assert bliss.extremal_integrals(P0).rel_disagreement < 1e-6

    def test_two_integrals_agree_for_p1(self):
        assert bliss.extremal_integrals(P1).rel_disagreement < 1e-6

    def test_two_integrals_agree_for_random_params(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            p = rng.uniform(1.3, 3.5)
            alpha1 = p - 1 + rng.uniform(0.2, 3.0)
            alpha0 = max(alpha1 - p, 0.0) + rng.uniform(0.0, 2.0)
            theta = max(alpha1 - p, 0.0) + rng.uniform(0.1, 3.0)
            ps = validate_params(p, alpha0, alpha1, theta)
            assert bliss.extremal_integrals(ps).rel_disagreement < 1e-6

    def test_closed_form_within_one_ulp_of_exact(self):
        exact = 3**1.5 * math.pi / 16
        assert abs(P0.S_power - exact) <= math.ulp(exact)

    def test_closed_form_matches_both_quadratures(self):
        # each integral by quad, split as extremal_integrals splits them, with
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

        for t in _pinned_tuples():
            ps = validate_params(*t)
            for f in _extremal_integrands(ps):
                value, err = full_line(f)
                assert abs(ps.S_power - value) <= 1e-12 * ps.S_power + err

    def test_closed_form_matches_tanh_sinh(self):
        # the package's rule, split as extremal_integrals splits it, held to
        # the pin above with its own error estimate.  (2, 2, 2, 10) and
        # (1.1, 1, 1, 1) have n >= 10, where a power of r = 1/v overflows on
        # the nodes next to v = 0; (3, 0, 2.1, 0.5) and (10, 9.5, 9.5, 0)
        # decay like r^-1.05 and r^-1.11, which a rule cut at r ~ 1e37
        # misses by 1e-2 relative without its estimate showing it
        extra = [(2, 1, 1.7, 0.3), (4, 2, 6, 3), (2, 2, 2, 10), (1.1, 1, 1, 1),
                 (3, 0, 2.1, 0.5), (10, 9.5, 9.5, 0)]
        for t in _pinned_tuples() + extra:
            ps = validate_params(*t)
            heads = (lambda r: r**ps.theta * bliss.bliss_value(1.0, r, ps) ** ps.p_star,
                     lambda r: np.abs(r ** (ps.alpha1 / ps.p)
                                      * bliss.bliss_deriv(1.0, r, ps)) ** ps.p)
            tails = (bliss._pstar_tail(1.0, 1.0, ps), bliss._grad_tail(1.0, 1.0, ps))
            for f, (tail, e2) in zip(heads, tails):
                head, e1 = bliss._tanh_sinh(f, 0.0, 1.0)
                assert abs(ps.S_power - (head + tail)) <= 1e-12 * ps.S_power + e1 + e2
            assert bliss.extremal_integrals(ps).rel_disagreement < 1e-12

    def test_integrals_are_computed_only_when_read(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(bliss, "_tanh_sinh", no_rule)
        ps = validate_params(3, 2, 4, 4)
        assert ps.S > 0 and ps.sigma_p > 0 and ps.a_hat > 0
        with pytest.raises(AssertionError, match="quadrature called"):
            bliss.extremal_integrals(ps)

    def test_sigma_exponent_forms_identical(self):
        # S^(-p*/p) and S^(-(theta+1)/(alpha1-p+1)) are the same exponent
        for ps in (P0, P1):
            alt = ps.S ** (-(ps.theta + 1) / (ps.alpha1 - ps.p + 1))
            assert ps.sigma_p == pytest.approx(alt, rel=1e-12)


class TestCutoff:
    def test_nonnegative_just_below_2r0(self, monkeypatch):
        # the quintic rounds to -2e-16 at four points of this sample
        r = np.linspace(0.2, 0.4, 2000001)
        x = np.clip((r - 0.2) / 0.2, 0.0, 1.0)
        points = r[1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x * x) < 0.0]
        assert len(points) == 4
        assert np.all(bliss.cutoff_eta(points, 0.2) >= 0.0)
        # there the L^p* deviation's integrand on [r0, 2 r0] raised a
        # negative float to the power p* = 7.5, which has no real value
        integrands = []

        def record(f, a, b):
            integrands.append(f)
            return 1.0, 0.0

        monkeypatch.setattr(bliss, "_tanh_sinh", record)
        bliss.bubble_lpstar_deviation(1e-3, P1)
        values = integrands[0](points)
        assert values.dtype == np.float64 and np.all(np.isfinite(values))


class TestNormScan:
    def test_fitted_exponents(self):
        eps_list = (1e-2, 1e-3, 1e-4, 1e-5)
        table_d, table_l = bliss.bubble_norm_scan(eps_list, P0)
        assert abs(table_d.fitted_exponent - 1.0) <= 0.10
        assert abs(table_l.fitted_exponent - 3.0) <= 0.45
        # deviations positive and decreasing as eps shrinks
        assert all(v > 0 for v in table_d.ordinates)
        assert all(v > 0 for v in table_l.ordinates)
        assert np.all(np.diff(table_d.ordinates) < 0)
        assert np.all(np.diff(table_l.ordinates) < 0)

    def test_dirichlet_deviation_sign(self):
        # the cutoff adds more gradient than the tail removes
        assert bliss.bubble_dirichlet_deviation(1e-3, P0) > 0
        # truncation only loses critical-integral mass
        assert bliss.bubble_lpstar_deviation(1e-3, P0) < 0

    @pytest.mark.parametrize("deviation", [bliss.bubble_dirichlet_deviation,
                                           bliss.bubble_lpstar_deviation])
    def test_unconverged_quadrature_raises(self, deviation, monkeypatch):
        real_rule = bliss._tanh_sinh
        monkeypatch.setattr(bliss, "_tanh_sinh", lambda f, a, b: (real_rule(f, a, b)[0], 1e-3))
        with pytest.raises(NumericalError, match=r"eps=0\.001, r0=0\.2"):
            deviation(1e-3, P0)

    def test_nan_integrand_raises(self):
        # a NaN must not pass the error checks
        with pytest.raises(NumericalError, match="extremal integrals"):
            bliss._full_line(lambda r: np.full_like(r, math.nan), (0.0, 0.0))
        with pytest.raises(NumericalError, match="did not converge"):
            bliss._check_deviation_error("L^p*", 1e-3, math.nan, math.nan, math.nan)

    @pytest.mark.parametrize("params, tail_panels", [
        # the L^p* tail at eps = 1e-5 was the case a 1e-14-cut adaptive rule
        # could not certify
        ((2, 1, 1.7, 0.3), 160),
        # n = 10: r^n overflows past r ~ 1e30, so the reference stops there
        ((2, 2, 2, 10), 100),
    ], ids=["slow-tail", "n10"])
    def test_deviations_match_panel_reference(self, params, tail_panels):
        # the deviations must pass the unchanged check and match a composite
        # Gauss-Legendre sum over geometric panels in r, with no tail map
        ps = validate_params(*params)
        eps_list = RunConfig().epsilon_list
        bliss.bubble_norm_scan(eps_list, ps)
        x, w = np.polynomial.legendre.leggauss(20)

        def panels(f, edges):
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
            r = (mid[:, None] + half[:, None] * x).ravel()
            return float(np.sum(half[:, None] * w * f(r).reshape(len(mid), -1)))

        r0 = bliss.R0
        core = np.linspace(r0, 2.0 * r0, 65)
        tail = 2.0 * r0 * 2.0 ** np.arange(0.0, tail_panels + 1.0)
        for eps in eps_list:
            def abs_du(r):
                return np.abs(bliss.bliss_deriv(eps, r, ps))

            def u(r):
                return bliss.bliss_value(eps, r, ps)

            def d_core(r):
                grad = (bliss.cutoff_eta_prime(r, r0) * u(r)
                        + bliss.cutoff_eta(r, r0) * bliss.bliss_deriv(eps, r, ps))
                return r**ps.alpha1 * (np.abs(grad) ** ps.p - abs_du(r) ** ps.p)

            ref_d = (panels(d_core, core)
                     - panels(lambda r: r**ps.alpha1 * abs_du(r) ** ps.p, tail))
            ref_l = -(panels(lambda r: r**ps.theta * u(r) ** ps.p_star
                             * (1.0 - bliss.cutoff_eta(r, r0) ** ps.p_star), core)
                      + panels(lambda r: r**ps.theta * u(r) ** ps.p_star, tail))
            dev_d = bliss.bubble_dirichlet_deviation(eps, ps)
            dev_l = bliss.bubble_lpstar_deviation(eps, ps)
            assert abs(dev_d - ref_d) <= 1e-10 * abs(ref_d)
            assert abs(dev_l - ref_l) <= 1e-10 * abs(ref_l)


def _quad_pieces(f, eps, r0):
    """int_0^(2 r0) f dr by scipy's quad, on [0, eps], doubling panels up to
    r0 and [r0, 2 r0].  At this tolerance quad reports roundoff on some
    panels; full output takes that report instead of a warning."""
    edges = [0.0, min(eps, r0)]
    while edges[-1] < r0:
        edges.append(min(2.0 * edges[-1], r0))
    edges.append(2.0 * r0)
    return math.fsum(scipy.integrate.quad(f, a, b, epsabs=0.0, epsrel=2e-14, limit=200,
                                          full_output=1)[0]
                     for a, b in zip(edges, edges[1:]))


class TestBubbleNodes:
    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4), (4, 2, 6, 3)])
    @pytest.mark.parametrize("eps, r0", [(1e-3, 0.2), (1e-5, 0.2), (1e-6, 0.45), (0.3, 0.2)])
    def test_norm_and_j0_match_quad(self, pv, eps, r0):
        ps = validate_params(*pv)
        spec = bliss.BubbleSpec(eps, ps.a_hat, r0)
        nodes = bliss.bubble_nodes(spec, ps)

        def u(r):
            return spec.a_hat * bliss.cutoff_eta(r, r0) * bliss.bliss_value(eps, r, ps)

        def du(r):
            return spec.a_hat * (bliss.cutoff_eta_prime(r, r0) * bliss.bliss_value(eps, r, ps)
                                 + bliss.cutoff_eta(r, r0) * bliss.bliss_deriv(eps, r, ps))

        norm_p = _quad_pieces(lambda r: float(r**ps.alpha1 * abs(du(r)) ** ps.p), eps, r0)
        j0 = _quad_pieces(lambda r: float(r**ps.theta * u(r) ** ps.p_star), eps, r0)
        assert nodes.norm_p == pytest.approx(norm_p, rel=1e-14, abs=0.0)
        assert nodes.j0 == pytest.approx(j0, rel=1e-14, abs=0.0)

    def test_the_nodes_are_the_rule_s(self):
        # one rule: each piece's sum is _tanh_sinh's integral on that piece
        spec = bliss.BubbleSpec(1e-4, P0.a_hat, 0.2)
        bubble = bliss.bubble_nodes(spec, P0)
        nodes = bubble.nodes
        n = bliss._TS_T.size
        assert nodes.r.size == nodes.q.size == bubble.u.size == 3 * n
        assert nodes.pieces == 3

        def f(r):
            return r**P0.theta * (spec.a_hat * bliss.cutoff_eta(r, 0.2)
                                  * bliss.bliss_value(1e-4, r, P0)) ** P0.p_star

        terms = (nodes.q * bubble.u**P0.p_star).reshape(3, n).sum(axis=1)
        for piece, (a, b) in zip(terms[::2], ((0.0, 1e-4), (0.2, 0.4))):
            assert piece == pytest.approx(bliss._tanh_sinh(f, a, b)[0], rel=1e-14)
        log_piece = bliss._tanh_sinh(lambda x: np.exp(x) * f(np.exp(x)),
                                     math.log(1e-4), math.log(0.2))[0]
        assert terms[1] == pytest.approx(log_piece, rel=1e-14)
        assert np.array_equal(nodes.r[2 * n:], bliss._ts_nodes(0.2, 0.4)[0])
        # the bubble vanishes past 2 r0 and nowhere before it
        assert np.all(bubble.u[:2 * n] > 0) and nodes.r.max() <= 0.4

    def test_unconverged_rule_raises(self, monkeypatch):
        monkeypatch.setattr(radial, "_RULE_TOL", -1.0)   # no estimate passes
        with pytest.raises(NumericalError, match=r"bubble quadrature at eps=1e-05, r0=0\.2"):
            bliss.bubble_nodes(bliss.BubbleSpec(1e-5), P0)

    def test_nan_raises(self, monkeypatch):
        monkeypatch.setattr(bliss, "bliss_value", lambda eps, r, ps: np.full_like(r, math.nan))
        with pytest.raises(NumericalError, match="did not converge"):
            bliss.bubble_nodes(bliss.BubbleSpec(1e-3), P0)


class TestDirichletTail:
    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4), (2, 1, 1.7, 0.3)])
    @pytest.mark.parametrize("eps", [1e-2, 1e-5])
    @pytest.mark.parametrize("radius", [0.1, 0.2, 0.3])
    def test_matches_quad(self, pv, eps, radius):
        ps = validate_params(*pv)
        spec = bliss.BubbleSpec(eps, ps.a_hat)

        def density(r):
            du = spec.a_hat * (bliss.cutoff_eta_prime(r, 0.2) * bliss.bliss_value(eps, r, ps)
                               + bliss.cutoff_eta(r, 0.2) * bliss.bliss_deriv(eps, r, ps))
            return float(r**ps.alpha1 * abs(du) ** ps.p)

        edges = sorted({radius, max(radius, 0.2), 0.4})
        ref = math.fsum(scipy.integrate.quad(density, a, b, epsabs=0.0, epsrel=2e-14,
                                             limit=200, full_output=1)[0]
                        for a, b in zip(edges, edges[1:]))
        assert bliss.bubble_dirichlet_tail(spec, radius, ps) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("r0", [0.2, 0.45])
    def test_zero_past_the_support(self, r0):
        spec = bliss.BubbleSpec(1e-3, P0.a_hat, r0)
        assert bliss.bubble_dirichlet_tail(spec, 2.0 * r0, P0) == 0.0
        assert bliss.bubble_dirichlet_tail(spec, 0.95, P0) == 0.0

    def test_unconverged_rule_raises(self, monkeypatch):
        real = bliss._tanh_sinh
        monkeypatch.setattr(bliss, "_tanh_sinh", lambda f, a, b: (real(f, a, b)[0], 1e-3))
        with pytest.raises(NumericalError,
                           match=r"Dirichlet tail quadrature at eps=1e-05, radius=0\.3 "):
            bliss.bubble_dirichlet_tail(bliss.BubbleSpec(1e-5), 0.3, P0)


def _concentration_integrand(spec, lp, ps):
    def f(r):
        u = spec.a_hat * bliss.cutoff_eta(r, spec.r0) * bliss.bliss_value(spec.epsilon, r, ps)
        lf = abs(math.log(lp.tau + u)) ** (r**lp.beta)
        return float(r**ps.theta * u**ps.p_star * (lf - 1.0))
    return f


class TestConcentrationFunctional:
    LP = LogParams(1.0, 0.5)

    def test_unit_log_region_contributes_nothing(self):
        # at tau = 1 and u = e - 1 the log factor is 1 at every node
        nodes = bliss.bubble_nodes(bliss.BubbleSpec(1e-3, P0.a_hat), P0)
        flat = dataclasses.replace(nodes, u=np.full_like(nodes.u, math.e - 1.0))
        assert bliss.concentration_E(flat, self.LP, P0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(math.e, 1.0)])
    def test_matches_quad(self, lp):
        for ps in (P0, P1):
            for eps in (1e-3, 1e-5):
                spec = bliss.BubbleSpec(eps, ps.a_hat)
                ref = _quad_pieces(_concentration_integrand(spec, lp, ps), eps, spec.r0)
                e = bliss.concentration_E(bliss.bubble_nodes(spec, ps), lp, ps)
                assert e == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4), (2, 1, 1.7, 0.3)])
    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(math.e, 1.0)])
    def test_is_J_minus_J0_in_one_rule(self, pv, lp):
        # E, J and J0 are sums at the same nodes; E is formed directly, so it
        # keeps the digits that J - J0 cancels
        ps = validate_params(*pv)
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            bubble = bliss.bubble_nodes(bliss.BubbleSpec(eps, ps.a_hat), ps)
            nodes = bubble.nodes
            j = float(np.einsum("i,i->", nodes.q, bubble.u**ps.p_star
                                * plain_log_factor(nodes.r**lp.beta, bubble.u, lp)))
            assert abs(bliss.concentration_E(bubble, lp, ps) - (j - bubble.j0)) <= 8e-15 * j

    def test_grows_like_the_lower_bound(self):
        rows = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            nodes = bliss.bubble_nodes(bliss.BubbleSpec(eps, 1.0, 0.2), P0)
            rows.append((eps, bliss.concentration_E(nodes, self.LP, P0)))
        table = bliss.rate_fit(rows, model="power-times-loglog")
        assert all(v > 0 for v in table.ordinates)
        assert abs(table.fitted_exponent - 0.5) <= 0.15 * 0.5

    def test_unconverged_rule_raises(self, monkeypatch):
        nodes = bliss.bubble_nodes(bliss.BubbleSpec(1e-5), P0)
        monkeypatch.setattr(radial, "_RULE_TOL", -1.0)   # no estimate passes
        with pytest.raises(NumericalError, match=r"concentration quadrature at eps=1e-05 "):
            bliss.concentration_E(nodes, self.LP, P0)


class TestBubbleBitPins:
    """The bubble numbers bit for bit, at tau = 1 and beta = 1/2: ||u||^p and
    J0 at the nodes, E, and the mountain-pass root t* and gap0.

    ``bubble_nodes`` and E read the bubble of amplitude a_hat, as ``ncs`` and
    ``rates`` do; ``mountain_pass_gap`` reads that of amplitude 1, as
    ``mp-gap`` does.
    """

    LP = LogParams(1.0, 0.5)
    PINS = {
        ((2, 2, 2, 2), 1e-3): ("0x1.031aae4a9c05ep+0", "0x1.ebdd91f0d52a4p-1",
                               "0x1.35c99e0cd9576p-5", "0x1.fc9b930080ed4p-1",
                               "-0x1.969e7c9e5b500p-8"),
        ((2, 2, 2, 2), 1e-5): ("0x1.0007f26ba3381p+0", "0x1.ebdd957dd5a10p-1",
                               "0x1.666b7e50e4f88p-8", "0x1.ff49e884d482ep-1",
                               "-0x1.0376902c35000p-14"),
        ((3, 2, 4, 4), 1e-3): ("0x1.1440c01057272p+0", "0x1.f218781b33f1cp-1",
                               "0x1.f409e3aa40802p-5", "0x1.00dd74430916bp+0",
                               "-0x1.c395db97e2ee0p-6"),
        ((3, 2, 4, 4), 1e-5): ("0x1.0033e03582292p+0", "0x1.f2193e56a5ab0p-1",
                               "0x1.17a2593e60656p-7", "0x1.ff18c7e93fd50p-1",
                               "-0x1.19de943cde800p-12"),
    }

    @pytest.mark.parametrize("pv, eps", list(PINS))
    def test_bits(self, pv, eps):
        ps = validate_params(*pv)
        bubble = bliss.bubble_nodes(bliss.BubbleSpec(eps, ps.a_hat), ps)
        mp = analysis.mountain_pass_gap(bliss.BubbleSpec(eps), self.LP, ps)
        got = (bubble.norm_p, bubble.j0, bliss.concentration_E(bubble, self.LP, ps),
               mp.t_at_max, mp.gap0)
        assert tuple(v.hex() for v in got) == self.PINS[pv, eps]

    # the two sums that are checked piece by piece against the rule's
    # estimate, where they were plain sums over the nodes: the unit-norm J of
    # ``ncs`` and the energy at t*; (3, 2, 4, 4) at eps = 1e-5 is p1.cfg's
    # mp-gap row, whose gap moved from 0.000903661027687 to 0.000903661027686
    REORDERED = {
        ((2, 2, 2, 2), 1e-3): ("0x1.ed0aa6ca5ced8p-1", "0x1.5c207897d2656p-2"),
        ((2, 2, 2, 2), 1e-5): ("0x1.ee7c5cddc482ep-1", "0x1.5b57d2de95386p-2"),
        ((3, 2, 4, 4), 1e-3): ("0x1.b57758efc3c5fp-1", "0x1.c741bb55d8145p-3"),
        ((3, 2, 4, 4), 1e-5): ("0x1.f5798f5cefb40p-1", "0x1.9f55d4f607b8ap-3"),
    }

    @pytest.mark.parametrize("pv, eps", list(REORDERED))
    def test_bits_of_the_reordered_sums(self, pv, eps):
        ps = validate_params(*pv)
        bubble = bliss.bubble_nodes(bliss.BubbleSpec(eps, ps.a_hat), ps)
        ncs = analysis.ncs_check([bubble] * 3, ps)
        unit_j = analysis.concentration_level_check([bubble] * 3, self.LP, ps, 0,
                                                    ncs).j_values[0]
        mp = analysis.mountain_pass_gap(bliss.BubbleSpec(eps), self.LP, ps)
        assert (unit_j.hex(), mp.max_energy.hex()) == self.REORDERED[pv, eps]
        if pv == (3, 2, 4, 4) and eps == 1e-5:
            assert "%.12g" % mp.gap == "0.000903661027686"


class TestUnitBubbleJ:
    """J of the README bubble at unit norm, as the ncs level check reads it."""

    LP = LogParams(1.0, 0.5)

    @staticmethod
    def _level_J(eps):
        nodes = bliss.bubble_nodes(bliss.BubbleSpec(eps, P0.a_hat), P0)
        family = [nodes] * 3
        ncs = analysis.ncs_check(family, P0)
        return analysis.concentration_level_check(family, TestUnitBubbleJ.LP, P0, 0,
                                                  ncs).j_values[0]

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
    def test_matches_quad(self, eps):
        spec = bliss.BubbleSpec(eps, P0.a_hat)

        def du(r):
            return spec.a_hat * (bliss.cutoff_eta_prime(r, 0.2) * bliss.bliss_value(eps, r, P0)
                                 + bliss.cutoff_eta(r, 0.2) * bliss.bliss_deriv(eps, r, P0))

        norm_p = _quad_pieces(lambda r: float(r**P0.alpha1 * abs(du(r)) ** P0.p), eps, 0.2)
        t = norm_p ** (-1.0 / P0.p)

        def f(r):
            u = t * spec.a_hat * bliss.cutoff_eta(r, 0.2) * bliss.bliss_value(eps, r, P0)
            return float(r**P0.theta * u**P0.p_star * math.log(1.0 + u) ** math.sqrt(r))

        assert self._level_J(eps) == pytest.approx(_quad_pieces(f, eps, 0.2), rel=1e-13)

    # the mesh error of J at M = 64000 (ROADMAP item 18); the check allows twice that
    @pytest.mark.parametrize("eps, mesh_error",
                             [(1e-3, 7.5e-8), (1e-4, 3.5e-7), (1e-5, 1.6e-6), (1e-6, 7.4e-6)])
    def test_matches_the_fine_mesh(self, eps, mesh_error):
        g = make_grid(64000, 3.0)
        u = normalize(bliss.bubble_profile(bliss.BubbleSpec(eps, P0.a_hat), g, P0), P0)
        assert abs(J(u, self.LP, P0) - self._level_J(eps)) <= 2.0 * mesh_error
