"""Tests for rate fitting, the sphere maximizer, and concentration checks."""

import gc
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hslog import analysis, bliss
from hslog.analysis import (
    BubbleBound,
    _grad_J_values,
    beta_sweep,
    bubble_lower_bound,
    concentration_level_check,
    energy_sphere_scan,
    maximize_F,
    mountain_pass_gap,
    ncs_check,
    random_smooth_profile,
    rate_fit,
    solve_t_eps,
)
from hslog.functionals import LogParams, J, energy_I
from hslog.params import (
    NumericalError,
    ValidationError,
    critical_exponent,
    derived_constants,
    validate_params,
)
from hslog.radial import Profile, dirichlet_norm, make_grid, normalize

P0 = validate_params(2, 2, 2, 2)
DC0 = derived_constants(P0)


@pytest.fixture(scope="module")
def report():
    return bliss.compute_S(DC0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(2000, 3.0)


class TestRateFit:
    def test_power_times_loglog_recovers_planted_exponent(self):
        eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        vals = 2.0 * eps**0.5 * np.log(np.abs(np.log(eps)))
        table = rate_fit(zip(eps, vals), model="power-times-loglog")
        assert table.fitted_exponent == pytest.approx(0.5, abs=1e-6)
        assert table.fit_residual < 1e-10

    def test_pure_power_recovers_planted_exponent(self):
        eps = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
        table = rate_fit(zip(eps, 3.0 * eps), model="pure-power")
        assert table.fitted_exponent == pytest.approx(1.0, abs=1e-10)

    def test_needs_four_points(self):
        with pytest.raises(ValidationError, match="4 points"):
            rate_fit([(1e-1, 1.0), (1e-2, 0.1), (1e-3, 0.01)])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError, match="positive"):
            rate_fit([(1e-1, 1.0), (1e-2, -0.1), (1e-3, 0.01), (1e-4, 0.001)])

    def test_unknown_model(self):
        with pytest.raises(ValidationError, match="model"):
            rate_fit([(1e-1, 1.0)] * 4, model="cubic")


class TestMaximizer:
    LP = LogParams(1.0, 0.5)

    def test_exceeds_unperturbed_constant(self, grid, report):
        res = maximize_F(P0, self.LP, grid)
        assert res.value >= report.sigma_p + 1e-3
        assert dirichlet_norm(res.profile, P0) == pytest.approx(1.0, abs=1e-10)
        assert res.value == pytest.approx(J(res.profile, self.LP, P0), rel=1e-12)

    def test_seed_order_invariance(self, grid):
        seeds = (1e-2, 1e-3, 1e-4)
        a = maximize_F(P0, self.LP, grid, eps_seeds=seeds)
        b = maximize_F(P0, self.LP, grid, eps_seeds=seeds[::-1])
        assert a.value == b.value
        assert a.seed_epsilon == b.seed_epsilon

    def test_monotone_in_tau(self, grid):
        values = [maximize_F(P0, LogParams(tau, 0.5), grid).value
                  for tau in (1.0, math.e, 10.0)]
        assert values[0] <= values[1] <= values[2]

    def test_large_beta_approaches_unperturbed_constant(self, grid, report):
        res = maximize_F(P0, LogParams(1.0, 16.0), grid)
        assert abs(res.value - report.sigma_p) < 0.01

    def test_projection_is_the_normalized_nonnegative_part(self, grid):
        # the profile _project checks is the one it returns, with the values
        # of the separate division it replaces
        vals = random_smooth_profile(grid, np.random.default_rng(5)).values
        ref = np.maximum(vals, 0.0)
        ref[-1] = 0.0
        ref = ref / dirichlet_norm(Profile(grid, ref), P0)
        u = analysis._project(vals, grid, P0)
        assert np.array_equal(u.values, ref)
        assert analysis._project(-np.abs(vals), grid, P0) is None

    def test_unresolvable_seeds_rejected(self):
        tiny = make_grid(16, 1.0)
        with pytest.raises(ValidationError, match="seed"):
            maximize_F(P0, self.LP, tiny, eps_seeds=(1e-5,))

    def test_unperturbed_variant_approaches_sigma_from_below(self, report):
        # seeds widen with the mesh so each bubble stays well resolved;
        # within that window the discrete supremum sits under sigma_p
        couplings = [(1000, (1e-2, 3e-3, 1e-3)),
                     (2000, (1e-2, 3e-3, 1e-3, 3e-4)),
                     (4000, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))]
        values = [maximize_F(P0, None, make_grid(m, 3.0), eps_seeds=seeds).value
                  for m, seeds in couplings]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert all(v < report.sigma_p for v in values)
        assert report.sigma_p - values[-1] < 5e-3


class TestBubbleLowerBound:
    LP = LogParams(1.0, 0.5)

    def test_within_slack_of_constant(self, grid, report):
        bb = bubble_lower_bound(P0, self.LP, (1e-2, 1e-3, 1e-4, 1e-5), grid)
        assert isinstance(bb, BubbleBound)
        assert bb.best_value >= report.sigma_p - 1e-3

    def test_never_beats_the_maximizer(self, grid):
        seeds = (1e-2, 1e-3, 1e-4)
        bb = bubble_lower_bound(P0, self.LP, seeds, grid)
        res = maximize_F(P0, self.LP, grid, eps_seeds=seeds)
        assert bb.best_value <= res.value + 1e-9

    def test_random_unit_profiles_stay_below_computed_bound(self, grid):
        res = maximize_F(P0, self.LP, grid)
        rng = np.random.default_rng(31)
        for _ in range(20):
            u = normalize(random_smooth_profile(grid, rng), P0)
            assert J(u, self.LP, P0) <= res.value + 1e-9


class TestBetaSweep:
    def test_gap_collapses_monotonically(self, grid):
        rows = beta_sweep(P0, 1.0, (1.0, 4.0, 16.0), grid)
        gaps = [gap for _, _, gap in rows]
        assert all(gaps[i + 1] <= gaps[i] + 1e-9 for i in range(len(gaps) - 1))
        assert gaps[-1] < 0.01


def _bubble_family(grid, eps_values, r0=0.2):
    rep = bliss.compute_S(DC0)
    a_hat = rep.a_hat
    return [normalize(bliss.bubble_profile(bliss.BubbleSpec(e, a_hat, r0), grid, DC0), P0)
            for e in eps_values]


class TestNcsCheck:
    def test_bubble_family_is_ncs(self, grid):
        family = _bubble_family(grid, (1e-2, 1e-3, 1e-4))
        report = ncs_check(family, P0)
        assert report.is_ncs

    def test_constant_family_is_not(self, grid):
        u = _bubble_family(grid, (1e-2,))[0]
        report = ncs_check([u, u, u], P0)
        assert not report.is_ncs             # tail energy stuck
        assert report.normalized_ok

    def test_wrong_normalization_detected(self, grid):
        family = [u.scaled(2.0) for u in _bubble_family(grid, (1e-2, 1e-3, 1e-4))]
        report = ncs_check(family, P0)
        assert not report.normalized_ok

    def test_needs_three_profiles(self, grid):
        family = _bubble_family(grid, (1e-2, 1e-3))
        with pytest.raises(ValidationError, match="3 profiles"):
            ncs_check(family, P0)


class TestConcentrationLevel:
    def test_tau_e_family_below_bound(self, grid, report):
        family = _bubble_family(grid, (1e-2, 1e-3, 1e-4, 1e-5))
        ncs = ncs_check(family, P0)
        level = concentration_level_check(family, LogParams(math.e, 1.0), P0,
                                          report.sigma_p, tail_start=1, ncs_report=ncs)
        assert not level.skipped
        assert level.passed

    def test_non_concentrating_family_skipped(self, grid, report):
        u = _bubble_family(grid, (1e-2,))[0]
        ncs = ncs_check([u, u, u], P0)
        level = concentration_level_check([u, u, u], LogParams(1.0, 0.5), P0,
                                          report.sigma_p, ncs_report=ncs)
        assert level.skipped


class TestScalarStationarity:
    LP = LogParams(1.0, 0.5)

    def test_closed_form_when_factor_is_state_independent(self, grid):
        # at huge tau the factor barely sees t (variation O(|u|/(tau ln tau))),
        # so the root must match the explicit (||u||^p / K)^(1/(p*-p)) with K
        # evaluated at t = 1
        u = _bubble_family(grid, (1e-3,))[0].scaled(0.9)
        lp = LogParams(1e8, 0.5)
        n_p = dirichlet_norm(u, P0) ** 2
        t_star = solve_t_eps(u, lp, P0)
        t_pred = (n_p / J(u, lp, P0)) ** (1.0 / 4.0)
        assert t_star == pytest.approx(t_pred, rel=1e-6)

    def test_root_tends_to_one(self, grid):
        t_values = []
        for eps in (1e-3, 1e-4, 1e-5):
            u = _bubble_family(grid, (eps,))[0]
            t_values.append(solve_t_eps(u, self.LP, P0))
        assert abs(t_values[-1] - 1.0) < abs(t_values[0] - 1.0)
        assert abs(t_values[-1] - 1.0) < 0.05

    def test_residual_contract(self, grid):
        u = _bubble_family(grid, (1e-4,))[0]
        t_star = solve_t_eps(u, self.LP, P0)
        n_p = dirichlet_norm(u, P0) ** 2
        from hslog.functionals import log_factor_nodes
        from hslog.radial import weighted_integral

        lf = log_factor_nodes(u.grid.node_power(self.LP.beta), t_star * u.values, self.LP)
        k = weighted_integral(u.grid, np.abs(u.values) ** 6 * lf, 2.0)
        assert abs(t_star * n_p - t_star**5 * k) < 1e-10

    @pytest.mark.parametrize("c", [0.05, 1.0, 20.0])
    def test_no_t_evaluated_twice(self, grid, monkeypatch, c):
        # brent_root reuses the residual at both bracket ends and at the root
        calls = []
        stationarity = analysis._stationarity

        def recording(t, *args):
            calls.append(t)
            return stationarity(t, *args)

        monkeypatch.setattr(analysis, "_stationarity", recording)
        solve_t_eps(_bubble_family(grid, (1e-3,))[0].scaled(c), self.LP, P0)
        assert len(calls) == len(set(calls))

    def _assert_bracket_failure(self, grid, monkeypatch, k, side):
        # a ray sum J(t u)/t^p* = k t^(p-p*) ||u||^p makes d/dt I(t u) =
        # (1 - k) t^(p-1) ||u||^p, of one sign for every t: negative (k > 1)
        # or positive (k < 1)
        u = _bubble_family(grid, (1e-3,))[0]
        n_p = dirichlet_norm(u, P0) ** P0.p
        p_star = critical_exponent(P0)
        monkeypatch.setattr(analysis, "ray_sum", lambda terms, t: k * n_p * t ** (P0.p - p_star))
        with pytest.raises(NumericalError, match=f"could not bracket t_eps from {side}"):
            solve_t_eps(u, self.LP, P0)

    def test_no_sign_change_reported(self, grid, monkeypatch):
        self._assert_bracket_failure(grid, monkeypatch, 2.0, "below")

    def test_no_sign_change_above_reported(self, grid, monkeypatch):
        self._assert_bracket_failure(grid, monkeypatch, 0.5, "above")

    @pytest.mark.parametrize("c", [0.05, 20.0])
    def test_root_outside_the_start_bracket(self, grid, c):
        # the root for c u is the root for u divided by c, here outside (0.5, 2)
        u = _bubble_family(grid, (1e-4,))[0]
        t_star = solve_t_eps(u.scaled(c), self.LP, P0)
        assert not 0.5 < t_star < 2.0
        assert t_star * c == pytest.approx(solve_t_eps(u, self.LP, P0), rel=1e-12)

    def test_profile_not_retained(self, grid):
        # with the collector off, a profile caught in a reference cycle would never be freed
        gc.disable()
        try:
            u = _bubble_family(grid, (1e-4,))[0]
            solve_t_eps(u, self.LP, P0)
            ref = weakref.ref(u)
            del u
            assert ref() is None
        finally:
            gc.enable()


def _scan_and_polish(u, lp, ps):
    # reference maximum of t -> I(t u) from energy values alone: 60 log-spaced
    # t in [1e-2, 10], then a bounded polish around the best; also the scan's max
    def energy_at(t):
        return energy_I(u.scaled(t), lp, ps)

    ts = np.exp(np.linspace(math.log(1e-2), math.log(10.0), 60))
    vals = np.array([energy_at(t) for t in ts])
    i = int(np.argmax(vals))
    res = minimize_scalar(lambda t: -energy_at(t), bounds=(ts[max(0, i - 1)], ts[min(59, i + 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return float(-res.fun), float(vals.max())


class TestMountainPass:
    LP = LogParams(1.0, 0.5)
    SPEC = bliss.BubbleSpec(1e-4, 1.0, 0.2)

    def test_gap_positive_and_ray_shape(self, grid):
        mp = mountain_pass_gap(self.SPEC, self.LP, P0, grid)
        assert mp.threshold == pytest.approx(math.sqrt(3) * math.pi / 16, rel=1e-9)
        assert mp.max_energy < mp.threshold
        assert mp.gap > 0
        u = bliss.bubble_profile(self.SPEC, grid, DC0)
        assert energy_I(u.scaled(10.0), self.LP, P0) < 0     # far end of the ray is negative

    def test_maximum_above_its_neighbours(self, grid):
        mp = mountain_pass_gap(self.SPEC, self.LP, P0, grid)
        u = bliss.bubble_profile(self.SPEC, grid, DC0)
        assert mp.max_energy == energy_I(u.scaled(mp.t_at_max), self.LP, P0)
        for f in (1.0 - 1e-3, 1.0 + 1e-3):
            assert mp.max_energy >= energy_I(u.scaled(f * mp.t_at_max), self.LP, P0)

    def test_matches_the_scan_and_polish(self, grid):
        mp = mountain_pass_gap(self.SPEC, self.LP, P0, grid)
        polished, scanned = _scan_and_polish(bliss.bubble_profile(self.SPEC, grid, DC0),
                                             self.LP, P0)
        assert abs(mp.max_energy - polished) <= 1e-14
        assert scanned <= mp.max_energy


class TestSphereScan:
    def test_small_spheres_have_positive_energy(self, grid):
        out = energy_sphere_scan(P0, LogParams(1.0, 0.5), grid,
                                 rho_list=(0.1, 0.2, 0.4), n_profiles=15)
        for rho, min_i in out.items():
            assert min_i > 0


def _grad_full(u, lp, ps):
    # the untrimmed full-array formula
    p_star = critical_exponent(ps)
    r, v = u.grid.nodes, u.values
    if lp is None:
        grad = p_star * v ** (p_star - 1.0)
        return u.grid.quad_weights(ps.theta) * np.where(v > 0.0, grad, 0.0)
    e = r**lp.beta
    x = np.log(lp.tau + v)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = p_star * v ** (p_star - 1.0) * x**e + v**p_star * e * x ** (e - 1.0) / (
            lp.tau + v
        )
    return u.grid.quad_weights(ps.theta) * np.where((v > 0.0) & (x > 0.0), grad, 0.0)


class TestGradient:
    @pytest.mark.parametrize("kind", ["cutoff-bubble", "random", "interior-zeros", "zero"])
    @pytest.mark.parametrize("lp", [None, LogParams(1.0, 0.5), LogParams(2.0, 1.0)])
    def test_trimmed_equals_full_formula(self, grid, kind, lp):
        # the ascent's profiles are nonnegative
        if kind == "cutoff-bubble":
            u = _bubble_family(grid, (1e-3,))[0]
        else:
            vals = np.abs(random_smooth_profile(grid, np.random.default_rng(31)).values)
            if kind == "interior-zeros":
                vals[::7] = 0.0
                vals[-13:] = 0.0
            elif kind == "zero":
                vals[:] = 0.0
            u = Profile(grid, vals)
        grad = _grad_J_values(u, lp, P0)
        assert np.array_equal(grad, _grad_full(u, lp, P0))
        if kind == "zero":
            assert not np.any(grad)
