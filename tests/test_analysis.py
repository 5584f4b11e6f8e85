"""Tests for rate fitting, the sphere maximizer, and concentration checks."""

import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hslog import analysis, bliss, radial
from hslog.analysis import (
    beta_sweep,
    concentration_level_check,
    maximize_F,
    mountain_pass_gap,
    ncs_check,
    sine_profile,
    solve_t_eps,
)
from hslog.bliss import RATE_MODELS, rate_fit
from hslog.functionals import JNodes, LogParams, J, energy_I
from hslog.params import (
    NumericalError,
    ValidationError,
    validate_params,
)
from hslog.radial import Profile, dirichlet_norm, make_grid

from helpers import (
    grid_energy,
    grid_ray_terms,
    normalize,
    plain_log_factor,
    random_smooth_profile,
)

P0 = validate_params(2, 2, 2, 2)


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
            rate_fit([(1e-1, 1.0), (1e-2, 0.1), (1e-3, 0.01)], model="pure-power")

    @pytest.mark.parametrize("model", RATE_MODELS)
    def test_needs_two_distinct_eps(self, model):
        # the slope's denominator, the spread of ln eps, would be zero
        with pytest.raises(ValidationError, match="2 distinct eps"):
            rate_fit([(1e-3, 1.0), (1e-3, 0.5), (1e-3, 0.2), (1e-3, 0.1)], model=model)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError, match="positive"):
            rate_fit([(1e-1, 1.0), (1e-2, -0.1), (1e-3, 0.01), (1e-4, 0.001)],
                     model="pure-power")

    def test_unknown_model(self):
        with pytest.raises(ValidationError, match="model"):
            rate_fit([(1e-1, 1.0)] * 4, model="cubic")


class TestMaximizer:
    LP = LogParams(1.0, 0.5)

    def test_exceeds_unperturbed_constant(self, grid):
        res = maximize_F(P0, self.LP, grid)
        assert res.value >= P0.sigma_p + 1e-3
        assert dirichlet_norm(res.profile, P0) == pytest.approx(1.0, abs=1e-10)
        # the value is J of the returned profile, bit for bit
        assert res.value == J(res.profile, self.LP, P0)
        unperturbed = maximize_F(P0, None, grid)
        assert unperturbed.value == J(unperturbed.profile, None, P0)

    def test_seed_order_invariance(self, grid):
        seeds = (1e-2, 1e-3, 1e-4)
        a = maximize_F(P0, self.LP, grid, eps_seeds=seeds)
        b = maximize_F(P0, self.LP, grid, eps_seeds=seeds[::-1])
        assert a.value == b.value
        assert a.seed_epsilon == b.seed_epsilon

    @pytest.mark.parametrize("order", [1, -1])
    def test_running_best_keeps_one_result(self, grid, order, monkeypatch):
        # ascents scripted to tie on value: the tie goes to the smallest seed
        # in either order, and while an ascent runs, no earlier result but
        # the best so far and the one just returned is alive
        values = {1e-2: 0.5, 3e-3: 0.9, 1e-3: 0.7, 3e-4: 0.9, 1e-4: 0.2, 1e-5: 0.9}
        profiles, alive = [], []

        def scripted(u, eps, *args):
            alive.append(sum(r() is not None for r in profiles))
            profiles.append(weakref.ref(u))
            return analysis.MaximizeResult(u, values[eps], 1, True, eps)

        monkeypatch.setattr(analysis, "_ascend", scripted)
        gc.disable()
        try:
            res = maximize_F(P0, self.LP, grid, eps_seeds=tuple(values)[::order])
            assert (res.value, res.seed_epsilon) == (0.9, 1e-5)
            assert max(alive) <= 2
            assert [r() for r in profiles if r() is not None] == [res.profile]
        finally:
            gc.enable()

    def test_monotone_in_tau(self, grid):
        values = [maximize_F(P0, LogParams(tau, 0.5), grid).value
                  for tau in (1.0, math.e, 10.0)]
        assert values[0] <= values[1] <= values[2]

    @pytest.mark.parametrize("pv,lp,value,iterations", [
        ((2, 2, 2, 2), LogParams(1.0, 0.5), "0x1.f2a1193e132f8p-1", 8),
        ((2, 2, 2, 2), LogParams(0.5, 0.5), "0x1.f29789cde97c2p-1", 8),
        ((3, 2, 4, 4), LogParams(1.0, 0.5), "0x1.f6ec3c0c93331p-1", 13),
        ((2, 2, 2, 2), None, "0x1.ec85621133652p-1", 1),
    ])
    def test_outcome_pinned(self, grid, pv, lp, value, iterations):
        # F_hat bit for bit and the winning ascent's iteration count; the
        # profile's last bits may move with the gradient's rounding
        res = maximize_F(validate_params(*pv), lp, grid)
        assert (res.value.hex(), res.iterations, res.converged) == (value, iterations, True)

    @pytest.mark.parametrize("lp", [None, LogParams(1.0, 0.5), LogParams(0.5, 0.5)])
    def test_support_trim_is_bit_identical(self, grid, lp, monkeypatch):
        # the Dirichlet work of a step runs on the seed's support and one
        # node past it; on the whole grid the ascent makes the same iterates
        seed = bliss.bubble_profile(bliss.BubbleSpec(1e-3, P0.a_hat), grid, P0)
        work = analysis._AscentWork(grid.m)
        work.start(seed)
        assert work.n == seed.support_end() + 1 < grid.m
        trimmed = maximize_F(P0, lp, grid)
        monkeypatch.setattr(analysis._AscentWork, "start", lambda self, seed: None)
        full = maximize_F(P0, lp, grid)
        assert np.array_equal(trimmed.profile.values, full.profile.values)
        assert (trimmed.value, trimmed.iterations) == (full.value, full.iterations)

    def test_large_beta_approaches_unperturbed_constant(self, grid):
        res = maximize_F(P0, LogParams(1.0, 16.0), grid)
        assert abs(res.value - P0.sigma_p) < 0.01

    def test_projection_is_the_normalized_nonnegative_part(self, grid):
        # the profile _project checks is the one it returns, with the values
        # of the separate division it replaces, written over its input
        vals = random_smooth_profile(grid, np.random.default_rng(5)).values
        ref = np.maximum(vals, 0.0)
        ref[-1] = 0.0
        ref = ref / dirichlet_norm(Profile(grid, ref), P0)
        work = analysis._AscentWork(grid.m)
        u = analysis._project(vals, grid, P0, work)
        assert np.array_equal(u.values, ref)
        assert u.values is vals
        assert analysis._project(-np.abs(vals), grid, P0, work) is None

    def test_unresolvable_seeds_rejected(self):
        tiny = make_grid(16, 1.0)
        with pytest.raises(ValidationError, match="seed"):
            maximize_F(P0, self.LP, tiny, eps_seeds=(1e-5,))

    def test_unperturbed_variant_approaches_sigma_from_below(self):
        # seeds widen with the mesh so each bubble stays well resolved;
        # within that window the discrete supremum sits under sigma_p
        couplings = [(1000, (1e-2, 3e-3, 1e-3)),
                     (2000, (1e-2, 3e-3, 1e-3, 3e-4)),
                     (4000, (1e-2, 3e-3, 1e-3, 3e-4, 1e-4))]
        values = [maximize_F(P0, None, make_grid(m, 3.0), eps_seeds=seeds).value
                  for m, seeds in couplings]
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
        assert all(v < P0.sigma_p for v in values)
        assert P0.sigma_p - values[-1] < 5e-3


class TestAscentLineSearch:
    """The line search stops once step times the first-order gain of the
    projected step is below the convergence threshold."""

    # (beta, seed eps) -> (iterations, converged, value) of each ascent on the
    # README config at M = 2000, from the search that halves down to a step of
    # 1e-16: stopping at the first-order floor must not change where it ends
    PINNED = {
        (0.5, 1e-2): (13, True, 0.7660962978371948),
        (0.5, 3e-3): (12, True, 0.9183466759537422),
        (0.5, 1e-3): (10, True, 0.9639346052910884),
        (0.5, 3e-4): (8, True, 0.9738853348040657),
        (0.5, 1e-4): (7, True, 0.9724568373413087),
        (0.5, 1e-5): (3, True, 0.9674290436243778),
        (1.0, 1e-2): (13, True, 0.7136824140395448),
        (1.0, 3e-3): (11, True, 0.8704143245236686),
        (1.0, 1e-3): (9, True, 0.9285155546756096),
        (1.0, 3e-4): (7, True, 0.9509508469463561),
        (1.0, 1e-4): (5, True, 0.9577169309651901),
        (1.0, 1e-5): (1, True, 0.9619754089815613),
        (16.0, 1e-2): (13, True, 0.7074965253051048),
        (16.0, 3e-3): (11, True, 0.8673277825175153),
        (16.0, 1e-3): (9, True, 0.9272154925042546),
        (16.0, 3e-4): (7, True, 0.9504904702622622),
        (16.0, 1e-4): (5, True, 0.957544861815125),
        (16.0, 1e-5): (1, True, 0.9619551321026827),
    }

    # beta -> (F_hat.hex(), iterations, sha256 of the profile) on the README
    # config at M = 2000
    BITS = {
        0.5: ("0x1.f2a1193e132f8p-1", 8,
              "de9ad064b840d0cc0f4cc0b3ebb9b9d0cbbc9715c63116748351f61127691d38"),
        16.0: ("0x1.ec85621133652p-1", 1,
               "5846a20a0c12624231631782f57f8064f0f4ba93accb33c935f7c18227210119"),
    }

    @pytest.mark.parametrize("beta", sorted(BITS))
    def test_maximizer_bits(self, grid, beta):
        res = maximize_F(P0, LogParams(1.0, beta), grid)
        digest = hashlib.sha256(res.profile.values.tobytes()).hexdigest()
        assert (res.value.hex(), res.iterations, digest) == self.BITS[beta]

    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4)])
    @pytest.mark.parametrize("lp", [None, LogParams(1.0, 0.5), LogParams(0.5, 0.5)])
    def test_gain_matches_central_difference(self, grid, pv, lp):
        ps = validate_params(*pv)
        bubble = bliss.bubble_profile(bliss.BubbleSpec(1e-2, ps.a_hat), grid, ps)
        work = analysis._AscentWork(grid.m)
        u = analysis._project(bubble.values, grid, ps, work)
        work.accept()
        J(u, lp, ps, work.at_u)
        direction = work.at_u.gradient(np.empty(grid.m))
        scale = float(np.sqrt(direction @ direction))
        h = direction / scale

        def f(s):
            return J(analysis._project(u.values + s * h, grid, ps, work), lp, ps)

        s = 1e-3
        gain = analysis._first_order_gain(u, direction, scale, ps, work)
        assert (f(s) - f(-s)) / (2 * s) == pytest.approx(gain, rel=1e-7)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_gain_rejects_a_nonfinite_direction(self, grid, bad):
        bubble = bliss.bubble_profile(bliss.BubbleSpec(1e-2, P0.a_hat), grid, P0)
        work = analysis._AscentWork(grid.m)
        work.start(bubble)
        u = analysis._project(bubble.values, grid, P0, work)
        work.accept()
        J(u, LogParams(1.0, 0.5), P0, work.at_u)
        direction = work.at_u.gradient(np.empty(grid.m))
        direction[work.n // 2] = bad
        # the norm of the direction is then inf or NaN, which the gain checks
        scale = float(np.sqrt(direction @ direction))
        with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="not finite"):
            analysis._first_order_gain(u, direction, scale, P0, work)

    def test_ascent_rejects_a_nan_direction(self, grid, monkeypatch):
        gradient = analysis.JNodes.gradient

        def poisoned(self, out):
            gradient(self, out)
            out[np.flatnonzero(out)[0]] = np.nan
            return out

        monkeypatch.setattr(analysis.JNodes, "gradient", poisoned)
        with pytest.raises(ValidationError, match="^the ascent direction is not finite$"):
            maximize_F(P0, LogParams(1.0, 0.5), grid, eps_seeds=(1e-3,))

    @pytest.mark.parametrize("beta", [0.5, 1.0, 16.0])
    def test_outcome_pinned_and_budget(self, grid, beta, monkeypatch):
        calls = [0]
        ascents = []
        j, ascend = analysis.J, analysis._ascend

        def counted_J(*args):
            calls[0] += 1
            return j(*args)

        def recorded_ascend(*args):
            calls[0] = 0
            res = ascend(*args)
            ascents.append((res, calls[0]))
            return res

        monkeypatch.setattr(analysis, "J", counted_J)
        monkeypatch.setattr(analysis, "_ascend", recorded_ascend)
        maximize_F(P0, LogParams(1.0, beta), grid)
        assert len(ascents) == 6
        for res, n_calls in ascents:
            iterations, converged, value = self.PINNED[(beta, res.seed_epsilon)]
            assert (res.iterations, res.converged) == (iterations, converged)
            assert res.value <= value
            assert res.value == pytest.approx(value, rel=1e-14, abs=0.0)
            # the start value and a few trials per iteration; halving to a
            # step of 1e-16 takes some 40 in the last iteration alone
            assert n_calls <= 3 * res.iterations + 1


class TestBubbleLowerBound:
    """J of a normalized bubble or a random unit profile bounds maximize_F
    from below."""

    LP = LogParams(1.0, 0.5)

    def test_never_beats_the_maximizer(self, grid):
        seeds = (1e-2, 1e-3, 1e-4)
        res = maximize_F(P0, self.LP, grid, eps_seeds=seeds)
        for eps in seeds:
            u = normalize(bliss.bubble_profile(bliss.BubbleSpec(eps, P0.a_hat), grid, P0), P0)
            assert J(u, self.LP, P0) <= res.value + 1e-9

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
    return [normalize(bliss.bubble_profile(bliss.BubbleSpec(e, P0.a_hat, r0), grid, P0), P0)
            for e in eps_values]


def _node_family(eps_values):
    return [bliss.bubble_nodes(bliss.BubbleSpec(e, P0.a_hat), P0) for e in eps_values]


class TestNcsCheck:
    def test_bubble_family_is_ncs(self):
        report = ncs_check(_node_family((1e-2, 1e-3, 1e-4)), P0)
        assert report.is_ncs

    def test_constant_family_is_not(self):
        b = _node_family((1e-2,))[0]
        report = ncs_check([b, b, b], P0)
        assert not report.is_ncs             # tail energy stuck
        assert report.tails[0.1][0] > 1e-2

    def test_needs_three_profiles(self):
        with pytest.raises(ValidationError, match="3 profiles"):
            ncs_check(_node_family((1e-2, 1e-3)), P0)

    def test_unconverged_norm_rule_names_eps(self, monkeypatch):
        # the L^p_theta norms are sums at the bubbles' nodes under the rule's check
        family = _node_family((1e-2, 1e-3, 1e-4))
        monkeypatch.setattr(bliss, "bubble_dirichlet_tail", lambda spec, radius, ps: 1e-3)
        monkeypatch.setattr(radial, "_RULE_TOL", -1.0)   # no estimate passes
        with pytest.raises(NumericalError, match=r"L\^p_theta norm quadrature at eps=0.01 "
                                                 r"did not converge"):
            ncs_check(family, P0)

    def test_tails_and_norms_at_unit_norm(self):
        # README tuple, r0 = 0.2: the cut radii are r0/2, r0 and 3 r0/2, inside
        # the support [0, 2 r0]
        report = ncs_check(_node_family((1e-2, 1e-3, 1e-4, 1e-5)), P0)
        inner, edge, outer = sorted(report.tails)
        assert (inner, edge, outer) == pytest.approx((0.1, 0.2, 0.3), abs=1e-15)
        assert report.tails[inner][0] == pytest.approx(2.579e-1, rel=1e-3)
        assert report.tails[inner][-1] == pytest.approx(2.910e-4, rel=1e-3)
        assert report.tails[edge][0] == pytest.approx(1.835e-1, rel=1e-3)
        assert report.tails[edge][-1] == pytest.approx(2.061e-4, rel=1e-3)
        assert report.tails[outer][0] == pytest.approx(6.663e-2, rel=1e-3)
        assert report.tails[outer][-1] == pytest.approx(7.48e-5, rel=1e-3)
        assert report.lp_theta_norms[0] == pytest.approx(6.311e-2, rel=1e-3)
        assert report.lp_theta_norms[-1] == pytest.approx(2.174e-3, rel=1e-3)


class TestConcentrationLevel:
    def test_tau_e_family_below_bound(self):
        family = _node_family((1e-2, 1e-3, 1e-4, 1e-5))
        ncs = ncs_check(family, P0)
        level = concentration_level_check(family, LogParams(math.e, 1.0), P0, 1, ncs)
        assert not level.skipped
        assert level.passed

    def test_non_concentrating_family_skipped(self):
        b = _node_family((1e-2,))[0]
        ncs = ncs_check([b, b, b], P0)
        level = concentration_level_check([b, b, b], LogParams(1.0, 0.5), P0, 0, ncs)
        assert level.skipped


def _t_eps(u, lp):
    """solve_t_eps for a grid profile, from its ray terms and ||u||^p."""
    return solve_t_eps(grid_ray_terms(u, lp, P0), dirichlet_norm(u, P0) ** P0.p, P0)


class TestScalarStationarity:
    LP = LogParams(1.0, 0.5)

    def test_closed_form_when_factor_is_state_independent(self, grid):
        # at huge tau the factor barely sees t (variation O(|u|/(tau ln tau))),
        # so the root must match the explicit (||u||^p / K)^(1/(p*-p)) with K
        # evaluated at t = 1
        u = _bubble_family(grid, (1e-3,))[0]
        u = Profile(grid, 0.9 * u.values)
        lp = LogParams(1e8, 0.5)
        n_p = dirichlet_norm(u, P0) ** 2
        t_star = _t_eps(u, lp)
        t_pred = (n_p / J(u, lp, P0)) ** (1.0 / 4.0)
        assert t_star == pytest.approx(t_pred, rel=1e-6)

    def test_root_tends_to_one(self, grid):
        t_values = []
        for eps in (1e-3, 1e-4, 1e-5):
            u = _bubble_family(grid, (eps,))[0]
            t_values.append(_t_eps(u, self.LP))
        assert abs(t_values[-1] - 1.0) < abs(t_values[0] - 1.0)
        assert abs(t_values[-1] - 1.0) < 0.05

    def test_residual_contract(self, grid):
        u = _bubble_family(grid, (1e-4,))[0]
        t_star = _t_eps(u, self.LP)
        n_p = dirichlet_norm(u, P0) ** 2
        from hslog.radial import weighted_integral

        lf = plain_log_factor(u.grid.nodes**self.LP.beta, t_star * u.values, self.LP)
        k = weighted_integral(u.grid, np.abs(u.values) ** 6 * lf, 2.0)
        assert abs(t_star * n_p - t_star**5 * k) < 1e-10

    @pytest.mark.parametrize("c", [0.05, 1.0, 20.0])
    def test_no_t_evaluated_twice(self, grid, monkeypatch, c):
        # brent_root reuses the residual at both bracket ends and at the root,
        # and the stationarity check reads the last one
        calls, sums = [], []
        stationarity = analysis._log_stationarity
        ray_sum = analysis.ray_sum

        def recording(x, *args):
            calls.append(x)
            return stationarity(x, *args)

        monkeypatch.setattr(analysis, "_log_stationarity", recording)
        monkeypatch.setattr(analysis, "ray_sum",
                            lambda terms, t: sums.append(t) or ray_sum(terms, t))
        u = _bubble_family(grid, (1e-3,))[0]
        _t_eps(Profile(grid, c * u.values), self.LP)
        assert len(calls) == len(set(calls)) == len(sums)

    def _assert_bracket_failure(self, grid, monkeypatch, ray_sum, side):
        u = _bubble_family(grid, (1e-3,))[0]
        n_p = dirichlet_norm(u, P0) ** P0.p
        calls = []
        monkeypatch.setattr(analysis, "ray_sum",
                            lambda terms, t: calls.append(t) or ray_sum(t, n_p))
        with pytest.raises(NumericalError, match=f"could not bracket t_eps from {side}"):
            _t_eps(u, self.LP)
        # x = 0, its power-law point and 199 steps of ln 2
        assert len(calls) == 201

    # a ray sum J(t u)/t^p* = k t^(p-p*) ||u||^p makes d/dt I(t u) =
    # (1 - k) t^(p-1) ||u||^p, of one sign for every t: negative (k > 1)
    # or positive (k < 1)
    def test_no_sign_change_reported(self, grid, monkeypatch):
        self._assert_bracket_failure(grid, monkeypatch,
                                     lambda t, n_p: 2.0 * n_p * t ** (P0.p - P0.p_star), "below")

    def test_no_sign_change_above_reported(self, grid, monkeypatch):
        self._assert_bracket_failure(grid, monkeypatch,
                                     lambda t, n_p: 0.5 * n_p * t ** (P0.p - P0.p_star), "above")

    @pytest.mark.parametrize("value,side", [(math.inf, "below"), (0.0, "above")])
    def test_overflow_and_underflow_reported(self, grid, monkeypatch, value, side):
        # an overflowing (underflowing) ray sum is no ValueError of math.log
        self._assert_bracket_failure(grid, monkeypatch, lambda t, n_p: value, side)

    def test_at_most_5_ray_sums_per_root(self, monkeypatch):
        # the README mp_epsilon_list bubbles, as mountain_pass_gap reads them;
        # 12-13 ray sums each when the root was taken in t from (0.5, 2)
        lp = LogParams(1.0, 0.5)
        ray_sum = analysis.ray_sum
        for eps in (1e-3, 1e-4, 1e-5):
            calls = []
            monkeypatch.setattr(analysis, "ray_sum",
                                lambda terms, t: calls.append(t) or ray_sum(terms, t))
            analysis.mountain_pass_gap(bliss.BubbleSpec(eps, P0.a_hat), lp, P0)
            assert 3 <= len(calls) <= 5

    def test_zero_profile_rejected(self, grid):
        u = Profile(grid, np.zeros(grid.m))
        with pytest.raises(ValidationError, match=r"\|\|u\|\|\^p > 0"):
            _t_eps(u, self.LP)

    @pytest.mark.parametrize("c", [0.05, 20.0])
    def test_root_outside_the_start_bracket(self, grid, c):
        # the root for c u is the root for u divided by c, here outside (0.5, 2)
        u = _bubble_family(grid, (1e-4,))[0]
        t_star = _t_eps(Profile(grid, c * u.values), self.LP)
        assert not 0.5 < t_star < 2.0
        assert t_star * c == pytest.approx(_t_eps(u, self.LP), rel=1e-12)

    def test_profile_not_retained(self, grid):
        # with the collector off, a profile caught in a reference cycle would never be freed
        gc.disable()
        try:
            u = _bubble_family(grid, (1e-4,))[0]
            _t_eps(u, self.LP)
            ref = weakref.ref(u)
            del u
            assert ref() is None
        finally:
            gc.enable()


def _scan_and_polish(energy_at):
    # reference maximum of t -> I(t u) from energy values alone: 60 log-spaced
    # t in [1e-2, 10], then a bounded polish around the best; also the scan's max
    ts = np.exp(np.linspace(math.log(1e-2), math.log(10.0), 60))
    vals = np.array([energy_at(t) for t in ts])
    i = int(np.argmax(vals))
    res = minimize_scalar(lambda t: -energy_at(t), bounds=(ts[max(0, i - 1)], ts[min(59, i + 1)]),
                          method="bounded", options={"xatol": 1e-12})
    return float(-res.fun), float(vals.max())


class TestMountainPass:
    LP = LogParams(1.0, 0.5)
    SPEC = bliss.BubbleSpec(1e-4, 1.0, 0.2)

    def _energy_at(self, t):
        bubble = bliss.bubble_nodes(self.SPEC, P0)
        return energy_I(bubble.nodes, t * bubble.u, t**P0.p * bubble.norm_p, self.LP, P0, "I")

    def test_gap_positive_and_ray_shape(self):
        mp = mountain_pass_gap(self.SPEC, self.LP, P0)
        assert mp.threshold == pytest.approx(math.sqrt(3) * math.pi / 16, rel=1e-9)
        assert mp.max_energy < mp.threshold
        assert mp.gap > 0
        assert self._energy_at(10.0) < 0     # far end of the ray is negative

    def test_maximum_above_its_neighbours(self):
        mp = mountain_pass_gap(self.SPEC, self.LP, P0)
        assert mp.max_energy == self._energy_at(mp.t_at_max)
        for f in (1.0 - 1e-3, 1.0 + 1e-3):
            assert mp.max_energy >= self._energy_at(f * mp.t_at_max)

    def test_matches_the_scan_and_polish(self):
        mp = mountain_pass_gap(self.SPEC, self.LP, P0)
        polished, scanned = _scan_and_polish(self._energy_at)
        assert abs(mp.max_energy - polished) <= 1e-14
        assert scanned <= mp.max_energy

    def test_gap0_closed_form_peak(self):
        # with the log factor off, I(t u) = t^p ||u||^p / p - t^p* J0 / p*;
        # gap0 is the level minus its peak, read here from a scan
        mp = mountain_pass_gap(self.SPEC, self.LP, P0)
        nodes = bliss.bubble_nodes(self.SPEC, P0)
        res = minimize_scalar(lambda t: -(t**2 * nodes.norm_p / 2 - t**6 * nodes.j0 / 6),
                              bounds=(0.5, 2.0), method="bounded", options={"xatol": 1e-12})
        assert mp.gap0 == pytest.approx(mp.threshold + res.fun, abs=1e-14)
        assert mp.gap0 < 0 < mp.gap

    def test_no_mesh_needed_below_any_grid(self):
        # eps far below what a mesh could resolve still gives a finite gap,
        # with gap0 below 0 as the sharp inequality demands
        mp = mountain_pass_gap(bliss.BubbleSpec(1e-12), self.LP, P0)
        assert math.isfinite(mp.gap) and mp.gap0 < 0

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValidationError, match="tau >= 1"):
            mountain_pass_gap(self.SPEC, LogParams(0.5, 0.5), P0)


class TestMountainPassOffTheMesh:
    """The mesh-free maximum against the grid path it replaced, at M = 64000.

    The grid path's error is second order: max_I moves by +2.1e-7, +9.6e-7
    and +4.5e-6 from M = 16000 (eps = 1e-3, 1e-4, 1e-5), so M = 64000
    leaves 1.3e-8, 6e-8 and 2.8e-7; the check allows twice that.
    """

    LP = LogParams(1.0, 0.5)

    @pytest.mark.parametrize("eps, mesh_error", [(1e-3, 1.3e-8), (1e-4, 6e-8), (1e-5, 2.8e-7)])
    def test_matches_the_fine_mesh(self, eps, mesh_error):
        spec = bliss.BubbleSpec(eps)
        u = bliss.bubble_profile(spec, make_grid(64000, 3.0), P0)
        t_mesh = _t_eps(u, self.LP)
        on_mesh = grid_energy(Profile(u.grid, t_mesh * u.values), self.LP, P0)
        mp = mountain_pass_gap(spec, self.LP, P0)
        assert abs(mp.max_energy - on_mesh) <= 2.0 * mesh_error
        assert mp.t_at_max == pytest.approx(t_mesh, rel=1e-5)


class TestSphereScan:
    def test_small_spheres_have_positive_energy(self, grid):
        # I > 0 on small spheres: the mountain-pass geometry near 0
        lp, rng = LogParams(1.0, 0.5), np.random.default_rng(2024)
        profiles = [normalize(random_smooth_profile(grid, rng), P0) for _ in range(15)]
        for rho in (0.1, 0.2, 0.4):
            assert min(grid_energy(Profile(grid, rho * u.values), lp, P0) for u in profiles) > 0


def _grad_full(u, lp, ps):
    # the untrimmed full-array form of the identity the gradient uses:
    # d/du [u^p* |x|^e] = f (p*/u + e/(x arg)), f = u^p* |x|^e, arg = tau + u,
    # x = ln(arg), since sign(x) |x|^(e-1) = |x|^e / x; f/u is taken first
    p_star = ps.p_star
    v = u.values
    f = np.abs(v) ** p_star
    with np.errstate(divide="ignore", invalid="ignore"):
        if lp is None:
            return u.grid.quad_weights(ps.theta) * np.where(v > 0.0, f / v * p_star, 0.0)
        e = u.grid.nodes**lp.beta
        arg = lp.tau + np.abs(v)
        x = np.log(arg)
        f = f * np.abs(x) ** e
        grad = f / v * p_star + e / (x * arg) * f
    return u.grid.quad_weights(ps.theta) * np.where((v > 0.0) & (x != 0.0), grad, 0.0)


def _grad_pow_terms(u, lp, ps):
    # the reference: the two terms of the derivative by the power formula,
    # p* u^(p*-1) |x|^e and u^p* e sign(x) |x|^(e-1) / arg, each times q;
    # nonzero also where x = ln(tau + u) < 0 (tau < 1)
    p_star = ps.p_star
    q, v = u.grid.quad_weights(ps.theta), u.values
    if lp is None:
        return q * np.where(v > 0.0, p_star * v ** (p_star - 1.0), 0.0), np.zeros(v.size)
    e = u.grid.nodes**lp.beta
    x = np.log(lp.tau + v)
    keep = (v > 0.0) & (x != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = p_star * v ** (p_star - 1.0) * np.abs(x) ** e
        second = v**p_star * e * (np.sign(x) * np.abs(x) ** (e - 1.0)) / (lp.tau + v)
    return q * np.where(keep, first, 0.0), q * np.where(keep, second, 0.0)


class TestGradient:
    @pytest.mark.parametrize("kind", ["cutoff-bubble", "random", "interior-zeros", "zero"])
    @pytest.mark.parametrize("lp", [None, LogParams(1.0, 0.5), LogParams(2.0, 1.0),
                                    LogParams(0.5, 0.5)])
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
        nodes = JNodes(grid.m)
        J(u, lp, P0, nodes)
        grad = nodes.gradient(np.empty(grid.m))
        assert np.array_equal(grad, _grad_full(u, lp, P0))
        if kind == "zero":
            assert not np.any(grad)

    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4)])
    @pytest.mark.parametrize("lp", [None, LogParams(0.5, 0.5), LogParams(1.0, 0.5),
                                    LogParams(2.0, 1.0)])
    def test_shared_evaluation_as_the_ascent_reads_it(self, grid, pv, lp):
        # J and then the gradient from one workspace, reused over iterates
        # whose supports shrink and grow, as the ascent reuses two of them
        ps = validate_params(*pv)
        rng = np.random.default_rng(41)
        bubble = _bubble_family(grid, (1e-3,))[0]
        spiky = np.abs(random_smooth_profile(grid, rng).values)
        spiky[::5] = 0.0
        spiky[-40:] = 0.0
        nodes, out = JNodes(grid.m), np.empty(grid.m)
        for vals in (np.abs(random_smooth_profile(grid, rng).values), bubble.values, spiky,
                     np.zeros(grid.m), bubble.values):
            u = Profile(grid, vals)
            f = np.abs(vals) ** ps.p_star
            if lp is not None:
                f = f * np.abs(np.log(lp.tau + np.abs(vals))) ** grid.nodes**lp.beta
            assert J(u, lp, ps, nodes) == float(np.einsum("i,i->", grid.quad_weights(ps.theta), f))
            assert np.array_equal(nodes.gradient(out), _grad_full(u, lp, ps))

    @pytest.mark.parametrize("pv", [(2, 2, 2, 2), (3, 2, 4, 4)])
    @pytest.mark.parametrize("m", [1000, 16000])
    @pytest.mark.parametrize("tau", [None, 0.5, 1.0, 2.0])
    def test_identity_matches_the_power_formula(self, pv, m, tau):
        # the identity and the power formula round differently; per node they
        # agree within 8 eps of the two terms' magnitudes
        ps = validate_params(*pv)
        g = make_grid(m, 3.0)
        lp = None if tau is None else LogParams(tau, 0.5)
        rng = np.random.default_rng(43)
        bubble = normalize(bliss.bubble_profile(bliss.BubbleSpec(1e-3, ps.a_hat), g, ps), ps)
        for u in (bubble, Profile(g, np.abs(random_smooth_profile(g, rng).values))):
            nodes = JNodes(g.m)
            J(u, lp, ps, nodes)
            grad = nodes.gradient(np.empty(g.m))
            first, second = _grad_pow_terms(u, lp, ps)
            eps = np.finfo(float).eps
            assert np.all(np.abs(grad - (first + second))
                          <= 8 * eps * (np.abs(first) + np.abs(second)))
            assert np.array_equal(grad == 0.0, (first + second) == 0.0)

    @pytest.mark.parametrize("lp", [None, LogParams(2.0, 0.5), LogParams(0.5, 0.5)])
    def test_finite_at_subnormal_values(self, grid, lp):
        # at u = 5e-324, p*/u overflows while u^p* underflows to 0; f/u is
        # formed first, so the gradient there is 0 and nothing warns
        vals = np.abs(random_smooth_profile(grid, np.random.default_rng(47)).values)
        vals[[3, 100, 900]] = [5e-324, 1e-310, 2.5e-320]
        u = Profile(grid, vals)
        nodes = JNodes(grid.m)
        J(u, lp, P0, nodes)
        with np.errstate(over="raise"):
            grad = nodes.gradient(np.empty(grid.m))
        assert np.all(np.isfinite(grad))
        assert not np.any(grad[[3, 100, 900]])

    def test_matches_nodal_central_difference_below_unit_log(self):
        # at tau = 0.5 the log is negative where u < 0.5, and |ln|^e still
        # has a derivative there; README tuple, unit-norm bubble, M = 400
        g = make_grid(400, 3.0)
        lp = LogParams(0.5, 0.5)
        u = _bubble_family(g, (1e-2,))[0]
        v = u.values
        nodes = JNodes(g.m)
        J(u, lp, P0, nodes)
        grad = nodes.gradient(np.empty(g.m))
        fd = np.zeros(g.m)
        for i in np.flatnonzero(v > 0.0):
            h = 1e-6 * v[i]
            up, down = v.copy(), v.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (J(Profile(g, up), lp, P0) - J(Profile(g, down), lp, P0)) / (2 * h)
        below = (v > 0.0) & (v < 1.0 - lp.tau)
        assert np.any(grad[below] < 0.0)
        assert np.max(np.abs(fd - grad)) <= 1e-6 * np.max(np.abs(grad))


class TestSineProfile:
    def test_the_mode_sum_vanishing_at_one(self, grid):
        c = (0.3, -1.2, 0.7, 2.0, -0.4)
        u = sine_profile(grid, c)
        ref = sum(c_k / k * np.sin(k * math.pi * (1.0 - grid.nodes)) for k, c_k in enumerate(c, 1))
        assert u.values[-1] == 0.0
        np.testing.assert_allclose(u.values[:-1], ref[:-1], rtol=0, atol=1e-14)

    def test_the_test_helper_reads_five_scalar_draws(self, grid):
        # the profiles the tests pin were drawn with five scalar normal() calls
        rng = np.random.default_rng(5)
        scalar = sine_profile(grid, [rng.normal() for _ in range(5)])
        assert np.array_equal(random_smooth_profile(grid, np.random.default_rng(5)).values,
                              scalar.values)
