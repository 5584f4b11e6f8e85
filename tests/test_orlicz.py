"""Tests for the Young-function family and the Luxemburg-norm machinery."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hslog import bliss, orlicz, params
from hslog.analysis import maximize_F
from hslog.functionals import J, LogParams, ray_sum
from hslog.orlicz import (
    EmbeddingReport,
    GammaSpec,
    convexity_check,
    embedding_check,
    gamma_value,
    h_tau,
    luxemburg_norm,
    modular,
)
from hslog.params import NumericalError, ValidationError, brent_root, validate_params
from hslog.radial import Profile, make_grid

from helpers import grid_ray_terms, random_smooth_profile

P0 = validate_params(2, 2, 2, 2)
LP = LogParams(1.0, 0.5)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1000, 3.0)


class TestGammaValue:
    def test_zero_by_convention(self):
        assert gamma_value(0.0, GammaSpec(6, 1, 1.0)) == 0.0
        assert gamma_value(0.0, GammaSpec(2, 0, 1.0)) == 0.0

    def test_unit_log_point(self):
        # t = e-1, tau = 1: ln(e) = 1, so the value is just t^6
        val = gamma_value(math.e - 1.0, GammaSpec(6, 1, 1.0))
        assert val == pytest.approx((math.e - 1.0) ** 6, rel=1e-14)

    def test_pure_power_when_b_zero(self):
        spec = GammaSpec(3.5, 0, 2.0)
        t = np.array([0.1, 1.0, 7.0])
        assert np.allclose(gamma_value(t, spec), t**3.5, rtol=1e-14)

    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            GammaSpec(1.0, 0.5, 1.0)
        with pytest.raises(ValidationError):
            GammaSpec(2.0, 1.5, 1.0)
        with pytest.raises(ValidationError):
            GammaSpec(2.0, 0.5, 0.5)


class TestConvexity:
    @pytest.mark.parametrize("spec,expected_bound", [
        (GammaSpec(6, 1, 1.0), 36.0),
        (GammaSpec(7.5, 0.5, 2.0), 7.5 * 6.5 + 0.5 * 7.0),
    ])
    def test_certificates(self, spec, expected_bound):
        report = convexity_check(spec)
        assert report.convex
        assert report.phi_lower_bound == pytest.approx(expected_bound)
        assert report.min_phi >= expected_bound - 1e-9

    def test_h_tau_at_least_one(self):
        t = np.exp(np.linspace(-12, 12, 200))
        for tau in (1.0, 2.0, 10.0):
            assert np.all(h_tau(t, GammaSpec(2, 1, tau)) >= 1.0)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.01, max_value=8.0),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1.0, max_value=5.0),
       st.floats(min_value=1.0, max_value=1e5))
def test_doubling_superadditivity(a, b, tau, t):
    # convexity with Gamma(0) = 0 forces Gamma(2 t) >= 2 Gamma(t)
    spec = GammaSpec(a, b, tau)
    assert gamma_value(2 * t, spec) >= 2 * gamma_value(t, spec) - 1e-9


def _random_or_bubble(grid, kind):
    # the bubble is a cutoff bubble, identically 0 on [0.4, 1]
    if kind == "random":
        return random_smooth_profile(grid, np.random.default_rng(8))
    return bliss.bubble_profile(bliss.BubbleSpec(1e-3), grid, P0)


class TestLuxemburgNorm:
    def test_zero_profile(self, grid, monkeypatch):
        calls = []
        monkeypatch.setattr(orlicz, "modular", lambda *args: calls.append(args) or 1.0)
        assert luxemburg_norm(Profile(grid, np.zeros(grid.m)), LP, P0) == 0.0
        assert calls == []

    def test_modular_contract(self, grid):
        rng = np.random.default_rng(4)
        u = random_smooth_profile(grid, rng)
        lam = luxemburg_norm(u, LP, P0)
        assert abs(modular(grid_ray_terms(u, LP, P0), lam) - 1.0) < 1e-14

    @pytest.mark.parametrize("kind", ["random", "bubble"])
    @pytest.mark.parametrize("lp", [LogParams(1.0, 0.5), LogParams(2.0, 1.0)])
    def test_modular_from_terms_is_J_of_the_scaled_profile(self, grid, kind, lp):
        u = _random_or_bubble(grid, kind)
        terms = grid_ray_terms(u, lp, P0)
        for lam in (0.05, 0.1, 0.5, 1.0, 5.0):
            ref = J(Profile(grid, (1.0 / lam) * u.values), lp, P0)
            assert abs(modular(terms, lam) - ref) <= 1e-14 * ref
        for s in (0.2, 1.0, 2.0, 10.0, 20.0):
            ref = J(Profile(grid, s * u.values), lp, P0)
            assert abs(ray_sum(terms, s) * s**6 - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("pv, bits", [((2, 2, 2, 2), "0x1.ffe295158e12bp-1"),
                                          ((3, 2, 4, 4), "0x1.012638d9695f1p+0")])
    def test_bits_of_a_grid_bubble(self, pv, bits):
        # the eps = 1e-3 bubble of amplitude a_hat at M = 2000, tau = 1, beta = 1/2
        ps = validate_params(*pv)
        u = bliss.bubble_profile(bliss.BubbleSpec(1e-3, ps.a_hat), make_grid(2000, 3.0), ps)
        assert luxemburg_norm(u, LP, ps).hex() == bits

    def test_homogeneity(self, grid):
        rng = np.random.default_rng(5)
        u = random_smooth_profile(grid, rng)
        lam = luxemburg_norm(u, LP, P0)
        for c in (0.25, 3.0, 11.0):
            assert abs(luxemburg_norm(Profile(grid, c * u.values), LP, P0) - c * lam) < 1e-10

    def test_modular_strictly_decreasing(self, grid):
        rng = np.random.default_rng(6)
        u = random_smooth_profile(grid, rng)
        lams = np.array([0.05, 0.1, 0.5, 1.0, 5.0])
        terms = grid_ray_terms(u, LP, P0)
        vals = [modular(terms, lam) for lam in lams]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))

    def test_triangle_inequality_sampled(self, grid):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = random_smooth_profile(grid, rng)
            v = random_smooth_profile(grid, rng)
            w = Profile(grid, u.values + v.values)
            lhs = luxemburg_norm(w, LP, P0)
            rhs = luxemburg_norm(u, LP, P0) + luxemburg_norm(v, LP, P0)
            assert lhs <= rhs + 1e-9

    def test_tau_below_one_rejected(self, grid):
        u = Profile(grid, np.ones(grid.m))
        with pytest.raises(ValidationError, match="tau >= 1"):
            luxemburg_norm(u, LogParams(0.7, 0.5), P0)

    @pytest.mark.parametrize("rho,side", [(2.0, "above"), (0.5, "below"),
                                          (math.inf, "above"), (0.0, "below")])
    def test_bracket_failure_reported(self, grid, monkeypatch, rho, side):
        # a modular stuck above (below) 1 leaves no lambda with rho(u/lambda) < 1
        # (> 1); an overflowing or underflowing one is no ValueError of math.log
        calls = []
        monkeypatch.setattr(orlicz, "modular", lambda *args: calls.append(args) or rho)
        u = Profile(grid, np.ones(grid.m))
        with pytest.raises(NumericalError, match=f"bracket the Luxemburg norm from {side}"):
            luxemburg_norm(u, LP, P0)
        # the start, its power-law point and 199 steps of ln 2
        assert len(calls) == 201

    @pytest.mark.parametrize("kind", ["random", "bubble"])
    def test_no_lambda_evaluated_twice_but_the_bracket_ends(self, grid, monkeypatch, kind):
        # brent_root reuses the log residual at both bracket ends, so no
        # lambda repeats.  The modular at the start is below 1 for the random
        # profile and above 1 for the bubble.
        u = _random_or_bubble(grid, kind)
        calls = []

        def recording(terms, lam):
            calls.append(lam)
            return modular(terms, lam)

        monkeypatch.setattr(orlicz, "modular", recording)
        luxemburg_norm(u, LP, P0)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("kind,start_side", [("random", "below"), ("bubble", "above")])
    def test_power_law_end_brackets_without_doubling(self, grid, monkeypatch, kind, start_side):
        # the start y0 = ln lambda0 and the power-law end y0 + ln(rho0)/p* are
        # the only modular calls before Brent's method
        u = _random_or_bubble(grid, kind)
        lams, rhos, before_brent = [], [], []

        def recording(terms, lam):
            lams.append(lam)
            rhos.append(modular(terms, lam))
            return rhos[-1]

        def brent_recording(*args, **kwargs):
            before_brent.append(len(rhos))
            return brent_root(*args, **kwargs)

        monkeypatch.setattr(orlicz, "modular", recording)
        monkeypatch.setattr(params, "brent_root", brent_recording)
        luxemburg_norm(u, LP, P0)
        y0 = math.log(np.einsum("i->", grid_ray_terms(u, LP, P0).w)) / 6.0
        assert before_brent == [2]
        assert lams[0] == math.exp(y0)
        assert lams[1] == math.exp(y0 + math.log(rhos[0]) / 6.0)
        assert (rhos[0] < 1.0 < rhos[1]) if start_side == "below" else (rhos[1] < 1.0 < rhos[0])

    @pytest.mark.parametrize("kind", ["random", "bubble"])
    def test_stops_on_the_root(self, grid, monkeypatch, kind):
        # the log residual reads 0 within 8.9e-16 of rho = 1, so Brent's last
        # modular pass is the one at the returned norm
        u = _random_or_bubble(grid, kind)
        lams = []

        def recording(terms, lam):
            lams.append(lam)
            return modular(terms, lam)

        monkeypatch.setattr(orlicz, "modular", recording)
        lam = luxemburg_norm(u, LP, P0)
        assert lams[-1] == lam
        assert abs(modular(grid_ray_terms(u, LP, P0), lam) - 1.0) <= 8.9e-16

    def test_at_most_5_modular_passes_per_norm(self, monkeypatch):
        # the README config's `orlicz` profiles at seed 801 and M = 2000: 100
        # random, then the six epsilon_list bubbles; 6.66 passes per norm when
        # the root was taken in lambda on rho - 1
        grid = make_grid(2000, 3.0)
        rng = np.random.default_rng(801)
        profiles = [random_smooth_profile(grid, rng) for _ in range(100)]
        profiles += [bliss.bubble_profile(bliss.BubbleSpec(eps, P0.a_hat), grid, P0)
                     for eps in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5)]
        calls = []
        monkeypatch.setattr(orlicz, "modular",
                            lambda terms, lam: calls.append(lam) or modular(terms, lam))
        for u in profiles:
            luxemburg_norm(u, LP, P0)
        assert len(calls) / len(profiles) <= 5.0

    def test_profile_not_retained(self, grid):
        # with the collector off, a profile caught in a reference cycle would never be freed
        gc.disable()
        try:
            u = random_smooth_profile(grid, np.random.default_rng(9))
            luxemburg_norm(u, LP, P0)
            ref = weakref.ref(u)
            del u
            assert ref() is None
        finally:
            gc.enable()


class TestEmbedding:
    def test_random_and_bubble_profiles_pass(self, grid):
        res = maximize_F(P0, LP, grid, eps_seeds=(1e-2, 1e-3, 1e-4))
        rng = np.random.default_rng(8)
        profiles = [random_smooth_profile(grid, rng) for _ in range(30)]
        profiles += [bliss.bubble_profile(bliss.BubbleSpec(e, P0.a_hat, 0.2), grid, P0)
                     for e in (1e-2, 1e-3, 1e-4)]
        report = embedding_check(profiles, LP, P0, res.value)
        assert isinstance(report, EmbeddingReport)
        assert report.all_passed

    def test_profile_freed_before_the_next_is_drawn(self, grid):
        # fed a generator, the check holds one profile at a time and keeps none
        rng = np.random.default_rng(8)
        refs = []
        alive_at_draw = []

        def draw():
            alive_at_draw.append(sum(r() is not None for r in refs))
            u = random_smooth_profile(grid, rng)
            refs.append(weakref.ref(u))
            return u

        gc.disable()
        try:
            report = embedding_check((draw() for _ in range(5)), LP, P0, 1.0)
            assert alive_at_draw == [0] * 5
            assert [r() for r in refs] == [None] * 5
        finally:
            gc.enable()
        assert [row.profile_id for row in report.rows] == list(range(5))

    def test_zero_profile_passes_trivially(self, grid):
        report = embedding_check([Profile(grid, np.zeros(grid.m))], LP, P0, 1.0)
        assert report.all_passed
        assert report.rows[0].luxemburg == 0.0

    @pytest.mark.parametrize("ps", [P0, validate_params(3, 2, 4, 4)])
    @pytest.mark.parametrize("f_hat", [0.96, 1.0013, 2.5])
    def test_lambda0_derived_from_f_hat(self, ps, f_hat):
        report = embedding_check([], LP, ps, f_hat)
        assert report.lambda0 == (1.06 * f_hat) ** (1 / ps.p_star)
        assert report.lambda0 ** ps.p_star >= 1.05 * f_hat
