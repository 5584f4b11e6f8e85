"""Tests for the flux-form IVP and amplitude shooting."""

import math

import numpy as np
import pytest

from hslog import shooting
from hslog.functionals import LogParams, energy_I
from hslog.params import NumericalError, ValidationError, validate_params
from hslog.radial import Profile, make_grid, pointwise_bound_check
from hslog.shooting import (
    boundary_value,
    ivp_integrate,
    shoot,
    weak_test_profiles,
    weak_residual,
)

P0 = validate_params(2, 2, 2, 2)
LP = LogParams(1.0, 0.5)
BRACKET = (20.0, 50.0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(2000, 3.0)


@pytest.fixture(scope="module")
def solution(grid):
    return shoot(LP, P0, BRACKET, grid, tol=1e-8)


class TestIvp:
    def test_zero_amplitude_is_fixed_point(self, grid):
        profile, u_end, _ = ivp_integrate(0.0, LP, P0, grid=grid)
        assert u_end == 0.0
        assert np.all(profile.values == 0.0)

    def test_odd_symmetry(self):
        up = boundary_value(5.0, LP, P0)
        down = boundary_value(-5.0, LP, P0)
        assert down == pytest.approx(-up, rel=1e-9)

    def test_decreasing_while_positive(self, grid):
        profile, _, _ = ivp_integrate(5.0, LP, P0, grid=grid)
        vals = profile.values
        positive = vals > 0
        assert np.all(np.diff(vals[positive]) <= 1e-12)

    def test_tau_below_one_rejected(self):
        with pytest.raises(ValidationError, match="tau >= 1"):
            ivp_integrate(1.0, LogParams(0.5, 0.5), P0)

    def test_r_min_range_enforced(self):
        with pytest.raises(ValidationError, match="r_min"):
            ivp_integrate(1.0, LP, P0, r_min=1e-3)


class TestShoot:
    def test_converges_with_positive_interior(self, solution):
        assert solution.boundary_residual < 1e-8
        assert solution.positive_inside
        assert solution.profile.values[-1] == 0.0
        assert 20.0 < solution.amplitude < 50.0

    def test_weak_residual_small(self, solution):
        assert solution.weak_residual < 1e-4

    def test_weak_residual_halves_on_refinement(self, grid, solution):
        fine = make_grid(2 * grid.m, 3.0)
        refined = shoot(LP, P0, BRACKET, fine, tol=1e-8)
        assert refined.weak_residual <= 0.5 * solution.weak_residual

    def test_pointwise_bound_holds(self, solution):
        assert pointwise_bound_check(solution.profile, P0).worst_slack >= -1e-12

    def test_no_sign_change_reported(self, grid):
        with pytest.raises(NumericalError, match="sign change"):
            shoot(LP, P0, (0.0, 1e-6), grid, tol=1e-8)

    def test_bracket_from_zero_never_shoots_zero(self, grid, solution, monkeypatch):
        shots = _record_shots(monkeypatch)
        res = shoot(LP, P0, (0.0, 50.0), grid, tol=1e-8)
        assert res.amplitude == pytest.approx(solution.amplitude, rel=1e-12)
        assert 0.0 not in shots
        assert res.bisection_iterations == len(shots)

    def test_no_amplitude_shot_twice(self, grid, monkeypatch):
        shots = _record_shots(monkeypatch)
        res = shoot(LP, P0, BRACKET, grid, tol=1e-8)
        assert shots[:2] == list(BRACKET)
        assert len(shots) == len(set(shots)) == res.bisection_iterations

    def test_tol_not_reached_reported(self, grid, monkeypatch):
        # a jump in the boundary map: Brent closes in on it, |u(1)| stays 1
        monkeypatch.setattr(shooting, "boundary_value",
                            lambda a, *args: 1.0 if a < 30.0 else -1.0)
        with pytest.raises(NumericalError, match=r"did not reach \|u\(1\)\| < 1e-08"):
            shoot(LP, P0, BRACKET, grid, tol=1e-8)

    def test_r_min_robustness(self, solution):
        a = solution.amplitude
        v1 = boundary_value(a, LP, P0, r_min=1e-7)
        v2 = boundary_value(a, LP, P0, r_min=5e-8)
        assert abs(v1 - v2) < 1e-8

    def test_energy_coherent_with_its_own_ray(self, solution):
        # the critical point maximizes I along its ray at t = 1
        ts = np.linspace(0.97, 1.03, 25)
        vals = [energy_I(solution.profile.scaled(t), LP, P0) for t in ts]
        t_best = ts[int(np.argmax(vals))]
        assert abs(t_best - 1.0) <= 1e-3 + (ts[1] - ts[0])

    def test_energy_below_noncompactness_level(self, solution):
        level = math.sqrt(3) * math.pi / 16
        assert energy_I(solution.profile, LP, P0) < level + 1e-3


def _record_shots(monkeypatch):
    shots = []

    def recording(a, *args):
        shots.append(a)
        return boundary_value(a, *args)

    monkeypatch.setattr(shooting, "boundary_value", recording)
    return shots


class TestOtherExponents:
    def test_shoot_p_three(self):
        # 1/(p-1) < 1 makes the flux-to-slope map non-Lipschitz at the
        # start; the series bootstrap has to carry the first step
        ps = validate_params(3, 2, 4, 4)
        g = make_grid(1500, 3.0)
        res = shoot(LP, ps, (30.0, 100.0), g, tol=1e-8)
        assert res.boundary_residual < 1e-8
        assert res.positive_inside
        assert res.weak_residual < 1e-4
        assert pointwise_bound_check(res.profile, ps).passed

    def test_ivp_p_below_two(self):
        ps = validate_params(1.5, 1.0, 1.0, 1.0)
        v = boundary_value(2.0, LogParams(1.0, 0.2), ps)
        assert 0.0 < v < 2.0


class TestWeakResidual:
    def test_zero_profile(self, grid):
        z = Profile(grid, np.zeros(grid.m))
        assert weak_residual(z, LP, P0) == 0.0

    def test_battery_composition(self, grid):
        battery = weak_test_profiles(grid, 20)
        assert len(battery) == 20
        for v in battery:
            assert v.values[-1] == 0.0

    def test_random_profile_is_far_from_solving(self, grid):
        rng = np.random.default_rng(77)
        vals = np.abs(rng.normal(size=grid.m)) + 0.1
        vals[-1] = 0.0
        u = Profile(grid, vals)
        assert weak_residual(u, LP, P0) > 1e-2
