"""Tests for the flux-form IVP and amplitude shooting."""

import hashlib
import math
import re
import time

import numpy as np
import pytest

from hslog import dop853, shooting
from hslog.functionals import LogParams, energy_I, energy_pairing, pairing_terms
from hslog.params import NumericalError, ValidationError, validate_params
from hslog.radial import Profile, dirichlet_norm, make_grid, pointwise_bound_check
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
    return shoot(LP, P0, BRACKET, grid)


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


def _scipy_shot(amplitude, lp, ps, dense):
    """The shot as scipy's solve_ivp takes it, with the integrator's arguments."""
    from scipy.integrate import solve_ivp

    p_star = ps.p_star

    def rhs(r, y):
        u, w = y
        du = math.copysign((abs(w) * r**-ps.alpha1) ** (1.0 / (ps.p - 1.0)), w) if w else 0.0
        dw = -(r**ps.theta) * shooting._source(r, u, lp.tau, lp.beta, p_star)
        return du, dw

    def blowup(r, y):
        return abs(y[0]) - 1e8 * max(1.0, abs(amplitude))

    blowup.terminal = True
    r_min = shooting.R_MIN
    y_boot = shooting._series_step(amplitude, r_min, 2 * r_min, lp, ps, p_star)
    # numpy scalars overflow to inf on wild trial stages; the step is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(rhs, (2 * r_min, 1.0), y_boot, method="DOP853", rtol=1e-10,
                         atol=1e-13 * max(1.0, abs(amplitude)), dense_output=dense,
                         events=blowup)


def _record_trajectories(monkeypatch):
    runs = []
    integrate = dop853.integrate

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(dop853, "integrate", recording)
    return runs


# the README config's bracket ends and root, and shots at two other tuples
CROSS_CHECK_SHOTS = [
    ((2, 2, 2, 2), (1.0, 0.5), 20.0),
    ((2, 2, 2, 2), (1.0, 0.5), 23.2),
    ((2, 2, 2, 2), (1.0, 0.5), 50.0),
    ((3, 2, 4, 4), (1.0, 0.5), 30.0),
    ((3, 2, 4, 4), (1.0, 0.5), 100.0),
    ((1.5, 1, 1, 1), (1.0, 0.2), 2.0),
]


class TestDop853MatchesScipy:
    def test_tableau_entry_for_entry(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        def dense(rows, width):
            out = np.zeros((len(rows), width))
            for i, row in enumerate(rows):
                for j, a in row:
                    out[i, j] = a
            return out

        n = ref.N_STAGES
        assert np.array_equal(np.array(dop853.C), ref.C[:n])
        assert np.array_equal(np.array(dop853.C_EXTRA), ref.C[n + 1:])
        assert np.array_equal(dense(dop853.A, n), ref.A[:n, :n])
        assert np.array_equal(dense([dop853.B], n)[0], ref.B)
        assert np.array_equal(dense(dop853.A_EXTRA, ref.N_STAGES_EXTENDED), ref.A[n + 1:])
        assert np.array_equal(dense([dop853.E3], n + 1)[0], ref.E3)
        assert np.array_equal(dense([dop853.E5], n + 1)[0], ref.E5)
        assert np.array_equal(dense(dop853.D, ref.N_STAGES_EXTENDED), ref.D)
        # every entry is listed once, in stage order, and none is zero
        for row in (*dop853.A, dop853.B, dop853.E3, dop853.E5, *dop853.A_EXTRA, *dop853.D):
            stages = [j for j, _ in row]
            assert stages == sorted(set(stages))
            assert all(a != 0.0 for _, a in row)

    @pytest.mark.parametrize("dense", [False, True], ids=["plain", "dense"])
    @pytest.mark.parametrize("pv,lpv,amplitude", CROSS_CHECK_SHOTS)
    def test_same_steps_and_values(self, pv, lpv, amplitude, dense, monkeypatch):
        ps, lp = validate_params(*pv), LogParams(*lpv)
        grid = make_grid(2000, 3.0) if dense else None
        ref = _scipy_shot(amplitude, lp, ps, dense)
        runs = _record_trajectories(monkeypatch)
        profile, u_end, nfev = ivp_integrate(amplitude, lp, ps, grid=grid)
        assert ref.status == 0 and runs[0].status == "finished"
        assert nfev == runs[0].nfev == ref.nfev
        assert runs[0].n_steps == len(ref.t) - 1
        assert abs(u_end - ref.y[0, -1]) <= 1e-12 * max(1.0, abs(amplitude))
        if dense:
            want = np.full(grid.m, amplitude)
            above = grid.nodes >= 2 * shooting.R_MIN
            want[above] = ref.sol(grid.nodes[above])[0]
            want[-1] = ref.y[0, -1]
            assert np.all(np.abs(profile.values - want) <= 1e-10)


def _count_calls(monkeypatch):
    """(trajectory, calls of its right-hand side) of each integration."""
    runs = []
    integrate = dop853.integrate

    def counting(fun, *args, **kwargs):
        calls = [0]

        def counted(*state):
            calls[0] += 1
            return fun(*state)

        traj = integrate(counted, *args, **kwargs)
        runs.append((traj, calls[0]))
        return traj

    monkeypatch.setattr(dop853, "integrate", counting)
    return runs


class TestDop853Calls:
    """The integrator calls the right-hand side exactly ``nfev`` times."""

    @pytest.mark.parametrize("amplitude", [20.0, 23.2, 50.0])
    @pytest.mark.parametrize("dense", [False, True], ids=["plain", "dense"])
    def test_calls_equal_nfev(self, amplitude, dense, grid, monkeypatch):
        runs = _count_calls(monkeypatch)
        ivp_integrate(amplitude, LP, P0, grid=grid if dense else None)
        (traj, calls), = runs
        assert traj.status == "finished" and calls == traj.nfev
        # two calls start the integration, every trial step makes 12 and a
        # dense step 3 more; these shots reject some trial steps
        trials, rest = divmod(traj.nfev - 2 - (3 * traj.n_steps if dense else 0), 12)
        assert rest == 0 and trials > traj.n_steps

    def test_calls_equal_nfev_at_a_blowup(self, monkeypatch):
        monkeypatch.setattr(shooting, "_source", lambda r, u, tau, beta, p_star: 1e12)
        runs = _count_calls(monkeypatch)
        with pytest.raises(NumericalError):
            boundary_value(20.0, LP, P0)
        (traj, calls), = runs
        assert traj.status == "limit" and calls == traj.nfev


class TestBitPins:
    """The README shots, the shooting solution and its weak residual, bit for bit."""

    # amplitude -> (u(1).hex(), right-hand-side calls) of the plain shot
    SHOTS = {
        20.0: ("0x1.57636b028a1b8p-6", 770),
        23.2: ("-0x1.27f6195c4e200p-16", 818),
        50.0: ("-0x1.531061e78fc41p-4", 1070),
    }

    @pytest.mark.parametrize("amplitude", sorted(SHOTS))
    def test_readme_shot(self, amplitude):
        _, u_end, nfev = ivp_integrate(amplitude, LP, P0)
        assert (u_end.hex(), nfev) == self.SHOTS[amplitude]

    def test_readme_solution(self, solution):
        digest = hashlib.sha256(solution.profile.values.tobytes()).hexdigest()
        assert solution.amplitude.hex() == "0x1.7326c39cce8c0p+4"
        assert digest == "83dbe82314a30e03c6cba9fffb5cb3dc78ba5bcb8566145344ee0bbbfaf09830"
        assert solution.weak_residual.hex() == "0x1.1956c045071eap-16"
        assert (solution.bisection_iterations, solution.ivp_evaluations) == (9, 998)


_STALL = re.compile(r"IVP integration stalled at r = (\S+) \(amplitude 20, "
                    r"last good state u = (\S+), w = (\S+)\)")


class TestIvpFailures:
    def test_blowup_guard_reports_the_end_of_the_crossing_step(self, monkeypatch):
        monkeypatch.setattr(shooting, "_source", lambda r, u, tau, beta, p_star: 1e12)
        ref = _scipy_shot(20.0, LP, P0, dense=False)
        assert ref.status == 1
        runs = _record_trajectories(monkeypatch)
        with pytest.raises(NumericalError, match=_STALL) as failure:
            boundary_value(20.0, LP, P0)
        r, u, _ = map(float, _STALL.search(str(failure.value)).groups())
        assert runs[0].status == "limit"
        assert abs(u) >= 1e8 * 20.0
        # scipy locates the crossing inside the step the port reports the end of
        assert ref.t_events[0][0] <= r < 1.0
        assert runs[0].nfev == ref.nfev - 3  # scipy's event search builds an interpolant
        assert runs[0].n_steps == len(ref.t) - 1

    def test_step_size_underflow(self, monkeypatch):
        # a source that turns NaN past r = 0.5: every step across it is
        # rejected until the step is below 10 ulp; on the way, a trial
        # stage overflows, which the right-hand side turns into inf
        source = shooting._source
        monkeypatch.setattr(shooting, "_source", lambda r, u, tau, beta, p_star: (
            math.nan if r > 0.5 else source(r, u, tau, beta, p_star)))
        ref = _scipy_shot(20.0, LP, P0, dense=False)
        assert ref.status == -1
        runs = _record_trajectories(monkeypatch)
        with pytest.raises(NumericalError, match=_STALL) as failure:
            boundary_value(20.0, LP, P0)
        r, u, w = map(float, _STALL.search(str(failure.value)).groups())
        assert runs[0].status == "step"
        # the last steps before the stall follow rounding, so their count
        # is not scipy's; where they stop is
        assert r == pytest.approx(0.5, abs=1e-12)
        assert (u, w) == pytest.approx(tuple(ref.y[:, -1]), rel=1e-3)

    def test_work_cap_stops_a_shot_inside_its_core(self, monkeypatch):
        # a = 1e4 has a core of radius about 1e-8, inside R_MIN; this shot
        # ran for 52 s before the cap, and now stops at it
        runs = _record_trajectories(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(NumericalError, match=r"IVP integration used its 100000 "
                           r"right-hand-side evaluations at r = \S+ \(amplitude 10000,"):
            boundary_value(1e4, LP, P0)
        assert time.perf_counter() - start < 20.0
        assert runs[0].status == "work"
        # the cap is checked before each trial step of 12 calls
        assert shooting.MAX_RHS_EVALUATIONS <= runs[0].nfev < shooting.MAX_RHS_EVALUATIONS + 12

    def test_work_cap_leaves_the_steps_below_it(self):
        # a cap the shot never reaches changes nothing; one it reaches stops
        # the integration at the last accepted state before it
        def shot(max_nfev):
            ps = P0
            r_boot = 2.0 * shooting.R_MIN
            u0, w0 = shooting._series_step(20.0, shooting.R_MIN, r_boot, LP, ps, ps.p_star)

            def rhs(r, u, w):
                du = math.copysign(abs(w) * r**-ps.alpha1, w) if w else 0.0
                return du, -(r**ps.theta) * shooting._source(r, u, 1.0, 0.5, ps.p_star)

            return dop853.integrate(rhs, r_boot, u0, w0, 1.0, rtol=1e-10, atol=1e-13 * 20.0,
                                    u_limit=2e9, dense=False, max_nfev=max_nfev)

        full = shot(10**9)
        assert full.status == "finished" and shot(full.nfev) == full
        cut = shot(full.nfev // 2)
        assert cut.status == "work" and cut.t < 1.0
        assert full.nfev // 2 <= cut.nfev < full.nfev // 2 + 12


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
        refined = shoot(LP, P0, BRACKET, fine)
        assert refined.weak_residual <= 0.5 * solution.weak_residual

    def test_pointwise_bound_holds(self, solution):
        assert pointwise_bound_check(solution.profile, P0).worst_slack >= -1e-12

    def test_no_sign_change_reported(self, grid):
        with pytest.raises(NumericalError, match="sign change"):
            shoot(LP, P0, (0.0, 1e-6), grid)

    def test_bracket_from_zero_never_shoots_zero(self, grid, solution, monkeypatch):
        shots = _record_shots(monkeypatch)
        res = shoot(LP, P0, (0.0, 50.0), grid)
        assert res.amplitude == pytest.approx(solution.amplitude, rel=1e-12)
        assert 0.0 not in shots
        assert res.bisection_iterations == len(shots)

    def test_no_amplitude_shot_twice(self, grid, monkeypatch):
        shots = _record_shots(monkeypatch)
        res = shoot(LP, P0, BRACKET, grid)
        assert shots[:2] == list(BRACKET)
        assert len(shots) == len(set(shots)) == res.bisection_iterations

    def test_tol_not_reached_reported(self, grid, monkeypatch):
        # a jump in the boundary map: Brent closes in on it, |u(1)| stays 1
        monkeypatch.setattr(shooting, "boundary_value",
                            lambda a, *args: 1.0 if a < 30.0 else -1.0)
        with pytest.raises(NumericalError, match=r"did not reach \|u\(1\)\| < 1e-08"):
            shoot(LP, P0, BRACKET, grid)

    def test_brent_exhaustion_names_the_amplitude(self, grid, monkeypatch):
        brent_root = shooting.brent_root
        monkeypatch.setattr(shooting, "brent_root",
                            lambda *args, **kw: brent_root(*args, **{**kw, "maxiter": 2}))
        with pytest.raises(NumericalError,
                           match="did not converge to the shooting amplitude in 2 iterations"):
            shoot(LP, P0, BRACKET, grid)

    def test_r_min_robustness(self, solution, monkeypatch):
        a = solution.amplitude
        v1 = boundary_value(a, LP, P0)
        monkeypatch.setattr(shooting, "R_MIN", 5e-8)
        v2 = boundary_value(a, LP, P0)
        assert v1 != v2
        assert abs(v1 - v2) < 1e-8

    def test_energy_coherent_with_its_own_ray(self, solution):
        # the critical point maximizes I along its ray at t = 1
        ts = np.linspace(0.97, 1.03, 25)
        u = solution.profile
        vals = [energy_I(Profile(u.grid, t * u.values), LP, P0) for t in ts]
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
        res = shoot(LP, ps, (30.0, 100.0), g)
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
        battery = weak_test_profiles(grid)
        assert len(battery) == 20
        for v in battery:
            assert v.values[-1] == 0.0

    @pytest.mark.parametrize("lpv", [(1.0, 0.5), (2.0, 3.0)])
    def test_is_the_max_of_the_pairings(self, grid, solution, lpv):
        # u's side is formed once, and each ratio is that of an
        # energy_pairing of u's terms formed anew, bit for bit
        lp = LogParams(*lpv)
        rng = np.random.default_rng(8)
        vals = np.abs(rng.normal(size=grid.m))
        vals[-1] = 0.0
        for u in (solution.profile, Profile(grid, vals)):
            want = max(abs(energy_pairing(pairing_terms(u, lp, P0), v, P0))
                       / dirichlet_norm(v, P0) for v in weak_test_profiles(grid))
            assert weak_residual(u, lp, P0) == want

    def test_random_profile_is_far_from_solving(self, grid):
        rng = np.random.default_rng(77)
        vals = np.abs(rng.normal(size=grid.m)) + 0.1
        vals[-1] = 0.0
        u = Profile(grid, vals)
        assert weak_residual(u, LP, P0) > 1e-2
