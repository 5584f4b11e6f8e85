"""Tests for the flux-form IVP and amplitude shooting."""

import hashlib
import math
import re
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hslog import dop853, shooting
from hslog.cli import RunConfig, cmd_shoot
from hslog.functionals import LogParams, energy_pairing, pairing_terms
from hslog.params import NumericalError, ValidationError, validate_params
from hslog.radial import Profile, dirichlet_norm, make_grid, pointwise_bound_check
from hslog.shooting import ivp_integrate, shoot, weak_residual

from helpers import grid_energy

P0 = validate_params(2, 2, 2, 2)
LP = LogParams(1.0, 0.5)
BRACKET = (20.0, 50.0)


@pytest.fixture(scope="module")
def grid():
    return make_grid(2000, 3.0)


@pytest.fixture(scope="module")
def solution(grid):
    return shoot(LP, P0, BRACKET, grid)


def _sampled(amplitude, traj, grid):
    """The shot's profile on the grid, as ``shoot`` samples the root's shot:
    the amplitude below the shot's start, u(1) at the last node."""
    vals = np.full(grid.m, amplitude)
    above = grid.nodes >= 2 * shooting.R_MIN
    vals[above] = traj.dense_u(grid.nodes[above])
    vals[-1] = traj.u
    return vals


class TestIvp:
    def test_zero_amplitude_is_fixed_point(self, grid):
        traj = ivp_integrate(0.0, LP, P0)
        assert traj.u == 0.0
        assert np.all(_sampled(0.0, traj, grid) == 0.0)

    def test_odd_symmetry(self):
        up = ivp_integrate(5.0, LP, P0).u
        down = ivp_integrate(-5.0, LP, P0).u
        assert down == pytest.approx(-up, rel=1e-9)

    def test_decreasing_while_positive(self, grid):
        vals = _sampled(5.0, ivp_integrate(5.0, LP, P0), grid)
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
    def test_same_steps_and_values(self, pv, lpv, amplitude, dense):
        ps, lp = validate_params(*pv), LogParams(*lpv)
        grid = make_grid(2000, 3.0) if dense else None
        ref = _scipy_shot(amplitude, lp, ps, dense)
        traj = ivp_integrate(amplitude, lp, ps)
        # scipy's dense shot counts the interpolant's stages; the port's
        # counts them once u is sampled
        vals = _sampled(amplitude, traj, grid) if dense else None
        assert ref.status == 0 and traj.status == "finished"
        assert traj.nfev == ref.nfev
        assert len(traj.steps) == len(ref.t) - 1
        assert abs(traj.u - ref.y[0, -1]) <= 1e-12 * max(1.0, abs(amplitude))
        if dense:
            want = np.full(grid.m, amplitude)
            above = grid.nodes >= 2 * shooting.R_MIN
            want[above] = ref.sol(grid.nodes[above])[0]
            want[-1] = ref.y[0, -1]
            assert np.all(np.abs(vals - want) <= 1e-10)


def _count_calls(monkeypatch):
    """(trajectory, [calls of its right-hand side]) of each integration."""
    runs = []
    integrate = dop853.integrate

    def counting(fun, *args, **kwargs):
        calls = [0]

        def counted(*state):
            calls[0] += 1
            return fun(*state)

        traj = integrate(counted, *args, **kwargs)
        runs.append((traj, calls))
        return traj

    monkeypatch.setattr(dop853, "integrate", counting)
    return runs


class TestDop853Calls:
    """The integrator calls the right-hand side exactly ``nfev`` times."""

    @pytest.mark.parametrize("amplitude", [20.0, 23.2, 50.0])
    @pytest.mark.parametrize("dense", [False, True], ids=["plain", "dense"])
    def test_calls_equal_nfev(self, amplitude, dense, grid, monkeypatch):
        runs = _count_calls(monkeypatch)
        traj = ivp_integrate(amplitude, LP, P0)
        if dense:
            _sampled(amplitude, traj, grid)
            _sampled(amplitude, traj, grid)
        (_, calls), = runs
        assert traj.status == "finished" and calls[0] == traj.nfev
        # two calls start the integration, every trial step makes 12 and,
        # once u is first sampled, every accepted step 3 more; these shots
        # reject some trial steps
        trials, rest = divmod(traj.nfev - 2 - (3 * len(traj.steps) if dense else 0), 12)
        assert rest == 0 and trials > len(traj.steps)

    def test_calls_equal_nfev_at_a_blowup(self, monkeypatch):
        monkeypatch.setattr(shooting, "_source", lambda r, u, tau, beta, p_star: 1e12)
        runs = _count_calls(monkeypatch)
        with pytest.raises(NumericalError):
            ivp_integrate(20.0, LP, P0).u
        (traj, calls), = runs
        assert traj.status == "limit" and calls[0] == traj.nfev


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
        traj = ivp_integrate(amplitude, LP, P0)
        assert (traj.u.hex(), traj.nfev) == self.SHOTS[amplitude]

    def test_readme_solution(self, solution):
        digest = hashlib.sha256(solution.profile.values.tobytes()).hexdigest()
        assert solution.amplitude.hex() == "0x1.7326c39cce8c0p+4"
        assert digest == "83dbe82314a30e03c6cba9fffb5cb3dc78ba5bcb8566145344ee0bbbfaf09830"
        assert solution.weak_residual.hex() == "0x1.08b9b70b42591p-14"
        assert (solution.bisection_iterations, solution.ivp_evaluations) == (9, 998)

    # `hslog shoot` without shoot_bracket on the README config, by tuple (p1.cfg
    # is (3, 2, 4, 4)): the amplitude and the weak residual by hex(), the
    # profile's sha256, and the shots and right-hand-side calls
    # shoot_meta.txt prints; the README tuple's are those of its bracket
    UNBRACKETED = {
        (2, 2, 2, 2): ("0x1.7326c39cce8c0p+4",
                       "83dbe82314a30e03c6cba9fffb5cb3dc78ba5bcb8566145344ee0bbbfaf09830",
                       "0x1.08b9b70b42591p-14", 9, 998),
        (3, 2, 4, 4): ("0x1.81e96743df757p+6",
                       "0175f8416e7a2965d7ae0e6f83cfe618d651ea9beb3eebde06a58ee00c5aa632",
                       "0x1.67a50416c9d80p-13", 10, 1214),
    }

    @pytest.mark.parametrize("params", sorted(UNBRACKETED))
    def test_unbracketed_solution(self, params, tmp_path, monkeypatch):
        results = []
        monkeypatch.setattr(shooting, "shoot",
                            lambda *args: results.append(shoot(*args)) or results[-1])
        cfg = replace(RunConfig(), **dict(zip(("p", "alpha0", "alpha1", "theta"), params)))
        assert cmd_shoot(cfg, tmp_path) == 0
        res, = results
        assert (res.amplitude.hex(), hashlib.sha256(res.profile.values.tobytes()).hexdigest(),
                res.weak_residual.hex(), res.bisection_iterations,
                res.ivp_evaluations) == self.UNBRACKETED[params]


_STALL = re.compile(r"IVP integration stalled at r = (\S+) \(amplitude 20, "
                    r"last good state u = (\S+), w = (\S+)\)")


class TestIvpFailures:
    def test_blowup_guard_reports_the_end_of_the_crossing_step(self, monkeypatch):
        monkeypatch.setattr(shooting, "_source", lambda r, u, tau, beta, p_star: 1e12)
        ref = _scipy_shot(20.0, LP, P0, dense=False)
        assert ref.status == 1
        runs = _record_trajectories(monkeypatch)
        with pytest.raises(NumericalError, match=_STALL) as failure:
            ivp_integrate(20.0, LP, P0).u
        r, u, _ = map(float, _STALL.search(str(failure.value)).groups())
        assert runs[0].status == "limit"
        assert abs(u) >= 1e8 * 20.0
        # scipy locates the crossing inside the step the port reports the end of
        assert ref.t_events[0][0] <= r < 1.0
        assert runs[0].nfev == ref.nfev - 3  # scipy's event search builds an interpolant
        assert len(runs[0].steps) == len(ref.t) - 1

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
            ivp_integrate(20.0, LP, P0).u
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
            ivp_integrate(1e4, LP, P0).u
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
                                    u_limit=2e9, max_nfev=max_nfev)

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

    def test_no_amplitude_shot_twice(self, tmp_path, monkeypatch):
        # over a whole `hslog shoot` run on the README config, with its
        # bracket and without, where the scan's last two shots are its ends;
        # the scan's shots below them are not counted as Brent's
        for bracket, scanned in ((BRACKET, ()), ((), (0.5, 1.0, 2.0, 5.0, 10.0))):
            shots = _record_shots(monkeypatch)
            assert cmd_shoot(replace(RunConfig(), shoot_bracket=bracket), tmp_path) == 0
            meta = dict(line.split(" = ", 1) for line in
                        (tmp_path / "shoot_meta.txt").read_text().splitlines())
            assert shots[:len(scanned) + 2] == [*scanned, *BRACKET]
            assert len(shots) == len(set(shots)) == len(scanned) + int(
                meta["bisection_iterations"])

    @pytest.mark.parametrize("params, bracket", [((2, 2, 2, 2), (20.0, 50.0)),
                                                 ((3, 2, 4, 4), (50.0, 100.0)),
                                                 ((4, 2, 6, 3), (5000.0, 10000.0))])
    def test_auto_bracket(self, params, bracket):
        assert tuple(shooting._scan(LP, validate_params(*params))) == bracket

    @pytest.mark.parametrize("raise_from, last", [(math.inf, "10000"), (200.0, "200")])
    def test_no_sign_change_names_the_last_amplitude(self, raise_from, last, grid,
                                                      monkeypatch):
        def one_signed(a, lp, ps):
            if a >= raise_from:
                raise NumericalError("stalled")
            return SimpleNamespace(u=1.0)

        monkeypatch.setattr(shooting, "ivp_integrate", one_signed)
        with pytest.raises(NumericalError, match=f"from 0.5 to {last}$"):
            shoot(LP, P0, (), grid)

    def test_tol_not_reached_reported(self, grid, monkeypatch):
        # a jump in the boundary map: Brent closes in on it, |u(1)| stays 1
        monkeypatch.setattr(shooting, "ivp_integrate",
                            lambda a, *args: SimpleNamespace(u=1.0 if a < 30.0 else -1.0))
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
        v1 = ivp_integrate(a, LP, P0).u
        monkeypatch.setattr(shooting, "R_MIN", 5e-8)
        v2 = ivp_integrate(a, LP, P0).u
        assert v1 != v2
        assert abs(v1 - v2) < 1e-8

    def test_one_integration_per_amplitude(self, grid, monkeypatch):
        # Brent's 9 shots on the README config are all the integrations:
        # the root is not integrated again to be sampled
        runs = _count_calls(monkeypatch)
        shots = _record_shots(monkeypatch)
        res = shoot(LP, P0, BRACKET, grid)
        monkeypatch.undo()
        assert len(runs) == len(shots) == res.bisection_iterations == 9
        for a, (traj, calls) in zip(shots, runs):
            # a shot that cannot be the root keeps no steps
            assert bool(traj.steps) == (abs(traj.u) < shooting.ROOT_TOLERANCE)
            # only the root's shot builds its dense output, 3 calls a step
            dense = 3 * len(traj.steps) if a == res.amplitude else 0
            assert calls[0] == traj.nfev == ivp_integrate(a, LP, P0).nfev + dense
        assert runs[shots.index(res.amplitude)][0].nfev == res.ivp_evaluations == 998
        # the reference: the root shot integrated anew, then sampled
        vals = _sampled(res.amplitude, ivp_integrate(res.amplitude, LP, P0), grid)
        assert abs(vals[-1]) == res.boundary_residual
        vals[-1] = 0.0
        assert res.profile.values.tobytes() == vals.tobytes()

    def test_energy_coherent_with_its_own_ray(self, solution):
        # the critical point maximizes I along its ray at t = 1
        ts = np.linspace(0.97, 1.03, 25)
        u = solution.profile
        vals = [grid_energy(Profile(u.grid, t * u.values), LP, P0) for t in ts]
        t_best = ts[int(np.argmax(vals))]
        assert abs(t_best - 1.0) <= 1e-3 + (ts[1] - ts[0])

    def test_energy_below_noncompactness_level(self, solution):
        level = math.sqrt(3) * math.pi / 16
        assert grid_energy(solution.profile, LP, P0) < level + 1e-3


def _record_shots(monkeypatch):
    shots = []

    def recording(a, *args):
        shots.append(a)
        return ivp_integrate(a, *args)

    monkeypatch.setattr(shooting, "ivp_integrate", recording)
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
        assert pointwise_bound_check(res.profile, ps).passed
        # the weak residual is the mesh's error, of order 2 in 1/M: 3.05e-4
        # here, below 1e-4 on twice the nodes
        fine = shoot(LP, ps, (30.0, 100.0), make_grid(3000, 3.0))
        assert fine.weak_residual <= 0.5 * res.weak_residual
        assert fine.weak_residual < 1e-4

    def test_ivp_p_below_two(self):
        ps = validate_params(1.5, 1.0, 1.0, 1.0)
        v = ivp_integrate(2.0, LogParams(1.0, 0.2), ps).u
        assert 0.0 < v < 2.0


def _dual_maximizer(u, lp, ps):
    """The v with v(1) = 0 at which |<I'(u), v>| / ||v|| is largest: slopes
    sign(c) (|c| / mom)^(1/(p-1)), with c u's pairing factors plus the cell
    widths times the running r^theta-weighted source."""
    g = u.grid
    terms = pairing_terms(u, lp, ps)
    c = terms.factors + g.cell_widths * np.cumsum(g.quad_weights(ps.theta)[:-1]
                                                  * terms.source[:-1])
    s = np.sign(c) * (np.abs(c) / g.cell_moments(ps.alpha1)) ** (1.0 / (ps.p - 1.0))
    v = np.zeros(g.m)
    v[:-1] = -np.cumsum((g.cell_widths * s)[::-1])[::-1]
    return Profile(g, v)


def _pairing_ratio(u, v, lp, ps):
    return abs(energy_pairing(pairing_terms(u, lp, ps), v, ps)) / dirichlet_norm(v, ps)


class TestWeakResidual:
    def test_zero_profile(self, grid):
        z = Profile(grid, np.zeros(grid.m))
        assert weak_residual(z, LP, P0) == 0.0

    @pytest.mark.parametrize("lpv", [(1.0, 0.5), (2.0, 3.0)])
    def test_is_the_max_of_the_pairings(self, grid, solution, lpv):
        # the pairing ratio at the maximizer the closed form implies is the
        # closed form, and no other v does better
        lp = LogParams(*lpv)
        rng = np.random.default_rng(8)
        vals = np.abs(rng.normal(size=grid.m))
        vals[-1] = 0.0
        for u in (solution.profile, Profile(grid, vals)):
            best = weak_residual(u, lp, P0)
            assert _pairing_ratio(u, _dual_maximizer(u, lp, P0), lp, P0) == pytest.approx(
                best, rel=1e-10)
            for _ in range(5):
                v = rng.normal(size=grid.m)
                v[-1] = 0.0
                assert _pairing_ratio(u, Profile(grid, v), lp, P0) <= best * (1 + 1e-12)

    def test_attained_at_its_maximizer_for_p_three(self, grid):
        # p1.cfg's tuple, where p' = 3/2 and mom^(1-p') carry p
        ps = validate_params(3, 2, 4, 4)
        u = shoot(LP, ps, (50.0, 100.0), grid).profile
        ratio = _pairing_ratio(u, _dual_maximizer(u, LP, ps), LP, ps)
        assert ratio == pytest.approx(weak_residual(u, LP, ps), rel=1e-10)

    # M, the value, half a unit in its last digit
    @pytest.mark.parametrize("m, want, half_unit", [(2000, 6.3115465e-5, 5e-13),
                                                    (16000, 9.862e-7, 5e-11)])
    def test_readme_values(self, m, want, half_unit):
        # the 20-profile maximum it replaced read 1.677e-5 and 2.612e-7
        res = shoot(LP, P0, BRACKET, make_grid(m, 3.0))
        assert abs(res.weak_residual - want) <= half_unit

    def test_random_profile_is_far_from_solving(self, grid):
        rng = np.random.default_rng(77)
        vals = np.abs(rng.normal(size=grid.m)) + 0.1
        vals[-1] = 0.0
        u = Profile(grid, vals)
        assert weak_residual(u, LP, P0) > 1e-2
