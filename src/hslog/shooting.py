"""Amplitude shooting for the radial quasilinear boundary-value problem.

First-order flux form of  -r^(-th) (r^a1 |u'|^(p-2) u')' = f(r, u):

    u' = sign(w) (|w| r^(-a1))^(1/(p-1)),
    w' = -r^th (ln(tau+|u|))^(r^beta) sign(u) |u|^(p*-1),

integrated from (u, w) = (amplitude, 0) at r_min = ``R_MIN`` = 1e-7 with an
adaptive embedded Runge-Kutta pair.  Zero flux at r_min is the discrete
stand-in for origin regularity: it is the condition that makes the operator
integrable against test functions, the boundary data itself is only
u(1) = 0.  The first step off the w = 0 manifold is taken with a
frozen-source series, which keeps the start well behaved when
|w|^(1/(p-1)) is not Lipschitz.

Shooting finds a root of the boundary map a -> u(1; a) with Brent's method
(``params.brent_root``).  The map can be non-smooth through the log
factor; Brent keeps a sign-change bracket at every step, so it is as robust
there as bisection while it converges superlinearly where the map is
smooth.  Each amplitude is shot once, without dense output; only
the root is integrated again, to sample the solution on the grid.  That
second integration is the cheaper design: dense output costs about half as
much again per shot (998 against 818 right-hand-side evaluations at the
root on the README config), so keeping it on all 9 Brent shots would cost
more than the one extra shot.  The integrator is ``dop853.integrate``, a
port of scipy's DOP853 to a state of two Python floats, so shooting loads
no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hslog import dop853
from hslog.functionals import LogParams, energy_pairing
from hslog.params import NumericalError, ParamSet, ValidationError, brent_root
from hslog.radial import _GL16_W, _GL16_X, Grid, Profile, dirichlet_norm

# the radius every shot starts at, with zero flux
R_MIN = 1e-7

# right-hand-side evaluations one shot may make.  Every shot the amplitude
# scan makes on (2, 2, 2, 2), (3, 2, 4, 4) and (4, 2, 6, 3) takes 134-1718;
# a shot started at R_MIN inside a core much smaller than R_MIN took
# 816,938 (a = 7000 on (2, 2, 2, 2), 1.7 s on a 2-vCPU Xeon), and one at
# a = 1e4 ran for 52 s.  At the cap a shot stops after about 0.25 s there
MAX_RHS_EVALUATIONS = 100_000


@dataclass(frozen=True)
class ShootResult:
    """A shooting solution and what it cost.

    ``bisection_iterations`` counts the amplitudes shot to find the root,
    bracket ends included (amplitude 0 is never shot); the name is kept
    because the shoot metadata and its readers use it.  ``ivp_evaluations``
    counts the right-hand-side evaluations of the final shot only, the one
    that samples the solution on the grid.
    """

    profile: Profile
    amplitude: float
    boundary_residual: float
    weak_residual: float
    bisection_iterations: int
    ivp_evaluations: int
    positive_inside: bool


def _source(r: float, u: float, tau: float, beta: float, p_star: float) -> float:
    """(ln(tau+|u|))^(r^beta) sign(u) |u|^(p*-1); tau >= 1 keeps the log >= 0."""
    if u == 0.0:
        return 0.0
    x = math.log(tau + abs(u))
    return x ** (r**beta) * math.copysign(abs(u) ** (p_star - 1.0), u)


def _series_step(amplitude: float, r_min: float, r_boot: float, lp: LogParams,
                 ps: ParamSet, p_star: float) -> tuple[float, float]:
    """Frozen-source analytic step from the zero-flux start."""
    f0 = _source(r_min, amplitude, lp.tau, lp.beta, p_star)
    th1 = ps.theta + 1.0

    def w_of(r):
        return -f0 * (r**th1 - r_min**th1) / th1

    # u(r_boot) = amplitude - int (|w| s^-a1)^(1/(p-1)) ds, 16-pt GL
    s = 0.5 * (r_min + r_boot) + 0.5 * (r_boot - r_min) * _GL16_X
    wts = 0.5 * (r_boot - r_min) * _GL16_W
    du = np.sign(-f0) * (np.abs(w_of(s)) * s**-ps.alpha1) ** (1.0 / (ps.p - 1.0))
    return amplitude + float(np.sum(wts * du)), w_of(r_boot)


def ivp_integrate(amplitude: float, lp: LogParams, ps: ParamSet, grid: Grid | None = None):
    """Integrate the flux system from ``R_MIN`` to 1 at relative tolerance 1e-10.

    Returns (profile_or_None, u(1), right-hand-side evaluations).  The
    profile is built when a grid is given: nodes below 2 ``R_MIN`` carry the
    amplitude value.  Only then does the integrator keep dense output,
    which the grid sampling needs.

    A shot whose |u| reaches 1e8 max(1, |amplitude|), whose step size
    underflows, or that reaches ``MAX_RHS_EVALUATIONS`` right-hand-side
    evaluations before r = 1 raises ``NumericalError`` with the last state.
    For the blow-up that state, and the r reported, are the end of the step
    that crossed the bound, not the crossing point itself.
    """
    if lp.tau < 1.0:
        raise ValidationError(f"the BVP source needs tau >= 1, got {lp.tau}")
    p_star = ps.p_star
    alpha1, theta, inv_pm1 = ps.alpha1, ps.theta, 1.0 / (ps.p - 1.0)
    tau, beta = lp.tau, lp.beta

    def rhs(r, u, w):
        try:
            du = math.copysign((abs(w) * r**-alpha1) ** inv_pm1, w) if w else 0.0
            dw = -(r**theta) * _source(r, u, tau, beta, p_star)
        except OverflowError:
            # a wild trial stage; the step controller rejects the step
            return math.inf, math.inf
        return du, dw

    if amplitude == 0.0:
        traj = None
        u_end = 0.0
        nfev = 0
    else:
        r_boot = 2.0 * R_MIN
        u_boot, w_boot = _series_step(amplitude, R_MIN, r_boot, lp, ps, p_star)
        traj = dop853.integrate(rhs, r_boot, u_boot, w_boot, 1.0, rtol=1e-10,
                                atol=1e-13 * max(1.0, abs(amplitude)),
                                u_limit=1e8 * max(1.0, abs(amplitude)),
                                dense=grid is not None, max_nfev=MAX_RHS_EVALUATIONS)
        u_end = traj.u
        if traj.status == "work":
            raise NumericalError(
                f"IVP integration used its {MAX_RHS_EVALUATIONS} right-hand-side "
                f"evaluations at r = {traj.t:.6g} (amplitude {amplitude:g}, last good "
                f"state u = {u_end:.3e}, w = {traj.w:.3e})"
            )
        if traj.status != "finished":
            raise NumericalError(
                f"IVP integration stalled at r = {traj.t:.6g} "
                f"(amplitude {amplitude:g}, last good state u = {u_end:.3e}, "
                f"w = {traj.w:.3e})"
            )
        nfev = traj.nfev

    profile = None
    if grid is not None:
        vals = np.full(grid.m, float(amplitude))
        if traj is not None:
            above = grid.nodes >= 2.0 * R_MIN
            vals[above] = traj.dense_u(grid.nodes[above])
        vals[-1] = u_end
        profile = Profile(grid, vals)
    return profile, u_end, nfev


def boundary_value(amplitude: float, lp: LogParams, ps: ParamSet) -> float:
    """u(1; amplitude)."""
    return ivp_integrate(amplitude, lp, ps)[1]


def shoot(lp: LogParams, ps: ParamSet, bracket: tuple[float, float], grid: Grid) -> ShootResult:
    """Find the amplitude with u(1) = 0 by Brent's method; certify the weak residual.

    The bracket must hold a sign change of u(1; a).  An amplitude bracket
    starting at 0 stands in u(1) = 1 there: amplitude 0 is the trivial
    branch and small shots stay positive at r = 1.  Brent runs to an
    amplitude tolerance of 1e-12 in at most 200 iterations, or raises
    ``NumericalError`` naming the shooting amplitude.  The root must then
    have |u(1)| < 1e-8, or ``NumericalError`` is raised.  Every shot starts
    at ``R_MIN``.

    The returned profile has its boundary node clamped to zero so it is a
    member of the discrete space; ``boundary_residual`` records the actual
    |u(1)| before clamping.
    """
    a_lo, a_hi = bracket
    if not 0 <= a_lo < a_hi:
        raise ValidationError(f"need 0 <= a_lo < a_hi, got {bracket}")
    ivp_args = (lp, ps)
    shots = []

    def shot(a, *args):
        shots.append(a)
        return boundary_value(a, *args)

    f_lo = shot(a_lo, *ivp_args) if a_lo > 0 else 1.0
    f_hi = shot(a_hi, *ivp_args)
    if f_lo * f_hi > 0:
        raise NumericalError(
            f"no sign change in amplitude bracket [{a_lo:g}, {a_hi:g}]: "
            f"u(1) = {f_lo:.3e} and {f_hi:.3e}"
        )
    a_star, f_star = brent_root(shot, a_lo, f_lo, a_hi, f_hi, "the shooting amplitude",
                                args=ivp_args, xtol=1e-12, maxiter=200)
    if not abs(f_star) < 1e-8:
        raise NumericalError(
            f"amplitude shooting did not reach |u(1)| < 1e-08 after {len(shots)} "
            f"shots: u(1) = {f_star:.3e} "
            f"at amplitude {a_star:.12g}"
        )

    profile, _, nfev = ivp_integrate(a_star, lp, ps, grid=grid)
    inner = profile.values[:-1]
    positive = bool(np.all(inner > 0.0))
    vals = profile.values.copy()
    vals[-1] = 0.0
    clamped = Profile(grid, vals)
    wres = weak_residual(clamped, lp, ps)
    return ShootResult(
        profile=clamped,
        amplitude=a_star,
        boundary_residual=abs(f_star),
        weak_residual=wres,
        bisection_iterations=len(shots),
        ivp_evaluations=nfev,
        positive_inside=positive,
    )


def weak_test_profiles(grid: Grid) -> list[Profile]:
    """10 low-frequency sine bumps and 10 log-spaced tents, all vanishing at r = 1."""
    r = grid.nodes
    battery = [Profile(grid, grid.sine_mode(k)) for k in range(1, 11)]
    for c in np.exp(np.linspace(math.log(2e-3), math.log(0.7), 10)):
        width = 0.75 * c
        vals = np.maximum(0.0, 1.0 - np.abs(r - c) / width)
        vals[-1] = 0.0
        battery.append(Profile(grid, vals))
    return battery


def weak_residual(u: Profile, lp: LogParams, ps: ParamSet) -> float:
    """max of |<I'(u), v>| / ||v|| over a battery of 20 test profiles."""
    worst = 0.0
    for v in weak_test_profiles(u.grid):
        nrm = dirichlet_norm(v, ps)
        if nrm == 0.0:
            continue
        worst = max(worst, abs(energy_pairing(u, v, lp, ps)) / nrm)
    return worst
