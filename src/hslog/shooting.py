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
smooth.  Without a given bracket, ``shoot`` scans amplitudes from 0.5 to
1e4 for the first sign change of u(1; a), and Brent starts from the two
shots on either side of it.  Each amplitude is shot once, the scan's
included.  A shot keeps the stages of its steps while its |u(1)| is below
``ROOT_TOLERANCE``, and the root's shot, which Brent has already taken, is
sampled on the grid from them: its dense output is built then, for that
shot only (998 right-hand-side evaluations at the root on the README
config, 818 of them the shot's own).  Any other shot keeps only its u(1).
The integrator is ``dop853.integrate``, a port of scipy's DOP853 to a state
of two Python floats, so shooting loads no scipy.

The weak residual is the dual norm of I'(u) over the discrete profiles
that vanish at r = 1, in closed form (``radial.dual_norm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hslog import dop853
from hslog.functionals import LogParams, pairing_terms
from hslog.params import NumericalError, ParamSet, ValidationError, brent_root
from hslog.radial import _GL16_W, _GL16_X, Grid, Profile, dual_norm

# the radius every shot starts at, with zero flux, and that start as
# ``shoot_meta.txt`` states it
R_MIN = 1e-7
ORIGIN_CONDITION = "zero-flux at r_min (our choice; only u(1)=0 is imposed)"

# right-hand-side evaluations one shot may make.  Every shot the amplitude
# scan makes on (2, 2, 2, 2), (3, 2, 4, 4) and (4, 2, 6, 3) takes 134-1718;
# a shot started at R_MIN inside a core much smaller than R_MIN took
# 816,938 (a = 7000 on (2, 2, 2, 2), 1.7 s on a 2-vCPU Xeon), and one at
# a = 1e4 ran for 52 s.  At the cap a shot stops after about 0.1 s there
MAX_RHS_EVALUATIONS = 100_000

# the |u(1)| below which a shot can be the root; ``shoot`` raises unless
# Brent's root reaches it
ROOT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class ShootResult:
    """A shooting solution and what it cost.

    ``bisection_iterations`` counts the two bracket ends and Brent's shots
    (amplitude 0 is never shot, and the scan's shots below a found bracket
    are not counted); the name is kept because the shoot metadata and its
    readers use it.  ``ivp_evaluations`` counts the right-hand-side
    evaluations of the root's shot only, with the three per step that its
    sampling on the grid adds.
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


def ivp_integrate(amplitude: float, lp: LogParams, ps: ParamSet) -> dop853.Trajectory:
    """Integrate the flux system from ``R_MIN`` to 1 at relative tolerance 1e-10.

    Returns the finished ``dop853.Trajectory``: u(1) is its ``u`` and its
    ``dense_u`` samples u on (2 ``R_MIN``, 1].  Amplitude 0 gives u = 0.

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

    r_boot = 2.0 * R_MIN
    u_boot, w_boot = _series_step(amplitude, R_MIN, r_boot, lp, ps, p_star)
    traj = dop853.integrate(rhs, r_boot, u_boot, w_boot, 1.0, rtol=1e-10,
                            atol=1e-13 * max(1.0, abs(amplitude)),
                            u_limit=1e8 * max(1.0, abs(amplitude)),
                            max_nfev=MAX_RHS_EVALUATIONS)
    if traj.status == "work":
        raise NumericalError(
            f"IVP integration used its {MAX_RHS_EVALUATIONS} right-hand-side "
            f"evaluations at r = {traj.t:.6g} (amplitude {amplitude:g}, last good "
            f"state u = {traj.u:.3e}, w = {traj.w:.3e})"
        )
    if traj.status != "finished":
        raise NumericalError(
            f"IVP integration stalled at r = {traj.t:.6g} "
            f"(amplitude {amplitude:g}, last good state u = {traj.u:.3e}, "
            f"w = {traj.w:.3e})"
        )
    return traj


def _unless_root(traj: dop853.Trajectory) -> dop853.Trajectory:
    """traj, with its accepted steps dropped if |u(1)| >= ``ROOT_TOLERANCE``:
    only the root's shot is sampled on the grid, and only its u(1) is read
    of any other."""
    if not abs(traj.u) < ROOT_TOLERANCE:
        traj.steps = []
    return traj


# 1-2-5 steps per decade from 0.5 up to 1e4; (4, 2, 6, 3) changes sign
# between 5e3 and 1e4.  Past that a shot can start inside its own core and
# run up to ``MAX_RHS_EVALUATIONS`` (a = 1e4 on (2, 2, 2, 2) does, and
# raises after about 0.1 s on a 2-vCPU Xeon), so the scan stops there
_SCAN_AMPLITUDES = (0.5,) + tuple(c * 10.0**k for k in range(4) for c in (1.0, 2.0, 5.0)) + (1e4,)


def _scan(lp: LogParams, ps: ParamSet) -> dict:
    """The shots of the first pair of consecutive scan amplitudes where u(1; a)
    changes sign, by amplitude.

    The scan stops at the first shot that raises ``NumericalError``, and at
    the last amplitude of the scan, and then raises ``NumericalError``.
    """
    prev_a, prev = None, None
    for a in _SCAN_AMPLITUDES:
        try:
            traj = _unless_root(ivp_integrate(a, lp, ps))
        except NumericalError:
            break
        if prev is not None and prev.u * traj.u < 0:
            return {prev_a: prev, a: traj}
        prev_a, prev = a, traj
    raise NumericalError(f"no sign change of u(1; a) for amplitudes from "
                         f"{_SCAN_AMPLITUDES[0]:.12g} to {a:.12g}")


def shoot(lp: LogParams, ps: ParamSet, bracket: tuple[float, ...], grid: Grid) -> ShootResult:
    """Find the amplitude with u(1) = 0 by Brent's method; certify the weak residual.

    A given bracket (a_lo, a_hi) must hold a sign change of u(1; a).  An
    amplitude bracket starting at 0 stands in u(1) = 1 there: amplitude 0 is
    the trivial branch and small shots stay positive at r = 1.  An empty
    bracket is found by ``_scan``, whose two shots are not taken again.
    Brent runs to an amplitude tolerance of 1e-12 in at most 200
    iterations, or raises ``NumericalError`` naming the shooting amplitude.
    The root must then have |u(1)| < ``ROOT_TOLERANCE`` = 1e-8, or
    ``NumericalError`` is raised; a shot at or above it keeps its u(1) and
    drops its steps.  Every shot starts at ``R_MIN``.

    The returned profile has its boundary node clamped to zero so it is a
    member of the discrete space; ``boundary_residual`` records the actual
    |u(1)| before clamping.
    """
    ivp_args = (lp, ps)
    shots = {} if bracket else _scan(lp, ps)
    a_lo, a_hi = bracket or shots
    if not 0 <= a_lo < a_hi:
        raise ValidationError(f"need 0 <= a_lo < a_hi, got {bracket}")

    def shot(a, *args):
        if a not in shots:
            shots[a] = _unless_root(ivp_integrate(a, *args))
        return shots[a].u

    f_lo = shot(a_lo, *ivp_args) if a_lo > 0 else 1.0
    f_hi = shot(a_hi, *ivp_args)
    if f_lo * f_hi > 0:
        raise NumericalError(
            f"no sign change in amplitude bracket [{a_lo:g}, {a_hi:g}]: "
            f"u(1) = {f_lo:.3e} and {f_hi:.3e}"
        )
    a_star, f_star = brent_root(shot, a_lo, f_lo, a_hi, f_hi, "the shooting amplitude",
                                args=ivp_args, xtol=1e-12, maxiter=200)
    if not abs(f_star) < ROOT_TOLERANCE:
        raise NumericalError(
            f"amplitude shooting did not reach |u(1)| < {ROOT_TOLERANCE:.0e} after "
            f"{len(shots)} shots: u(1) = {f_star:.3e} at amplitude {a_star:.12g}"
        )

    # nodes below the shot's start carry the amplitude
    traj = shots[a_star]
    vals = np.full(grid.m, a_star)
    above = grid.nodes >= 2.0 * R_MIN
    vals[above] = traj.dense_u(grid.nodes[above])
    positive = bool(np.all(vals[:-1] > 0.0))
    vals[-1] = 0.0
    profile = Profile(grid, vals)
    return ShootResult(
        profile=profile,
        amplitude=a_star,
        boundary_residual=abs(f_star),
        weak_residual=weak_residual(profile, lp, ps),
        bisection_iterations=len(shots),
        ivp_evaluations=traj.nfev,
        positive_inside=positive,
    )


def weak_residual(u: Profile, lp: LogParams, ps: ParamSet) -> float:
    """sup of |<I'(u), v>| / ||v|| over the profiles v on u's grid with v(1) = 0.

    The exact dual norm of I'(u) on the discrete class, ``radial.dual_norm``
    of u's ``pairing_terms``.
    """
    terms = pairing_terms(u, lp, ps)
    return dual_norm(terms.factors, terms.source, u.grid, ps)
