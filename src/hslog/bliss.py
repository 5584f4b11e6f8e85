"""The explicit extremal family and everything attached to it.

The scale-eps profile is

    u*_eps(r) = c_hat eps^s / (eps^n + r^n)^(1/m),    r >= 0,

whose critical and gradient integrals over (0, inf) share the common value
S^((theta+1)/(theta-alpha1+p)), written S_power below.  With t = r^n the
critical integral is a Beta integral, and that closed form is
``ParamSet.S_power``; S, sigma_p, the unit-norm amplitude a_hat and the
exponents of u*_eps are read from the ``ParamSet`` too (``params``).  The
two integrals themselves are computed by adaptive quadrature only in
``extremal_integrals``, the check that they agree.  Truncations to the
unit interval ("bubbles") use a C^2 quintic plateau cutoff: identically 1
on (0, r0], identically 0 on [2 r0, 1].  The plateau edge is r0 = ``R0`` =
0.2 everywhere except where a ``BubbleSpec`` sets another.

Norm deviations of the bubbles from S_power are computed as integrals of
*differences* over the cutoff region plus an exact tail: the integrands
live at scales r >= r0 >> eps, so adaptive quadrature resolves deviations
of order eps^(s p*) far below the floating-point floor of the norms
themselves.  This is what makes the asymptotic rate checks possible.
scipy's ``quad`` is imported where it is called, so that commands which
never integrate do not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hslog.params import NumericalError, ParamSet, ValidationError
from hslog.radial import Grid, Profile, weighted_integral
from hslog.functionals import LogParams, log_factor_nodes

R0 = 0.2


def cutoff_eta(r: np.ndarray, r0: float) -> np.ndarray:
    """Quintic smoothstep plateau: 1 on (0, r0], 0 on [2 r0, 1], C^2."""
    x = np.clip((np.asarray(r, dtype=float) - r0) / r0, 0.0, 1.0)
    eta = np.asarray(1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x * x))
    # rounding puts eta at -2e-16 for some r just below 2 r0.  The clamp is
    # in place: one more grid-length temporary per bubble doubled the page
    # faults of a sweep-beta pass at M = 16000
    return np.maximum(eta, 0.0, out=eta)


def cutoff_eta_prime(r: np.ndarray, r0: float) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    x = (r - r0) / r0
    inside = (x > 0.0) & (x < 1.0)
    xs = np.where(inside, x, 0.5)
    return np.where(inside, -30.0 * xs**2 * (1.0 - xs) ** 2 / r0, 0.0)


@dataclass(frozen=True)
class BubbleSpec:
    """Parameters of one cutoff bubble: scale, amplitude factor, plateau edge."""

    epsilon: float
    a_hat: float = 1.0
    r0: float = R0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError(f"need epsilon > 0, got {self.epsilon}")
        if not self.a_hat > 0:
            raise ValidationError(f"need a_hat > 0, got {self.a_hat}")
        if not 0 < self.r0 < 2 * self.r0 < 1:
            raise ValidationError(f"need 0 < r0 < 2 r0 < 1, got r0 = {self.r0}")


@dataclass(frozen=True)
class ExtremalIntegrals:
    """int_0^inf r^theta u*_1^p* dr and int_0^inf r^alpha1 |u*_1'|^p dr, by quadrature.

    Both equal ``ParamSet.S_power``; that they agree checks the closed form.
    """

    pstar_integral: float
    grad_integral: float

    @property
    def rel_disagreement(self) -> float:
        return abs(self.pstar_integral - self.grad_integral) / abs(self.grad_integral)


def bliss_value(eps: float, r, ps: ParamSet):
    """u*_eps(r); positive, strictly decreasing in r."""
    if eps <= 0:
        raise ValidationError(f"need eps > 0, got {eps}")
    r = np.asarray(r, dtype=float)
    out = ps.c_hat * eps**ps.s / (eps**ps.n + r**ps.n) ** (1.0 / ps.m)
    return float(out) if out.ndim == 0 else out


def bliss_deriv(eps: float, r, ps: ParamSet):
    r = np.asarray(r, dtype=float)
    out = (
        -ps.c_hat
        * eps**ps.s
        * (ps.n / ps.m)
        * r ** (ps.n - 1.0)
        * (eps**ps.n + r**ps.n) ** (-1.0 / ps.m - 1.0)
    )
    return float(out) if out.ndim == 0 else out


def bubble_profile(spec: BubbleSpec, grid: Grid, ps: ParamSet) -> Profile:
    """Sample A_hat * eta * u*_eps on the grid; vanishes on [2 r0, 1]."""
    if grid.r1 > spec.epsilon / 10.0:
        raise ValidationError(
            f"grid too coarse for eps={spec.epsilon:g}: r1={grid.r1:g} > eps/10"
        )
    r = grid.nodes
    vals = spec.a_hat * cutoff_eta(r, spec.r0) * bliss_value(spec.epsilon, r, ps)
    return Profile(grid, vals)


def _quad_full_line(f) -> float:
    """integral_0^inf f, split at 1 with the tail mapped by r = 1/v."""
    from scipy.integrate import quad

    head, err1 = quad(f, 0.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    tail, err2 = quad(lambda v: f(1.0 / v) / v**2, 1e-14, 1.0, limit=400,
                      epsabs=1e-12, epsrel=1e-12)
    # the reported estimates are conservative; an order below the 1e-6
    # agreement contract still leaves real margin
    if err1 + err2 > 1e-7 * max(1.0, abs(head + tail)):
        raise NumericalError("quadrature for the extremal integrals did not converge")
    return head + tail


def extremal_integrals(ps: ParamSet) -> ExtremalIntegrals:
    """Both defining integrals of S_power by quadrature; a quadrature that
    does not converge raises ``NumericalError``."""
    return ExtremalIntegrals(
        pstar_integral=_quad_full_line(
            lambda r: r**ps.theta * bliss_value(1.0, r, ps) ** ps.p_star),
        grad_integral=_quad_full_line(
            lambda r: r**ps.alpha1 * abs(bliss_deriv(1.0, r, ps)) ** ps.p),
    )


# --- norm deviation scan ---------------------------------------------------


def _check_deviation_error(norm: str, eps: float, dev: float, err_core: float,
                           err_tail: float) -> None:
    """The rate fits rest on deviations near eps^(s p*); quad's own error
    estimates must stay three orders below the deviation they produce."""
    if err_core + err_tail > 1e-3 * abs(dev):
        raise NumericalError(
            f"{norm} deviation quadrature at eps={eps:g}, r0={R0:g} did not converge: "
            f"error estimates {err_core:.3e} on the cutoff region [r0, 2 r0] and "
            f"{err_tail:.3e} on the tail (2 r0, inf) against |deviation| {abs(dev):.3e}"
        )


def bubble_dirichlet_deviation(eps: float, ps: ParamSet) -> float:
    """||u_eps||^p - S_power for amplitude 1, via cutoff-region difference + tail."""

    def diff(r):
        u = bliss_value(eps, r, ps)
        du = bliss_deriv(eps, r, ps)
        eta = float(cutoff_eta(r, R0))
        etap = float(cutoff_eta_prime(r, R0))
        return r**ps.alpha1 * (abs(etap * u + eta * du) ** ps.p - abs(du) ** ps.p)

    def tail(v):
        r = 2.0 * R0 / v
        return r**ps.alpha1 * abs(bliss_deriv(eps, r, ps)) ** ps.p * 2.0 * R0 / v**2

    from scipy.integrate import quad

    core, err_core = quad(diff, R0, 2.0 * R0, limit=200)
    tl, err_tail = quad(tail, 1e-14, 1.0, limit=200)
    dev = core - tl
    _check_deviation_error("Dirichlet", eps, dev, err_core, err_tail)
    return dev


def bubble_lpstar_deviation(eps: float, ps: ParamSet) -> float:
    """||u_eps||^p*_{L^p*_theta} - S_power for amplitude 1 (always negative)."""
    p_star = ps.p_star

    def missing(r):
        u = bliss_value(eps, r, ps)
        eta = float(cutoff_eta(r, R0))
        return r**ps.theta * u**p_star * (1.0 - eta**p_star)

    def tail(v):
        r = 2.0 * R0 / v
        return r**ps.theta * bliss_value(eps, r, ps) ** p_star * 2.0 * R0 / v**2

    from scipy.integrate import quad

    core, err_core = quad(missing, R0, 2.0 * R0, limit=200)
    tl, err_tail = quad(tail, 1e-14, 1.0, limit=200)
    dev = -(core + tl)
    _check_deviation_error("L^p*", eps, dev, err_core, err_tail)
    return dev


def bubble_norm_scan(eps_list, ps: ParamSet):
    """Fit the decay exponents of both norm deviations over an eps scan.

    Returns (rate table for |Dirichlet deviation|, rate table for |L^p*
    deviation|); the expected exponents are s*p and s*p*.
    """
    from hslog.analysis import rate_fit  # local import, analysis sits above bliss

    eps_arr = sorted((float(e) for e in eps_list), reverse=True)
    dev_d = [abs(bubble_dirichlet_deviation(e, ps)) for e in eps_arr]
    dev_l = [abs(bubble_lpstar_deviation(e, ps)) for e in eps_arr]
    table_d = rate_fit(list(zip(eps_arr, dev_d)), model="pure-power")
    table_l = rate_fit(list(zip(eps_arr, dev_l)), model="pure-power")
    return table_d, table_l


# --- the concentration functional ------------------------------------------


def concentration_E(u_eps: Profile, lp: LogParams, ps: ParamSet) -> float:
    """E = int_0^1 r^th |u|^p* (|ln(tau + |u|)|^(r^beta) - 1) dr, in the nodal rule of J.

    The integrand is formed up to the last nonzero node of u and is an
    exact zero past it, as in J, so E agrees with J - J0 to rounding.
    """
    k = u_eps.support_end()
    v = u_eps.values[:k]
    f = np.zeros(u_eps.grid.m)
    f[:k] = np.abs(v) ** ps.p_star * (
        log_factor_nodes(u_eps.grid.node_power(lp.beta)[:k], v, lp) - 1.0)
    return weighted_integral(u_eps.grid, f, ps.theta)
