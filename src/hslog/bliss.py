"""The explicit extremal family and everything attached to it.

The scale-eps profile is

    u*_eps(r) = c_hat eps^s / (eps^n + r^n)^(1/m),    r >= 0,

whose critical and gradient integrals over (0, inf) share the common value
S^((theta+1)/(theta-alpha1+p)), written S_power below.  Truncations to the
unit interval ("bubbles") use a C^2 quintic plateau cutoff: identically 1
on (0, r0], identically 0 on [2 r0, 1].  The plateau edge is r0 = ``R0`` =
0.2 everywhere except where a ``BubbleSpec`` sets another.

Norm deviations of the bubbles from S_power are computed as integrals of
*differences* over the cutoff region plus an exact tail: the integrands
live at scales r >= r0 >> eps, so adaptive quadrature resolves deviations
of order eps^(s p*) far below the floating-point floor of the norms
themselves.  This is what makes the asymptotic rate checks possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from hslog.params import (
    DerivedConstants,
    NumericalError,
    ParamSet,
    ValidationError,
    critical_exponent,
)
from hslog.radial import Grid, Profile, weighted_integral_between
from hslog.functionals import LogParams, log_factor_nodes

R0 = 0.2


def cutoff_eta(r: np.ndarray, r0: float) -> np.ndarray:
    """Quintic smoothstep plateau: 1 on (0, r0], 0 on [2 r0, 1], C^2."""
    x = np.clip((np.asarray(r, dtype=float) - r0) / r0, 0.0, 1.0)
    return 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x * x)


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
class ConstantsReport:
    """S and its derived forms, plus the two defining integrals.

    ``a_hat`` is the bubble amplitude making ||u_eps||^p = 1 + O(eps^(s p)).
    """

    S: float
    S_power: float
    sigma_p: float
    pstar_integral: float
    grad_integral: float
    a_hat: float

    @property
    def rel_disagreement(self) -> float:
        return abs(self.pstar_integral - self.grad_integral) / abs(self.grad_integral)


def bliss_value(eps: float, r, dc: DerivedConstants):
    """u*_eps(r); positive, strictly decreasing in r."""
    if eps <= 0:
        raise ValidationError(f"need eps > 0, got {eps}")
    r = np.asarray(r, dtype=float)
    out = dc.c_hat * eps**dc.s / (eps**dc.n + r**dc.n) ** (1.0 / dc.m)
    return float(out) if out.ndim == 0 else out


def bliss_deriv(eps: float, r, dc: DerivedConstants):
    r = np.asarray(r, dtype=float)
    out = (
        -dc.c_hat
        * eps**dc.s
        * (dc.n / dc.m)
        * r ** (dc.n - 1.0)
        * (eps**dc.n + r**dc.n) ** (-1.0 / dc.m - 1.0)
    )
    return float(out) if out.ndim == 0 else out


def bubble_profile(spec: BubbleSpec, grid: Grid, dc: DerivedConstants) -> Profile:
    """Sample A_hat * eta * u*_eps on the grid; vanishes on [2 r0, 1]."""
    if grid.r1 > spec.epsilon / 10.0:
        raise ValidationError(
            f"grid too coarse for eps={spec.epsilon:g}: r1={grid.r1:g} > eps/10"
        )
    r = grid.nodes
    vals = spec.a_hat * cutoff_eta(r, spec.r0) * bliss_value(spec.epsilon, r, dc)
    return Profile(grid, vals)


def _quad_full_line(f) -> float:
    """integral_0^inf f, split at 1 with the tail mapped by r = 1/v."""
    head, err1 = quad(f, 0.0, 1.0, limit=400, epsabs=1e-12, epsrel=1e-12)
    tail, err2 = quad(lambda v: f(1.0 / v) / v**2, 1e-14, 1.0, limit=400,
                      epsabs=1e-12, epsrel=1e-12)
    # the reported estimates are conservative; an order below the 1e-6
    # agreement contract still leaves real margin
    if err1 + err2 > 1e-7 * max(1.0, abs(head + tail)):
        raise NumericalError("quadrature for the extremal integrals did not converge")
    return head + tail


def compute_S(dc: DerivedConstants) -> ConstantsReport:
    """Evaluate both defining integrals of S_power and derive S, Sigma_p, a_hat."""
    ps = dc.params
    p_star = critical_exponent(ps)

    def f_pstar(r):
        return r**ps.theta * bliss_value(1.0, r, dc) ** p_star

    def f_grad(r):
        return r**ps.alpha1 * abs(bliss_deriv(1.0, r, dc)) ** ps.p

    pstar_integral = _quad_full_line(f_pstar)
    grad_integral = _quad_full_line(f_grad)
    s_power = pstar_integral
    gap = ps.theta - ps.alpha1 + ps.p
    S = s_power ** (gap / (ps.theta + 1.0))
    sigma_p = S ** (-p_star / ps.p)
    return ConstantsReport(
        S=S,
        S_power=s_power,
        sigma_p=sigma_p,
        pstar_integral=pstar_integral,
        grad_integral=grad_integral,
        a_hat=S ** (-(ps.theta + 1.0) / (gap * ps.p)),
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


def bubble_dirichlet_deviation(eps: float, dc: DerivedConstants) -> float:
    """||u_eps||^p - S_power for amplitude 1, via cutoff-region difference + tail."""
    ps = dc.params

    def diff(r):
        u = bliss_value(eps, r, dc)
        du = bliss_deriv(eps, r, dc)
        eta = float(cutoff_eta(r, R0))
        etap = float(cutoff_eta_prime(r, R0))
        return r**ps.alpha1 * (abs(etap * u + eta * du) ** ps.p - abs(du) ** ps.p)

    def tail(v):
        r = 2.0 * R0 / v
        return r**ps.alpha1 * abs(bliss_deriv(eps, r, dc)) ** ps.p * 2.0 * R0 / v**2

    core, err_core = quad(diff, R0, 2.0 * R0, limit=200)
    tl, err_tail = quad(tail, 1e-14, 1.0, limit=200)
    dev = core - tl
    _check_deviation_error("Dirichlet", eps, dev, err_core, err_tail)
    return dev


def bubble_lpstar_deviation(eps: float, dc: DerivedConstants) -> float:
    """||u_eps||^p*_{L^p*_theta} - S_power for amplitude 1 (always negative)."""
    ps = dc.params
    p_star = critical_exponent(ps)

    def missing(r):
        u = bliss_value(eps, r, dc)
        eta = float(cutoff_eta(r, R0))
        return r**ps.theta * u**p_star * (1.0 - eta**p_star)

    def tail(v):
        r = 2.0 * R0 / v
        return r**ps.theta * bliss_value(eps, r, dc) ** p_star * 2.0 * R0 / v**2

    core, err_core = quad(missing, R0, 2.0 * R0, limit=200)
    tl, err_tail = quad(tail, 1e-14, 1.0, limit=200)
    dev = -(core + tl)
    _check_deviation_error("L^p*", eps, dev, err_core, err_tail)
    return dev


def bubble_norm_scan(eps_list, dc: DerivedConstants):
    """Fit the decay exponents of both norm deviations over an eps scan.

    Returns (rate table for |Dirichlet deviation|, rate table for |L^p*
    deviation|); the expected exponents are s*p and s*p*.
    """
    from hslog.analysis import rate_fit  # local import, analysis sits above bliss

    eps_arr = sorted((float(e) for e in eps_list), reverse=True)
    dev_d = [abs(bubble_dirichlet_deviation(e, dc)) for e in eps_arr]
    dev_l = [abs(bubble_lpstar_deviation(e, dc)) for e in eps_arr]
    table_d = rate_fit(list(zip(eps_arr, dev_d)), model="pure-power")
    table_l = rate_fit(list(zip(eps_arr, dev_l)), model="pure-power")
    return table_d, table_l


# --- the concentration functional ------------------------------------------


def concentration_E(a: float, b: float, u_eps: Profile, lp: LogParams, ps: ParamSet) -> float:
    """E(a, b) = int_a^b r^th |u|^p* (|ln(tau + |u|)|^(r^beta) - 1) dr.

    Exact moments per cell make the value additive over interval splits.
    """
    if not 0 <= a < b <= 1:
        raise ValidationError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    p_star = critical_exponent(ps)
    lf = log_factor_nodes(u_eps.grid.node_power(lp.beta), u_eps.values, lp)
    f = np.abs(u_eps.values) ** p_star * (lf - 1.0)
    return weighted_integral_between(u_eps.grid, f, ps.theta, a, b)
