"""The explicit extremal family and everything attached to it.

The scale-eps profile is

    u*_eps(r) = c_hat eps^s / (eps^n + r^n)^(1/m),    r >= 0,

whose critical and gradient integrals over (0, inf) share the common value
S^((theta+1)/(theta-alpha1+p)), written S_power below.  With t = r^n the
critical integral is a Beta integral, and that closed form is
``ParamSet.S_power``; S, sigma_p, the unit-norm amplitude a_hat and the
exponents of u*_eps are read from the ``ParamSet`` too (``params``).  The
two integrals themselves are computed by quadrature only in
``extremal_integrals``, the check that they agree.  Truncations to the
unit interval ("bubbles") use a C^2 quintic plateau cutoff: identically 1
on (0, r0], identically 0 on [2 r0, 1].  The plateau edge is r0 = ``R0`` =
0.2 everywhere except where a ``BubbleSpec`` sets another.

Norm deviations of the bubbles from S_power are computed as integrals of
*differences* over the cutoff region plus an exact tail: the integrands
live at scales r >= r0 >> eps, so quadrature resolves deviations of order
eps^(s p*) far below the floating-point floor of the norms themselves.
This is what makes the asymptotic rate checks possible.  Their rate fits
are least squares in log-log coordinates, optionally dividing out a
ln|ln eps| factor first ("power-times-loglog"), which is the model family
behind every asymptotic acceptance check.  All of these
integrals, and the two extremal ones, use one fixed tanh-sinh rule
(Takahasi and Mori, 1974), ``_tanh_sinh``, with its own error estimate.
The same rule's nodes carry a bubble off the mesh (``bubble_nodes``): in
closed form on [0, eps], [eps, r0] in ln r and [r0, 2 r0], a node set
(``radial.NodeSet``) at which the mountain-pass gap, the ``ncs`` check and
the ``rates`` E fit integrate it with ``functionals``' kernels.  Only the
ascent's seeds and ``orlicz`` sample a bubble on a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hslog.params import NumericalError, ParamSet, ValidationError
from hslog.radial import Grid, NodeSet, Profile, _cached, _check_rule, _piece_sums
from hslog.functionals import J_at, LogParams, nodal_factors

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
    return ps.c_hat * eps**ps.s / (eps**ps.n + r**ps.n) ** (1.0 / ps.m)


def bliss_deriv(eps: float, r, ps: ParamSet):
    r = np.asarray(r, dtype=float)
    return (
        -ps.c_hat
        * eps**ps.s
        * (ps.n / ps.m)
        * r ** (ps.n - 1.0)
        * (eps**ps.n + r**ps.n) ** (-1.0 / ps.m - 1.0)
    )


def bubble_profile(spec: BubbleSpec, grid: Grid, ps: ParamSet) -> Profile:
    """Sample A_hat * eta * u*_eps on the grid; vanishes on [2 r0, 1]."""
    if grid.r1 > spec.epsilon / 10.0:
        raise ValidationError(
            f"grid too coarse for eps={spec.epsilon:g}: r1={grid.r1:g} > eps/10"
        )
    r = grid.nodes
    # the cutoff depends on the grid and r0 only, so each grid builds it once
    eta = _cached(grid._cache, ("cutoff", spec.r0), lambda: cutoff_eta(r, spec.r0))
    vals = spec.a_hat * eta * bliss_value(spec.epsilon, r, ps)
    return Profile(grid, vals)


# tanh-sinh nodes x = tanh(pi/2 sinh t) on (-1, 1), t = k h with h = 1/64 and
# |t| <= 4, held as the distance 1 - |x| to the nearer end, so that the nodes
# next to an endpoint keep full precision; the weights are h dx/dt
_TS_H = 1.0 / 64.0
_TS_T = _TS_H * np.arange(-256, 257)
_TS_D = 2.0 / (1.0 + np.exp(np.pi * np.sinh(np.abs(_TS_T))))
_TS_W = _TS_H * 0.5 * np.pi * np.cosh(_TS_T) * _TS_D * (2.0 - _TS_D)


def _ts_nodes(a: float, b: float) -> tuple[np.ndarray, float]:
    """The rule's nodes on (a, b), and the factor (b - a)/2 that scales its
    weights ``_TS_W`` there."""
    half = 0.5 * (b - a)
    return np.where(_TS_T < 0.0, a + half * _TS_D, b - half * _TS_D), half


def _tanh_sinh(f, a: float, b: float) -> tuple[float, float]:
    """(integral_a^b f, error estimate) by the tanh-sinh rule above.

    f takes an array of abscissae, all strictly inside (a, b) before
    rounding, and is evaluated once.  The estimate is the difference
    between the step-h sum and the step-2h sum over every other node.  It
    does not see the terms cut off past |t| = 4, which is sound for an
    integrand bounded near both ends, as every one in this module is; one
    that blows up like d^e, e near -1, at a distance d from an end loses
    about d_min^(1+e), d_min ~ 1e-37, unseen.
    """
    x, half = _ts_nodes(a, b)
    value, err = _piece_sums(_TS_W * f(x), 1)
    return half * value, half * err


def _power_tail(k: float, lam: float, q: float, eps: float, r_split: float,
                n: float) -> tuple[float, float]:
    """(int_R^inf k r^(-1-lam) (1 + (eps/r)^n)^(-q) dr, error estimate), R = r_split.

    Under r = R y^(-1/lam) the decay r^(-1-lam) cancels against dr, and the
    integral is k R^(-lam) / lam times int_0^1 (1 + (eps/R)^n y^(n/lam))^(-q) dy,
    whose integrand lies in [2^-q, 1] for eps <= R.  Neither a slow decay
    (small lam) nor a power of r large enough to overflow reaches the rule.
    """
    scale = k * r_split**-lam / lam
    c = (eps / r_split) ** n
    value, err = _tanh_sinh(lambda y: (1.0 + c * y ** (n / lam)) ** -q, 0.0, 1.0)
    return scale * value, scale * err


def _pstar_tail(eps: float, r_split: float, ps: ParamSet) -> tuple[float, float]:
    """int_R^inf r^theta u*_eps^p* dr: the integrand is (c_hat eps^s)^p* r^(-1-lam)
    (1 + (eps/r)^n)^(-p*/m) with lam = (theta + 1)/(p - 1)."""
    return _power_tail((ps.c_hat * eps**ps.s) ** ps.p_star, (ps.theta + 1.0) / (ps.p - 1.0),
                       ps.p_star / ps.m, eps, r_split, ps.n)


def _grad_tail(eps: float, r_split: float, ps: ParamSet) -> tuple[float, float]:
    """int_R^inf r^alpha1 |u*_eps'|^p dr: the integrand is (c_hat eps^s n/m)^p
    r^(-1-lam) (1 + (eps/r)^n)^(-p(1/m + 1)) with lam = n/m."""
    return _power_tail((ps.c_hat * eps**ps.s * ps.n / ps.m) ** ps.p, ps.n / ps.m,
                       ps.p * (1.0 / ps.m + 1.0), eps, r_split, ps.n)


def _full_line(head, tail: tuple[float, float]) -> float:
    """integral_0^inf, split at 1: head is the integrand on (0, 1], tail the
    (value, error estimate) of the integral over (1, inf)."""
    h, err1 = _tanh_sinh(head, 0.0, 1.0)
    t, err2 = tail
    # an order below the 1e-6 agreement contract still leaves real margin;
    # a NaN integrand fails the test too
    if not err1 + err2 <= 1e-7 * max(1.0, abs(h + t)):
        raise NumericalError("quadrature for the extremal integrals did not converge")
    return h + t


def extremal_integrals(ps: ParamSet) -> ExtremalIntegrals:
    """Both defining integrals of S_power by quadrature; a quadrature that
    does not converge raises ``NumericalError``.

    The gradient head is formed as (r^(alpha1/p) |u*_1'|)^p: |u*_1'| grows
    like r^(n-1) towards r = 0 when n < 1, and its p-th power alone can
    overflow on the nodes next to 0 when p is large.
    """
    return ExtremalIntegrals(
        pstar_integral=_full_line(
            lambda r: r**ps.theta * bliss_value(1.0, r, ps) ** ps.p_star,
            _pstar_tail(1.0, 1.0, ps)),
        grad_integral=_full_line(
            lambda r: np.abs(r ** (ps.alpha1 / ps.p) * bliss_deriv(1.0, r, ps)) ** ps.p,
            _grad_tail(1.0, 1.0, ps)),
    )


# --- norm deviation scan and rate fits --------------------------------------


RATE_MODELS = ("pure-power", "power-times-loglog")


@dataclass(frozen=True)
class RateTable:
    abscissae: tuple[float, ...]
    ordinates: tuple[float, ...]
    fitted_exponent: float
    fit_residual: float
    model: str


def rate_fit(pairs, model: str) -> RateTable:
    """Least-squares exponent of value ~ C eps^e (optionally * ln|ln eps|)."""
    if model not in RATE_MODELS:
        raise ValidationError(f"unknown rate model {model!r}, expected one of {RATE_MODELS}")
    pts = sorted(((float(e), float(v)) for e, v in pairs), key=lambda t: -t[0])
    if len(pts) < 4:
        raise ValidationError(f"rate fit needs at least 4 points, got {len(pts)}")
    eps = np.array([e for e, _ in pts])
    val = np.array([v for _, v in pts])
    if np.any(val <= 0):
        raise ValidationError("rate fit needs strictly positive values")
    x = np.log(eps)
    y = np.log(val)
    if model == "power-times-loglog":
        y = y - np.log(np.log(np.abs(np.log(eps))))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return RateTable(
        abscissae=tuple(eps),
        ordinates=tuple(val),
        fitted_exponent=float(slope),
        fit_residual=resid,
        model=model,
    )


def _check_deviation_error(norm: str, eps: float, dev: float, err_core: float,
                           err_tail: float) -> None:
    """The rate fits rest on deviations near eps^(s p*); the quadrature's
    error estimates must stay three orders below the deviation they produce."""
    if not err_core + err_tail <= 1e-3 * abs(dev):
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
        eta = cutoff_eta(r, R0)
        etap = cutoff_eta_prime(r, R0)
        return r**ps.alpha1 * (np.abs(etap * u + eta * du) ** ps.p - np.abs(du) ** ps.p)

    core, err_core = _tanh_sinh(diff, R0, 2.0 * R0)
    tl, err_tail = _grad_tail(eps, 2.0 * R0, ps)
    dev = core - tl
    _check_deviation_error("Dirichlet", eps, dev, err_core, err_tail)
    return dev


def bubble_lpstar_deviation(eps: float, ps: ParamSet) -> float:
    """||u_eps||^p*_{L^p*_theta} - S_power for amplitude 1 (always negative)."""
    p_star = ps.p_star

    def missing(r):
        u = bliss_value(eps, r, ps)
        eta = cutoff_eta(r, R0)
        return r**ps.theta * u**p_star * (1.0 - eta**p_star)

    core, err_core = _tanh_sinh(missing, R0, 2.0 * R0)
    tl, err_tail = _pstar_tail(eps, 2.0 * R0, ps)
    dev = -(core + tl)
    _check_deviation_error("L^p*", eps, dev, err_core, err_tail)
    return dev


def bubble_norm_scan(eps_list, ps: ParamSet):
    """Fit the decay exponents of both norm deviations over an eps scan.

    Returns (rate table for |Dirichlet deviation|, rate table for |L^p*
    deviation|); the expected exponents are s*p and s*p*.
    """
    eps_arr = sorted((float(e) for e in eps_list), reverse=True)
    dev_d = [abs(bubble_dirichlet_deviation(e, ps)) for e in eps_arr]
    dev_l = [abs(bubble_lpstar_deviation(e, ps)) for e in eps_arr]
    table_d = rate_fit(list(zip(eps_arr, dev_d)), model="pure-power")
    table_l = rate_fit(list(zip(eps_arr, dev_l)), model="pure-power")
    return table_d, table_l


# --- a bubble at the rule's nodes -------------------------------------------


@dataclass(frozen=True)
class BubbleNodes:
    """A cutoff bubble u = a_hat eta u*_eps at the nodes of the tanh-sinh rule.

    The rule is laid on three pieces: [0, eps], [eps, r0] in x = ln r, and
    [r0, 2 r0]; u is 0 past 2 r0.  For eps >= r0 the first piece ends at
    r0 and the second is empty; ``nodes`` is that node set, and ``u`` the
    bubble of ``spec`` at its nodes.  ``norm_p`` is ||u||^p, formed from the
    closed-form u', and ``j0`` is J0(u) = int r^theta u^p* dr.
    """

    spec: BubbleSpec
    nodes: NodeSet
    u: np.ndarray
    norm_p: float
    j0: float


def _bubble_at(spec: BubbleSpec, r: np.ndarray, ps: ParamSet) -> tuple[np.ndarray, np.ndarray]:
    """u of ``spec`` at r, and r^alpha1 |u'|^p as (r^(alpha1/p) |u'|)^p from the closed-form u'."""
    eps, r0 = spec.epsilon, spec.r0
    eta = cutoff_eta(r, r0)
    star = bliss_value(eps, r, ps)
    du = spec.a_hat * (cutoff_eta_prime(r, r0) * star + eta * bliss_deriv(eps, r, ps))
    return spec.a_hat * eta * star, np.abs(r ** (ps.alpha1 / ps.p) * du) ** ps.p


def bubble_nodes(spec: BubbleSpec, ps: ParamSet) -> BubbleNodes:
    """The bubble of ``spec`` at the rule's nodes, with ||u||^p and J0(u).

    No mesh is involved, so any eps > 0 is accepted.  If the rule's error
    estimate for ||u||^p or J0 exceeds ``radial._RULE_TOL`` of the value (or
    either is NaN), ``NumericalError`` is raised, naming eps.
    """
    eps, r0 = spec.epsilon, spec.r0
    split = min(eps, r0)
    x1, h1 = _ts_nodes(0.0, split)
    x2, h2 = _ts_nodes(np.log(split), np.log(r0))
    x3, h3 = _ts_nodes(r0, 2.0 * r0)
    r2 = np.exp(x2)
    r = np.concatenate((x1, r2, x3))
    dr = np.concatenate((h1 * _TS_W, h2 * _TS_W * r2, h3 * _TS_W))
    u, density = _bubble_at(spec, r, ps)
    nodes = NodeSet(r, dr * r**ps.theta, 3, {})
    where = f"bubble quadrature at eps={eps:g}, r0={r0:g}"
    norm_p, err = _piece_sums(dr * density, 3)
    _check_rule(f"{where} for ||u||^p", err, norm_p)
    j0 = J_at(nodes, u, None, ps, f"{where} for J0")
    return BubbleNodes(spec=spec, nodes=nodes, u=u, norm_p=norm_p, j0=j0)


def bubble_dirichlet_tail(spec: BubbleSpec, radius: float, ps: ParamSet) -> float:
    """int_radius^1 r^alpha1 |u'|^p dr for the bubble u of ``spec``, 0 from 2 r0 on.

    The rule runs on [radius, r0] and [max(radius, r0), 2 r0] where nonempty,
    never across r0, where the cutoff's third derivative jumps.  An error
    estimate above ``radial._RULE_TOL`` of the tail raises ``NumericalError``.
    """
    r0 = spec.r0
    pieces = [_tanh_sinh(lambda r: _bubble_at(spec, r, ps)[1], a, b)
              for a, b in ((radius, r0), (max(radius, r0), 2.0 * r0)) if a < b]
    tail, err = sum((v for v, _ in pieces), 0.0), sum((e for _, e in pieces), 0.0)
    _check_rule(f"Dirichlet tail quadrature at eps={spec.epsilon:g}, radius={radius:g}",
                err, tail)
    return tail


# --- the concentration functional ------------------------------------------


def concentration_E(bubble: BubbleNodes, lp: LogParams, ps: ParamSet) -> float:
    """E = int_0^1 r^th |u|^p* (|ln(tau + |u|)|^(r^beta) - 1) dr at the bubble's nodes.

    It is summed as it stands, from J's factors, not as J - J0, which would
    cancel.  An error estimate above ``radial._RULE_TOL`` of J0 raises
    ``NumericalError``.
    """
    f, lf = nodal_factors(bubble.nodes, bubble.u, lp, ps)
    lf -= 1.0
    return bubble.nodes.integral(f, lf, f"concentration quadrature at eps={bubble.spec.epsilon:g}",
                                 bubble.j0)
