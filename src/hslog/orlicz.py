"""The Young-function family Gamma_{a,b}, its convexity certificates, and
the Luxemburg norm of the log-perturbed modular.

Gamma_{a,b}(t) = t^a |ln(tau+t)|^b with a > 1, 0 <= b <= 1, tau >= 1.
Convexity is certified two independent ways: second divided differences on
a wide log grid, and positivity of

    Phi_tau(t) = a(a-1) h_tau(t)^2 + b [a h_tau(t) + b - 1],
    h_tau(t)   = (tau+t) ln(tau+t) / t  >= 1,

whose lower bound a(a-1) + b(a+b-1) > 0 is exact.

The Luxemburg norm inf{lambda : rho(u/lambda) <= 1} uses the modular
rho(v) = int r^th |v|^p* |ln(tau+|v|)|^(r^beta) dr = J(v).  For u != 0,
lambda -> rho(u/lambda) is continuous and strictly decreasing, so a bracket
found by doubling holds exactly one root of rho(u/lambda) = 1, and Brent's
method (scipy's brentq) converges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hslog.functionals import LogParams, J
from hslog.params import (
    NumericalError,
    ParamSet,
    ValidationError,
    brent_root,
    critical_exponent,
)
from hslog.radial import Profile, dirichlet_norm, lq_norm


@dataclass(frozen=True)
class GammaSpec:
    a: float
    b: float
    tau: float = 1.0

    def __post_init__(self):
        if not self.a > 1:
            raise ValidationError(f"need a > 1, got {self.a}")
        if not 0 <= self.b <= 1:
            raise ValidationError(f"need 0 <= b <= 1, got {self.b}")
        if not self.tau >= 1:
            raise ValidationError(f"need tau >= 1, got {self.tau}")


def gamma_value(t, spec: GammaSpec):
    """Gamma_{a,b}(t); Gamma(0) = 0 by convention."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("Gamma is defined on t >= 0")
    out = np.where(t > 0, t**spec.a * np.abs(np.log(spec.tau + t)) ** spec.b, 0.0)
    return float(out) if out.ndim == 0 else out


def h_tau(t, spec: GammaSpec):
    t = np.asarray(t, dtype=float)
    return (spec.tau + t) * np.log(spec.tau + t) / t


def phi_tau(t, spec: GammaSpec):
    """The positivity target from the convexity computation."""
    h = h_tau(t, spec)
    return spec.a * (spec.a - 1.0) * h * h + spec.b * (spec.a * h + spec.b - 1.0)


@dataclass(frozen=True)
class ConvexityReport:
    min_scaled_second_difference: float
    min_phi: float
    phi_lower_bound: float
    second_differences_ok: bool
    phi_ok: bool

    @property
    def convex(self) -> bool:
        return self.second_differences_ok and self.phi_ok


def convexity_check(spec: GammaSpec, t_lo: float = 1e-6, t_hi: float = 1e6) -> ConvexityReport:
    """Certify convexity on a 481-point log grid spanning >= 10 decades.

    Second divided differences must exceed -1e-12 * scale, with the local
    curvature magnitude as scale; Phi_tau must stay above its exact lower
    bound a(a-1) + b(a+b-1).
    """
    if math.log10(t_hi / t_lo) < 10:
        raise ValidationError("convexity grid must span at least 10 decades")
    t = np.exp(np.linspace(math.log(t_lo), math.log(t_hi), 481))
    f = gamma_value(t, spec)
    tm, t0, tp = t[:-2], t[1:-1], t[2:]
    fm, f0, fp = f[:-2], f[1:-1], f[2:]
    # 2 * second divided difference = quadratic-fit f''
    d2 = 2.0 * ((fp - f0) / (tp - t0) - (f0 - fm) / (t0 - tm)) / (tp - tm)
    scale = np.maximum.reduce([fm, f0, fp]) / t0**2
    second_ok = bool(np.all(d2 >= -1e-12 * scale))

    phi = phi_tau(t, spec)
    bound = spec.a * (spec.a - 1.0) + spec.b * (spec.a + spec.b - 1.0)
    return ConvexityReport(
        min_scaled_second_difference=float(np.min(d2 / scale)),
        min_phi=float(np.min(phi)),
        phi_lower_bound=bound,
        second_differences_ok=second_ok,
        phi_ok=bool(np.all(phi >= bound - 1e-12 * abs(bound))),
    )


def modular(u: Profile, lam: float, lp: LogParams, ps: ParamSet) -> float:
    """rho(u/lambda) for the log-perturbed modular."""
    return J(u.scaled(1.0 / lam), lp, ps)


def _modular_excess(lam: float, u: Profile, lp: LogParams, ps: ParamSet) -> float:
    return modular(u, lam, lp, ps) - 1.0


def luxemburg_norm(u: Profile, lp: LogParams, ps: ParamSet) -> float:
    """lambda* with rho(u/lambda*) = 1, by bracket doubling and Brent's method.

    The bracket starts at the weighted L^p* norm.  Brent runs to a relative
    lambda tolerance near machine precision, so the norm keeps close to full
    precision (needed for the homogeneity contract).  The modular values at
    the bracket ends go to ``brent_root``, so no lambda is evaluated twice.
    The residual is a module-level function that gets u through ``args``.
    """
    if lp.tau < 1.0:
        raise ValidationError(f"the Luxemburg norm needs tau >= 1, got {lp.tau}")
    lam = lq_norm(u, critical_exponent(ps), ps.theta)
    if lam == 0.0:
        return 0.0
    rho_start = modular(u, lam, lp, ps)
    hi, rho_hi = lam, rho_start
    for _ in range(199):
        if rho_hi < 1.0:
            break
        hi *= 2.0
        rho_hi = modular(u, hi, lp, ps)
    if not rho_hi < 1.0:
        raise NumericalError("could not bracket the Luxemburg norm from above")
    lo, rho_lo = lam, rho_start
    for _ in range(199):
        if rho_lo > 1.0:
            break
        lo *= 0.5
        rho_lo = modular(u, lo, lp, ps)
    if not rho_lo > 1.0:
        raise NumericalError("could not bracket the Luxemburg norm from below")
    lam_star, _ = brent_root(_modular_excess, lo, rho_lo - 1.0, hi, rho_hi - 1.0,
                             args=(u, lp, ps), xtol=1e-15 * lo, rtol=8.9e-16)
    return lam_star


@dataclass(frozen=True)
class EmbeddingRow:
    profile_id: int
    luxemburg: float
    dirichlet: float
    ratio: float
    passed: bool


@dataclass(frozen=True)
class EmbeddingReport:
    rows: tuple[EmbeddingRow, ...]
    lambda0: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def embedding_check(profiles, lp: LogParams, ps: ParamSet, lambda0: float,
                    f_hat: float | None = None) -> EmbeddingReport:
    """Verify ||u||_Luxemburg <= lambda0 ||u|| on a profile set.

    Callers choose lambda0 with lambda0^p* >= 1.05 * (computed lower bound
    for the constrained supremum); pass ``f_hat`` to have that precondition
    enforced here.
    """
    if f_hat is not None:
        p_star = critical_exponent(ps)
        if lambda0**p_star < 1.05 * f_hat:
            raise ValidationError(
                f"lambda0^p* = {lambda0**p_star:.6g} below 1.05 * F_hat = {1.05 * f_hat:.6g}"
            )
    rows = []
    for i, u in enumerate(profiles):
        lux = luxemburg_norm(u, lp, ps)
        diri = dirichlet_norm(u, ps)
        ratio = lux / diri if diri > 0 else 0.0
        rows.append(EmbeddingRow(i, lux, diri, ratio, lux <= lambda0 * diri + 1e-12))
    return EmbeddingReport(rows=tuple(rows), lambda0=lambda0)
