"""The Young-function family Gamma_{a,b}, its convexity certificates, and
the Luxemburg norm of the log-perturbed modular.

Gamma_{a,b}(t) = t^a |ln(tau+t)|^b with a > 1, 0 <= b <= 1, tau >= 1.
Convexity is certified two independent ways: second divided differences on
a wide log grid, and positivity of

    Phi_tau(t) = a(a-1) h_tau(t)^2 + b [a h_tau(t) + b - 1],
    h_tau(t)   = (tau+t) ln(tau+t) / t  >= 1,

whose lower bound a(a-1) + b(a+b-1) > 0 is exact.

The Luxemburg norm inf{lambda : rho(u/lambda) <= 1} uses the modular
rho(v) = int r^th |v|^p* |ln(tau+|v|)|^(r^beta) dr = J(v), read along the
ray through u (``functionals.ray_terms``):

    rho(u/lambda) = lambda^(-p*) sum_i w_i ln(tau + a_i/lambda)^(e_i).

For u != 0 and tau >= 1, lambda -> rho(u/lambda) is continuous and
strictly decreasing, and lambda^p* rho(u/lambda) = sum_i w_i ln(tau +
a_i/lambda)^(e_i) is nonincreasing.  From lambda0 = (sum_i w_i)^(1/p*), the
weighted L^p* norm, with rho0 = rho(u/lambda0), the power-law point lambda1
= lambda0 rho0^(1/p*) therefore has rho(u/lambda1) <= 1 when rho0 > 1 and
>= 1 when rho0 < 1: the two points bracket the one root of rho(u/lambda) =
1, and Brent's method (scipy's brentq) converges to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hslog.functionals import LogParams, RayTerms, ray_sum, ray_terms
from hslog.params import (
    ParamSet,
    ValidationError,
    bracket_decreasing,
    brent_root,
    critical_exponent,
)
from hslog.radial import Profile, dirichlet_norm


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


def convexity_check(spec: GammaSpec) -> ConvexityReport:
    """Certify convexity on a 481-point log grid over [1e-6, 1e6].

    Second divided differences must exceed -1e-12 * scale, with the local
    curvature magnitude as scale; Phi_tau must stay above its exact lower
    bound a(a-1) + b(a+b-1).
    """
    t = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 481))
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


def modular(terms: RayTerms, lam: float) -> float:
    """rho(u/lambda) for the log-perturbed modular, from the ray terms of u.

    The ray sum takes a_i times 1/lambda, the product ``u.scaled`` forms,
    so the log factors are those of J(u/lambda) bit for bit.
    """
    return ray_sum(terms, 1.0 / lam) / lam**terms.p_star


def _modular_excess(lam: float, terms: RayTerms) -> float:
    return modular(terms, lam) - 1.0


def luxemburg_norm(u: Profile, lp: LogParams, ps: ParamSet) -> float:
    """lambda* with rho(u/lambda*) = 1, by a power-law bracket and Brent's method.

    The bracket ends are lambda0 = (sum_i w_i)^(1/p*), the weighted L^p*
    norm, and lambda1 = lambda0 rho0^(1/p*).  Because lambda^p*
    rho(u/lambda) does not increase with lambda, rho at lambda1 lies on the
    other side of 1 from rho0 (module docstring).  ``bracket_decreasing``
    still halves and doubles the ends when rounding leaves one on the wrong
    side.  Brent runs to a relative lambda tolerance near machine precision,
    so the norm keeps close to full precision (needed for the homogeneity
    contract).  The modular values at the bracket ends go to
    ``brent_root``, so no lambda is evaluated twice.  The residual is a
    module-level function that gets the terms through ``args``.
    """
    terms = ray_terms(u, lp, ps)
    lam0 = float(np.einsum("i->", terms.w)) ** (1.0 / terms.p_star)
    if lam0 == 0.0:
        return 0.0
    rho0 = modular(terms, lam0)
    if rho0 == 1.0:
        return lam0
    lam1 = lam0 * rho0 ** (1.0 / terms.p_star)
    (lo, rho_lo), (hi, rho_hi) = sorted([(lam0, rho0), (lam1, modular(terms, lam1))])
    lo, f_lo, hi, f_hi = bracket_decreasing(_modular_excess, lo, rho_lo - 1.0, hi,
                                            rho_hi - 1.0, "the Luxemburg norm", args=(terms,))
    lam_star, _ = brent_root(_modular_excess, lo, f_lo, hi, f_hi,
                             args=(terms,), xtol=1e-15 * lo, rtol=8.9e-16)
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


def embedding_check(profiles, lp: LogParams, ps: ParamSet, f_hat: float) -> EmbeddingReport:
    """Verify ||u||_Luxemburg <= lambda0 ||u|| on a profile set.

    f_hat is the computed lower bound for the constrained supremum, and
    lambda0 = (1.06 f_hat)^(1/p*): the 1.06 leaves headroom over the 1.05
    safety floor after the p*-th root.  The report carries lambda0.
    """
    lambda0 = (1.06 * f_hat) ** (1.0 / critical_exponent(ps))
    rows = []
    for i, u in enumerate(profiles):
        lux = luxemburg_norm(u, lp, ps)
        diri = dirichlet_norm(u, ps)
        ratio = lux / diri if diri > 0 else 0.0
        rows.append(EmbeddingRow(i, lux, diri, ratio, lux <= lambda0 * diri + 1e-12))
    return EmbeddingReport(rows=tuple(rows), lambda0=lambda0)
