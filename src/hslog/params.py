"""Structural parameter validation and closed-form derived constants.

A parameter tuple (p, alpha0, alpha1, theta) is admissible when

    p > 1,   alpha1 - p + 1 > 0,   alpha0 >= alpha1 - p,   theta > alpha1 - p.

From an admissible tuple everything downstream is closed-form:

    p* = (theta+1) p / (alpha1-p+1)            critical exponent
    s  = (alpha1-p+1) / (p^2-p)
    n  = (theta-alpha1+p) / (p-1)
    m  = (theta-alpha1+p) / (alpha1-p+1)
    c_hat = [(theta+1) ((alpha1-p+1)/(p-1))^(p-1)]^((alpha1-p+1)/(p(theta-alpha1+p)))
    kappa = ((p-1)/(alpha1-p+1))^((p-1)/p)     pointwise-bound prefactor
    beta_max = min{(theta+1)/p, (alpha1-p+1)/(p-1)}

The six relation identities tying (s, n, m, p*) together are exposed via
``check_identities`` so fault injection and random sampling can exercise
them directly.

``brent_root`` is the one scalar root-finder the other modules share, and
``bracket_decreasing`` the one bracket widener in front of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq


class ValidationError(ValueError):
    """An input violates a structural admissibility condition."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost its bracket."""


@dataclass(frozen=True)
class ParamSet:
    """Admissible parameter tuple; construct through :func:`validate_params`."""

    p: float
    alpha0: float
    alpha1: float
    theta: float


@dataclass(frozen=True)
class DerivedConstants:
    """All closed-form constants derived from a :class:`ParamSet`."""

    params: ParamSet
    p_star: float
    s: float
    n: float
    m: float
    c_hat: float
    kappa: float
    beta_max: float


@dataclass(frozen=True)
class IdentityReport:
    residuals: tuple[float, ...]
    max_residual: float
    passed: bool


def validate_params(p: float, alpha0: float, alpha1: float, theta: float) -> ParamSet:
    """Check the four admissibility inequalities, strictly, in order.

    Raises :class:`ValidationError` naming the first violated inequality.
    Validation is strict (no epsilon slack): downstream formulas divide by
    alpha1 - p + 1 and theta - alpha1 + p.
    """
    for name, value in (("p", p), ("alpha0", alpha0), ("alpha1", alpha1), ("theta", theta)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    if not p > 1:
        raise ValidationError(f"p > 1 violated: p = {p}")
    if not alpha1 - p + 1 > 0:
        raise ValidationError(f"alpha1-p+1 > 0 violated: alpha1-p+1 = {alpha1 - p + 1}")
    if not alpha0 >= alpha1 - p:
        raise ValidationError(f"alpha0 >= alpha1-p violated: {alpha0} < {alpha1 - p}")
    if not theta > alpha1 - p:
        raise ValidationError(f"theta > alpha1-p violated: {theta} <= {alpha1 - p}")
    # field ranges: the weights r^alpha0, r^alpha1, r^theta carry nonnegative powers
    for name, value in (("alpha0", alpha0), ("alpha1", alpha1), ("theta", theta)):
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value}")
    return ParamSet(p=float(p), alpha0=float(alpha0), alpha1=float(alpha1), theta=float(theta))


def derived_constants(ps: ParamSet) -> DerivedConstants:
    p, a1, th = ps.p, ps.alpha1, ps.theta
    sob = a1 - p + 1          # Sobolev-case margin, > 0
    gap = th - a1 + p         # > 1 since theta > alpha1 - p

    p_star = critical_exponent(ps)
    s = sob / (p * p - p)
    n = gap / (p - 1)
    m = gap / sob
    c_hat = ((th + 1) * (sob / (p - 1)) ** (p - 1)) ** (sob / (p * gap))
    kappa = ((p - 1) / sob) ** ((p - 1) / p)
    beta_max = min((th + 1) / p, sob / (p - 1))
    return DerivedConstants(
        params=ps, p_star=p_star, s=s, n=n, m=m, c_hat=c_hat, kappa=kappa, beta_max=beta_max
    )


def critical_exponent(ps: ParamSet) -> float:
    """p* = (theta+1) p / (alpha1-p+1), the optimal embedding exponent."""
    return (ps.theta + 1) * ps.p / (ps.alpha1 - ps.p + 1)


def identity_residuals(dc: DerivedConstants) -> tuple[float, ...]:
    """Absolute residuals of the six relations among (s, n, m, p*)."""
    ps = dc.params
    p, a1, th = ps.p, ps.alpha1, ps.theta
    s, n, m, p_star = dc.s, dc.n, dc.m, dc.p_star
    return (
        abs(s * m / n - 1.0 / p),
        abs((n - s * m) - (th - a1 + p) / p),
        abs(s * p_star - (th + 1) / (p - 1)),
        abs(s * p - (a1 - p + 1) / (p - 1)),
        abs((th - n * p_star / m + 1) + (th + 1) / (p - 1)),
        abs((s - n / m) * p_star + (th + 1)),
    )


def check_identities(dc: DerivedConstants) -> IdentityReport:
    """Report the worst identity residual; passes iff it is below 1e-12."""
    res = identity_residuals(dc)
    worst = max(res)
    return IdentityReport(residuals=res, max_residual=worst, passed=worst < 1e-12)


def bracket_decreasing(f, lo: float, f_lo: float, hi: float, f_hi: float, what: str,
                       args: tuple = ()) -> tuple[float, float, float, float]:
    """Widen [lo, hi] until f(lo) >= 0 >= f(hi), for a decreasing f; returns
    (lo, f(lo), hi, f(hi)).

    f_lo and f_hi are f at the given ends.  lo is halved, then hi doubled,
    at most 199 times each; an end still on the wrong side raises
    ``NumericalError`` ("could not bracket <what> from below/above").
    """
    for _ in range(199):
        if f_lo >= 0.0:
            break
        lo *= 0.5
        f_lo = f(lo, *args)
    if not f_lo >= 0.0:
        raise NumericalError(f"could not bracket {what} from below")
    for _ in range(199):
        if f_hi <= 0.0:
            break
        hi *= 2.0
        f_hi = f(hi, *args)
    if not f_hi <= 0.0:
        raise NumericalError(f"could not bracket {what} from above")
    return lo, f_lo, hi, f_hi


def brent_root(f, lo: float, f_lo: float, hi: float, f_hi: float, args: tuple = (),
               **tol) -> tuple[float, float]:
    """Root of f(x, *args) in [lo, hi] by scipy's brentq; returns (x*, f(x*)).

    f_lo and f_hi are f at the bracket ends, which the caller has already
    evaluated; they must not have the same sign.  No abscissa is evaluated
    twice, and f(x*) is the stored value, not a fresh call.  ``tol`` goes to
    brentq (xtol, rtol, maxiter, disp).  The memo holds floats only and the
    caller's data goes through ``args``: scipy keeps the wrapped function in
    a reference cycle, so a closure over a profile would keep it alive until
    the next full collection.
    """
    known = {lo: f_lo, hi: f_hi}

    def once(x, *args):
        if x not in known:
            known[x] = f(x, *args)
        return known[x]

    x = float(brentq(once, lo, hi, args=args, **tol))
    return x, known[x]
