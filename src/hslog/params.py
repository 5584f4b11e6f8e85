"""Structural parameter validation and the closed forms of a parameter tuple.

A parameter tuple (p, alpha0, alpha1, theta) is admissible when

    p > 1,   alpha1 - p + 1 > 0,   alpha0 >= alpha1 - p,   theta > alpha1 - p.

From an admissible tuple everything downstream is closed-form, and each
constant is a cached property of its :class:`ParamSet`:

    p* = (theta+1) p / (alpha1-p+1)            critical exponent
    s  = (alpha1-p+1) / (p^2-p)
    n  = (theta-alpha1+p) / (p-1)
    m  = (theta-alpha1+p) / (alpha1-p+1)
    c_hat = [(theta+1) ((alpha1-p+1)/(p-1))^(p-1)]^((alpha1-p+1)/(p(theta-alpha1+p)))
    kappa = ((p-1)/(alpha1-p+1))^((p-1)/p)     pointwise-bound prefactor
    beta_max = min{(theta+1)/p, (alpha1-p+1)/(p-1)}

and, with gap = theta-alpha1+p, the best constants of the extremal family
(``bliss``):

    S_power = c_hat^p* / n B(a, b),   a = (theta+1)(p-1)/gap,  b = (theta+1)/gap
    S       = S_power^(gap/(theta+1))
    sigma_p = S^(-p*/p)
    a_hat   = S^(-(theta+1)/(gap p))         unit-norm bubble amplitude

The six relation identities tying (s, n, m, p*) together are exposed via
``check_identities(ps)`` so fault injection and random sampling can exercise
them directly; a fault is injected by overriding one cached value in the
instance dict.

``brent_root`` is the one scalar root-finder the other modules share, and
``bracket_decreasing`` the one bracket widener in front of it.  Both are
plain Python, so that no command loads scipy only to find a root.  The
Luxemburg norm and t_eps are roots of a power of the unknown times a slowly
varying log factor; both are solved for the logarithm of the unknown by
``log_root``, where the residual, the logarithm of a ratio that is 1 at the
root (``log_residual``), is nearly linear, and the widener steps by ln 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property


class ValidationError(ValueError):
    """An input violates a structural admissibility condition."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost its bracket."""


@dataclass(frozen=True)
class ParamSet:
    """Admissible parameter tuple; construct through :func:`validate_params`.

    The closed forms of the module docstring are cached properties: each is
    computed on its first read and is a plain instance attribute after it.
    """

    p: float
    alpha0: float
    alpha1: float
    theta: float

    # the Sobolev-case margin alpha1-p+1 > 0, and gap = theta-alpha1+p > 1
    @property
    def _sob(self) -> float:
        return self.alpha1 - self.p + 1

    @property
    def _gap(self) -> float:
        return self.theta - self.alpha1 + self.p

    @cached_property
    def p_star(self) -> float:
        """The optimal embedding exponent."""
        return (self.theta + 1) * self.p / self._sob

    @cached_property
    def s(self) -> float:
        return self._sob / (self.p * self.p - self.p)

    @cached_property
    def n(self) -> float:
        return self._gap / (self.p - 1)

    @cached_property
    def m(self) -> float:
        return self._gap / self._sob

    @cached_property
    def c_hat(self) -> float:
        p, sob = self.p, self._sob
        return ((self.theta + 1) * (sob / (p - 1)) ** (p - 1)) ** (sob / (p * self._gap))

    @cached_property
    def kappa(self) -> float:
        p = self.p
        return ((p - 1) / self._sob) ** ((p - 1) / p)

    @cached_property
    def beta_max(self) -> float:
        return min((self.theta + 1) / self.p, self._sob / (self.p - 1))

    @cached_property
    def S_power(self) -> float:
        """The common value of the critical and gradient integrals of u*_1."""
        gap = self._gap
        a = (self.theta + 1.0) * (self.p - 1.0) / gap
        b = (self.theta + 1.0) / gap
        beta_ab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        return self.c_hat**self.p_star / self.n * beta_ab

    @cached_property
    def S(self) -> float:
        return self.S_power ** (self._gap / (self.theta + 1.0))

    @cached_property
    def sigma_p(self) -> float:
        return self.S ** (-self.p_star / self.p)

    @cached_property
    def a_hat(self) -> float:
        """The bubble amplitude making ||u_eps||^p = 1 + O(eps^(s p))."""
        return self.S ** (-(self.theta + 1.0) / (self._gap * self.p))


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


def identity_residuals(ps: ParamSet) -> tuple[float, ...]:
    """Absolute residuals of the six relations among (s, n, m, p*)."""
    p, a1, th = ps.p, ps.alpha1, ps.theta
    s, n, m, p_star = ps.s, ps.n, ps.m, ps.p_star
    return (
        abs(s * m / n - 1.0 / p),
        abs((n - s * m) - (th - a1 + p) / p),
        abs(s * p_star - (th + 1) / (p - 1)),
        abs(s * p - (a1 - p + 1) / (p - 1)),
        abs((th - n * p_star / m + 1) + (th + 1) / (p - 1)),
        abs((s - n / m) * p_star + (th + 1)),
    )


def check_identities(ps: ParamSet) -> IdentityReport:
    """Report the worst identity residual; passes iff it is below 1e-12."""
    res = identity_residuals(ps)
    worst = max(res)
    return IdentityReport(residuals=res, max_residual=worst, passed=worst < 1e-12)


LN2 = math.log(2.0)


def bracket_decreasing(f, lo: float, f_lo: float, hi: float, f_hi: float, what: str,
                       args: tuple = ()) -> tuple[float, float, float, float]:
    """Widen [lo, hi] until f(lo) >= 0 >= f(hi), for a decreasing f of the
    logarithm of the unknown; returns (lo, f(lo), hi, f(hi)).

    f_lo and f_hi are f at the given ends.  lo is lowered by ln 2, which
    halves the unknown, then hi raised by ln 2, which doubles it, at most
    199 times each; an end still on the wrong side raises
    ``NumericalError`` ("could not bracket <what> from below/above").
    """
    for _ in range(199):
        if f_lo >= 0.0:
            break
        lo -= LN2
        f_lo = f(lo, *args)
    if not f_lo >= 0.0:
        raise NumericalError(f"could not bracket {what} from below")
    for _ in range(199):
        if f_hi <= 0.0:
            break
        hi += LN2
        f_hi = f(hi, *args)
    if not f_hi <= 0.0:
        raise NumericalError(f"could not bracket {what} from above")
    return lo, f_lo, hi, f_hi


# 4 ulp of 1: the band about 1 in which ``log_residual`` reads a ratio as on the root
LOG_RESIDUAL_ZERO = 8.9e-16


def log_residual(q: float) -> float:
    """ln q for a ratio q that is 1 at a root: exactly 0 once |q - 1| <= 4
    ulp of 1, -inf at q = 0, NaN for a NaN q.

    The ratios the callers form err by more than 4 ulp (the modular's sum
    by up to 7.6e-15 at M = 16000), so no stricter stop means anything;
    with this one Brent's method stops on the root instead of closing its
    bracket around it.
    """
    if abs(q - 1.0) <= LOG_RESIDUAL_ZERO:
        return 0.0
    return math.log(q) if q != 0.0 else -math.inf


# the smallest rtol Brent's method accepts, scipy's brentq default
BRENT_RTOL = 4.0 * sys.float_info.epsilon


def brent_root(f, lo: float, f_lo: float, hi: float, f_hi: float, what: str,
               args: tuple = (), *, xtol: float = 2e-12, rtol: float = BRENT_RTOL,
               maxiter: int = 100) -> tuple[float, float]:
    """Root of f(x, *args) in [lo, hi] by Brent's method; returns (x*, f(x*)).

    A line-for-line port of scipy's brentq (``Zeros/brentq.c``): the same
    iterates, the same calls in the same order, and the same root.  It
    starts from f_lo and f_hi, f at the bracket ends, which the caller has
    already evaluated; they must not have the same sign.  Each iteration
    calls f once at a new abscissa, so none is evaluated twice, and f(x*)
    is the value of the last call there, not a fresh one.

    The iteration stops when the bracket is shorter than xtol + rtol |x|
    or f hits 0.  rtol must be at least 4 eps.  After ``maxiter``
    iterations, on a NaN value of f, or for ends of one sign it raises
    ``NumericalError`` naming ``what``.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {BRENT_RTOL:g})")
    for x, fx in ((lo, f_lo), (hi, f_hi)):
        _require_number(fx, x, what)
    if f_lo == 0.0:
        return lo, f_lo
    if f_hi == 0.0:
        return hi, f_hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise NumericalError(f"the bracket [{lo:.17g}, {hi:.17g}] of {what} holds no "
                             f"sign change: f = {f_lo:.3e} and {f_hi:.3e}")
    # x_cur is the best iterate, x_pre the previous one and x_blk the
    # contrapoint, with f(x_blk) of the other sign; s_cur and s_pre are the
    # last two steps
    x_pre, f_pre, x_cur, f_cur = lo, f_lo, hi, f_hi
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(maxiter):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur

        delta = (xtol + rtol * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur, f_cur

        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis

        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0 else -delta
        f_cur = f(x_cur, *args)
        _require_number(f_cur, x_cur, what)
    raise NumericalError(f"Brent's method did not converge to {what} in {maxiter} "
                         f"iterations: f = {f_cur:.3e} at {x_cur:.17g}")


def log_root(f, x0: float, slope: float, what: str, args: tuple) -> tuple[float, float]:
    """(x*, f(x*)) for the root of f(x, *args), a residual that falls at least
    as fast as slope > 0 times x, as the log of a power law does: from x0
    and the power-law point x0 + f(x0)/slope, which brackets the root with
    it, through ``bracket_decreasing`` and ``brent_root`` (to 2e-16 +
    8.9e-16 |x*|).  Each x is evaluated once; f(x0) = 0 returns x0.
    """
    f0 = f(x0, *args)
    if f0 == 0.0:
        return x0, f0
    x1 = x0 + f0 / slope
    (lo, f_lo), (hi, f_hi) = sorted([(x0, f0), (x1, f(x1, *args))])
    lo, f_lo, hi, f_hi = bracket_decreasing(f, lo, f_lo, hi, f_hi, what, args=args)
    return brent_root(f, lo, f_lo, hi, f_hi, what, args=args, xtol=2e-16,
                      rtol=8.9e-16, maxiter=200)


def _require_number(fx: float, x: float, what: str) -> None:
    if fx != fx:
        raise NumericalError(f"the residual of {what} is NaN at {x:.17g}")
