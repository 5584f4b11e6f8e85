"""The log-perturbed functionals and the energy.

Central objects, all over the measure r^theta dr on (0, 1):

    J(u)    = int r^th |u|^p* |ln(tau+|u|)|^(r^beta) dr
    J0(u)   = int r^th |u|^p* dr
    I(u)    = (1/p)||u||^p - int r^th F(r, u) dr
    <I'(u),v> = int r^a1 |u'|^(p-2) u' v' dr
              - int r^th sign(u)|u|^(p*-1) (ln(tau+|u|))^(r^beta) v dr

with F(r, a) = int_0^|a| s^(p*-1) (ln(tau+s))^(r^beta) ds the primitive of
the source of the radial equation that the shooting solver integrates.
Since d_a F is that source, the pairing above is the exact gradient of the
discrete energy; this is what the finite-difference consistency tests
exercise.  ``shooting.weak_residual`` takes the dual norm of the pairing
from u's side of it (``pairing_terms``) in closed form; no command reads
the pairing ``energy_pairing``, which is that norm's reference.

J and J0 (``J_at``), the ray terms of J (``ray_terms``) and the energy
(``energy_I``) each take a node set (``radial.NodeSet``) and the values of
u at its nodes, on a grid and at a bubble's tanh-sinh nodes alike; so does
E (``bliss.concentration_E``), from J's factors (``nodal_factors``).  On a
grid each nodal integrand is formed up to the last nonzero node of u,
k = ``Profile.support_end()``, and is an exact zero after it, which is
what the full formulas give there.  Every kernel works node by node, so
the first k values are the full-array ones bit for bit (``F_nodes`` at
k = 1 excepted, see there), and the sum sees a full-length vector.  A
cutoff bubble is identically 0 on [2 r0, 1], a quarter of a graded mesh,
and pow with a zero base is several times slower than with a regular one.
The ascent reads J and its gradient from one set of nodal factors
(``JNodes``), formed in place by J's own kernel.  The gradient forms no
power of its own: with f = |u|^p* |ln|^e the integrand of J and
arg = tau + |u|, d/du f = f (p*/u + e/(ln arg)) for u > 0, since
|ln|^(e-1) sign(ln) = |ln|^e / ln.  The energy's primitive F is a
16-point Gauss-Legendre sum per node, formed in node blocks (``F_nodes``).

Along the ray through a profile u the quadrature of J factors.  Since
|s u_i|^p* = s^p* |u_i|^p* for s > 0,

    J(s u) = s^p* sum_i w_i ln(tau + a_i s)^(e_i),
    a_i = |u_i|,   w_i = q_i a_i^p*,   e_i = r_i^beta,

with q the r^theta weights of the node set.  a, w and e depend on u only
(``ray_terms``); each s then costs one fixed-order pass over them
(``ray_sum``).  The mountain-pass stationarity reads J(t u) and the
Luxemburg norm J(u/lambda) this way.  For tau >= 1 every log factor is
>= 0, so the sum does not decrease with s.

Conventions: r^beta (``NodeSet.power``) is 0 at r = 0 and 0^0 = 1, so the
integrand is continuous at the origin.  tau < 1 is accepted in J (the
absolute value keeps it meaningful) but rejected in the ray sum, the
energy and its pairing, which are only defined for tau >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hslog.params import ParamSet, ValidationError
from hslog.radial import (_GL16_W, _GL16_X, Grid, NodeSet, Profile, dirichlet_pairing,
                          pairing_factors, weighted_integral)


@dataclass(frozen=True)
class LogParams:
    tau: float
    beta: float

    def __post_init__(self):
        if not (self.tau > 0 and self.beta > 0):
            raise ValidationError(f"need tau > 0 and beta > 0, got {self.tau}, {self.beta}")


def _j_factors(nodes: NodeSet, v: np.ndarray, lp: LogParams | None, p_star: float,
               pw: np.ndarray, arg: np.ndarray, ln: np.ndarray, lf: np.ndarray):
    """J's factors at the first v.size nodes, in place: pw takes |v|^p*, and
    unless lp is None (J0), arg tau + |v|, ln its log and lf |ln|^(r^beta),
    which is returned."""
    np.abs(v, out=pw)
    if lp is None:
        pw **= p_star
        return None
    np.add(pw, lp.tau, out=arg)
    pw **= p_star
    np.log(arg, out=ln)
    np.abs(ln, out=lf)
    lf **= nodes.power(lp.beta)[:v.size]
    return lf


def nodal_factors(nodes: NodeSet, values: np.ndarray, lp: LogParams | None,
                  ps: ParamSet) -> tuple[np.ndarray, np.ndarray | None]:
    """(f, lf) at a node set, the integrand of J being f lf: f = |u|^p*, as
    long as the set and 0 past the support of u (``NodeSet.support``), and
    lf = |ln(tau+|u|)|^(r^beta) on the support, None for lp None (J0)."""
    k = nodes.support(values)
    f = np.zeros(values.size)
    work = np.empty((3, k))
    return f, _j_factors(nodes, values[:k], lp, ps.p_star, f[:k], *work)


def J_at(nodes: NodeSet, values: np.ndarray, lp: LogParams | None, ps: ParamSet,
         what: str) -> float:
    """J (J0 for ``lp = None``) of u at a node set, from its values there;
    ``what`` names it if a tanh-sinh set's sum does not converge."""
    return nodes.integral(*nodal_factors(nodes, values, lp, ps), what, None)


class JNodes:
    """J's nodal factors at one grid profile, in arrays kept for the next one.

    ``evaluate`` forms them on the support of u (k nodes) with ``J_at``'s
    kernel: arg = tau + |u|, ln = ln(arg) and the integrand f = pw lf,
    pw = |u|^p* and lf = |ln|^e with e = r^beta (f = pw for J0, ``lp =
    None``); f is full length with exact zeros past k, and J is ``J_at``'s
    value bit for bit.  ``gradient`` reads f, ln and arg and forms no power.
    Every array is grid length and filled in place, so an ascent that keeps
    two of these allocates no float array for J or its gradient.
    """

    def __init__(self, m: int):
        self.arg, self.ln = np.empty(m), np.empty(m)
        self.integrand = np.zeros(m)
        self._work = np.empty(m)
        self._mask = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        # the profile last evaluated, its node set and support, and lp and ps
        self.u = self.nodes = self.lp = self.ps = None
        self.k = 0

    def evaluate(self, u: Profile, lp: LogParams | None, ps: ParamSet) -> float:
        """J(u), or J0(u) for ``lp = None``; the factors stay for ``gradient``."""
        nodes = u.grid.node_set(ps.theta)
        k = nodes.support(u.values)
        f = self.integrand
        lf = _j_factors(nodes, u.values[:k], lp, ps.p_star, f[:k], self.arg[:k], self.ln[:k],
                        self._work[:k])
        f[k:] = 0.0
        self.u, self.lp, self.ps, self.nodes, self.k = u, lp, ps, nodes, k
        return nodes.integral(f, lf, "J", None)

    def gradient(self, out: np.ndarray) -> np.ndarray:
        """The gradient of J (or J0) at the evaluated profile u with respect
        to its nodal values, quadrature weights folded in, written to ``out``.

        At a node with u > 0 and ln != 0 the derivative of pw lf is
        p* u^(p*-1) lf + pw e sign(ln) |ln|^(e-1) / arg.  Since
        u^(p*-1) = pw/u and sign(ln) |ln|^(e-1) = lf/ln, that is

            f (p*/u + e/(ln arg)),   f = pw lf the integrand of J,

        and q p* f/u for J0, whose integrand f is pw; elsewhere it is 0.  So
        the gradient forms no power: it reads the integrand, ln and arg that
        ``evaluate`` left.  For tau < 1, ln < 0 wherever arg < 1, and lf/ln
        carries the sign of the derivative of |ln| there.  f/u is formed
        before it is scaled by p*: p*/u overflows at a subnormal u, where f
        is 0, and inf * 0 would be NaN.
        """
        u, lp, ps, k = self.u, self.lp, self.ps, self.k
        v = u.values[:k]
        f = self.integrand[:k]
        g = out[:k]
        t = self._work[:k]
        dropped, other = self._mask[0][:k], self._mask[1][:k]
        np.less_equal(v, 0.0, out=dropped)
        # u = 0 gives 0/0 and ln = 0 gives x/0; both nodes are dropped
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(f, v, out=g)
            g *= ps.p_star
            if lp is not None:
                ln = self.ln[:k]
                np.multiply(ln, self.arg[:k], out=t)
                np.divide(self.nodes.power(lp.beta)[:k], t, out=t)
                t *= f
                g += t
                np.equal(ln, 0.0, out=other)
                dropped |= other
        np.copyto(g, 0.0, where=dropped)
        g *= self.nodes.q[:k]
        out[k:] = 0.0
        return out


def J(u: Profile, lp: LogParams | None, ps: ParamSet, nodes: JNodes | None = None) -> float:
    """The log-perturbed critical integral of a grid profile; J0 for ``lp = None``.

    It is evaluated in ``nodes`` when given, which then holds the factors
    for ``JNodes.gradient``, and at the grid's node set (``J_at``) otherwise.
    """
    if nodes is None:
        return J_at(u.grid.node_set(ps.theta), u.values, lp, ps, "J")
    return nodes.evaluate(u, lp, ps)


def _require_tau_ge_1(lp: LogParams, what: str) -> None:
    if lp.tau < 1.0:
        raise ValidationError(f"{what} is only defined for tau >= 1, got tau = {lp.tau}")


@dataclass(frozen=True)
class RayTerms:
    """The per-node factors a, w, e of J(s u) on the support of u, past which
    every term is 0.  ``scratch``, as long as a, takes the log factors of each
    ``ray_sum``, so that a sum allocates no array."""

    a: np.ndarray
    w: np.ndarray
    e: np.ndarray
    tau: float
    p_star: float
    scratch: np.ndarray


def ray_terms(nodes: NodeSet, values: np.ndarray, lp: LogParams, ps: ParamSet) -> RayTerms:
    """a_i = |u_i|, w_i = q_i a_i^p* and e_i = r_i^beta on the support of u at
    a node set; tau >= 1 keeps ln(tau + a_i s) >= 0, as the callers need."""
    _require_tau_ge_1(lp, "the ray sum of J")
    k = nodes.support(values)
    e = nodes.power(lp.beta)[:k]
    a = np.abs(values[:k])
    w = np.power(a, ps.p_star)
    w *= nodes.q[:k]
    return RayTerms(a, w, e, lp.tau, ps.p_star, np.empty(k))


def ray_sum(terms: RayTerms, s: float) -> float:
    """J(s u)/s^p* = sum_i w_i ln(tau + a_i s)^(e_i), from the ray terms of u.

    The log factors are formed in ``terms.scratch``, in place.
    """
    x = np.multiply(terms.a, s, out=terms.scratch)
    x += terms.tau
    np.log(x, out=x)
    x **= terms.e
    return float(np.einsum("i,i->", terms.w, x))


# the Gauss-Legendre points mapped from [-1, 1] to [0, 2], as a column
_GL16_X1 = _GL16_X[:, None] + 1.0

# nodes per block of F_nodes: a (16, 1000) float64 array is 128000 B, under
# glibc's 128 KiB mmap threshold; of the widths 256-1000 timed on a 2-vCPU
# Xeon, 1000 was the fastest
_F_BLOCK = 1000


def F_nodes(e: np.ndarray, u: np.ndarray, lp: LogParams, ps: ParamSet) -> np.ndarray:
    """F(r_i, u_i) by 16-point Gauss-Legendre in s on [0, |u_i|]; even in u.

    ``e`` holds the log exponents r_i^beta of the nodes.  The integrand
    s^(p*-1) |ln(tau + s)|^e at s_j = (|u_i|/2)(x_j + 1) is formed in place,
    a block of at most ``_F_BLOCK`` nodes at a time, in two contiguous (16, b)
    work arrays that stay under the mmap threshold, as a 16 x k array at a
    bubble's 1539 nodes does not; each block's weighted sum goes into its
    slice of the result.  Per node these are the operations of the one-shot
    16 x k form, in the same order, so the result is that form's bit for
    bit.  The fixed-order einsum sums a node's 16 terms alike at every block
    width but 1, where it runs along the points in another order, so a block
    is one node wide only for k = 1, as the one-shot form's array is then.
    """
    k = u.size
    out = np.empty(k)
    width = min(k, _F_BLOCK)
    half = np.empty(width)
    s_work, t_work = np.empty(16 * width), np.empty(16 * width)
    pm1 = ps.p_star - 1.0
    lo = 0
    while lo < k:
        hi = min(lo + _F_BLOCK, k)
        if hi == k - 1:  # leave two nodes to the last block, not one
            hi -= 1
        b = hi - lo
        s = s_work[:16 * b].reshape(16, b)
        t = t_work[:16 * b].reshape(16, b)
        ha = np.abs(u[lo:hi], out=half[:b])
        ha *= 0.5
        np.multiply(ha, _GL16_X1, out=s)
        np.abs(s, out=t)
        t += lp.tau
        np.log(t, out=t)
        np.abs(t, out=t)
        t **= e[lo:hi]
        s **= pm1
        s *= t
        np.einsum("j,ji->i", _GL16_W, s, out=out[lo:hi])
        out[lo:hi] *= ha
        lo = hi
    return out


def energy_I(nodes: NodeSet, values: np.ndarray, norm_p: float, lp: LogParams, ps: ParamSet,
             what: str) -> float:
    """I(u) = ||u||^p / p - int r^th F(r, u) dr from norm_p = ||u||^p and the
    values of u at a node set; ``what`` names the integral for its check."""
    _require_tau_ge_1(lp, "the energy")
    k = nodes.support(values)
    f = np.zeros(values.size)
    f[:k] = F_nodes(nodes.power(lp.beta)[:k], values[:k], lp, ps)
    return norm_p / ps.p - nodes.integral(f, None, what, None)


@dataclass(frozen=True)
class PairingTerms:
    """u's side of <I'(u), v>, formed once for any number of v.

    ``factors`` are u's Dirichlet pairing factors (``pairing_factors``),
    one per cell, and ``source`` is sign(u)|u|^(p*-1) (ln(tau+|u|))^(r^beta)
    at the nodes of ``grid``, an exact 0 past the support of u.
    """

    grid: Grid
    factors: np.ndarray
    source: np.ndarray


def pairing_terms(u: Profile, lp: LogParams, ps: ParamSet) -> PairingTerms:
    """The ``PairingTerms`` of u; the source is formed on the support of u."""
    _require_tau_ge_1(lp, "the pairing")
    _, lf = nodal_factors(u.grid.node_set(ps.theta), u.values, lp, ps)
    w = u.values[:lf.size]
    source = np.zeros(u.grid.m)
    source[:w.size] = np.sign(w) * np.abs(w) ** (ps.p_star - 1.0) * lf
    return PairingTerms(u.grid, pairing_factors(u, ps), source)


def energy_pairing(terms: PairingTerms, v: Profile, ps: ParamSet) -> float:
    """<I'(u), v>: Dirichlet pairing minus the critical source term.

    u enters through its ``pairing_terms``, so one set of them serves any
    number of v.  No command calls it; the tests check ``radial.dual_norm``
    against it.  The source carries sign(u)|u|^(p*-1), the odd form that
    matches both the equation's right-hand side and the derivative of the
    discrete energy.
    """
    grid = terms.grid
    if grid is not v.grid and not np.array_equal(grid.nodes, v.grid.nodes):
        raise ValidationError("pairing requires profiles on the same grid")
    term1 = dirichlet_pairing(terms.factors, v.values, grid)
    term2 = weighted_integral(grid, terms.source * v.values, ps.theta)
    return term1 - term2
