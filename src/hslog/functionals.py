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
exercise.  ``shooting.weak_residual`` reads the pairing, with u's side of
it (``pairing_terms``) formed once for all its test profiles; no command
reads the grid energy ``energy_I``, which is its reference.  The mountain-pass gap
takes a bubble's energy at its tanh-sinh nodes (``analysis.bubble_energy``).

The nodal integrands of J, I, the pairing and the ascent gradient each
carry a power of |u|.  They are evaluated up to the last nonzero node of u,
k = ``Profile.support_end()``, on the first k entries of each node array,
and are exact zeros after it, which is what the full formulas give there.
Every kernel works node by node, so the first k values are the full-array
ones bit for bit (``F_nodes`` at k = 1 excepted, see there).  Interior
zeros are computed like any other node, and the quadrature sum sees a
full-length vector.  A cutoff bubble is identically 0 on [2 r0, 1], a
quarter of a graded mesh, and pow with a zero base is several times slower
than with a regular one.
J and the ascent gradient read one set of nodal factors (``JNodes``), so
an ascent forms |u|^p*, ln(tau+|u|) and its power once per iterate.  The
gradient forms no power of its own: with f = |u|^p* |ln|^e the integrand
of J and arg = tau + |u|, d/du f = f (p*/u + e/(ln arg)) for u > 0, since
|ln|^(e-1) sign(ln) = |ln|^e / ln.

The energy's primitive F is a 16-point Gauss-Legendre sum per node
(``F_nodes``).  It is formed in node blocks of ``_F_BLOCK`` = 1000 nodes,
in place in two (16, 1000) work arrays.  One work array is 128000 B, under
glibc's 128 KiB mmap threshold, so it comes from the heap, and the two stay
in cache.  Its product caller, ``analysis.bubble_energy``, passes 1539 nodes;
a 16 x 1539 temporary, 196992 B, is over the threshold and would be mapped
and faulted in anew every call (160 minor faults a call on a 2-vCPU Xeon).

Along the ray through a profile u the quadrature of J factors.  Since
|s u_i|^p* = s^p* |u_i|^p* for s > 0,

    J(s u) = s^p* sum_i w_i ln(tau + a_i s)^(e_i),
    a_i = |u_i|,   w_i = q_i a_i^p*,   e_i = r_i^beta,

with q the r^theta quadrature weights.  a, w and e depend on u only
(``ray_terms`` on a grid, ``nodal_ray_terms`` at any node set, such as a
bubble's tanh-sinh nodes); each s then costs one pass over them
(``ray_sum``).  The mountain-pass stationarity reads J(t u) for t > 0 and
the Luxemburg norm reads J(u/lambda) this way.  For tau >= 1 every log
factor is >= 0, so the sum does not decrease with s.

Conventions: the exponent r^beta is 0 at r = 0 and we set 0^0 = 1, so the
integrand is continuous at the origin; kernels take the exponent array
e = r^beta that ``Grid.node_power`` caches.  tau < 1 is accepted in J (the
absolute value keeps it meaningful) but rejected in the ray sum, the energy
and its pairing, which are only defined for tau >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hslog.params import ParamSet, ValidationError
from hslog.radial import (_GL16_W, _GL16_X, Grid, Profile, dirichlet_norm, dirichlet_pairing,
                          pairing_factors, weighted_integral)


@dataclass(frozen=True)
class LogParams:
    tau: float
    beta: float

    def __post_init__(self):
        if not (self.tau > 0 and self.beta > 0):
            raise ValidationError(f"need tau > 0 and beta > 0, got {self.tau}, {self.beta}")


def log_factor_nodes(e: np.ndarray, u: np.ndarray, lp: LogParams) -> np.ndarray:
    """|ln(tau+|u|)|^e, with the exponents e = r^beta of the nodes."""
    x = np.abs(np.log(lp.tau + np.abs(u)))
    return x**e


class JNodes:
    """The nodal factors of J at one profile, in arrays kept for the next one.

    ``evaluate`` takes u on its support (``Profile.support_end``, k nodes)
    and forms arg = tau + |u|, ln = ln(arg) and the integrand f = pw lf,
    pw = |u|^p* and lf = |ln|^e with e = r^beta; f is full length with
    exact zeros past k, and J is its quadrature sum.  ``gradient`` reads f,
    ln and arg and forms no power, so J and its gradient at one profile
    take one log and the two powers of J.  Every array is grid length and
    filled in place, so an ascent that keeps two of these allocates no
    float array for J or its gradient.  J's operations are those of the
    plain formula, in the same order, so J is its value bit for bit.

    ``lp = None`` selects the unperturbed integral J0, whose integrand is
    |u|^p*.
    """

    def __init__(self, m: int):
        self.arg, self.ln = np.empty(m), np.empty(m)
        self.integrand = np.zeros(m)
        self._work = np.empty(m)
        self._mask = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        # the profile last evaluated, and what it was evaluated with
        self.u: Profile | None = None
        self.lp: LogParams | None = None
        self.ps: ParamSet | None = None
        self.k = 0

    def evaluate(self, u: Profile, lp: LogParams | None, ps: ParamSet) -> float:
        """J(u), or J0(u) for ``lp = None``; the factors stay for ``gradient``."""
        k = u.support_end()
        v = u.values[:k]
        p_star = ps.p_star
        f = self.integrand
        pw = np.abs(v, out=f[:k])
        if lp is None:
            pw **= p_star
        else:
            arg, ln, lf = self.arg[:k], self.ln[:k], self._work[:k]
            np.add(pw, lp.tau, out=arg)
            pw **= p_star
            np.log(arg, out=ln)
            np.abs(ln, out=lf)
            lf **= u.grid.node_power(lp.beta)[:k]
            pw *= lf
        f[k:] = 0.0
        self.u, self.lp, self.ps, self.k = u, lp, ps, k
        return weighted_integral(u.grid, f, ps.theta)

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
                np.divide(u.grid.node_power(lp.beta)[:k], t, out=t)
                t *= f
                g += t
                np.equal(ln, 0.0, out=other)
                dropped |= other
        np.copyto(g, 0.0, where=dropped)
        g *= u.grid.quad_weights(ps.theta)[:k]
        out[k:] = 0.0
        return out


def J(u: Profile, lp: LogParams | None, ps: ParamSet, nodes: JNodes | None = None) -> float:
    """The log-perturbed critical integral; J0 for ``lp = None``.

    It is evaluated in ``nodes`` when given, which then holds the factors
    for ``JNodes.gradient``, and in a new ``JNodes`` otherwise.
    """
    if nodes is None:
        nodes = JNodes(u.grid.m)
    return nodes.evaluate(u, lp, ps)


def _require_tau_ge_1(lp: LogParams, what: str) -> None:
    if lp.tau < 1.0:
        raise ValidationError(f"{what} is only defined for tau >= 1, got tau = {lp.tau}")


@dataclass(frozen=True)
class RayTerms:
    """The per-profile factors a, w, e of J(s u), on the support of u.

    They run up to the last nonzero node of u; past it every term of the
    sum is an exact zero.  ``scratch``, as long as a, holds the log factors
    of the last ``ray_sum``, so that a sum allocates no array.
    """

    a: np.ndarray
    w: np.ndarray
    e: np.ndarray
    tau: float
    p_star: float
    scratch: np.ndarray


def ray_terms(u: Profile, lp: LogParams, ps: ParamSet) -> RayTerms:
    """a_i = |u_i|, w_i = q_i a_i^p* and e_i = r_i^beta for J along the ray of u,
    on the support of u."""
    k = u.support_end()
    return nodal_ray_terms(u.values[:k], u.grid.quad_weights(ps.theta)[:k],
                           u.grid.node_power(lp.beta)[:k], lp, ps)


def nodal_ray_terms(values: np.ndarray, q: np.ndarray, e: np.ndarray, lp: LogParams,
                    ps: ParamSet) -> RayTerms:
    """The ray terms of J at any node set: values u_i, r^theta weights q_i
    and exponents e_i = r_i^beta.

    tau >= 1 keeps ln(tau + a_i s) >= 0, which the factorization's callers
    rely on.
    """
    _require_tau_ge_1(lp, "the ray sum of J")
    p_star = ps.p_star
    a = np.abs(values)
    w = np.power(a, p_star)
    w *= q
    return RayTerms(a, w, e, lp.tau, p_star, np.empty(a.size))


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


def energy_I(u: Profile, lp: LogParams, ps: ParamSet) -> float:
    """The energy I(u) = ||u||^p / p - int r^th F(r, u) dr of a grid profile.

    No command calls it; the tests check ``energy_pairing`` against it.
    """
    _require_tau_ge_1(lp, "the energy")
    nrm = dirichlet_norm(u, ps)
    k = u.support_end()
    f = np.zeros(u.grid.m)
    f[:k] = F_nodes(u.grid.node_power(lp.beta)[:k], u.values[:k], lp, ps)
    f_term = weighted_integral(u.grid, f, ps.theta)
    return nrm**ps.p / ps.p - f_term


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
    k = u.support_end()
    w = u.values[:k]
    source = np.zeros(u.grid.m)
    source[:k] = (np.sign(w) * np.abs(w) ** (ps.p_star - 1.0)
                  * log_factor_nodes(u.grid.node_power(lp.beta)[:k], w, lp))
    return PairingTerms(u.grid, pairing_factors(u, ps), source)


def energy_pairing(terms: PairingTerms, v: Profile, ps: ParamSet) -> float:
    """<I'(u), v>: Dirichlet pairing minus the critical source term.

    u enters through its ``pairing_terms``, so one set of them serves any
    number of v (``shooting.weak_residual`` pairs one u with 20).  The
    source carries sign(u)|u|^(p*-1), the odd form that matches both the
    equation's right-hand side and the derivative of the discrete energy.
    """
    grid = terms.grid
    if grid is not v.grid and not np.array_equal(grid.nodes, v.grid.nodes):
        raise ValidationError("pairing requires profiles on the same grid")
    term1 = dirichlet_pairing(terms.factors, v.values, grid)
    term2 = weighted_integral(grid, terms.source * v.values, ps.theta)
    return term1 - term2
