"""Discrete radial profiles on (0, 1] and singular-weight quadrature.

Profiles are piecewise linear between the graded nodes r_i = (i/M)^gamma,
i = 1..M, and constant (equal to the first nodal value) on the leading
interval (0, r_1].  Every integral of a nodal integrand against r^w dr
over (0, 1) is one rule with fixed nodal weights: per interior cell the
rule is 4-point Gauss-Legendre applied to r^w * (hat functions), and on
(0, r_1] the weight moment is taken in closed form.  The weights are cached
per (grid, w), which also makes every integral exactly linear in the
sampled integrand.  Every quadrature sum is a single-threaded reduction in
a fixed order (``np.einsum`` without ``optimize`` never calls BLAS), so an
integral does not depend on the BLAS thread count or on the number of
cores.  ``Grid.node_set`` holds this rule as a ``NodeSet``, the form in
which J, J0, E, the ray terms and the energy take any rule; the other is
the tanh-sinh rule of a bubble (``bliss.bubble_nodes``).  The 4- and
16-point Gauss-Legendre tables are written out as
literals, equal bit for bit to ``np.polynomial.legendre.leggauss``'s, so
importing the package does not load ``numpy.polynomial``.

The Dirichlet seminorm uses exact per-cell moments of r^alpha1, so it is
exact for the discrete profile class.  The Dirichlet pairing reads u
through its per-cell factors (``pairing_factors``), which can be formed once
for many v, or from the slopes the norm takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hslog.params import NumericalError, ParamSet, ValidationError

# Gauss-Legendre nodes and weights on [-1, 1]: leggauss(4) and leggauss(16)
_GL4_X = np.array([-0.8611363115940526, -0.33998104358485626,
                   0.33998104358485626, 0.8611363115940526])
_GL4_W = np.array([0.34785484513745357, 0.6521451548625464,
                   0.6521451548625464, 0.34785484513745357])
_GL16_X = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL16_W = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])


@dataclass(frozen=True)
class Grid:
    """Nodes 0 < r_1 < ... < r_M = 1 with r_i = (i/M)^gamma.

    Arrays derived from the nodes are built once per grid and shared
    read-only between callers.
    """

    nodes: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.nodes.size

    @property
    def r1(self) -> float:
        return float(self.nodes[0])

    def quad_weights(self, w: float) -> np.ndarray:
        """Nodal weights q with sum(q * f) = integral_0^1 r^w f(r) dr."""
        w = float(w)
        return _cached(self._cache, ("weights", w), lambda: _build_weights(self.nodes, w))

    @property
    def cell_widths(self) -> np.ndarray:
        """r_{i+1} - r_i."""
        return _cached(self._cache, "widths", lambda: np.diff(self.nodes))

    def cell_moments(self, w: float) -> np.ndarray:
        """Exact integral of r^w over each cell [r_i, r_{i+1}]."""
        w = float(w)
        r = self.nodes
        return _cached(self._cache, ("moments", w),
                            lambda: (r[1:] ** (w + 1) - r[:-1] ** (w + 1)) / (w + 1))

    def node_set(self, theta: float) -> NodeSet:
        """The nodal rule of integral_0^1 r^theta f dr, whose r^beta this grid caches."""
        return NodeSet(self.nodes, self.quad_weights(theta), 0, self._cache)

    def sine_mode(self, k: int) -> np.ndarray:
        """sin(k pi (1 - r_i))."""
        return _cached(self._cache, ("sine", k),
                       lambda: np.sin(k * math.pi * (1.0 - self.nodes)))


def _cached(cache: dict, key, build) -> np.ndarray:
    """cache[key], built by ``build()`` and made read-only on first use."""
    if key not in cache:
        arr = build()
        arr.setflags(write=False)
        cache[key] = arr
    return cache[key]


# relative bound on a tanh-sinh rule's error estimates; those of a bubble's
# ||u||^p and J0 stay at or below 1.3e-15 over the pinned and seeded tuples
# of the tests, for eps from 1e-12 to 0.1 and r0 in {0.2, 0.45}
_RULE_TOL = 1e-12


def _piece_sums(terms: np.ndarray, pieces: int) -> tuple[float, float]:
    """(sum, error estimate) of a tanh-sinh rule's terms on ``pieces``
    consecutive pieces: the estimate adds up, piece by piece, the step-h sum
    minus the step-2h sum over every other node."""
    t = terms.reshape(pieces, -1)
    fine = np.einsum("ij->i", t)
    fine_minus_coarse = fine - 2.0 * np.einsum("ij->i", t[:, ::2])
    return float(np.einsum("i->", fine)), float(np.einsum("i->", np.abs(fine_minus_coarse)))


def _check_rule(what: str, err: float, scale: float) -> None:
    """Raise ``NumericalError`` unless err <= ``_RULE_TOL`` scale (a NaN fails)."""
    if not err <= _RULE_TOL * scale:
        raise NumericalError(f"{what} did not converge: error estimate {err:.3e} "
                             f"against {scale:.6e}")


class NodeSet:
    """The nodes r and weights q of a rule int_0^1 r^theta f dr = sum_i q_i f(r_i).

    ``pieces`` is 0 for a grid's nodal rule, whose r^beta the grid caches:
    an integrand there is formed up to the last nonzero value of u
    (``support``), is 0 past it, and is summed over every node in a fixed
    order.  Otherwise the set is ``pieces`` copies of a tanh-sinh rule's
    nodes, end to end, and each sum is checked against the rule's step-2h
    error estimate, piece by piece.
    """

    __slots__ = ("r", "q", "pieces", "_cache")

    def __init__(self, r: np.ndarray, q: np.ndarray, pieces: int, cache: dict):
        self.r, self.q, self.pieces, self._cache = r, q, pieces, cache

    def power(self, beta: float) -> np.ndarray:
        """The exponents r_i^beta, built once per beta."""
        beta = float(beta)
        return _cached(self._cache, ("power", beta), lambda: self.r**beta)

    def support(self, values: np.ndarray) -> int:
        """The nodes a nodal integrand of u = ``values`` is formed on: up to
        the last nonzero value on a grid, all of them on a tanh-sinh set."""
        return _support_end(values) if self.pieces == 0 else values.size

    def integral(self, f: np.ndarray, g: np.ndarray | None, what: str,
                 scale: float | None) -> float:
        """sum_i q_i f_i g_i (g = 1 for None), for f as long as the set and g
        as its ``support``; f takes f g on a grid, (q f) g on a tanh-sinh set,
        where an error estimate above ``_RULE_TOL`` of ``scale`` (of the sum
        for None), or a NaN, raises ``NumericalError`` naming ``what``."""
        if self.pieces == 0:
            if g is not None:
                f[:g.size] *= g
            return float(np.einsum("i,i->", self.q, f))
        f *= self.q
        if g is not None:
            f *= g
        value, err = _piece_sums(f, self.pieces)
        _check_rule(what, err, abs(value) if scale is None else scale)
        return value


def _build_weights(r: np.ndarray, w: float) -> np.ndarray:
    if w <= -1:
        raise ValidationError(f"weight exponent must be > -1 for integrability, got {w}")
    a, b = r[:-1], r[1:]
    h = b - a
    q = np.zeros(r.size)
    for xi, wi in zip(_GL4_X, _GL4_W):
        x = 0.5 * (a + b) + 0.5 * h * xi
        contrib = 0.5 * h * wi * x**w
        q[:-1] += contrib * (b - x) / h
        q[1:] += contrib * (x - a) / h
    # leading interval (0, r_1]: integrand frozen at f(r_1), moment exact
    q[0] += r[0] ** (w + 1) / (w + 1)
    return q


@dataclass(frozen=True)
class Profile:
    """Sampled radial function; piecewise linear on the grid.

    Integrals use the first nodal value on (0, r_1].  The constructor checks
    the shape and finiteness of the values.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.m,):
            raise ValidationError(
                f"profile needs {self.grid.m} values, got shape {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValidationError("profile values are not finite")

    def slopes(self, out: np.ndarray | None = None, n: int | None = None) -> np.ndarray:
        """u' on each cell, written to ``out`` when given.

        With ``n``, the values from node n on must be 0: the first n - 1
        slopes are formed and the rest, which are 0, are set to 0.
        """
        return _slopes(self.grid, self.values, out, n)

    def support_end(self) -> int:
        """One past the last nonzero node; 0 for the zero profile."""
        return _support_end(self.values)


def _support_end(values: np.ndarray) -> int:
    # a bool mask is one byte per node and bytes.rfind scans back from the
    # end; numpy's argmax over the reversed view would copy the whole mask
    return (values != 0.0).tobytes().rfind(1) + 1


def _live_cells(grid: Grid, n: int | None) -> int:
    """The cells among the first n nodes (all of them for ``n = None``)."""
    return grid.m - 1 if n is None else n - 1


def _slopes(grid: Grid, v: np.ndarray, out: np.ndarray | None, n: int | None) -> np.ndarray:
    """``Profile.slopes`` of the nodal values v on the grid."""
    c = _live_cells(grid, n)
    if out is None:
        out = np.empty(v.size - 1)
    s = np.subtract(v[1:c + 1], v[:c], out=out[:c])
    s /= grid.cell_widths[:c]
    out[c:] = 0.0
    return out


def make_grid(m: int, gamma: float) -> Grid:
    """Graded mesh r_i = (i/M)^gamma; gamma > 1 crowds nodes toward 0."""
    if m < 2:
        raise ValidationError(f"grid needs at least 2 nodes, got M={m}")
    if gamma < 1:
        raise ValidationError(f"grading exponent must be >= 1, got {gamma}")
    i = np.arange(1, m + 1, dtype=float)
    return Grid(nodes=(i / m) ** gamma)


def weighted_integral(grid: Grid, f: np.ndarray, w: float) -> float:
    """integral_0^1 r^w f(r) dr with f piecewise linear, f = f(r_1) on (0, r_1)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.m,):
        raise ValidationError(f"integrand needs {grid.m} samples, got shape {f.shape}")
    return float(np.einsum("i,i->", grid.quad_weights(w), f))


def dirichlet_norm(u: Profile, ps: ParamSet, work: np.ndarray | None = None,
                   n: int | None = None, factors: np.ndarray | None = None) -> float:
    """(integral_0^1 r^alpha1 |u'|^p dr)^(1/p), exact for the discrete class.

    The leading interval carries zero slope, hence no contribution; the
    norm vanishes iff the profile is constant.  The per-cell terms are
    formed in place, in ``work`` (one value per cell) when given.  With
    ``n``, u must be 0 from node n on: only the terms of the first n - 1
    cells are formed, the rest are exact zeros, and the sum runs over all
    cells as without ``n``, so the norm is the same bit for bit.  With
    ``factors`` (one value per cell), u's pairing factors
    (``pairing_factors``) are written there too, from the same slopes, on
    the first n - 1 cells.
    """
    c = _live_cells(u.grid, n)
    s = u.slopes(work, n)
    t = s[:c]
    if factors is not None:
        _pairing_factors(u.grid, t, ps, factors[:c])
    np.abs(t, out=t)
    t **= ps.p
    t *= u.grid.cell_moments(ps.alpha1)[:c]
    return float(np.add.reduce(s) ** (1.0 / ps.p))


def _pairing_factors(grid: Grid, s: np.ndarray, ps: ParamSet, out: np.ndarray) -> np.ndarray:
    """mom |s|^(p-2) s on the leading cells, from their slopes s, into out.

    mom is the cell moment of r^alpha1.  The factor is formed as
    copysign(|s|^(p-1) mom, s), which leaves s as it is.  That is
    (sign(s) mom) |s|^(p-1) bit for bit, since the sign is exact and
    rounding symmetric, but at s = -0.0, where it is -0.0 rather than 0.0.
    """
    np.abs(s, out=out)
    out **= ps.p - 1.0
    out *= grid.cell_moments(ps.alpha1)[:s.size]
    return np.copysign(out, s, out=out)


def pairing_factors(u: Profile, ps: ParamSet) -> np.ndarray:
    """u's side of the Dirichlet pairing, r^alpha1 |u'|^(p-2) u' integrated
    over each cell: mom_i |u'_i|^(p-2) u'_i, one value per cell."""
    return _pairing_factors(u.grid, u.slopes(), ps, np.empty(u.grid.m - 1))


def dirichlet_pairing(factors: np.ndarray, v: np.ndarray, grid: Grid,
                      work: np.ndarray | None = None, n: int | None = None) -> float:
    """integral_0^1 r^alpha1 |u'|^(p-2) u' v' dr, exact for the discrete class.

    It is the derivative of ||u + s v||^p / p at s = 0, for v given by its
    nodal values on the grid (a direction, as a gradient is).  u enters
    through its ``pairing_factors``, so the pairing is the sum over the
    cells of the factors times the slopes of v, which are formed in place,
    in ``work`` (one value per cell) when given.  With ``n``, u and v must
    be 0 from node n on, and only the first n - 1 terms are formed (and
    factors read), as in ``dirichlet_norm``.
    """
    c = _live_cells(grid, n)
    terms = _slopes(grid, v, work, n)
    terms[:c] *= factors[:c]
    return float(np.add.reduce(terms))


def dual_norm(factors: np.ndarray, source: np.ndarray, grid: Grid, ps: ParamSet) -> float:
    """sup over v of |l(v)| / ||v||, exact for the discrete class with v(1) = 0.

    l(v) = integral r^alpha1 |u'|^(p-2) u' v' - integral r^theta source v,
    with u given by its ``pairing_factors`` T and the source by its nodal
    values, the functional ``functionals.energy_pairing`` evaluates.  A v
    with v(1) = 0 is fixed by its slopes s_i, v_j = -sum_{i>=j} h_i s_i, so
    with q the r^theta weights and Q_i = sum_{j<=i} q_j source_j,
    l(v) = sum_i c_i s_i for c_i = T_i + h_i Q_i, and ||v||^p =
    sum_i mom_i |s_i|^p.  By Hoelder's equality the supremum is
    (sum_i |c_i|^p' mom_i^(1-p'))^(1/p'), p' = p/(p-1), attained at
    s_i = sign(c_i) (|c_i| / mom_i)^(1/(p-1)).
    """
    c = np.cumsum(grid.quad_weights(ps.theta)[:-1] * source[:-1])
    c *= grid.cell_widths
    c += factors
    dual = ps.p / (ps.p - 1.0)
    np.abs(c, out=c)
    c **= dual
    c *= grid.cell_moments(ps.alpha1) ** (1.0 - dual)
    return float(np.add.reduce(c) ** (1.0 / dual))


@dataclass(frozen=True)
class BoundReport:
    """Outcome of the pointwise decay-bound check.

    ``worst_slack`` is min over nodes of bound(r_i) - |u(r_i)|; the bound
    holds when it is >= -1e-12.
    """

    worst_slack: float
    worst_node: float
    norm: float
    passed: bool


def pointwise_bound_check(u: Profile, ps: ParamSet) -> BoundReport:
    """Check |u(r)| <= [c_p (1 - r^(sob/(p-1)))]^((p-1)/p) ||u|| r^(-sob/p).

    Here sob = alpha1-p+1 and c_p = (p-1)/sob.  Valid for every profile
    vanishing at r = 1 (the discrete class embeds in the continuous space).
    """
    p, sob = ps.p, ps.alpha1 - ps.p + 1
    r = u.grid.nodes
    norm = dirichlet_norm(u, ps)
    bracket = ((p - 1) / sob) * (1.0 - r ** (sob / (p - 1)))
    bound = np.maximum(bracket, 0.0) ** ((p - 1) / p) * norm * r ** (-sob / p)
    slack = bound - np.abs(u.values)
    i = int(np.argmin(slack))
    return BoundReport(
        worst_slack=float(slack[i]),
        worst_node=float(r[i]),
        norm=norm,
        passed=bool(slack[i] >= -1e-12),
    )


# --- CSV export -----------------------------------------------------------


def profile_to_csv(u: Profile) -> str:
    return "r,u\n" + "".join(["%.12g,%.12g\n" % row
                               for row in zip(u.grid.nodes.tolist(), u.values.tolist())])
