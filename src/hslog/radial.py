"""Discrete radial profiles on (0, 1] and singular-weight quadrature.

Profiles are piecewise linear between the graded nodes r_i = (i/M)^gamma,
i = 1..M, and constant (equal to the first nodal value) on the leading
interval (0, r_1].  Every integral of a nodal integrand against r^w dr
over (0, 1) is one rule, ``weighted_integral``, with fixed nodal weights:
per interior cell the rule is 4-point Gauss-Legendre applied to
r^w * (hat functions), and on (0, r_1] the weight moment is taken in closed
form.  J, J0, the energy and its pairing use it.  The weights are cached
per (grid, w), which also makes every integral exactly linear in the
sampled integrand.  Every quadrature sum is a single-threaded reduction in
a fixed order (``np.einsum`` without ``optimize`` never calls BLAS), so an
integral does not depend on the BLAS thread count or on the number of
cores.

The Dirichlet seminorm uses exact per-cell moments of r^alpha1, so it is
exact for the discrete profile class.  The Dirichlet pairing reads u
through its per-cell factors (``pairing_factors``), which can be formed once
for many v, or from the slopes the norm takes.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from hslog.params import ParamSet, ValidationError

_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL16_X, _GL16_W = np.polynomial.legendre.leggauss(16)


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

    def _cached(self, key, build) -> np.ndarray:
        if key not in self._cache:
            arr = build()
            arr.setflags(write=False)
            self._cache[key] = arr
        return self._cache[key]

    def quad_weights(self, w: float) -> np.ndarray:
        """Nodal weights q with sum(q * f) = integral_0^1 r^w f(r) dr."""
        w = float(w)
        return self._cached(("weights", w), lambda: _build_weights(self.nodes, w))

    @property
    def cell_widths(self) -> np.ndarray:
        """r_{i+1} - r_i."""
        return self._cached("widths", lambda: np.diff(self.nodes))

    def cell_moments(self, w: float) -> np.ndarray:
        """Exact integral of r^w over each cell [r_i, r_{i+1}]."""
        w = float(w)
        r = self.nodes
        return self._cached(("moments", w),
                            lambda: (r[1:] ** (w + 1) - r[:-1] ** (w + 1)) / (w + 1))

    def node_power(self, w: float) -> np.ndarray:
        """The nodes raised to the power w, r_i^w."""
        w = float(w)
        return self._cached(("power", w), lambda: self.nodes**w)

    def sine_mode(self, k: int) -> np.ndarray:
        """sin(k pi (1 - r_i))."""
        return self._cached(("sine", k), lambda: np.sin(k * math.pi * (1.0 - self.nodes)))


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
        # a bool array is one byte per node, 0 or 1, and bytes.rfind scans
        # back from the end; numpy's argmax over the reversed view would
        # copy the whole mask first
        return (self.values != 0.0).tobytes().rfind(1) + 1


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
    buf = io.StringIO()
    buf.write("r,u\n")
    for r, v in zip(u.grid.nodes.tolist(), u.values.tolist()):
        buf.write(f"{r:.12g},{v:.12g}\n")
    return buf.getvalue()
