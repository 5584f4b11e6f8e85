"""Discrete radial profiles on (0, 1] and singular-weight quadrature.

Profiles are piecewise linear between the graded nodes r_i = (i/M)^gamma,
i = 1..M, and constant (equal to the first nodal value) on the leading
interval (0, r_1].  All integrals against r^w dr reduce to fixed nodal
weights: per interior cell the rule is 4-point Gauss-Legendre applied to
r^w * (hat functions), and on (0, r_1] the weight moment is taken in closed
form.  The weights are cached per (grid, w), which also makes every
integral exactly linear in the sampled integrand.  Every quadrature sum is
a single-threaded reduction in a fixed order (``np.einsum`` without
``optimize`` never calls BLAS), so an integral does not depend on the BLAS
thread count or on the number of cores.

The Dirichlet seminorm uses exact per-cell moments of r^alpha1, so it is
exact for the discrete profile class.
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
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("profile values are not finite")

    def scaled(self, c: float) -> "Profile":
        """c u."""
        return Profile(self.grid, c * self.values)

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.grid.cell_widths

    def support_end(self) -> int:
        """One past the last nonzero node; 0 for the zero profile."""
        nonzero = self.values != 0.0
        return self.values.size - int(np.argmax(nonzero[::-1])) if nonzero.any() else 0


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


def weighted_integral_between(grid: Grid, f: np.ndarray, w: float, a: float, b: float) -> float:
    """integral_a^b r^w f(r) dr for the same piecewise-linear interpolant.

    Uses exact linear-times-power moments per (partial) cell so the result
    is additive over interval splits to rounding error.
    """
    if w <= -1:
        raise ValidationError(f"weight exponent must be > -1, got {w}")
    if not 0 <= a <= b <= 1:
        raise ValidationError(f"need 0 <= a <= b <= 1, got [{a}, {b}]")
    f = np.asarray(f, dtype=float)
    r = grid.nodes
    total = 0.0
    # leading constant piece on (0, r_1]
    lo, hi = min(a, r[0]), min(b, r[0])
    if hi > lo:
        total += f[0] * (hi ** (w + 1) - lo ** (w + 1)) / (w + 1)
    # linear pieces
    lo_cell = np.maximum(r[:-1], a)
    hi_cell = np.minimum(r[1:], b)
    mask = hi_cell > lo_cell
    if np.any(mask):
        ra, rb = r[:-1][mask], r[1:][mask]
        fa, fb = f[:-1][mask], f[1:][mask]
        lo_c, hi_c = lo_cell[mask], hi_cell[mask]
        slope = (fb - fa) / (rb - ra)
        const = fa - slope * ra
        m1 = (hi_c ** (w + 1) - lo_c ** (w + 1)) / (w + 1)
        m2 = (hi_c ** (w + 2) - lo_c ** (w + 2)) / (w + 2)
        total += float(np.sum(const * m1 + slope * m2))
    return total


def dirichlet_norm(u: Profile, ps: ParamSet) -> float:
    """(integral_0^1 r^alpha1 |u'|^p dr)^(1/p), exact for the discrete class.

    The leading interval carries zero slope, hence no contribution; the
    norm vanishes iff the profile is constant.
    """
    moments = u.grid.cell_moments(ps.alpha1)
    s = u.slopes()
    return float(np.sum(moments * np.abs(s) ** ps.p) ** (1.0 / ps.p))


def lq_norm(u: Profile, q: float, w: float) -> float:
    """Weighted Lebesgue norm (integral r^w |u|^q dr)^(1/q)."""
    if q < 1:
        raise ValidationError(f"need q >= 1, got {q}")
    return weighted_integral(u.grid, np.abs(u.values) ** q, w) ** (1.0 / q)


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


def normalize(u: Profile, ps: ParamSet) -> Profile:
    """Rescale to unit Dirichlet norm; rejects (near-)constant profiles."""
    nrm = dirichlet_norm(u, ps)
    if nrm == 0.0:
        raise ValidationError("cannot normalize a profile with zero Dirichlet norm")
    return u.scaled(1.0 / nrm)


# --- CSV interchange ------------------------------------------------------

CSV_HEADER = "r,u"


def profile_to_csv(u: Profile) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r, v in zip(u.grid.nodes, u.values):
        buf.write(f"{r:.12g},{v:.12g}\n")
    return buf.getvalue()


def profile_from_csv(text: str) -> Profile:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].replace(" ", "") != CSV_HEADER:
        raise ValidationError(f"profile CSV must start with header '{CSV_HEADER}'")
    try:
        rows = [ln.split(",") for ln in lines[1:]]
        r = np.array([float(a) for a, _ in rows])
        v = np.array([float(b) for _, b in rows])
    except ValueError as exc:
        raise ValidationError(f"malformed profile CSV row: {exc}") from exc
    if r.size < 2 or np.any(np.diff(r) <= 0) or r[0] <= 0 or abs(r[-1] - 1.0) > 1e-9:
        raise ValidationError("profile CSV nodes must be strictly increasing in (0, 1]")
    r[-1] = 1.0
    return Profile(Grid(nodes=r), v)
