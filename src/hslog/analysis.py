"""Constrained maximization, rate fitting, and concentration diagnostics.

The maximizer runs projected gradient ascent on the unit Dirichlet sphere:
the search direction is the L^2_theta representative of dJ (pointwise
values, well scaled on graded meshes), steps are clipped to nonnegative
values with the boundary node pinned at zero, renormalized, and accepted
under Armijo backtracking.  Multi-start over bubble seeds keeps the best
result with a deterministic tie-break, so permuting the seed order cannot
change the answer.

Rate fits are least squares in log-log coordinates, optionally dividing
out a ln|ln eps| factor first ("power-times-loglog"), which is the model
family behind every asymptotic acceptance check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hslog import bliss
from hslog.functionals import (LogParams, J, RayTerms, _on_support, energy_I, ray_sum,
                               ray_terms, sobolev_J0)
from hslog.params import (
    NumericalError,
    ParamSet,
    ValidationError,
    bracket_decreasing,
    brent_root,
    critical_exponent,
    derived_constants,
)
from hslog.radial import Grid, Profile, dirichlet_norm, lq_norm, normalize

RATE_MODELS = ("pure-power", "power-times-loglog")


@dataclass(frozen=True)
class RateTable:
    abscissae: tuple[float, ...]
    ordinates: tuple[float, ...]
    fitted_exponent: float
    fit_residual: float
    model: str


def rate_fit(pairs, model: str = "power-times-loglog") -> RateTable:
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


# --- constrained maximization ----------------------------------------------


@dataclass(frozen=True)
class MaximizeResult:
    profile: Profile
    value: float
    iterations: int
    converged: bool
    seed_epsilon: float


def _grad_J_values(u: Profile, lp: LogParams | None, ps: ParamSet) -> np.ndarray:
    """Gradient of J with respect to the nodal values (weights folded in).

    ``lp = None`` selects the unperturbed objective (log factor off).
    """
    p_star = critical_exponent(ps)
    q = u.grid.quad_weights(ps.theta)
    if lp is None:
        return q * _on_support(u, lambda v: np.where(v > 0.0, p_star * v ** (p_star - 1.0), 0.0))

    def kernel(v, e):
        x = np.log(lp.tau + v)
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = p_star * v ** (p_star - 1.0) * x**e + v**p_star * e * x ** (e - 1.0) / (
                lp.tau + v
            )
        return np.where((v > 0.0) & (x > 0.0), grad, 0.0)

    return q * _on_support(u, kernel, u.grid.node_power(lp.beta))


def _project(vals: np.ndarray, grid: Grid, ps: ParamSet) -> Profile | None:
    """The nonnegative part of vals, pinned to 0 at r = 1, on the unit sphere."""
    vals = np.maximum(vals, 0.0)
    vals[-1] = 0.0
    prof = Profile(grid, vals)
    nrm = dirichlet_norm(prof, ps)
    if nrm == 0.0:
        return None
    # in place, so the checked profile becomes the projection; the quotient
    # stays finite, since every |u_i| is bounded by a multiple of the norm
    vals /= nrm
    return prof


def maximize_F(
    ps: ParamSet,
    lp: LogParams | None,
    grid: Grid,
    eps_seeds=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5),
) -> MaximizeResult:
    """Projected-ascent lower bound for the constrained supremum F.

    tau >= 1 is the attainability regime but any tau > 0 is accepted. The
    returned value is J at a feasible unit-norm profile, hence always a
    certified lower bound.  Passing ``lp = None`` maximizes the unperturbed
    critical integral instead; that variant approaches sigma_p from below
    under mesh refinement.  The seeds are bubbles with the unit-norm
    amplitude of ``bliss.compute_S``; each ascent stops once a step gains
    less than 1e-10 relative to the value, or after 5000 steps.
    """
    dc = derived_constants(ps)
    a_hat = bliss.compute_S(dc).a_hat

    candidates: list[MaximizeResult] = []
    for eps in eps_seeds:
        if grid.r1 > eps / 10.0:
            continue
        start = bliss.bubble_profile(bliss.BubbleSpec(eps, a_hat), grid, dc)
        u = _project(start.values, grid, ps)
        if u is None:
            continue
        candidates.append(_ascend(u, eps, ps, lp, grid))
    if not candidates:
        raise ValidationError("no bubble seed is resolvable on this grid")
    # highest value wins; exact ties resolved toward the smallest seed
    candidates.sort(key=lambda c: (-c.value, c.seed_epsilon))
    return candidates[0]


def _objective(u: Profile, lp: LogParams | None, ps: ParamSet) -> float:
    return sobolev_J0(u, ps) if lp is None else J(u, lp, ps)


def _ascend(u, seed_eps, ps, lp, grid) -> MaximizeResult:
    value = _objective(u, lp, ps)
    step = 0.25
    iterations = 0
    converged = False
    for iterations in range(1, 5001):
        direction = _grad_J_values(u, lp, ps)
        scale = float(np.sqrt(np.einsum("i,i->", direction, direction)))
        if scale == 0.0:
            converged = True
            break
        accepted = False
        while step >= 1e-16:
            cand = _project(u.values + (step / scale) * direction, grid, ps)
            if cand is not None:
                cand_val = _objective(cand, lp, ps)
                if cand_val > value:
                    improvement = cand_val - value
                    u, value = cand, cand_val
                    step *= 1.3
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True
            break
        if improvement < 1e-10 * max(abs(value), 1.0):
            converged = True
            break
    return MaximizeResult(
        profile=u, value=value, iterations=iterations, converged=converged,
        seed_epsilon=seed_eps,
    )


@dataclass(frozen=True)
class BubbleBound:
    best_value: float
    best_epsilon: float
    table: tuple[tuple[float, float], ...]


def bubble_lower_bound(ps: ParamSet, lp: LogParams, eps_list, grid: Grid) -> BubbleBound:
    """Best J over normalized cutoff bubbles; a certified lower bound for F."""
    dc = derived_constants(ps)
    a_hat = bliss.compute_S(dc).a_hat
    rows = []
    for eps in eps_list:
        u = bliss.bubble_profile(bliss.BubbleSpec(eps, a_hat), grid, dc)
        rows.append((float(eps), J(normalize(u, ps), lp, ps)))
    best_eps, best_val = max(rows, key=lambda t: (t[1], -t[0]))
    return BubbleBound(best_value=best_val, best_epsilon=best_eps, table=tuple(rows))


def beta_sweep(ps: ParamSet, tau: float, beta_list, grid: Grid, **opts):
    """maximize_F per beta; returns rows (beta, F_hat, |F_hat - sigma_p|)."""
    sigma_p = bliss.compute_S(derived_constants(ps)).sigma_p
    rows = []
    for beta in beta_list:
        res = maximize_F(ps, LogParams(tau=tau, beta=float(beta)), grid, **opts)
        rows.append((float(beta), res.value, abs(res.value - sigma_p)))
    return rows


# --- concentration diagnostics ----------------------------------------------


def tail_energy(u: Profile, ps: ParamSet, r0: float) -> float:
    """int_{r0}^1 r^alpha1 |u'|^p dr, exact for the discrete class."""
    r = u.grid.nodes
    a = np.maximum(r[:-1], r0)
    b = r[1:]
    mask = b > a
    mom = (b[mask] ** (ps.alpha1 + 1) - a[mask] ** (ps.alpha1 + 1)) / (ps.alpha1 + 1)
    return float(np.sum(mom * np.abs(u.slopes()[mask]) ** ps.p))


@dataclass(frozen=True)
class NCSReport:
    norms: tuple[float, ...]
    tails: dict
    lp_theta_norms: tuple[float, ...]
    normalized_ok: bool
    tails_ok: bool
    lp_decreasing: bool

    @property
    def is_ncs(self) -> bool:
        return self.normalized_ok and self.tails_ok and self.lp_decreasing


def ncs_check(profiles, ps: ParamSet) -> NCSReport:
    """Check the three defining properties of a concentrating family.

    Normalization holds to 1e-8; escape of the Dirichlet energy is checked
    at the cut radii 0.1, 0.3 and 0.5 (decreasing tails ending below
    1e-2); weak convergence to 0 is surrogated by decreasing
    L^p_theta norms.
    """
    if len(profiles) < 3:
        raise ValidationError(f"NCS check needs at least 3 profiles, got {len(profiles)}")
    norms = tuple(dirichlet_norm(u, ps) for u in profiles)
    normalized_ok = all(abs(n - 1.0) <= 1e-8 for n in norms)
    tails = {}
    tails_ok = True
    for r0 in (0.1, 0.3, 0.5):
        t = tuple(tail_energy(u, ps, r0) for u in profiles)
        tails[float(r0)] = t
        mono = all(t[i + 1] <= t[i] for i in range(len(t) - 1))
        tails_ok = tails_ok and mono and t[-1] < 1e-2
    lp_norms = tuple(lq_norm(u, ps.p, ps.theta) for u in profiles)
    lp_decreasing = all(lp_norms[i + 1] < lp_norms[i] for i in range(len(lp_norms) - 1))
    return NCSReport(
        norms=norms, tails=tails, lp_theta_norms=lp_norms,
        normalized_ok=normalized_ok, tails_ok=tails_ok, lp_decreasing=lp_decreasing,
    )


# allowance of the concentration level check over sigma_p
LEVEL_TOLERANCE = 5e-3


@dataclass(frozen=True)
class ConcentrationLevelReport:
    j_values: tuple[float, ...]
    tail_max: float
    bound: float
    passed: bool
    skipped: bool


def concentration_level_check(profiles, lp: LogParams, ps: ParamSet, sigma_p: float,
                              tail_start: int = 0,
                              ncs_report: NCSReport | None = None) -> ConcentrationLevelReport:
    """Compare the running max of J over the family tail against sigma_p
    + ``LEVEL_TOLERANCE``.

    When an NCS report is supplied and fails, the bound is inapplicable and
    the check is reported as skipped.
    """
    j_values = tuple(J(u, lp, ps) for u in profiles)
    bound = sigma_p + LEVEL_TOLERANCE
    if ncs_report is not None and not ncs_report.is_ncs:
        return ConcentrationLevelReport(j_values, float("nan"), bound,
                                        passed=False, skipped=True)
    tail = j_values[tail_start:]
    tail_max = max(tail) if tail else float("nan")
    return ConcentrationLevelReport(j_values, tail_max, bound,
                                    passed=bool(tail and tail_max <= bound), skipped=False)


# --- the scalar stationarity equation and the level gap ---------------------


def _stationarity(t: float, terms: RayTerms, n_p: float, p: float) -> float:
    """d/dt I(t u) = t^(p-1) ||u||^p - J(t u)/t, with J(t u)/t^p* the ray sum."""
    return t ** (p - 1.0) * n_p - t ** (terms.p_star - 1.0) * ray_sum(terms, t)


def solve_t_eps(u_eps: Profile, lp: LogParams, ps: ParamSet) -> float:
    """Root of t^(p-1) ||u||^p = t^(p*-1) int r^th |u|^p* (ln(tau+t|u|))^(r^b) dr.

    The right-hand side is J(t u)/t, read from the ray terms of u, which are
    taken once.  The bracket starts at (0.5, 2) and ``bracket_decreasing``
    halves its lower end until the residual is >= 0 and doubles its upper
    end until it is <= 0, then Brent's method finds the root.
    ``brent_root`` reuses the residuals at the bracket ends and returns the
    one at the root, so no t is evaluated twice.  The residual gets the
    terms through ``args``, not a closure, so nothing of u outlives the
    call.  The residual at the root must be below 1e-10 relative to
    t^(p-1) ||u||^p.
    """
    terms = ray_terms(u_eps, lp, ps)
    n_p = dirichlet_norm(u_eps, ps) ** ps.p
    args = (terms, n_p, ps.p)
    lo, h_lo, hi, h_hi = bracket_decreasing(_stationarity, 0.5, _stationarity(0.5, *args),
                                            2.0, _stationarity(2.0, *args), "t_eps", args=args)
    t_star, residual = brent_root(_stationarity, lo, h_lo, hi, h_hi, args=args, xtol=1e-15,
                                  rtol=8.9e-16, maxiter=200)
    scale = max(1.0, abs(t_star ** (ps.p - 1.0) * n_p))
    if abs(residual) >= 1e-10 * scale:
        raise NumericalError(f"t_eps residual {residual:.3e} above tolerance")
    return t_star


@dataclass(frozen=True)
class MountainPassResult:
    max_energy: float
    t_at_max: float
    threshold: float
    gap: float


def mountain_pass_gap(spec: bliss.BubbleSpec, lp: LogParams, ps: ParamSet,
                      grid: Grid) -> MountainPassResult:
    """Max of t -> I(t u_eps) against the non-compactness level.

    The level is (1/p - 1/p*) S_power, with S_power from ``bliss.compute_S``.

    The maximum sits at the root t* of d/dt I(t u) = t^(p-1) ||u||^p - J(t u)/t,
    which ``solve_t_eps`` finds.  For tau >= 1 that root is unique and is the
    global maximum along the ray: J(t u)/t^p is strictly increasing in t,
    because t^(p*-p) and (ln(tau + t|u|))^(r^beta) both are, so the
    derivative is positive below t* and negative above it.

    The reported quantity is the maximum of the discrete energy along the
    bubble path, not the infimum over all paths.  It stands for the
    bubble-path upper bound on the mountain-pass level only where the mesh
    resolves eps.  The nodal rule integrates the interpolant of |u|^p*,
    which overstates the critical integral: on an under-resolved mesh it
    can put the discrete Sobolev quotient above its sharp value (the
    unperturbed maximum then falls below the threshold, which the sharp
    inequality rules out in the continuum), so the value is not a certified
    upper bound there.
    """
    dc = derived_constants(ps)
    p_star = critical_exponent(ps)
    threshold = (1.0 / ps.p - 1.0 / p_star) * bliss.compute_S(dc).S_power

    u = bliss.bubble_profile(spec, grid, dc)
    t_star = solve_t_eps(u, lp, ps)
    max_energy = energy_I(u.scaled(t_star), lp, ps)
    return MountainPassResult(
        max_energy=max_energy,
        t_at_max=t_star,
        threshold=threshold,
        gap=threshold - max_energy,
    )


# --- shared helpers ----------------------------------------------------------


def random_smooth_profile(grid: Grid, rng: np.random.Generator) -> Profile:
    """Random superposition of the first 5 sine modes, vanishing at r = 1."""
    vals = np.zeros(grid.m)
    for k in range(1, 6):
        vals += rng.normal() / k * grid.sine_mode(k)
    vals[-1] = 0.0
    return Profile(grid, vals)


def energy_sphere_scan(ps: ParamSet, lp: LogParams, grid: Grid, rho_list=(0.1, 0.2, 0.4),
                       n_profiles: int = 25, seed: int = 2024):
    """Empirical min of I over random profiles on each sphere ||u|| = rho."""
    rng = np.random.default_rng(seed)
    profiles = []
    for _ in range(n_profiles):
        u = random_smooth_profile(grid, rng)
        nrm = dirichlet_norm(u, ps)
        if nrm > 0:
            profiles.append(u.scaled(1.0 / nrm))
    out = {}
    for rho in rho_list:
        out[float(rho)] = min(energy_I(u.scaled(rho), lp, ps) for u in profiles)
    return out
