"""Constrained maximization, concentration diagnostics and the level gap.

The maximizer runs projected gradient ascent on the unit Dirichlet sphere:
the search direction is the L^2_theta representative of dJ (pointwise
values, well scaled on graded meshes), steps are clipped to nonnegative
values with the boundary node pinned at zero, renormalized, and accepted
under Armijo backtracking.  The backtracking halves the step only while
step * G stays at or above the convergence threshold 1e-10 max(|J|, 1),
with G the first-order gain of the projected step.  Below it, every step
still to be tried gains less than the threshold to first order, and so
small a gain ends the ascent as converged anyway: the cut-off loses no
accepted step that would have kept the ascent going.  Multi-start over
bubble seeds keeps the best result with a deterministic tie-break, so
permuting the seed order cannot change the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hslog import bliss
from hslog.functionals import LogParams, J, J_at, JNodes, RayTerms, energy_I, ray_sum, ray_terms
from hslog.params import NumericalError, ParamSet, ValidationError, log_residual, log_root
from hslog.radial import Grid, Profile, dirichlet_norm, dirichlet_pairing

# --- constrained maximization ----------------------------------------------


@dataclass(frozen=True)
class MaximizeResult:
    profile: Profile
    value: float
    iterations: int
    converged: bool
    seed_epsilon: float


class _AscentWork:
    """The arrays the ascent writes in place, made once per ``maximize_F``.

    ``at_u`` and ``at_cand`` hold J's nodal factors at the iterate and at
    the candidate, and ``pair_u`` and ``pair_cand`` their Dirichlet pairing
    factors (``radial.pairing_factors``) before the projection's division,
    with the norm they were divided by in ``norm_u`` and ``norm_cand``.
    ``accept`` swaps the candidate's into the iterate's.  ``spare`` takes
    the next candidate's values, ``direction`` the gradient, and
    ``cells[0]`` the slopes and per-cell terms of the Dirichlet norm and
    pairing; one of the two pairing factor arrays is ``cells[1]``.  With
    them no step allocates a grid-length float array: on a 16000-node grid
    such an array is 128000 bytes, under glibc's default 128 KiB trim
    threshold, so freeing it can hand the heap top back to the system and
    the next one faults its pages in again.

    ``n`` counts the current seed's nodes up to its last nonzero one and
    the zero node after it, ``support_end() + 1``.  No iterate is nonzero
    past the seed's support, so the Dirichlet work of a step (the
    candidate, its norm and pairing factors, and the pairing) is formed on
    the first n nodes only.  ``start`` zeroes ``spare`` from n on once per
    ascent; nothing writes there after that.
    """

    def __init__(self, m: int):
        self.at_u, self.at_cand = JNodes(m), JNodes(m)
        self.spare, self.direction, self.pair_u = np.empty(m), np.empty(m), np.empty(m - 1)
        self.cells = np.empty((2, m - 1))
        self.pair_cand = self.cells[1]
        self.norm_u = self.norm_cand = 1.0
        self.n = m

    def start(self, seed: Profile) -> None:
        """Trim the Dirichlet work to the support of ``seed``."""
        self.n = min(seed.support_end() + 1, seed.grid.m)
        self.spare[self.n:] = 0.0

    def accept(self) -> None:
        """Make the last projected candidate the iterate."""
        self.at_u, self.at_cand = self.at_cand, self.at_u
        self.pair_u, self.pair_cand = self.pair_cand, self.pair_u
        self.norm_u, self.norm_cand = self.norm_cand, self.norm_u


def _project(vals: np.ndarray, grid: Grid, ps: ParamSet, work: _AscentWork) -> Profile | None:
    """The nonnegative part of vals, pinned to 0 at r = 1, on the unit sphere.

    vals must be 0 from node ``work.n`` on.  It is overwritten with the
    projection, which the returned profile holds.  The pairing factors of
    the part before the division go to ``work.pair_cand``, and its norm to
    ``work.norm_cand``.
    """
    live = vals[:work.n]
    np.maximum(live, 0.0, out=live)
    vals[-1] = 0.0
    prof = Profile(grid, vals)
    nrm = dirichlet_norm(prof, ps, work.cells[0], work.n, work.pair_cand)
    if nrm == 0.0:
        return None
    # the quotient stays finite, since every |u_i| is bounded by a multiple
    # of the norm
    live /= nrm
    work.norm_cand = nrm
    return prof


def maximize_F(
    ps: ParamSet,
    lp: LogParams | None,
    grid: Grid,
    eps_seeds=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5),
) -> MaximizeResult:
    """Projected ascent for the constrained supremum F.

    tau >= 1 is the attainability regime but any tau > 0 is accepted.  The
    value is the nodal J at a feasible unit-norm profile; the nodal rule
    overstates J where the mesh does not resolve the profile, so it bounds F
    from below only on a mesh that does.  ``lp = None`` maximizes J0, whose
    supremum is sigma_p: on (2, 2, 2, 2) with gamma = 3 it returns
    sigma_p + 1.28e-3 at M = 2000, which the sharp inequality rules out, and
    sigma_p - 3.2e-4 at M = 16000.  The seeds are bubbles with the unit-norm
    amplitude ``ps.a_hat``; each ascent stops once a step gains
    less than 1e-10 relative to the value, or after 5000 steps.  The line
    search of a step stops halving once the step times the first-order gain
    of the projected step falls below that threshold: no step it could
    still accept would gain the threshold, to first order, so the ascent
    ends there as converged instead of halving down to 1e-16.

    The seeds' results are not collected: a running best is kept, so the
    memory does not grow with the number of seeds.  The highest value wins,
    and an exact tie goes to the smallest seed, so the result does not
    depend on the order of ``eps_seeds``.
    """
    work = _AscentWork(grid.m)

    best: MaximizeResult | None = None
    for eps in eps_seeds:
        if grid.r1 > eps / 10.0:
            continue
        start = bliss.bubble_profile(bliss.BubbleSpec(eps, ps.a_hat), grid, ps)
        work.start(start)
        u = _project(start.values, grid, ps, work)
        if u is None:
            continue
        work.accept()
        res = _ascend(u, eps, ps, lp, grid, work)
        if best is None or _rank(res) < _rank(best):
            best = res
    if best is None:
        raise ValidationError("no bubble seed is resolvable on this grid")
    return best


def _rank(res: MaximizeResult) -> tuple[float, float]:
    """Lower ranks first: the highest value, then the smallest seed."""
    return (-res.value, res.seed_epsilon)


def _first_order_gain(u: Profile, direction: np.ndarray, scale: float, ps: ParamSet,
                      work: _AscentWork) -> float:
    """d/ds J(_project(u + s h)) at s = 0, for h = direction / scale and ||u|| = 1.

    The iterate u is >= 0 and the direction vanishes where u does (it may be
    < 0 where u > 0, for tau < 1), so the clip does not bind near s = 0, and
    the derivative is d.h - (d.u) <u, h>: the gradient d = ``JNodes.gradient``
    along h (d.h is the scale), minus the part the renormalization takes
    back, whose norm derivative at ||u|| = 1 is the Dirichlet pairing <u, h>.
    u = c / ||c|| for the c that ``_project`` divided, so <u, h> is
    <c, d> / (||c||^(p-1) scale), with <c, d> from c's pairing factors
    ``work.pair_u``: no slope of u is formed again, and h is not formed.
    Both u and d are 0 from node ``work.n`` on, so the pairing is formed on
    the first ``work.n`` nodes.  scale = |d| is finite iff every entry of d
    is and their squares do not overflow; the gain is only defined then.

    This is the gain of the direct form d.h - (d.u) <u, h> in exact
    arithmetic, not in floating point: the rounding differs by a few ulps.
    The gain only gates the step halving (step * gain against a floor), so
    the iterates are those of the direct form unless some gate sits within
    that rounding of the floor.  No run checked so far has one: the
    maximizers pinned in the tests and every seed's ascent on (2, 2, 2, 2)
    and (3, 2, 4, 4) at M = 2000 and 16000, for J0 and four (tau, beta),
    came out bit for bit the same.
    """
    if not math.isfinite(scale):
        raise ValidationError("the ascent direction is not finite")
    n = work.n
    pairing = dirichlet_pairing(work.pair_u, direction, u.grid, work.cells[0], n)
    pairing /= work.norm_u ** (ps.p - 1.0) * scale
    return scale - float(np.einsum("i,i->", direction[:n], u.values[:n])) * pairing


def _ascend(u, seed_eps, ps, lp, grid, work: _AscentWork) -> MaximizeResult:
    # J and its gradient at an iterate come from one nodal evaluation, and
    # the Dirichlet pairing from the factors of its projection: an accepted
    # candidate's become the iterate's (``work.accept``), and the values the
    # iterate leaves behind take the next candidate.  The direction is 0
    # wherever u is, so no iterate is nonzero past the seed's support: a
    # candidate is formed on the first work.n nodes, and every array that
    # takes one is 0 from there on
    direction, spare = work.direction, work.spare
    n = work.n
    value = J(u, lp, ps, work.at_u)
    step = 0.25
    iterations = 0
    converged = False
    for iterations in range(1, 5001):
        work.at_u.gradient(direction)
        scale = math.sqrt(np.einsum("i,i->", direction, direction))
        if scale == 0.0:
            converged = True
            break
        floor = 1e-10 * max(abs(value), 1.0)
        gain = _first_order_gain(u, direction, scale, ps, work)
        accepted = False
        # below the floor, no step left can gain the threshold, to first order
        while step >= 1e-16 and step * gain >= floor:
            np.multiply(direction[:n], step / scale, out=spare[:n])
            spare[:n] += u.values[:n]
            cand = _project(spare, grid, ps, work)
            if cand is not None:
                cand_val = J(cand, lp, ps, work.at_cand)
                if cand_val > value:
                    improvement = cand_val - value
                    spare = u.values
                    u, value = cand, cand_val
                    work.accept()
                    step *= 1.3
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True
            break
        if improvement < floor:
            converged = True
            break
    work.spare = spare
    return MaximizeResult(
        profile=u, value=value, iterations=iterations, converged=converged,
        seed_epsilon=seed_eps,
    )


def beta_sweep(ps: ParamSet, tau: float, beta_list, grid: Grid, **opts):
    """maximize_F per beta; returns rows (beta, F_hat, |F_hat - sigma_p|)."""
    rows = []
    for beta in beta_list:
        res = maximize_F(ps, LogParams(tau=tau, beta=float(beta)), grid, **opts)
        rows.append((float(beta), res.value, abs(res.value - ps.sigma_p)))
    return rows


# --- concentration diagnostics ----------------------------------------------


@dataclass(frozen=True)
class NCSReport:
    tails: dict
    lp_theta_norms: tuple[float, ...]
    tails_ok: bool
    lp_decreasing: bool

    @property
    def is_ncs(self) -> bool:
        return self.tails_ok and self.lp_decreasing


def ncs_check(family, ps: ParamSet) -> NCSReport:
    """Check that bubbles at their nodes (``bliss.BubbleNodes``), each scaled
    to unit norm by t = ||u||^(-1/p), concentrate.

    Escape of the Dirichlet energy is checked at the cut radii r0/2, r0
    and 3 r0/2 about the plateau edge r0 of the first bubble, where the
    bubbles still carry energy (each is 0 from 2 r0 on): decreasing
    tails, t^p times ``bliss.bubble_dirichlet_tail``, ending below 1e-2.
    Weak convergence to 0 is checked by decreasing L^p_theta norms
    (sum q |t u|^p)^(1/p), each sum under the rule's check, naming eps.
    """
    if len(family) < 3:
        raise ValidationError(f"NCS check needs at least 3 profiles, got {len(family)}")
    r0 = family[0].spec.r0
    tails = {}
    tails_ok = True
    for radius in (0.5 * r0, r0, 1.5 * r0):
        t = tuple(bliss.bubble_dirichlet_tail(b.spec, radius, ps) / b.norm_p for b in family)
        tails[radius] = t
        mono = all(t[i + 1] <= t[i] for i in range(len(t) - 1))
        tails_ok = tails_ok and mono and t[-1] < 1e-2
    lp_norms = tuple(b.nodes.integral(np.abs(b.norm_p ** (-1.0 / ps.p) * b.u) ** ps.p, None,
                                      f"L^p_theta norm quadrature at eps={b.spec.epsilon:g}",
                                      None) ** (1.0 / ps.p) for b in family)
    lp_decreasing = all(lp_norms[i + 1] < lp_norms[i] for i in range(len(lp_norms) - 1))
    return NCSReport(tails=tails, lp_theta_norms=lp_norms, tails_ok=tails_ok,
                     lp_decreasing=lp_decreasing)


# allowance of the concentration level check over sigma_p
LEVEL_TOLERANCE = 5e-3


@dataclass(frozen=True)
class ConcentrationLevelReport:
    j_values: tuple[float, ...]
    tail_max: float
    bound: float
    passed: bool
    skipped: bool


def concentration_level_check(family, lp: LogParams, ps: ParamSet, tail_start: int,
                              ncs_report: NCSReport) -> ConcentrationLevelReport:
    """Compare the running max of J over the family from ``tail_start`` on
    against ``ps.sigma_p`` + ``LEVEL_TOLERANCE``.

    The family is that of ``ncs_check``, and J(t u), t = ||u||^(-1/p), is
    read at each bubble's nodes under the rule's check, naming eps.  When
    the NCS report fails, the bound is inapplicable and the check is
    reported as skipped.
    """
    j_values = tuple(J_at(b.nodes, b.norm_p ** (-1.0 / ps.p) * b.u, lp, ps,
                          f"unit-norm J quadrature at eps={b.spec.epsilon:g}") for b in family)
    bound = ps.sigma_p + LEVEL_TOLERANCE
    if not ncs_report.is_ncs:
        return ConcentrationLevelReport(j_values, float("nan"), bound,
                                        passed=False, skipped=True)
    tail = j_values[tail_start:]
    tail_max = max(tail) if tail else float("nan")
    return ConcentrationLevelReport(j_values, tail_max, bound,
                                    passed=bool(tail and tail_max <= bound), skipped=False)


# --- the scalar stationarity equation and the level gap ---------------------


def _log_stationarity(x: float, terms: RayTerms, n_p: float, p: float) -> float:
    """ln ||u||^p - (p*-p) x - ln S(e^x), with S the ray sum: the log of
    t^(p-1) ||u||^p over J(t u)/t at t = e^x, read as 0 within 4 ulp of a
    ratio of 1 (``log_residual``)."""
    t = math.exp(x)
    return -log_residual(t ** (terms.p_star - p) * ray_sum(terms, t) / n_p)


def solve_t_eps(terms: RayTerms, n_p: float, ps: ParamSet) -> float:
    """Root of t^(p-1) ||u||^p = t^(p*-1) int r^th |u|^p* (ln(tau+t|u|))^(r^b) dr.

    u enters through its ray terms ``terms`` and n_p = ||u||^p > 0; a grid
    profile's come from ``ray_terms`` and ``dirichlet_norm``, a bubble's
    from its tanh-sinh nodes (``mountain_pass_gap``).  The right-hand side
    is J(t u)/t = t^(p*-1) S(t), with S the ray sum.  The root is taken in
    x = ln t, where the residual r(x) = ln ||u||^p - (p*-p) x - ln S(e^x)
    is nearly linear.  For tau >= 1, S does not decrease, so r falls at
    least as fast as (p*-p) x, and ``params.log_root`` finds the root from
    x0 = 0; r reads exactly 0 once the ratio of the two sides is within 4
    ulp of 1, which stops Brent on it.  The residual t^(p-1) ||u||^p
    (1 - e^-r) of the stationarity equation at the root, formed from the
    last r, must be below 1e-10 relative to t^(p-1) ||u||^p.
    """
    if not n_p > 0.0:
        raise ValidationError(f"t_eps needs ||u||^p > 0, got {n_p}")
    x_star, r_star = log_root(_log_stationarity, 0.0, terms.p_star - ps.p, "t_eps",
                              (terms, n_p, ps.p))
    t_star = math.exp(x_star)
    lhs = t_star ** (ps.p - 1.0) * n_p
    residual = -lhs * math.expm1(-r_star)
    if abs(residual) >= 1e-10 * max(1.0, lhs):
        raise NumericalError(f"t_eps residual {residual:.3e} above tolerance")
    return t_star


@dataclass(frozen=True)
class MountainPassResult:
    """The maximum of I along the ray of a bubble, against the level.

    ``gap0`` is the gap of the same bubble with the log factor off.
    """

    max_energy: float
    t_at_max: float
    threshold: float
    gap: float
    gap0: float


def mountain_pass_gap(spec: bliss.BubbleSpec, lp: LogParams, ps: ParamSet) -> MountainPassResult:
    """Max of t -> I(t u_eps) against the non-compactness level.

    The level is (1/p - 1/p*) S_power, with S_power from the ``ParamSet``.
    The bubble is taken in closed form at the nodes of the tanh-sinh rule
    (``bliss.bubble_nodes``), so no mesh is involved and every eps > 0 is
    accepted; the energy's sum there is checked against the rule's estimate.

    The maximum sits at the root t* of d/dt I(t u) = t^(p-1) ||u||^p - J(t u)/t,
    which ``solve_t_eps`` finds.  For tau >= 1 that root is unique and is the
    global maximum along the ray: J(t u)/t^p is strictly increasing in t,
    because t^(p*-p) and (ln(tau + t|u|))^(r^beta) both are, so the
    derivative is positive below t* and negative above it.

    With the log factor off, I(t u) = t^p ||u||^p / p - t^p* J0(u) / p*
    peaks at (1/p - 1/p*) (||u||^p* / J0(u))^(p/(p*-p)); ``gap0`` is the
    level minus that peak, from the same nodes.  The sharp inequality puts
    it below 0 for every bubble.

    The reported quantity is the maximum of the energy along the bubble
    path, not the infimum over all paths: an upper bound on the
    mountain-pass level.
    """
    p, p_star = ps.p, ps.p_star
    threshold = (1.0 / p - 1.0 / p_star) * ps.S_power
    bubble = bliss.bubble_nodes(spec, ps)
    t_star = solve_t_eps(ray_terms(bubble.nodes, bubble.u, lp, ps), bubble.norm_p, ps)
    max_energy = energy_I(bubble.nodes, t_star * bubble.u, t_star**p * bubble.norm_p, lp, ps,
                          f"energy quadrature at eps={spec.epsilon:g}")
    max0 = (1.0 / p - 1.0 / p_star) * (bubble.norm_p ** (p_star / p)
                                       / bubble.j0) ** (p / (p_star - p))
    return MountainPassResult(
        max_energy=max_energy,
        t_at_max=t_star,
        threshold=threshold,
        gap=threshold - max_energy,
        gap0=threshold - max0,
    )


# --- shared helpers ----------------------------------------------------------


def sine_profile(grid: Grid, coefficients) -> Profile:
    """sum_k c_k / k sin(k pi (1 - r)) over the coefficients c_1, c_2, ...,
    vanishing at r = 1."""
    vals, mode = np.zeros(grid.m), np.empty(grid.m)
    for k, c in enumerate(coefficients, 1):
        vals += np.multiply(grid.sine_mode(k), c / k, out=mode)
    vals[-1] = 0.0
    return Profile(grid, vals)

