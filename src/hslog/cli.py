"""Command-line front end: flat key=value configs in, CSV tables out.

Subcommands: constants, verify, maximize, sweep-beta, rates, mp-gap,
shoot, orlicz, ncs.  Every run is deterministic (fixed seeds, fixed
iteration order, fixed-order single-threaded quadrature sums,
12-significant-digit formatting), so re-running a command with the same
config produces byte-identical files, whatever the BLAS thread count or the
number of cores.  A subcommand loads only the modules it runs: each one
imports ``analysis``, ``bliss``, ``orlicz`` or ``shooting`` in its body, so
``shoot`` never loads the maximizer and ``constants`` never loads the IVP
solver.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from hslog.functionals import LogParams
from hslog.params import NumericalError, ValidationError, check_identities, validate_params
from hslog.radial import make_grid, pointwise_bound_check, profile_to_csv

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2

# The thresholds of ``verify``'s verdicts, each compared in one verdict
# function below; the acceptance gate calls those functions and pins these.
EXTREMAL_TOLERANCE = 1e-6      # relative disagreement of the two S_power integrals
DIRICHLET_RATE_WINDOW = 0.10   # relative window about s p
LPSTAR_RATE_WINDOW = 0.15      # relative window about s p*
SWEEP_SLACK = 1e-9             # rise allowed from one beta's gap to the next
FINAL_GAP_BOUND = 0.01         # bound on the last beta's gap
# (a, b, tau) of the Young functions t^a |ln(tau + t)|^b checked convex
CONVEXITY_SPECS = ((6, 1, 1.0), (7.5, 0.5, 2.0))


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


@dataclass
class RunConfig:
    p: float = 2.0
    alpha0: float = 2.0
    alpha1: float = 2.0
    theta: float = 2.0
    tau: float = 1.0
    beta: float = 0.5
    grid_m: int = 2000
    grid_gamma: float = 3.0
    epsilon_list: tuple = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5)
    beta_list: tuple = (1.0, 2.0, 4.0, 8.0, 16.0)
    mp_epsilon_list: tuple = (1e-3, 1e-4, 1e-5)
    shoot_bracket: tuple = ()
    output_dir: str = "out"
    seed: int = 2024
    n_random_profiles: int = 100

    def param_set(self):
        return validate_params(self.p, self.alpha0, self.alpha1, self.theta)

    def log_params(self):
        return LogParams(tau=self.tau, beta=self.beta)

    def grid(self):
        return make_grid(self.grid_m, self.grid_gamma)


# each key parses as the type of its default; tuples are comma-separated floats
_KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


def parse_config(path: str) -> RunConfig:
    """Flat key=value file; '#' comments; unknown keys are hard errors."""
    cfg = RunConfig()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            parsed = (tuple(float(v) for v in value.split(",") if v.strip()) if kind is tuple
                      else kind(value))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        if kind in (float, tuple) and not np.all(np.isfinite(parsed)):
            raise ValidationError(f"{path}:{lineno}: {key!r} must be finite, got {value!r}")
        setattr(cfg, key, parsed)
    if not cfg.epsilon_list or not cfg.beta_list or not cfg.mp_epsilon_list:
        raise ValidationError("epsilon_list, beta_list and mp_epsilon_list must be nonempty")
    for key in ("epsilon_list", "mp_epsilon_list", "beta_list"):
        if min(getattr(cfg, key)) <= 0:
            raise ValidationError(f"{key} entries must be > 0, got {getattr(cfg, key)}")
    if len(set(cfg.epsilon_list)) < len(cfg.epsilon_list):
        raise ValidationError(f"epsilon_list entries must be distinct, got {cfg.epsilon_list}")
    if len(cfg.shoot_bracket) not in (0, 2):
        raise ValidationError(f"shoot_bracket needs two amplitudes, got "
                              f"{len(cfg.shoot_bracket)}: {cfg.shoot_bracket}")
    for key in ("seed", "n_random_profiles"):
        if getattr(cfg, key) < 0:
            raise ValidationError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    return cfg


def write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(x) if not isinstance(x, str) else x for x in row))
    path.write_text("\n".join(lines) + "\n")


# --- verdicts: (name, passed, detail) tuples of computed results ------------


def bliss_verdicts(ps) -> list:
    from hslog import bliss

    ident, ints = check_identities(ps), bliss.extremal_integrals(ps)
    return [("parameter-identities", ident.passed, f"max residual {fmt(ident.max_residual)}"),
            ("extremal-integral-identity", ints.rel_disagreement < EXTREMAL_TOLERANCE,
             f"rel disagreement {fmt(ints.rel_disagreement)}")]


def rate_verdicts(ps, epsilon_list) -> list:
    from hslog import bliss

    table_d, table_l = bliss.bubble_norm_scan(epsilon_list, ps)
    return [(name, abs(table.fitted_exponent - target) <= window * target,
             f"fitted {fmt(table.fitted_exponent)} target {fmt(target)}")
            for name, table, target, window in (
                ("dirichlet-deviation-rate", table_d, ps.s * ps.p, DIRICHLET_RATE_WINDOW),
                ("lpstar-deviation-rate", table_l, ps.s * ps.p_star, LPSTAR_RATE_WINDOW))]


def sweep_verdicts(gaps) -> list:
    """Of the gaps |F_hat - sigma_p| of a beta sweep, in beta order."""
    mono = all(later <= earlier + SWEEP_SLACK for earlier, later in zip(gaps, gaps[1:]))
    return [("beta-sweep-monotone", mono, "gaps " + " ".join(fmt(v) for v in gaps)),
            ("beta-sweep-final-gap", gaps[-1] < FINAL_GAP_BOUND, f"final {fmt(gaps[-1])}")]


def mp_verdicts(gaps) -> list:
    """Of the level gaps along the bubble path, one per eps."""
    return [("mp-gap-positive", all(gap > 0 for gap in gaps),
             "gaps " + " ".join(fmt(g) for g in gaps))]


def convexity_verdicts() -> list:
    from hslog import orlicz

    reports = [(a, b, orlicz.convexity_check(orlicz.GammaSpec(a, b, tau)))
               for a, b, tau in CONVEXITY_SPECS]
    return [(f"gamma-convexity-a{fmt(a)}-b{fmt(b)}", rep.convex, f"min phi {fmt(rep.min_phi)}")
            for a, b, rep in reports]


def all_passed(verdicts) -> bool:
    return all(passed for _, passed, _ in verdicts)


# --- subcommands -------------------------------------------------------------


def cmd_constants(cfg: RunConfig, out: Path) -> int:
    from hslog import bliss

    ps = cfg.param_set()
    ident = check_identities(ps)
    ints = bliss.extremal_integrals(ps)
    rows = [
        ("p_star", ps.p_star), ("s", ps.s), ("n", ps.n), ("m", ps.m),
        ("c_hat", ps.c_hat), ("kappa", ps.kappa), ("beta_max", ps.beta_max),
        ("identity_residual", ident.max_residual),
        ("S", ps.S), ("S_power", ps.S_power), ("sigma_p", ps.sigma_p),
        ("pstar_integral", ints.pstar_integral), ("grad_integral", ints.grad_integral),
    ]
    write_csv(out / "constants.csv", "name,value", rows)
    for name, value in rows:
        print(f"{name} = {fmt(value)}")
    return EXIT_OK


def cmd_maximize(cfg: RunConfig, out: Path) -> int:
    from hslog import analysis

    ps = cfg.param_set()
    grid = cfg.grid()
    res = analysis.maximize_F(ps, cfg.log_params(), grid, eps_seeds=cfg.epsilon_list)
    rows = [
        ("value", res.value), ("sigma_p", ps.sigma_p),
        ("gap_to_sigma", res.value - ps.sigma_p),
        ("iterations", res.iterations), ("converged", res.converged),
        ("seed_epsilon", res.seed_epsilon),
        ("nonnegative_restriction", "true"),
    ]
    write_csv(out / "maximize.csv", "name,value", rows)
    (out / "maximizer_profile.csv").write_text(profile_to_csv(res.profile))
    print(f"F_hat lower bound = {fmt(res.value)} (iterations {res.iterations}, "
          f"converged {fmt(res.converged)})")
    return EXIT_OK if res.converged else EXIT_NUMERICAL


def _beta_sweep_rows(cfg: RunConfig, out: Path) -> list:
    """(beta, F_hat, gap_to_sigma) per beta, written to beta_sweep.csv."""
    from hslog import analysis

    rows = analysis.beta_sweep(cfg.param_set(), cfg.tau, cfg.beta_list, cfg.grid(),
                               eps_seeds=cfg.epsilon_list)
    write_csv(out / "beta_sweep.csv", "beta,F_hat,gap_to_sigma", rows)
    return rows


def cmd_sweep_beta(cfg: RunConfig, out: Path) -> int:
    rows = _beta_sweep_rows(cfg, out)
    for beta, f_hat, gap in rows:
        print(f"beta={fmt(beta)}  F_hat={fmt(f_hat)}  gap={fmt(gap)}")
    return EXIT_OK


def cmd_rates(cfg: RunConfig, out: Path) -> int:
    from hslog import bliss

    ps = cfg.param_set()
    lp = cfg.log_params()
    table_d, table_l = bliss.bubble_norm_scan(cfg.epsilon_list, ps)
    e_rows = [(float(eps), bliss.concentration_E(bliss.bubble_nodes(
        bliss.BubbleSpec(eps, ps.a_hat), ps), lp, ps)) for eps in cfg.epsilon_list]
    table_e = bliss.rate_fit(e_rows, model="power-times-loglog")
    # all three tables are formed before any is written, so a failed
    # quadrature leaves no rates file behind
    for name, table in (("dirichlet", table_d), ("lpstar", table_l),
                        ("concentration", table_e)):
        write_csv(out / f"rates_{name}.csv", "epsilon,value,model,fitted_exponent,residual",
                  [(e, v, table.model, table.fitted_exponent, table.fit_residual)
                   for e, v in zip(table.abscissae, table.ordinates)])
    print(f"dirichlet deviation exponent: {fmt(table_d.fitted_exponent)} "
          f"(s*p = {fmt(ps.s * ps.p)})")
    print(f"lpstar deviation exponent: {fmt(table_l.fitted_exponent)} "
          f"(s*p* = {fmt(ps.s * ps.p_star)})")
    print(f"concentration exponent: {fmt(table_e.fitted_exponent)} (beta = {fmt(cfg.beta)})")
    return EXIT_OK


def _mp_gap_rows(cfg: RunConfig, out: Path) -> list:
    """(epsilon, max_I, threshold, gap) per eps, written to mp_gap.csv.

    The bubbles are taken off the mesh, so the rows do not depend on
    ``grid_m`` or ``grid_gamma``.
    """
    from hslog import analysis, bliss

    ps = cfg.param_set()
    lp = cfg.log_params()
    if not 0 < cfg.beta < ps.beta_max:
        print(f"warning: beta={fmt(cfg.beta)} outside the level-gap regime "
              f"(0, {fmt(ps.beta_max)}); attempting anyway")
    # the level bound is a small-scale statement; fat bubbles sit above it
    rows = []
    for eps in cfg.mp_epsilon_list:
        mp = analysis.mountain_pass_gap(bliss.BubbleSpec(eps), lp, ps)
        rows.append((float(eps), mp.max_energy, mp.threshold, mp.gap))
    write_csv(out / "mp_gap.csv", "epsilon,max_I,threshold,gap", rows)
    return rows


def cmd_mp_gap(cfg: RunConfig, out: Path) -> int:
    rows = _mp_gap_rows(cfg, out)
    for eps, max_i, _, gap in rows:
        status = "PASS" if all_passed(mp_verdicts([gap])) else "FAIL"
        print(f"{status} eps={fmt(eps)}  max_I={fmt(max_i)}  gap={fmt(gap)}")
    return EXIT_OK if all_passed(mp_verdicts([gap for *_, gap in rows])) else EXIT_NUMERICAL


def cmd_shoot(cfg: RunConfig, out: Path) -> int:
    from hslog import shooting

    ps = cfg.param_set()
    if cfg.tau < 1.0:
        raise ValidationError(f"tau must be >= 1 for the BVP, got {cfg.tau}")
    if not 0 < cfg.beta < ps.beta_max:
        print(f"warning: beta={fmt(cfg.beta)} outside existence regime "
              f"(0, {fmt(ps.beta_max)}); attempting anyway")
    grid = cfg.grid()
    res = shooting.shoot(cfg.log_params(), ps, cfg.shoot_bracket, grid)
    bound = pointwise_bound_check(res.profile, ps)
    out.mkdir(parents=True, exist_ok=True)
    (out / "solution.csv").write_text(profile_to_csv(res.profile))
    meta = [
        ("amplitude", fmt(res.amplitude)),
        ("boundary_residual", fmt(res.boundary_residual)),
        ("weak_residual", fmt(res.weak_residual)),
        ("bisection_iterations", fmt(res.bisection_iterations)),
        ("ivp_evaluations", fmt(res.ivp_evaluations)),
        ("positive_inside", fmt(res.positive_inside)),
        ("pointwise_bound_slack", fmt(bound.worst_slack)),
        ("origin_condition", shooting.ORIGIN_CONDITION),
    ]
    (out / "shoot_meta.txt").write_text("".join(f"{k} = {v}\n" for k, v in meta))
    for k, v in meta:
        print(f"{k} = {v}")
    return EXIT_OK


def cmd_orlicz(cfg: RunConfig, out: Path) -> int:
    from hslog import analysis, bliss, orlicz

    ps = cfg.param_set()
    grid = cfg.grid()
    lp = cfg.log_params()
    res = analysis.maximize_F(ps, lp, grid, eps_seeds=cfg.epsilon_list)
    # five gauss(0, 1) sine-mode coefficients per random profile, in mode
    # order, from the standard library's Mersenne Twister (numpy.random would
    # load 6 MiB for them); drawn one profile at a time as the check reads
    # them, so one profile is alive
    rng = random.Random(cfg.seed)
    profiles = itertools.chain(
        (analysis.sine_profile(grid, [rng.gauss(0.0, 1.0) for _ in range(5)])
         for _ in range(cfg.n_random_profiles)),
        (bliss.bubble_profile(bliss.BubbleSpec(eps, ps.a_hat), grid, ps)
         for eps in cfg.epsilon_list))
    report = orlicz.embedding_check(profiles, lp, ps, res.value)
    write_csv(out / "orlicz.csv", "profile_id,luxemburg,dirichlet,ratio,pass",
              [(r.profile_id, r.luxemburg, r.dirichlet, r.ratio, r.passed)
               for r in report.rows])
    print(f"embedding check: {'PASS' if report.all_passed else 'FAIL'} "
          f"({len(report.rows)} profiles, lambda0 = {fmt(report.lambda0)})")
    return EXIT_OK if report.all_passed else EXIT_NUMERICAL


def cmd_ncs(cfg: RunConfig, out: Path) -> int:
    from hslog import analysis, bliss

    ps = cfg.param_set()
    eps_family = sorted(cfg.epsilon_list, reverse=True)
    family = [bliss.bubble_nodes(bliss.BubbleSpec(e, ps.a_hat), ps) for e in eps_family]
    ncs = analysis.ncs_check(family, ps)
    # the level bound is read on the eps <= 1e-3 tail of the family
    tail_start = next((i for i, e in enumerate(eps_family) if e <= 1e-3), len(eps_family) - 1)
    level = analysis.concentration_level_check(family, cfg.log_params(), ps, tail_start, ncs)
    rows = [(e, j, ps.sigma_p, level.bound, j <= level.bound)
            for e, j in zip(eps_family, level.j_values)]
    write_csv(out / "ncs.csv", "epsilon,J,sigma_p,bound,pass", rows)
    print(f"NCS: {'yes' if ncs.is_ncs else 'no'}; level check "
          f"{'SKIPPED' if level.skipped else ('PASS' if level.passed else 'FAIL')} "
          f"(tail max {fmt(level.tail_max)} vs bound {fmt(level.bound)})")
    # the level check is skipped, and fails, unless the family concentrates
    return EXIT_OK if level.passed else EXIT_NUMERICAL


# each suite's verdicts from a config, in the order ``verify --suite all`` runs them
VERIFY_SUITES = {
    "bliss": lambda cfg, out: bliss_verdicts(cfg.param_set()),
    "rates": lambda cfg, out: rate_verdicts(cfg.param_set(), cfg.epsilon_list),
    "sweep": lambda cfg, out: sweep_verdicts([gap for *_, gap in _beta_sweep_rows(cfg, out)]),
    "mp": lambda cfg, out: mp_verdicts([gap for *_, gap in _mp_gap_rows(cfg, out)]),
    # the flags of the level and embedding reports, as the commands' exit codes
    "ncs": lambda cfg, out: [("ncs-concentration-level", cmd_ncs(cfg, out) == EXIT_OK,
                              "see ncs.csv")],
    "orlicz": lambda cfg, out: [*convexity_verdicts(), (
        "luxemburg-embedding", cmd_orlicz(cfg, out) == EXIT_OK, "see orlicz.csv")],
}
SUITES = (*VERIFY_SUITES, "all")


def cmd_verify(cfg: RunConfig, out: Path, suite: str) -> int:
    verdicts = []
    for name in VERIFY_SUITES if suite == "all" else (suite,):
        try:
            verdicts += VERIFY_SUITES[name](cfg, out)
        except NumericalError as exc:
            print(f"numerical failure in suite {name}: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
    write_csv(out / f"verify_{suite}.csv", "check,passed,detail", verdicts)
    for name, ok, detail in verdicts:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all_passed(verdicts) else EXIT_NUMERICAL


COMMANDS = {
    "constants": cmd_constants,
    "maximize": cmd_maximize,
    "sweep-beta": cmd_sweep_beta,
    "rates": cmd_rates,
    "mp-gap": cmd_mp_gap,
    "shoot": cmd_shoot,
    "orlicz": cmd_orlicz,
    "ncs": cmd_ncs,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: a parse leaves no state
    in it, so in-process callers of ``main`` reuse one."""
    parser = argparse.ArgumentParser(
        prog="hslog",
        description="Weighted radial Sobolev functionals with a supercritical "
                    "log perturbation: constants, rates, maximization, BVP.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "verify"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="key=value config file")
        cmd.add_argument("--out", default=None, help="output directory")
        if name == "verify":
            cmd.add_argument("--suite", choices=SUITES, default="all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        out = Path(args.out) if args.out else Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.suite)
        return COMMANDS[args.command](cfg, out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
