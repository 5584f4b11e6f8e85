"""Command-line front end: flat key=value configs in, CSV tables out.

Subcommands: constants, verify, maximize, sweep-beta, rates, mp-gap,
shoot, orlicz, ncs.  Every run is deterministic (fixed seeds, fixed
iteration order, fixed-order single-threaded quadrature sums,
12-significant-digit formatting), so re-running a command with the same
config produces byte-identical files, whatever the BLAS thread count or the
number of cores.

Exit codes: 0 success, 1 validation problem, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from hslog import analysis, bliss, orlicz, shooting
from hslog.functionals import LogParams
from hslog.params import (
    NumericalError,
    ValidationError,
    check_identities,
    critical_exponent,
    derived_constants,
    validate_params,
)
from hslog.radial import make_grid, normalize, pointwise_bound_check, profile_to_csv

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 1, 2

SUITES = ("bliss", "rates", "sweep", "mp", "ncs", "orlicz", "all")


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
            if kind is tuple:
                setattr(cfg, key, tuple(float(v) for v in value.split(",") if v.strip()))
            else:
                setattr(cfg, key, kind(value))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if not cfg.epsilon_list or not cfg.beta_list:
        raise ValidationError("epsilon_list and beta_list must be nonempty")
    return cfg


def write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(x) if not isinstance(x, str) else x for x in row))
    path.write_text("\n".join(lines) + "\n")


# --- subcommands -------------------------------------------------------------


def cmd_constants(cfg: RunConfig, out: Path) -> int:
    ps = cfg.param_set()
    dc = derived_constants(ps)
    ident = check_identities(dc)
    rep = bliss.compute_S(dc)
    rows = [
        ("p_star", dc.p_star), ("s", dc.s), ("n", dc.n), ("m", dc.m),
        ("c_hat", dc.c_hat), ("kappa", dc.kappa), ("beta_max", dc.beta_max),
        ("identity_residual", ident.max_residual),
        ("S", rep.S), ("S_power", rep.S_power), ("sigma_p", rep.sigma_p),
        ("pstar_integral", rep.pstar_integral), ("grad_integral", rep.grad_integral),
    ]
    write_csv(out / "constants.csv", "name,value", rows)
    for name, value in rows:
        print(f"{name} = {fmt(value)}")
    return EXIT_OK


def cmd_maximize(cfg: RunConfig, out: Path) -> int:
    ps = cfg.param_set()
    grid = cfg.grid()
    rep = bliss.compute_S(derived_constants(ps))
    res = analysis.maximize_F(ps, cfg.log_params(), grid, eps_seeds=cfg.epsilon_list)
    rows = [
        ("value", res.value), ("sigma_p", rep.sigma_p),
        ("gap_to_sigma", res.value - rep.sigma_p),
        ("iterations", res.iterations), ("converged", res.converged),
        ("seed_epsilon", res.seed_epsilon),
        ("nonnegative_restriction", "true"),
    ]
    write_csv(out / "maximize.csv", "name,value", rows)
    (out / "maximizer_profile.csv").write_text(profile_to_csv(res.profile))
    print(f"F_hat lower bound = {fmt(res.value)} (iterations {res.iterations}, "
          f"converged {fmt(res.converged)})")
    if not res.converged:
        return EXIT_NUMERICAL
    return EXIT_OK


def _beta_sweep_rows(cfg: RunConfig, out: Path) -> list:
    """(beta, F_hat, gap_to_sigma) per beta, written to beta_sweep.csv."""
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
    ps = cfg.param_set()
    dc = derived_constants(ps)
    grid = cfg.grid()
    table_d, table_l = bliss.bubble_norm_scan(cfg.epsilon_list, dc)
    for name, table in (("dirichlet", table_d), ("lpstar", table_l)):
        write_csv(out / f"rates_{name}.csv", "epsilon,value,model,fitted_exponent,residual",
                  [(e, v, table.model, table.fitted_exponent, table.fit_residual)
                   for e, v in zip(table.abscissae, table.ordinates)])
    a_hat = bliss.compute_S(dc).a_hat

    e_rows = []
    for eps in cfg.epsilon_list:
        u = bliss.bubble_profile(bliss.BubbleSpec(eps, a_hat), grid, dc)
        e_rows.append((float(eps), bliss.concentration_E(0.0, 1.0, u, cfg.log_params(), ps)))
    table_e = analysis.rate_fit(e_rows, model="power-times-loglog")
    write_csv(out / "rates_concentration.csv", "epsilon,value,model,fitted_exponent,residual",
              [(e, v, table_e.model, table_e.fitted_exponent, table_e.fit_residual)
               for e, v in zip(table_e.abscissae, table_e.ordinates)])
    print(f"dirichlet deviation exponent: {fmt(table_d.fitted_exponent)} "
          f"(s*p = {fmt(dc.s * ps.p)})")
    print(f"lpstar deviation exponent: {fmt(table_l.fitted_exponent)} "
          f"(s*p* = {fmt(dc.s * critical_exponent(ps))})")
    print(f"concentration exponent: {fmt(table_e.fitted_exponent)} (beta = {fmt(cfg.beta)})")
    return EXIT_OK


def _mp_gap_rows(cfg: RunConfig, out: Path) -> list:
    """(epsilon, max_I, threshold, gap) per eps on one grid, written to mp_gap.csv."""
    ps = cfg.param_set()
    grid = cfg.grid()
    dc = derived_constants(ps)
    lp = cfg.log_params()
    if not 0 < cfg.beta < dc.beta_max:
        print(f"warning: beta={fmt(cfg.beta)} outside the level-gap regime "
              f"(0, {fmt(dc.beta_max)}); attempting anyway")
    # the level bound is a small-scale statement; fat bubbles sit above it
    rows = []
    for eps in cfg.mp_epsilon_list:
        mp = analysis.mountain_pass_gap(bliss.BubbleSpec(eps), lp, ps, grid)
        rows.append((float(eps), mp.max_energy, mp.threshold, mp.gap))
    write_csv(out / "mp_gap.csv", "epsilon,max_I,threshold,gap", rows)
    return rows


def cmd_mp_gap(cfg: RunConfig, out: Path) -> int:
    rows = _mp_gap_rows(cfg, out)
    ok = True
    for eps, max_i, threshold, gap in rows:
        status = "PASS" if gap > 0 else "FAIL"
        ok = ok and gap > 0
        print(f"{status} eps={fmt(eps)}  max_I={fmt(max_i)}  gap={fmt(gap)}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _auto_bracket(lp, ps):
    """Scan amplitude decades for a sign change of u(1; a)."""
    amps = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0)
    prev_a, prev_v = None, None
    for a in amps:
        try:
            v = shooting.boundary_value(a, lp, ps)
        except NumericalError:
            break
        if prev_v is not None and prev_v * v < 0:
            return (prev_a, a)
        prev_a, prev_v = a, v
    raise NumericalError("no sign change of u(1; a) in the scanned amplitude range")


def cmd_shoot(cfg: RunConfig, out: Path) -> int:
    ps = cfg.param_set()
    if cfg.tau < 1.0:
        raise ValidationError(f"tau must be >= 1 for the BVP, got {cfg.tau}")
    dc = derived_constants(ps)
    if not 0 < cfg.beta < dc.beta_max:
        print(f"warning: beta={fmt(cfg.beta)} outside existence regime "
              f"(0, {fmt(dc.beta_max)}); attempting anyway")
    grid = cfg.grid()
    lp = cfg.log_params()
    bracket = cfg.shoot_bracket or _auto_bracket(lp, ps)
    res = shooting.shoot(lp, ps, bracket, grid)
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
        ("origin_condition", "zero-flux at r_min (our choice; only u(1)=0 is imposed)"),
    ]
    (out / "shoot_meta.txt").write_text("".join(f"{k} = {v}\n" for k, v in meta))
    for k, v in meta:
        print(f"{k} = {v}")
    return EXIT_OK


def cmd_orlicz(cfg: RunConfig, out: Path) -> int:
    ps = cfg.param_set()
    grid = cfg.grid()
    lp = cfg.log_params()
    dc = derived_constants(ps)
    res = analysis.maximize_F(ps, lp, grid, eps_seeds=cfg.epsilon_list)
    rng = np.random.default_rng(cfg.seed)
    profiles = [analysis.random_smooth_profile(grid, rng)
                for _ in range(cfg.n_random_profiles)]
    a_hat = bliss.compute_S(dc).a_hat
    profiles += [bliss.bubble_profile(bliss.BubbleSpec(eps, a_hat), grid, dc)
                 for eps in cfg.epsilon_list]
    report = orlicz.embedding_check(profiles, lp, ps, res.value)
    write_csv(out / "orlicz.csv", "profile_id,luxemburg,dirichlet,ratio,pass",
              [(r.profile_id, r.luxemburg, r.dirichlet, r.ratio, r.passed)
               for r in report.rows])
    print(f"embedding check: {'PASS' if report.all_passed else 'FAIL'} "
          f"({len(report.rows)} profiles, lambda0 = {fmt(report.lambda0)})")
    return EXIT_OK if report.all_passed else EXIT_NUMERICAL


def cmd_ncs(cfg: RunConfig, out: Path) -> int:
    ps = cfg.param_set()
    grid = cfg.grid()
    dc = derived_constants(ps)
    rep = bliss.compute_S(dc)
    eps_family = sorted(cfg.epsilon_list, reverse=True)
    family = [normalize(bliss.bubble_profile(bliss.BubbleSpec(e, rep.a_hat), grid, dc), ps)
              for e in eps_family]
    ncs = analysis.ncs_check(family, ps)
    # the level bound is read on the eps <= 1e-3 tail of the family
    tail_start = next((i for i, e in enumerate(eps_family) if e <= 1e-3), len(eps_family) - 1)
    level = analysis.concentration_level_check(
        family, cfg.log_params(), ps, rep.sigma_p, tail_start=tail_start, ncs_report=ncs)
    rows = [(e, j, rep.sigma_p, level.bound, j <= level.bound)
            for e, j in zip(eps_family, level.j_values)]
    write_csv(out / "ncs.csv", "epsilon,J,sigma_p,bound,pass", rows)
    print(f"NCS: {'yes' if ncs.is_ncs else 'no'}; level check "
          f"{'SKIPPED' if level.skipped else ('PASS' if level.passed else 'FAIL')} "
          f"(tail max {fmt(level.tail_max)} vs bound {fmt(level.bound)})")
    return EXIT_OK if (ncs.is_ncs and level.passed) else EXIT_NUMERICAL


def cmd_verify(cfg: RunConfig, out: Path, suite: str) -> int:
    ps = cfg.param_set()
    dc = derived_constants(ps)
    checks: list[tuple[str, bool, str]] = []

    def run_bliss():
        rep = bliss.compute_S(dc)
        ident = check_identities(dc)
        checks.append(("parameter-identities", ident.passed,
                       f"max residual {fmt(ident.max_residual)}"))
        checks.append(("extremal-integral-identity",
                       rep.rel_disagreement < 1e-6,
                       f"rel disagreement {fmt(rep.rel_disagreement)}"))

    def run_rates():
        table_d, table_l = bliss.bubble_norm_scan(cfg.epsilon_list, dc)
        sp = dc.s * ps.p
        spstar = dc.s * critical_exponent(ps)
        checks.append(("dirichlet-deviation-rate",
                       abs(table_d.fitted_exponent - sp) <= 0.10 * sp,
                       f"fitted {fmt(table_d.fitted_exponent)} target {fmt(sp)}"))
        checks.append(("lpstar-deviation-rate",
                       abs(table_l.fitted_exponent - spstar) <= 0.15 * spstar,
                       f"fitted {fmt(table_l.fitted_exponent)} target {fmt(spstar)}"))

    def run_sweep():
        gaps = [gap for _, _, gap in _beta_sweep_rows(cfg, out)]
        mono = all(gaps[i + 1] <= gaps[i] + 1e-9 for i in range(len(gaps) - 1))
        checks.append(("beta-sweep-monotone", mono,
                       "gaps " + " ".join(fmt(v) for v in gaps)))
        checks.append(("beta-sweep-final-gap", gaps[-1] < 0.01, f"final {fmt(gaps[-1])}"))

    def run_mp():
        rows = _mp_gap_rows(cfg, out)
        checks.append(("mp-gap-positive", all(r[3] > 0 for r in rows),
                       "gaps " + " ".join(fmt(r[3]) for r in rows)))

    def run_ncs():
        code = cmd_ncs(cfg, out)
        checks.append(("ncs-concentration-level", code == EXIT_OK, "see ncs.csv"))

    def run_orlicz():
        for spec in (orlicz.GammaSpec(6, 1, 1.0), orlicz.GammaSpec(7.5, 0.5, 2.0)):
            rrep = orlicz.convexity_check(spec)
            checks.append((f"gamma-convexity-a{fmt(spec.a)}-b{fmt(spec.b)}", rrep.convex,
                           f"min phi {fmt(rrep.min_phi)}"))
        code = cmd_orlicz(cfg, out)
        checks.append(("luxemburg-embedding", code == EXIT_OK, "see orlicz.csv"))

    runners = {"bliss": run_bliss, "rates": run_rates, "sweep": run_sweep,
               "mp": run_mp, "ncs": run_ncs, "orlicz": run_orlicz}
    names = list(runners) if suite == "all" else [suite]
    try:
        for name in names:
            runners[name]()
    except NumericalError as exc:
        print(f"numerical failure in suite {suite}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_csv(out / f"verify_{suite}.csv", "check,passed,detail",
              [(name, ok, detail) for name, ok, detail in checks])
    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else EXIT_NUMERICAL


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


def build_parser() -> argparse.ArgumentParser:
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
