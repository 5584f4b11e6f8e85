"""End-to-end tests of the command-line interface."""

import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hslog
from hslog import bliss, orlicz, shooting
from hslog.cli import RunConfig, build_parser, cmd_orlicz, cmd_sweep_beta, main, parse_config
from hslog.params import NumericalError, ValidationError

BASE_CFG = """\
p = 2
alpha0 = 2
alpha1 = 2
theta = 2
tau = 1.0
beta = 0.5
grid_m = 1200
grid_gamma = 3.0
epsilon_list = 1e-2,1e-3,1e-4,1e-5
beta_list = 1,4,16
mp_epsilon_list = 1e-3,1e-4
shoot_bracket = 20,50
n_random_profiles = 10
"""

# the README's p1.cfg: the tuple (3, 2, 4, 4) and every other key at its default
P1_CFG = "p = 3\nalpha0 = 2\nalpha1 = 4\ntheta = 4\n"


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG + f"output_dir = {tmp_path / 'out'}\n")
    return path


class TestConfig:
    def test_round_trip(self, cfg_file):
        cfg = parse_config(str(cfg_file))
        assert cfg.p == 2.0
        assert cfg.epsilon_list == (1e-2, 1e-3, 1e-4, 1e-5)
        assert cfg.shoot_bracket == (20.0, 50.0)

    def test_every_default_round_trips(self, tmp_path):
        lines = []
        for f in fields(RunConfig):
            value = getattr(RunConfig(), f.name)
            text = ",".join(repr(v) for v in value) if isinstance(value, tuple) else str(value)
            lines.append(f"{f.name} = {text}\n")
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(lines))
        assert parse_config(str(path)) == RunConfig()

    def test_unknown_key_is_fatal(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("p = 2\ntolerence = 1e-8\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            parse_config(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\np = 3  # trailing\nalpha1 = 4\nalpha0 = 2\ntheta = 4\n")
        cfg = parse_config(str(path))
        assert cfg.p == 3.0

    def test_readme_configs_parse(self, tmp_path):
        # the config block of README.md and its four-line p1.cfg
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = next(b for b in readme.split("```")[1::2] if "grid_gamma" in b)
        run_cfg, p1_cfg = tmp_path / "run.cfg", tmp_path / "p1.cfg"
        run_cfg.write_text(block)
        p1_cfg.write_text(P1_CFG)
        assert parse_config(str(run_cfg)) == replace(RunConfig(), shoot_bracket=(20.0, 50.0))
        p1 = parse_config(str(p1_cfg))
        assert p1 == replace(RunConfig(), p=3.0, alpha1=4.0, theta=4.0)
        p1.param_set()

    def test_r0_is_not_a_key(self, tmp_path, capsys):
        path = tmp_path / "r0.cfg"
        path.write_text("p = 2\nr0 = 0.2\n")
        assert main(["constants", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key 'r0'" in capsys.readouterr().err

    def test_unparseable_value_is_fatal(self, tmp_path):
        path = tmp_path / "v.cfg"
        path.write_text("p = not-a-number\n")
        with pytest.raises(ValidationError, match="bad value"):
            parse_config(str(path))

    @pytest.mark.parametrize("line, match", [
        ("shoot_bracket = 20", "shoot_bracket needs two amplitudes, got 1"),
        ("shoot_bracket = 20,50,80", "shoot_bracket needs two amplitudes, got 3"),
        ("seed = -1", "seed must be >= 0"),
        ("n_random_profiles = -5", "n_random_profiles must be >= 0, got -5"),
        ("mp_epsilon_list =", "mp_epsilon_list must be nonempty"),
        ("grid_gamma = inf", "'grid_gamma' must be finite, got 'inf'"),
        ("tau = inf", "'tau' must be finite"),
        ("shoot_bracket = 20,inf", "'shoot_bracket' must be finite, got '20,inf'"),
        ("mp_epsilon_list = 1e-3,inf", "'mp_epsilon_list' must be finite"),
        ("epsilon_list = 1e-2,nan,1e-4,1e-5", "'epsilon_list' must be finite"),
        ("epsilon_list = 1e-2,1e-2,1e-3,1e-4", "epsilon_list entries must be distinct"),
        ("epsilon_list = 1e-2,-1e-3,1e-4,1e-5", r"^epsilon_list entries must be > 0"),
        ("mp_epsilon_list = -1e-3", r"mp_epsilon_list entries must be > 0, got \(-0.001,\)"),
        ("beta_list = 1,0,16", r"beta_list entries must be > 0, got \(1.0, 0.0, 16.0\)"),
    ], ids=["bracket-1", "bracket-3", "negative-seed", "negative-profiles", "empty-mp-list",
            "inf-grid-gamma", "inf-tau", "inf-in-bracket", "inf-in-mp-list", "nan-in-eps-list",
            "repeated-eps", "negative-eps", "negative-mp-eps", "zero-beta"])
    def test_malformed_value_is_fatal(self, line, match, tmp_path, capsys):
        # past the parser, each would end in a traceback, in a run to the
        # shot's work cap, in a NaN quadrature or deviation (exit 2) or, for
        # the empty mp list, an infinite grid_gamma and a negative profile
        # count, in a vacuous PASS, a NaN pointwise bound slack or an
        # embedding check on the bubbles alone (exit 0).  A repeated eps
        # would give ncs a NaN tail maximum and a SKIPPED level check, a
        # negative mp eps would fail verify after beta_sweep.csv is written,
        # and a negative eps or a zero beta would fail only in the commands
        # that read it
        path = tmp_path / "m.cfg"
        path.write_text(BASE_CFG + line + "\n")
        with pytest.raises(ValidationError, match=match):
            parse_config(str(path))
        out = tmp_path / "o"
        for cmd in (["shoot"], ["orlicz"], ["mp-gap"], ["verify", "--suite", "all"]):
            assert main([*cmd, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count("validation error: ") == 4


class TestConstants:
    def test_values_and_exit_code(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["constants", "--config", str(cfg_file), "--out", str(out)]) == 0
        rows = dict(line.split(",") for line in
                    (out / "constants.csv").read_text().strip().splitlines()[1:])
        assert float(rows["p_star"]) == pytest.approx(6.0)
        assert float(rows["sigma_p"]) == pytest.approx(256 / (27 * np.pi**2), rel=1e-9)

    def test_invalid_params_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("p = 2\nalpha0 = 0\nalpha1 = 0.5\ntheta = 2\n")
        assert main(["constants", "--config", str(path)]) == 1
        assert "alpha1-p+1" in capsys.readouterr().err

    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["constants", "--config", str(cfg_file), "--out", str(out1)])
        main(["constants", "--config", str(cfg_file), "--out", str(out2)])
        assert (out1 / "constants.csv").read_bytes() == (out2 / "constants.csv").read_bytes()


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_a_parse_leaves_no_state(self):
        parser = build_parser()
        assert parser.parse_args(["verify", "--config", "c", "--suite", "mp"]).suite == "mp"
        assert not hasattr(parser.parse_args(["mp-gap", "--config", "c"]), "suite")
        assert parser.parse_args(["verify", "--config", "c"]).suite == "all"


def _run_on_grids(tmp_path, command, csv, cfg_text=BASE_CFG):
    """(exit code, bytes of csv) of command at grid_m = 16 and at 16000."""
    runs = []
    for m in (16, 16000):
        path = tmp_path / f"m{m}.cfg"
        path.write_text(cfg_text.replace("grid_m = 1200", f"grid_m = {m}"))
        out = tmp_path / f"m{m}"
        code = main([command, "--config", str(path), "--out", str(out)])
        runs.append((code, (out / csv).read_bytes()))
    return runs


class TestRates:
    # what `rates` writes for E on BASE_CFG, pinned to every printed digit
    CONCENTRATION_CSV = """\
epsilon,value,model,fitted_exponent,residual
0.01,0.0784682341321,power-times-loglog,0.454601077258,0.0347879652482
0.001,0.0378158652227,power-times-loglog,0.454601077258,0.0347879652482
0.0001,0.0149494117626,power-times-loglog,0.454601077258,0.0347879652482
1e-05,0.0054690535916,power-times-loglog,0.454601077258,0.0347879652482
"""

    def test_concentration_pinned(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rates", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert (out / "rates_concentration.csv").read_text() == self.CONCENTRATION_CSV
        assert "concentration exponent: 0.454601077258 (beta = 0.5)" in capsys.readouterr().out

    def test_does_not_depend_on_the_grid(self, tmp_path):
        # E is read at the bubbles' tanh-sinh nodes, so grid_m changes no byte
        coarse, fine = _run_on_grids(tmp_path, "rates", "rates_concentration.csv")
        assert coarse == fine == (0, self.CONCENTRATION_CSV.encode())

    def test_tau_below_one_exits_2_writing_no_table(self, tmp_path, capsys):
        # E's quadrature fails after the two norm-deviation scans succeed;
        # none of the three tables is written
        path = tmp_path / "tau.cfg"
        path.write_text(BASE_CFG.replace("tau = 1.0", "tau = 0.5")
                        .replace("grid_m = 1200", "grid_m = 300"))
        out = tmp_path / "o"
        assert main(["rates", "--config", str(path), "--out", str(out)]) == 2
        assert "concentration quadrature at eps=0.01 did not converge" in capsys.readouterr().err
        assert not list(out.glob("rates_*.csv"))


class TestNcs:
    def test_does_not_depend_on_the_grid(self, tmp_path):
        coarse, fine = _run_on_grids(tmp_path, "ncs", "ncs.csv")
        assert coarse == fine
        assert coarse[0] == 2      # the README tuple's level check is red

    def test_eps_below_the_grid_resolution(self, tmp_path):
        # r_1 = (1/16)^3 = 2.4e-4 at grid_m = 16: a grid bubble refused every
        # eps below 2.4e-3, and ncs exited 1
        coarse, fine = _run_on_grids(tmp_path, "ncs", "ncs.csv", BASE_CFG.replace(
            "epsilon_list = 1e-2,1e-3,1e-4,1e-5", "epsilon_list = 1e-2,1e-4,1e-6,1e-8"))
        assert coarse == fine
        rows = [line.split(",") for line in coarse[1].decode().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [1e-2, 1e-4, 1e-6, 1e-8]

    def test_tau_below_one_exits_2(self, tmp_path, capsys):
        # |ln(tau + u)| has a cusp where tau + u = 1, inside a piece of the
        # rule: the unit-norm J's error estimate is about 5e-8 of J at eps =
        # 1e-2, far above the 1e-12 every bubble integral is held to
        path = tmp_path / "tau.cfg"
        path.write_text(BASE_CFG.replace("tau = 1.0", "tau = 0.5"))
        out = tmp_path / "o"
        assert main(["ncs", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "unit-norm J quadrature at eps=0.01 did not converge" in err
        assert not (out / "ncs.csv").exists()


class TestShoot:
    def test_solution_export(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["shoot", "--config", str(cfg_file), "--out", str(out)]) == 0
        lines = (out / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "r,u"
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert float(last[1]) == 0.0
        meta = (out / "shoot_meta.txt").read_text()
        assert "amplitude" in meta and "zero-flux" in meta

    def test_meta_keys(self, cfg_file, tmp_path):
        # the benchmark's output check counts these rows
        out = tmp_path / "out"
        main(["shoot", "--config", str(cfg_file), "--out", str(out)])
        keys = [line.split(" = ")[0] for line in
                (out / "shoot_meta.txt").read_text().splitlines()]
        assert keys == ["amplitude", "boundary_residual", "weak_residual",
                        "bisection_iterations", "ivp_evaluations", "positive_inside",
                        "pointwise_bound_slack", "origin_condition"]

    def test_shoot_past_the_old_scan_end(self, tmp_path, capsys):
        # (4, 2, 6, 3): u(1; a) changes sign only between a = 5e3 and 1e4
        path = tmp_path / "wide.cfg"
        path.write_text(BASE_CFG.replace("shoot_bracket = 20,50\n", "")
                        .replace("p = 2\nalpha0 = 2\nalpha1 = 2\ntheta = 2\n",
                                 "p = 4\nalpha0 = 2\nalpha1 = 6\ntheta = 3\n")
                        .replace("grid_m = 1200", "grid_m = 400"))
        out = tmp_path / "o"
        assert main(["shoot", "--config", str(path), "--out", str(out)]) == 0
        meta = dict(line.split(" = ", 1) for line in
                    (out / "shoot_meta.txt").read_text().splitlines())
        assert 5000.0 < float(meta["amplitude"]) < 10000.0
        assert meta["positive_inside"] == "true"

    def test_without_bracket_key_as_with_the_scanned_one(self, cfg_file, tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text(BASE_CFG.replace("shoot_bracket = 20,50\n", ""))
        assert parse_config(str(path)).shoot_bracket == ()
        auto, given = tmp_path / "auto", tmp_path / "given"
        assert main(["shoot", "--config", str(path), "--out", str(auto)]) == 0
        assert main(["shoot", "--config", str(cfg_file), "--out", str(given)]) == 0
        assert (auto / "solution.csv").read_bytes() == (given / "solution.csv").read_bytes()

    def test_empty_bracket_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nb.cfg"
        path.write_text(BASE_CFG.replace("shoot_bracket = 20,50",
                                         "shoot_bracket = 1e-8,1e-6"))
        assert main(["shoot", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("source", [
        lambda r, u, tau, beta, p_star: 1e12,  # |u| passes the blow-up bound
        lambda r, u, tau, beta, p_star: math.nan if r > 0.5 else 0.0,  # the step underflows
    ], ids=["blowup", "step-underflow"])
    def test_stalled_ivp_exit_2(self, source, cfg_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(shooting, "_source", source)
        assert main(["shoot", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: IVP integration stalled at r = ")
        assert "(amplitude 20, last good state u = " in err

    def test_tau_below_one_exit_1(self, tmp_path, capsys):
        path = tmp_path / "t.cfg"
        path.write_text(BASE_CFG.replace("tau = 1.0", "tau = 0.5"))
        assert main(["shoot", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "tau must be >= 1" in capsys.readouterr().err

    def test_beta_outside_regime_warns(self, tmp_path, capsys):
        path = tmp_path / "b.cfg"
        path.write_text(BASE_CFG.replace("beta = 0.5", "beta = 1.5"))
        main(["shoot", "--config", str(path), "--out", str(tmp_path / "o")])
        assert "outside existence regime" in capsys.readouterr().out


class TestVerify:
    def test_bliss_suite(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg_file), "--suite", "bliss",
                     "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "PASS parameter-identities" in captured
        assert (out / "verify_bliss.csv").exists()

    def test_rates_suite(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--config", str(cfg_file), "--suite", "rates",
                     "--out", str(out)])
        assert code == 0
        assert "PASS dirichlet-deviation-rate" in capsys.readouterr().out

    def test_mp_suite_deterministic(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        code = main(["verify", "--config", str(cfg_file), "--suite", "mp",
                     "--out", str(out1)])
        assert code == 0
        main(["verify", "--config", str(cfg_file), "--suite", "mp", "--out", str(out2)])
        assert (out1 / "mp_gap.csv").read_bytes() == (out2 / "mp_gap.csv").read_bytes()

    def test_mp_suite_red_on_p1(self, tmp_path, capsys):
        # (3, 2, 4, 4): the bubble at eps = 1e-3 peaks above the threshold
        path = tmp_path / "p1.cfg"
        path.write_text(P1_CFG)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(path), "--suite", "mp", "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            "FAIL mp-gap-positive: gaps -0.0185892510731 0.000536723729984 0.000903661027686\n")
        assert (out / "verify_mp.csv").read_text().splitlines()[1].startswith(
            "mp-gap-positive,false,")

    def test_numerical_failure_names_the_suite(self, cfg_file, tmp_path, capsys, monkeypatch):
        # with --suite all, the bliss suite runs first and passes
        def fail(*args):
            raise NumericalError("scan failed")

        monkeypatch.setattr(bliss, "bubble_norm_scan", fail)
        out = tmp_path / "o"
        assert main(["verify", "--config", str(cfg_file), "--suite", "all",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "numerical failure in suite rates: scan failed\n"
        assert not (out / "verify_all.csv").exists()

    def test_verdict_names_are_the_benchmark_keys(self, cfg_file, tmp_path, monkeypatch):
        # perfbench/workloads.py checks verify's verdicts by these names
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        # the dataclass decorator looks its module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        small = tmp_path / "small.cfg"
        small.write_text(cfg_file.read_text().replace("grid_m = 1200", "grid_m = 300"))
        out = tmp_path / "o"
        main(["verify", "--config", str(small), "--suite", "all", "--out", str(out)])
        names = [line.split(",")[0] for line in
                 (out / "verify_all.csv").read_text().splitlines()[1:]]
        assert names == list(workloads.EXPECTED_VERDICTS)


class TestMpGap:
    def _run(self, tmp_path, name, cfg_text):
        path = tmp_path / f"{name}.cfg"
        path.write_text(cfg_text)
        out = tmp_path / name
        code = main(["mp-gap", "--config", str(path), "--out", str(out)])
        return code, (out / "mp_gap.csv").read_bytes()

    def test_does_not_depend_on_the_grid(self, tmp_path):
        # the bubbles are taken off the mesh, so grid_m changes no byte
        coarse = self._run(tmp_path, "m16", BASE_CFG.replace("grid_m = 1200", "grid_m = 16"))
        fine = self._run(tmp_path, "m16000",
                         BASE_CFG.replace("grid_m = 1200", "grid_m = 16000"))
        assert coarse == fine
        assert coarse[0] == 0

    def test_eps_below_the_grid_resolution(self, tmp_path):
        # r_1 = (1/16)^3 = 2.4e-4 at grid_m = 16: a grid bubble refused every
        # eps below 2.4e-3 with a ValidationError
        code, csv = self._run(tmp_path, "small",
                              BASE_CFG.replace("grid_m = 1200", "grid_m = 16")
                              .replace("mp_epsilon_list = 1e-3,1e-4",
                                       "mp_epsilon_list = 1e-4,1e-6"))
        assert code == 0
        rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [1e-4, 1e-6]
        assert all(float(r[3]) > 0 for r in rows)

    def test_red_row_on_p1(self, tmp_path, capsys):
        # at the default mp_epsilon_list
        code, csv = self._run(tmp_path, "p1", P1_CFG)
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL eps=0.001  max_I=0.222293342168  gap=-0.0185892510731",
            "PASS eps=0.0001  max_I=0.203167367365  gap=0.000536723729984",
            "PASS eps=1e-05  max_I=0.202800430067  gap=0.000903661027686",
        ]
        assert float(csv.decode().splitlines()[1].split(",")[3]) < 0


class TestOrlicz:
    def test_first_random_profile_pinned(self, cfg_file, tmp_path, capsys):
        # the seed's first five gauss(0, 1) draws of the standard library's
        # Mersenne Twister, in mode order: a reordered draw, or a Python
        # release that changes random.gauss, moves this norm
        out = tmp_path / "o"
        assert main(["orlicz", "--config", str(cfg_file), "--out", str(out)]) == 0
        first = (out / "orlicz.csv").read_text().splitlines()[1].split(",")
        assert first[:2] == ["0", "1.0895451911"]

    def test_nan_modular_exits_2_naming_the_norm(self, cfg_file, tmp_path, capsys, monkeypatch):
        # the bracket ends are finite; Brent's first step inside meets a NaN
        modular, calls = orlicz.modular, []

        def nan_inside(terms, lam):
            calls.append(lam)
            return modular(terms, lam) if len(calls) <= 2 else math.nan

        monkeypatch.setattr(orlicz, "modular", nan_inside)
        assert main(["orlicz", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the residual of the Luxemburg norm is NaN")
        assert len(calls) == 3


def traced_peak_arrays(cmd, cfg: RunConfig, out: Path) -> float:
    """The traced peak allocation of one run of a command, in grid-length
    float arrays (8 M bytes each).

    A first, untraced run takes the imports that a command's first call
    makes lazily.
    """
    cmd(cfg, out)
    tracemalloc.start()
    try:
        cmd(cfg, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * cfg.grid_m)


class TestTracedPeak:
    """What a command holds at once does not grow with its profile or seed
    count: on the README config at M = 2000 (100 random profiles and 6 bubbles
    for ``orlicz``, 6 seeds per beta for ``sweep-beta``) ``orlicz`` peaks at
    27 arrays and ``sweep-beta`` at 29.  Holding every profile (124) or every
    seed's result (33) fails."""

    @pytest.mark.parametrize("cmd, bound", [(cmd_orlicz, 40), (cmd_sweep_beta, 31)])
    def test_peak_in_grid_arrays(self, cmd, bound, tmp_path, capsys):
        assert traced_peak_arrays(cmd, RunConfig(), tmp_path) < bound


def run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c script args`` in a fresh interpreter that imports hslog
    from this checkout."""
    src = str(Path(hslog.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)


# every command runs in a process where neither scipy nor numpy.random can
# be imported, and where numpy's least-squares fit and the LAPACK solvers
# behind it raise
_RUN_WITHOUT_SCIPY = """\
import json, sys

import numpy

class NoScipyNoNumpyRandom:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "random"]:
            raise ImportError(f"no module named {name!r}")
        return None

def no_lapack(*args, **kwargs):
    raise AssertionError("a LAPACK least-squares call")

sys.meta_path.insert(0, NoScipyNoNumpyRandom())
numpy.polyfit = numpy.linalg.lstsq = numpy.linalg.svd = no_lapack
from hslog import cli
runs = [[c] for c in cli.COMMANDS] + [["verify", "--suite", "all"]]
codes = [cli.main([*r, "--config", sys.argv[1], "--out", sys.argv[2]]) for r in runs]
print(json.dumps([codes, "numpy.polynomial" in sys.modules]))
"""


def test_every_command_runs_without_scipy(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("grid_m = 1200", "grid_m = 300"))
    proc = run_python(_RUN_WITHOUT_SCIPY, str(cfg), str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    codes, polynomial_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len(codes) == 9
    # 2 is a red verdict with its report written, not a failure
    assert set(codes) <= {0, 2}
    assert "numerical failure" not in proc.stderr
    assert not polynomial_loaded


# the hslog modules, and which of numpy.polynomial and numpy.random, a fresh
# process has loaded after parsing a config and running the command given
# (if any)
_LOADED_MODULES = """\
import json, sys
from hslog import cli
cfg, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
cli.parse_config(cfg)
if argv:
    cli.main([*argv, "--config", cfg, "--out", out])
print(json.dumps([sorted(m.removeprefix("hslog.") for m in sys.modules
                         if m.startswith("hslog.")),
                  [m for m in ("numpy.polynomial", "numpy.random") if m in sys.modules]]))
"""

# every command needs the modules the package __init__ imports, and cli;
# each command line below loads those and exactly the hslog modules beside it
_BASE = {"cli", "params", "radial", "functionals"}
_LOADS = [
    ("", set()),
    ("constants", {"bliss"}),
    ("shoot", {"shooting", "dop853"}),
    ("rates", {"bliss"}),
    *((cmd, {"analysis", "bliss"}) for cmd in ("maximize", "sweep-beta", "mp-gap", "ncs")),
    ("orlicz", {"analysis", "bliss", "orlicz"}),
    ("verify --suite all", {"analysis", "bliss", "orlicz"}),
]


@pytest.mark.parametrize("command, extra", _LOADS, ids=[c or "parse-only" for c, _ in _LOADS])
def test_a_command_loads_only_the_modules_it_runs(command, extra, tmp_path):
    # a cold one-shot run pays to compile and execute every module it loads
    cfg = tmp_path / "s.cfg"
    cfg.write_text(BASE_CFG.replace("grid_m = 1200", "grid_m = 300"))
    proc = run_python(_LOADED_MODULES, str(cfg), str(tmp_path / "o"), *command.split())
    assert proc.returncode == 0, proc.stderr
    modules, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert set(modules) == _BASE | extra
    assert numpy_loaded == []
