"""End-to-end tests of the command-line interface."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hslog.cli import RunConfig, main, parse_config
from hslog.params import ValidationError

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
        p1_cfg.write_text("p = 3\nalpha0 = 2\nalpha1 = 4\ntheta = 4\n")
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

    def test_empty_bracket_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nb.cfg"
        path.write_text(BASE_CFG.replace("shoot_bracket = 20,50",
                                         "shoot_bracket = 1e-8,1e-6"))
        assert main(["shoot", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

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
