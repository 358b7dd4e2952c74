"""Experiment harness and command-line interface."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exmcmc
from exmcmc.cli import main
from exmcmc.errors import ConfigError, NotReversibleError
from exmcmc.experiments import (
    RUNNERS,
    ExperimentConfig,
    run_pinfty,
    run_power_curve,
)


class TestConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.seed == 20250824

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(alphas=(1.5,))

    def test_rejects_bad_reps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(reps=0)

    def test_rejects_zero_draws(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_draws=0)

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(step=0)


class TestRunners:
    def test_all_subcommands_have_runners(self):
        assert set(RUNNERS) == {
            "bimodal-table",
            "power-curve",
            "consistency",
            "matrix-gof",
            "cpt-demo",
            "sqrt-eps",
            "pinfty",
        }

    def test_bit_reproducible(self):
        config = ExperimentConfig(reps=20, step_max=2)
        a = run_power_curve(config)
        b = run_power_curve(config)
        assert a.rows == b.rows

    def test_seed_changes_output(self):
        a = run_power_curve(ExperimentConfig(reps=20, step_max=2))
        b = run_power_curve(ExperimentConfig(reps=20, step_max=2, seed=1))
        assert a.rows != b.rows

    def test_pinfty_two_state(self):
        result = run_pinfty(ExperimentConfig(chain="two-state", x0=1, step=1))
        rows = {r[0]: (r[1], r[2]) for r in result.rows}
        assert rows[0] == (pytest.approx(0.1), pytest.approx(0.2))
        assert rows[1] == (pytest.approx(0.8), pytest.approx(0.8))

    def test_pinfty_unknown_chain(self):
        with pytest.raises(ConfigError):
            run_pinfty(ExperimentConfig(chain="bogus"))

    def test_sqrt_eps_refuses_non_reversible(self, monkeypatch):
        import exmcmc.experiments as exp

        class FakePair:
            reversible = False

        monkeypatch.setattr(
            exp.KernelPair, "from_discrete", classmethod(lambda *a, **k: FakePair())
        )
        with pytest.raises(NotReversibleError):
            exp.run_sqrt_epsilon_demo(ExperimentConfig(reps=1))


class TestCsvOutput:
    def test_format(self, tmp_path):
        out = tmp_path / "result.csv"
        code = main(["pinfty", "--chain", "two-state", "--out", str(out)])
        assert code == 0
        raw = out.read_bytes()
        assert b"\r" not in raw  # LF only
        text = raw.decode("utf-8")
        lines = text.splitlines()
        assert lines[0].startswith("# exmcmc-v")
        assert "seed=" in lines[0]
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["atom", "value", "probability"]
        assert len(rows) == 2 + 2  # echo, header, two atoms

    def test_stdout_when_no_out(self, capsys):
        assert main(["pinfty", "--chain", "two-state"]) == 0
        captured = capsys.readouterr()
        assert "atom,value,probability" in captured.out


class TestExitCodes:
    def test_success(self):
        assert main(["pinfty", "--chain", "two-state"]) == 0

    def test_config_error(self, capsys):
        assert main(["pinfty", "--alpha", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_package_error_exits_2(self, capsys):
        # one observation per data set: the residual correlation is NaN
        assert main(["cpt-demo", "--n", "1", "--reps", "2"]) == 2
        assert "error: test statistic evaluated to NaN" in capsys.readouterr().err

    def test_x0_outside_bimodal_states(self, capsys):
        assert main(["consistency", "--x0", "500", "--reps", "1", "--m-values", "5"]) == 2
        assert "x0 must be a state of the chain (1..100), got 500.0" in capsys.readouterr().err

    def test_x0_outside_two_state_chain(self, capsys):
        assert main(["pinfty", "--chain", "two-state", "--x0", "7"]) == 2
        assert "x0 must be a state of the chain (0..1), got 7.0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bimodal-table", "matrix-gof", "cpt-demo", "sqrt-eps"])
    def test_zero_draws(self, command, capsys):
        assert main([command, "--M", "0", "--reps", "1"]) == 2
        assert "M (n_draws) must be >= 1" in capsys.readouterr().err

    def test_rho_outside_unit_interval(self, capsys):
        assert main(["power-curve", "--rho", "1.5"]) == 2
        assert "rho must lie in (-1, 1)" in capsys.readouterr().err

    def test_check_violation(self, tmp_path, capsys):
        # deliberately underpowered replication count: empirical power cannot
        # track the theoretical curve within 0.02
        code = main(
            [
                "power-curve",
                "--reps",
                "40",
                "--M",
                "40",
                "--L-max",
                "2",
                "--check",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 3
        assert "check failed" in capsys.readouterr().err

    def test_check_not_requested_still_succeeds(self, tmp_path):
        code = main(
            [
                "power-curve",
                "--reps",
                "40",
                "--M",
                "40",
                "--L-max",
                "2",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 0

    def test_console_entry_point(self, tmp_path):
        # The child interpreter imports the package under test, also from an
        # uninstalled checkout.
        src = str(Path(exmcmc.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "exmcmc.cli",
                "pinfty",
                "--chain",
                "two-state",
                "--out",
                str(tmp_path / "out.csv"),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0


class TestSmallRunsOfEachExperiment:
    """Every runner executes end to end on a reduced configuration."""

    def test_bimodal_table(self):
        result = RUNNERS["bimodal-table"](ExperimentConfig(reps=20, step=5))
        assert len(result.rows) == 9

    def test_consistency(self):
        result = RUNNERS["consistency"](
            ExperimentConfig(reps=3, step=5, m_values=(5, 10))
        )
        series = {r[0] for r in result.rows}
        assert series == {"permuted_serial", "parallel", "pinfty_atom"}

    def test_matrix_gof(self):
        result = RUNNERS["matrix-gof"](
            ExperimentConfig(reps=2, step=5, n_draws=5, rows=5, cols=4)
        )
        assert len(result.rows) == 4

    def test_cpt_demo(self):
        result = RUNNERS["cpt-demo"](
            ExperimentConfig(reps=2, n=6, step=6, n_draws=5)
        )
        assert len(result.rows) == 4
        assert all(0 < r[2] <= 1 for r in result.rows)

    def test_sqrt_eps(self):
        result = RUNNERS["sqrt-eps"](ExperimentConfig(reps=30, step=5, n_draws=9))
        assert result.rows[-1][0] == "corrected_ge_raw"
        assert result.rows[-1][1] == 1
