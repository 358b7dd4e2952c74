"""Experiment harness and command-line interface."""

import csv
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exmcmc
from exmcmc.cli import FLAGS, build_parser, main
from exmcmc.errors import ConfigError, NotReversibleError
from exmcmc.experiments import (
    RUNNERS,
    ExperimentConfig,
    ExperimentResult,
    run_consistency,
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

    def test_rejects_empty_alphas(self):
        with pytest.raises(ConfigError, match="alphas must not be empty"):
            ExperimentConfig(alphas=())


# Two repeats at one M: the consistency gates (95 % within 0.02, and paired
# improvement from the smallest to the largest M) cannot hold.
FAILING_GATES = ["consistency", "--reps", "2", "--m-values", "5"]
FAILED_GATE_MESSAGES = [
    "only 0/2 repeats had |p_mc - p_A| <= 0.02 at M=5",
    "only 0/2 paired repeats improved from M=5 to M=5",
]


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

    def test_runner_reports_failed_gates_without_being_asked(self):
        result = run_consistency(ExperimentConfig(reps=2, m_values=(5,)))
        assert result.violations == FAILED_GATE_MESSAGES

    @pytest.mark.parametrize(
        "argv",
        [
            ["cpt-demo", "--reps", "20", "--n", "10", "--L", "20"],
            ["matrix-gof", "--reps", "20", "--rows", "5", "--cols", "4", "--L", "5"],
        ],
    )
    def test_reject_reads_alpha_as_written(self, argv, capsys):
        """p = 3/10 is rejected at alpha = 0.3, although the float 0.3 lies below 3/10."""
        assert main(argv + ["--alpha", "0.3", "--M", "9"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()[1:]))
        assert any(float(row["p_value"]) == 0.3 for row in rows)
        for row in rows:
            assert row["reject"] == str(int(float(row["p_value"]) <= 0.3))

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
        assert "chain=two-state" in lines[0]
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[1] == ["atom", "value", "probability"]
        assert len(rows) == 2 + 2  # echo, header, two atoms

    def test_echo_carries_the_package_version(self, tmp_path):
        out = tmp_path / "result.csv"
        assert main(["pinfty", "--chain", "two-state", "--out", str(out)]) == 0
        first = out.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith(f"# exmcmc-v{exmcmc.__version__} pinfty ")

    def test_stdout_when_no_out(self, capsys):
        assert main(["pinfty", "--chain", "two-state"]) == 0
        captured = capsys.readouterr()
        assert "atom,value,probability" in captured.out

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main(["pinfty", "--chain", "bimodal", "--out", str(out)]) == 0
        assert main(["pinfty", "--chain", "bimodal"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_existing_out_is_replaced_only_by_a_run_that_succeeds(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        out.write_text("an earlier result\n" * 100, encoding="utf-8")
        assert main(["pinfty", "--chain", "bimodal", "--x0", "500", "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "an earlier result\n" * 100
        assert main(["pinfty", "--chain", "bimodal", "--out", str(out)]) == 0
        assert main(["pinfty", "--chain", "bimodal"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_echo_names_exactly_the_fields_the_runner_reads(self, name):
        handle = io.StringIO()
        ExperimentResult(name, ("x",), [(1,)], ExperimentConfig()).write_csv(handle)
        echo = handle.getvalue().splitlines()[0].split(" ")
        assert echo[:4] == ["#", f"exmcmc-v{exmcmc.__version__}", name, f"numpy={np.__version__}"]
        assert tuple(item.split("=")[0] for item in echo[4:]) == RUNNERS[name].fields
        assert ("seed" in RUNNERS[name].fields) == (name != "pinfty")

    def test_echo_joins_tuples_with_slashes(self):
        handle = io.StringIO()
        config = ExperimentConfig(m_values=(5, 10), x0=60)
        ExperimentResult("consistency", ("x",), [], config).write_csv(handle)
        assert " x0=60 m_values=5/10" in handle.getvalue().splitlines()[0]

    def test_echo_tells_the_chains_apart(self, tmp_path):
        echoes = []
        for chain in ("two-state", "bimodal"):
            out = tmp_path / f"{chain}.csv"
            assert main(["pinfty", "--chain", chain, "--out", str(out)]) == 0
            echoes.append(out.read_text(encoding="utf-8").splitlines()[0])
        assert echoes[0] != echoes[1]
        assert echoes[1].endswith(" chain=bimodal")

    def test_every_recorded_field_is_a_flag_and_a_config_field(self):
        config_fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert len(config_fields) == 14
        for run in RUNNERS.values():
            assert set(run.fields) <= set(FLAGS) & config_fields


class TestExitCodes:
    def test_success(self):
        assert main(["pinfty", "--chain", "two-state"]) == 0

    def test_config_error(self, capsys):
        assert main(["bimodal-table", "--alpha", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_package_error_exits_2(self, monkeypatch, capsys):
        import exmcmc.experiments as exp

        monkeypatch.setattr(exp, "association_statistic", lambda m: float("nan"))
        argv = ["matrix-gof", "--reps", "1", "--M", "2", "--L", "1", "--rows", "3", "--cols", "3"]
        assert main(argv) == 2
        assert "error: test statistic evaluated to NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_out_that_cannot_be_written_exits_2_before_the_run(
        self, where, tmp_path, monkeypatch, capsys
    ):
        """An ``--out`` in a missing directory, or naming a directory, is one
        error line and exit 2, and the runner is never called."""

        def unreachable(config):
            raise AssertionError("the runner ran")

        unreachable.help, unreachable.fields = RUNNERS["pinfty"].help, RUNNERS["pinfty"].fields
        monkeypatch.setitem(RUNNERS, "pinfty", unreachable)
        out = tmp_path / where
        assert main(["pinfty", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        """A run that cannot allocate (as ``cpt-demo --n 100000`` cannot, asking
        numpy for 74.5 GiB) is one error line and exit 2."""
        message = "Unable to allocate 74.5 GiB for an array"

        def out_of_memory(config):
            assert config.n == 100_000
            raise MemoryError(message)

        run = RUNNERS["cpt-demo"]
        out_of_memory.help, out_of_memory.fields = run.help, run.fields
        monkeypatch.setitem(RUNNERS, "cpt-demo", out_of_memory)
        assert main(["cpt-demo", "--n", "100000"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["matrix-gof", "--rows", "1"], "rows and cols must be >= 2, got 1x12"),
            (["matrix-gof", "--cols", "0"], "rows and cols must be >= 2, got 20x0"),
            (["matrix-gof", "--rows", "-3"], "rows and cols must be >= 2, got -3x12"),
            (["cpt-demo", "--n", "2"], "n must be >= 3, got 2"),
            (["cpt-demo", "--n", "1"], "n must be >= 3, got 1"),
            (["consistency", "--m-values", "0,5"], "m_values must all be >= 1, got (0, 5)"),
            (["sqrt-eps", "--alpha", ""], "alphas must not be empty"),
            (["power-curve", "--rho="], "rho must not be empty"),
            (["power-curve", "--rho", "0.5,-1"], "rho must lie in (-1, 1), got -1.0"),
            (["power-curve", "--L-max", "0"], "L-max (step_max) must be >= 1, got 0"),
            (["power-curve", "--L-max", "-2"], "L-max (step_max) must be >= 1, got -2"),
            (["power-curve", "--mu", "nan"], "mu must be finite, got nan"),
            (["power-curve", "--mu", "inf"], "mu must be finite, got inf"),
            (["consistency", "--m-values="], "m_values must not be empty"),
            (["cpt-demo", "--seed", "-1"], "seed must be >= 0"),
            (["consistency", "--m-values", "5,5"], "m_values must be distinct, got (5, 5)"),
            (["sqrt-eps", "--alpha", "0.05,0.05"], "alphas must be distinct, got (0.05, 0.05)"),
            (["power-curve", "--rho", "0.7,0.7"], "rho must be distinct, got (0.7, 0.7)"),
        ],
    )
    def test_bad_config_field(self, argv, message, capsys):
        assert main(argv + ["--reps", "1"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sqrt-eps", "--alpha", "0.05,"),
            ("sqrt-eps", "--alpha", ",,0.05"),
            ("power-curve", "--rho", "0.7,,0.9"),
            ("consistency", "--m-values", "5,,6"),
        ],
    )
    def test_empty_list_entry_is_a_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--reps", "1"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bimodal-table", "power-curve", "matrix-gof", "cpt-demo"])
    def test_single_level_runner_rejects_alpha_list(self, command, capsys):
        assert main([command, "--alpha", "0.01,0.05", "--reps", "1"]) == 2
        assert f"error: {command} takes a single alpha level" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pinfty", "consistency"])
    def test_runner_without_a_level_takes_no_alpha(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--alpha", "0.05"])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("pinfty", "--seed"),
            ("pinfty", "--reps"),
            ("pinfty", "--M"),
            ("consistency", "--M"),
            ("power-curve", "--L"),
        ],
    )
    def test_flag_the_runner_ignores_is_a_usage_error(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, "5"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(RUNNERS))
    def test_every_subcommand_takes_check_and_out(self, command):
        args = build_parser().parse_args([command, "--check", "--out", "x.csv"])
        assert (args.check, args.out) == (True, "x.csv")

    def test_sqrt_eps_reports_every_alpha(self, capsys):
        argv = ["sqrt-eps", "--alpha", "0.01,0.05", "--reps", "5", "--M", "3", "--L", "2"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines[2:4]] == ["0.01", "0.05"]

    @pytest.mark.parametrize("command", ["sqrt-eps", "bimodal-table"])
    def test_step_past_the_power_check(self, command, capsys):
        """At L = 10**18 the bimodal kernel's power is no law; the run stops."""
        assert main([command, "--L", str(10**18), "--reps", "1", "--check"]) == 2
        assert f"error: the L = {10**18} power's rows sum to 1" in capsys.readouterr().err

    def test_pinfty_past_the_atom_law_check(self, capsys):
        """At L = 300000 the reverse power's rows pass the power check, but the
        hub law sums to 1 only within 2e-12; the refusal names L."""
        assert main(["pinfty", "--chain", "bimodal", "--L", "300000"]) == 2
        err = capsys.readouterr().err
        assert "error: the L = 300000 limiting law is no law: masses must sum to 1" in err

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

    def test_check_not_requested_still_succeeds(self, tmp_path, capsys):
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
        assert capsys.readouterr().err == ""  # the failed gates are not printed

    def test_failed_gates_with_check_exit_3_naming_each(self, tmp_path, capsys):
        assert main(FAILING_GATES + ["--check", "--out", str(tmp_path / "x.csv")]) == 3
        expected = "".join(f"check failed: {message}\n" for message in FAILED_GATE_MESSAGES)
        assert capsys.readouterr().err == expected

    def test_package_import_leaves_the_harness_out(self):
        src = str(Path(exmcmc.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = "import sys, exmcmc; print('exmcmc.experiments' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

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
