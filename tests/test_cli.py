"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("plan", "predict", "simulate", "compare", "calibrate"):
            args = None
            try:
                if command == "plan":
                    args = parser.parse_args(
                        ["plan", "--nodes", "4", "--dgemm", "100"]
                    )
                elif command in ("predict", "simulate"):
                    args = parser.parse_args([command, "x.xml"])
                elif command == "compare":
                    args = parser.parse_args(
                        ["compare", "--nodes", "4", "--dgemm", "100"]
                    )
                else:
                    args = parser.parse_args(["calibrate"])
            except SystemExit:  # pragma: no cover
                pytest.fail(f"subcommand {command} failed to parse")
            assert args.command == command

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestPlanCommand:
    def test_plan_homogeneous(self, capsys, tmp_path):
        out = tmp_path / "plan.xml"
        code = main(
            ["plan", "--nodes", "6", "--dgemm", "200", "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "DeploymentPlan" in text

    def test_plan_random_heterogenized(self, capsys):
        code = main(
            [
                "plan", "--random", "12", "--seed", "3",
                "--heterogenize", "0.5", "--dgemm", "310", "--show-tree",
            ]
        )
        assert code == 0
        assert "agent" in capsys.readouterr().out

    def test_plan_with_demand(self, capsys):
        code = main(
            ["plan", "--nodes", "20", "--dgemm", "200", "--demand", "30"]
        )
        assert code == 0

    def test_plan_explicit_powers(self, capsys):
        code = main(["plan", "--powers", "300,200,100", "--app-work", "10"])
        assert code == 0

    def test_missing_pool_is_error(self, capsys):
        code = main(["plan", "--dgemm", "100"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_workload_is_error(self, capsys):
        code = main(["plan", "--nodes", "4"])
        assert code == 2


class TestPredictSimulate:
    def test_predict_and_simulate_round_trip(self, capsys, tmp_path):
        out = tmp_path / "plan.xml"
        assert main(
            ["plan", "--nodes", "4", "--dgemm", "200", "--output", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["predict", str(out)]) == 0
        predict_out = capsys.readouterr().out
        assert "rho" in predict_out
        assert main(
            [
                "simulate", str(out),
                "--client-interval", "0.2", "--max-clients", "40",
                "--hold", "4",
            ]
        ) == 0
        sim_out = capsys.readouterr().out
        assert "measured max sustained throughput" in sim_out


class TestCalibrateCommand:
    def test_calibrate_prints_table3(self, capsys):
        assert main(["calibrate", "--repetitions", "10"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Agent (calibrated)" in out


class TestCompareCommand:
    def test_compare_small_pool(self, capsys):
        code = main(
            [
                "compare", "--nodes", "12", "--dgemm", "200",
                "--clients", "30", "--duration", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heuristic" in out
        assert "star" in out

    def test_compare_explicit_methods(self, capsys):
        code = main(
            [
                "compare", "--nodes", "8", "--dgemm", "200",
                "--methods", "heuristic,chain",
                "--clients", "10", "--duration", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chain" in out
        assert "balanced" not in out


class TestImproveCommand:
    def test_improve_round_trip(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.xml"
        improved_path = tmp_path / "improved.xml"
        assert main(
            ["plan", "--nodes", "8", "--dgemm", "200",
             "--output", str(plan_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "improve", str(plan_path), "--random", "4", "--seed", "2",
                "--output", str(improved_path), "--show-tree",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Improvement plan" in out
        assert "spare-" in out  # spares get a non-colliding prefix
        assert improved_path.exists()
        # The improved plan is itself a loadable plan.
        capsys.readouterr()
        assert main(["predict", str(improved_path)]) == 0
        assert "+improve" in capsys.readouterr().out

    def test_improve_without_spares_still_reports(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.xml"
        assert main(
            ["plan", "--nodes", "4", "--dgemm", "200",
             "--output", str(plan_path)]
        ) == 0
        capsys.readouterr()
        assert main(["improve", str(plan_path)]) == 0
        assert "throughput" in capsys.readouterr().out


class TestControlCommand:
    def test_control_runs_and_prints_timeline(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2", "--dgemm", "200",
                "--trace", "burst:base=2,burst_level=12,at=4,duration=6",
                "--epochs", "5", "--epoch-duration", "2",
                "--policy", "reactive", "--policy-opt", "hysteresis=1",
                "--policy-opt", "cooldown=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Control timeline" in out
        assert "policy=reactive" in out
        assert "epoch" in out

    def test_control_bad_trace_spec_is_error(self, capsys):
        code = main(
            [
                "control", "--nodes", "6", "--dgemm", "200",
                "--trace", "tsunami:level=3", "--epochs", "2",
            ]
        )
        assert code == 2
        assert "unknown trace type" in capsys.readouterr().err

    def test_control_bad_policy_opt_is_error(self, capsys):
        code = main(
            [
                "control", "--nodes", "6", "--dgemm", "200",
                "--trace", "constant:level=3", "--epochs", "2",
                "--policy-opt", "vibes=1",
            ]
        )
        assert code == 2
        assert "valid options" in capsys.readouterr().err

    def test_policy_choices_come_from_registry(self):
        from repro.control.policy import available_policies

        parser = build_parser()
        for policy in available_policies():
            args = parser.parse_args(
                [
                    "control", "--nodes", "4", "--dgemm", "100",
                    "--trace", "constant:level=2", "--policy", policy,
                ]
            )
            assert args.policy == policy

    def test_control_migration_modes_and_fixture_traces(self, capsys):
        for mode in ("live", "restart"):
            code = main(
                [
                    "control", "--random", "8", "--seed", "2",
                    "--dgemm", "200", "--trace", "wikipedia_flash",
                    "--epochs", "4", "--epoch-duration", "2",
                    "--migration", mode,
                ]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"migration={mode}" in out
            assert "fixture:wikipedia_flash" in out

    def test_control_faults_spec_marks_timeline(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2", "--dgemm", "200",
                "--trace", "constant:level=6", "--epochs", "5",
                "--epoch-duration", "2", "--policy", "reactive",
                "--policy-opt", "hysteresis=1", "--policy-opt", "cooldown=1",
                "--faults", "crash:target=busiest-server,at=3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "!crash(" in out
        assert "faults injected" in out

    def test_control_bad_fault_spec_is_error(self, capsys):
        code = main(
            [
                "control", "--nodes", "6", "--dgemm", "200",
                "--trace", "constant:level=3", "--epochs", "2",
                "--faults", "meteor:target=s0,at=1",
            ]
        )
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_control_sweep_prints_one_row_per_cell(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200",
                "--trace", "constant:level=3",
                "--trace", "burst:base=2,burst_level=10,at=2,duration=4",
                "--sweep", "--policies", "hold,reactive",
                "--seeds", "0,1", "--workers", "1",
                "--epochs", "3", "--epoch-duration", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Control sweep (8 cells" in out
        assert out.count("constant:level=3") == 4
        assert out.count("reactive") >= 4

    def test_control_sweep_policy_opts_reach_accepting_policies_only(
        self, capsys
    ):
        # hysteresis tunes reactive; hold takes no options and must not
        # choke on it — but an option nobody accepts is an error.
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200", "--trace", "constant:level=3",
                "--sweep", "--policies", "hold,reactive",
                "--policy-opt", "hysteresis=1", "--workers", "1",
                "--epochs", "2", "--epoch-duration", "2",
            ]
        )
        assert code == 0
        assert "Control sweep" in capsys.readouterr().out
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200", "--trace", "constant:level=3",
                "--sweep", "--policies", "hold,reactive",
                "--policy-opt", "vibes=1", "--workers", "1",
                "--epochs", "2", "--epoch-duration", "2",
            ]
        )
        assert code == 2
        assert "not accepted by any swept policy" in capsys.readouterr().err

    def test_control_sweep_bad_trace_spec_is_error(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200",
                "--trace", "constant:level=3",
                "--trace", "tsunami:level=9",
                "--sweep", "--workers", "1",
                "--epochs", "2", "--epoch-duration", "2",
            ]
        )
        assert code == 2
        assert "unknown trace type" in capsys.readouterr().err

    def test_control_sweep_unknown_policy_is_error(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200", "--trace", "constant:level=3",
                "--sweep", "--policies", "hold,vibes-based",
                "--workers", "1",
                "--epochs", "2", "--epoch-duration", "2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown control policy" in err
        assert "vibes-based" in err

    def test_control_sweep_zero_workers_is_error(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200", "--trace", "constant:level=3",
                "--sweep", "--workers", "0",
                "--epochs", "2", "--epoch-duration", "2",
            ]
        )
        assert code == 2
        assert "max_workers >= 1" in capsys.readouterr().err

    def test_control_concurrent_migration_mode(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--seed", "2",
                "--dgemm", "200", "--trace", "wikipedia_flash",
                "--epochs", "4", "--epoch-duration", "2",
                "--migration", "concurrent",
                "--policy-opt", "hysteresis=1", "--policy-opt", "cooldown=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "migration=concurrent" in out
        # The timeline's migration-window column (a real table column,
        # not the "window" substring describe() always prints).
        assert "| win " in out

    def test_control_multiple_traces_without_sweep_is_error(self, capsys):
        code = main(
            [
                "control", "--nodes", "6", "--dgemm", "200",
                "--trace", "constant:level=3",
                "--trace", "constant:level=5",
                "--epochs", "2",
            ]
        )
        assert code == 2
        assert "--sweep" in capsys.readouterr().err

    def test_control_pool_executor_prints_the_default_timeline(self, capsys):
        argv = [
            "control", "--random", "8", "--seed", "2",
            "--dgemm", "200", "--trace", "wikipedia_flash",
            "--epochs", "4", "--epoch-duration", "2",
            "--migration", "concurrent",
            "--policy-opt", "hysteresis=1", "--policy-opt", "cooldown=1",
        ]
        assert main(argv) == 0
        default = capsys.readouterr().out
        # The run migrates, so the act stage dispatched a command batch.
        assert "1 redeploys" in default
        assert main([*argv, "--executor", "pool"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize(
        "flag", [["--executor", "inline"], ["--executor-workers", "2"]]
    )
    def test_removed_executor_flags_are_argparse_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "control", "--nodes", "6", "--dgemm", "200",
                    "--trace", "constant:level=3", *flag,
                ]
            )
        assert info.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestPoolValidation:
    def test_zero_nodes_reports_positive_pool_error(self, capsys):
        code = main(["plan", "--nodes", "0", "--dgemm", "100"])
        assert code == 2
        assert "pool size must be positive" in capsys.readouterr().err

    def test_zero_random_reports_positive_pool_error(self, capsys):
        code = main(["plan", "--random", "0", "--dgemm", "100"])
        assert code == 2
        assert "pool size must be positive" in capsys.readouterr().err

    def test_empty_powers_is_error(self, capsys):
        code = main(["plan", "--powers", ",", "--dgemm", "100"])
        assert code == 2
        assert "at least one node power" in capsys.readouterr().err


class TestRegistryDrivenCli:
    def test_method_choices_come_from_registry(self):
        from repro.core.registry import REGISTRY

        parser = build_parser()
        for method in REGISTRY.available():
            args = parser.parse_args(
                ["plan", "--nodes", "4", "--dgemm", "100", "--method", method]
            )
            assert args.method == method
        # extension planners appear without any CLI edit
        assert {"hetcomm", "multiapp", "redeploy"} <= set(REGISTRY.available())

    def test_planners_subcommand_lists_registry(self, capsys):
        assert main(["planners"]) == 0
        out = capsys.readouterr().out
        for name in ("heuristic", "hetcomm", "multiapp", "redeploy"):
            assert name in out
        assert "HeuristicOptions" in out

    def test_plan_with_typed_opt_flags(self, capsys):
        code = main(
            [
                "plan", "--nodes", "12", "--dgemm", "200",
                "--method", "balanced", "--opt", "middle_agents=2",
            ]
        )
        assert code == 0
        assert "balanced" in capsys.readouterr().out

    def test_bad_opt_value_is_actionable(self, capsys):
        code = main(
            [
                "plan", "--nodes", "12", "--dgemm", "200",
                "--opt", "patience=soon",
            ]
        )
        assert code == 2
        assert "patience" in capsys.readouterr().err

    def test_unknown_opt_lists_valid_ones(self, capsys):
        code = main(
            ["plan", "--nodes", "12", "--dgemm", "200", "--opt", "wibble=1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "wibble" in err
        assert "strategy" in err  # valid options are listed

    def test_extension_method_plans_end_to_end(self, capsys):
        code = main(
            [
                "plan", "--random", "8", "--seed", "3", "--dgemm", "150",
                "--method", "redeploy", "--opt", "initial_fraction=0.6",
            ]
        )
        assert code == 0
        assert "redeploy" in capsys.readouterr().out


BOTH = ("control", "trace")
CONTROL = ("control",)


class TestControlLoopDefaultsDeclaredOnce:
    """A loop flag left out keeps :class:`ControlLoop`'s default."""

    def test_control_without_loop_flags_prints_the_default_loop(self, capsys):
        from repro import NodePool, dgemm_mflop
        from repro.analysis.report import render_timeline
        from repro.control.loop import ControlLoop
        from repro.control.traces import from_spec

        spec = "constant:level=3"
        code = main(
            ["control", "--random", "8", "--dgemm", "200", "--trace", spec]
        )
        assert code == 0
        pool = NodePool.uniform_random(8, low=50.0, high=400.0, seed=0)
        timeline = ControlLoop(pool, dgemm_mflop(200), from_spec(spec)).run()
        assert capsys.readouterr().out == render_timeline(timeline) + "\n"

    @pytest.mark.parametrize("command", ["control", "trace"])
    def test_no_loop_flag_given_forwards_only_the_seed(self, command):
        from repro.cli import _loop_kwargs

        args = build_parser().parse_args(
            [command, "--nodes", "4", "--dgemm", "100", "--trace", "x"]
        )
        # --seed is also the pool's seed, so it always has a value.
        assert _loop_kwargs(args) == {"seed": 0}

    @pytest.mark.parametrize(
        "commands, flag, value, keyword, expected",
        [
            (BOTH, "--policy", "hold", "policy", "hold"),
            (BOTH, "--migration", "restart", "migration", "restart"),
            (BOTH, "--executor", "pool", "executor", "pool"),
            (BOTH, "--epochs", "7", "epochs", 7),
            (BOTH, "--epoch-duration", "2.5", "epoch_duration", 2.5),
            (BOTH, "--seed", "3", "seed", 3),
            (BOTH, "--faults", "crash:target=s0,at=1", "faults",
             "crash:target=s0,at=1"),
            (BOTH, "--detection", "timeout=0.5", "detection", "timeout=0.5"),
            (CONTROL, "--base-method", "star", "base_method", "star"),
            (CONTROL, "--initial-fraction", "0.3", "initial_fraction", 0.3),
            (CONTROL, "--think-time", "0.1", "think_time", 0.1),
        ],
    )
    def test_each_given_loop_flag_is_forwarded(
        self, commands, flag, value, keyword, expected
    ):
        from repro.cli import _loop_kwargs

        for command in commands:
            args = build_parser().parse_args(
                [command, "--nodes", "4", "--dgemm", "100", "--trace", "x",
                 flag, value]
            )
            assert _loop_kwargs(args) == {"seed": 0, keyword: expected}

    def test_sweep_without_policy_flags_uses_the_sweep_default(self, capsys):
        code = main(
            [
                "control", "--random", "8", "--dgemm", "200",
                "--trace", "constant:level=3", "--sweep", "--workers", "1",
                "--epochs", "2", "--epoch-duration", "2",
                "--policy-opt", "hysteresis=1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Control sweep (1 cells, live migration)" in out
        assert "| reactive |" in out

    def test_sweep_defaults_are_the_loop_defaults(self):
        import inspect

        from repro.api import PlanningSession
        from repro.control.loop import ControlLoop

        loop = inspect.signature(ControlLoop.__init__).parameters
        sweep = inspect.signature(PlanningSession.control_sweep).parameters
        assert sweep["policies"].default == (loop["policy"].default,)
        assert sweep["seeds"].default == (loop["seed"].default,)

    def test_import_does_not_load_the_loop(self):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "import sys, repro.cli; "
            "print('repro.control.loop' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            cwd=Path(repro.__file__).resolve().parents[1],
        )
        assert result.stdout.strip() == "False"


class TestDuplicateOptionKeys:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["plan", "--nodes", "12", "--dgemm", "200",
              "--opt", "patience=1", "--opt", "patience=2"], "--opt"),
            (["control", "--nodes", "6", "--dgemm", "200",
              "--trace", "constant:level=3", "--epochs", "2",
              "--policy-opt", "hysteresis=1",
              "--policy-opt", "hysteresis=2"], "--policy-opt"),
            (["control", "--nodes", "6", "--dgemm", "200",
              "--trace", "constant:level=3", "--epochs", "2",
              "--policy-opt", "cool-down=1",
              "--policy-opt", "cool_down=2"], "--policy-opt"),
        ],
    )
    def test_a_key_given_twice_is_an_error(self, capsys, argv, flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert flag in err and "given twice" in err
