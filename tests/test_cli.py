"""End-to-end command-line tests: exit codes, emitted files, flag overrides."""

import json
import os

import numpy as np
import pytest

import pencbo as pc
from pencbo.cli import main
from pencbo.qp import QpInstance, make_random_qp
from pencbo.repro import reproduce


def write_spec(path, **fields):
    path.write_text(json.dumps(fields))
    return str(path)


# small enough that every command finishes in well under a second
TINY = dict(problem="test1", n_particles=8, n_iterations=5, sigma=1.0, dt=0.01, seed=4)


class TestRun:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", **TINY)
        rc = main(["run", "--spec", spec, "--out", str(tmp_path / "out")])
        assert rc == 0
        trace_path, summary_path = capsys.readouterr().out.strip().split("\n")
        assert trace_path.endswith("test1_seed4_trace.csv")
        with open(trace_path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "k,t,beta,theta,violation,tolerance,passed,consensus_0,V"
        assert len(lines) == 1 + TINY["n_iterations"]
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert summary["problem"] == "test1"
        assert summary["aborted"] is False
        assert summary["iterations_recorded"] == TINY["n_iterations"]
        assert summary["trace_csv"] == trace_path
        assert len(summary["final_consensus"]) == 1

    def test_flags_override_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", **TINY)
        rc = main(["run", "--spec", spec, "--out", str(tmp_path),
                   "--seed", "9", "--particles", "6", "--iters", "3"])
        assert rc == 0
        trace_path, summary_path = capsys.readouterr().out.strip().split("\n")
        assert trace_path.endswith("test1_seed9_trace.csv")
        with open(summary_path) as fh:
            echo = json.load(fh)["spec"]
        assert (echo["seed"], echo["n_particles"], echo["n_iterations"]) == (9, 6, 3)

    def test_summary_matches_direct_run(self, tmp_path, capsys):
        # the spec defaults must resolve to exactly this library-level config
        spec = write_spec(tmp_path / "spec.json", **TINY)
        main(["run", "--spec", spec, "--out", str(tmp_path)])
        summary_path = capsys.readouterr().out.strip().split("\n")[1]
        with open(summary_path) as fh:
            summary = json.load(fh)
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=1.0, dt=0.01, alpha=1e6),
            controller=pc.PenaltyController.fresh(beta0=0.1, theta0=4.0),
            n_particles=8,
            n_iterations=5,
            seed=4,
        )
        trace = pc.run(pc.make_test1(), config)
        np.testing.assert_array_equal(summary["final_consensus"], trace.final_consensus)
        assert summary["final_beta"] == trace.final_beta

    def test_summary_spec_round_trips(self, tmp_path, capsys):
        # the echoed spec, re-run as-is, must reproduce the trace byte for byte
        spec = write_spec(tmp_path / "spec.json", **TINY)
        main(["run", "--spec", spec, "--out", str(tmp_path / "a")])
        first_trace, first_summary = capsys.readouterr().out.strip().split("\n")
        with open(first_summary) as fh:
            echo = json.load(fh)["spec"]
        respec = tmp_path / "respec.json"
        respec.write_text(json.dumps(echo))
        main(["run", "--spec", str(respec), "--out", str(tmp_path / "b")])
        second_trace = capsys.readouterr().out.strip().split("\n")[0]
        with open(first_trace) as fh:
            first = fh.read()
        with open(second_trace) as fh:
            second = fh.read()
        assert first == second

    def test_qp_problem_from_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json",
                          problem={"qp": {"d": 4, "seed": 1}},
                          n_particles=8, n_iterations=4, sigma=0.5, dt=0.1)
        rc = main(["run", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 0
        trace_path = capsys.readouterr().out.strip().split("\n")[0]
        assert os.path.basename(trace_path) == "qp-d4-s1_seed0_trace.csv"

    # the objective overflows at the diverged positions and the run names the value
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json",
                          **{**TINY, "sigma": 1e150, "dt": 1.0, "n_iterations": 40})
        rc = main(["run", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "aborted" in captured.err
        summary_path = captured.out.strip().split("\n")[1]
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert summary["aborted"] is True
        assert "iteration" in summary["abort_reason"]


class TestSpecErrors:
    @pytest.mark.parametrize("fields,fragment", [
        (dict(problem="nope"), "unknown name"),
        (dict(problem="test1", bogus=1), "unknown spec fields"),
        (dict(problem={"qp": {}}), "problem.qp"),
        (dict(problem=7), "expected a problem name"),
        (dict(problem="test1", init={"bogus": 1}), "invalid spec value"),
        (dict(problem="test1", batch={"kind": "nope", "size": 2}), "invalid spec value"),
        (dict(), "missing the required field"),
        (dict(problem="test1", n_particles=6.7), "invalid spec value"),
        (dict(problem="test1", n_iterations=5.9), "invalid spec value"),
        (dict(problem="test1", seed=1.5), "invalid spec value"),
        (dict(problem="test1", batch={"kind": "partition", "size": 2, "update_scope": "batch"}),
         "invalid spec value"),
        (dict(problem="test1", diffusion="nope"), "invalid spec value"),
        (dict(problem="test1", mode="nope"), "invalid spec value"),
        (dict(problem="test1", check="nope"), "invalid spec value"),
        (dict(problem="test1", init={"kind": "bogus"}), "unknown init kind"),
        (dict(problem="test1", init={"kind": "uniform", "low": -1.0}), "finite high"),
        (dict(problem="test1", init={"kind": "uniform", "low": -1.0, "high": 1e309}),
         "finite high"),
        (dict(problem="test1", n_particles=4, batch={"kind": "partition", "size": 3}),
         "must divide"),
        (dict(problem="test1", n_particles=4, batch={"kind": "random_subset", "size": 9}),
         "exceeds ensemble size"),
    ])
    def test_bad_specs_exit_2(self, tmp_path, capsys, fields, fragment):
        spec = write_spec(tmp_path / "spec.json", **fields)
        rc = main(["run", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("fields", [
        dict(problem="test1", init={"kind": "uniform", "low": [0, 0], "high": [1, 1]}),
        dict(problem="rastrigin2d", init={"kind": "gaussian", "mean": [0, 0, 0], "std": 1.0}),
        dict(problem="rastrigin2d", init={"kind": "uniform", "low": [[0], [0]], "high": 1.0}),
    ])
    def test_init_bounds_of_another_dimension_exit_2_before_any_run(
            self, tmp_path, capsys, command, fields):
        spec = write_spec(tmp_path / "spec.json", **{**TINY, **fields}, sweep={"sigma": [1.0]})
        out = tmp_path / "out"
        assert main([command, "--spec", spec, "--out", str(out)]) == 2
        assert "does not broadcast to the problem's dimension" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iterations_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", **TINY)
        rc = main(["run", "--spec", spec, "--out", str(tmp_path), "--iters", "0"])
        assert rc == 2
        assert "argument --iters: must be >= 1" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--spec", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["run", "--spec", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "run" in capsys.readouterr().out


class TestSweep:
    def test_two_axis_table(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", **TINY,
                          sweep={"beta0": [0.1, 1.0], "sigma": [0.5, 1.0]},
                          n_runs=2, tol_inf=5.0)
        rc = main(["sweep", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 0
        table_path, summary_path = capsys.readouterr().out.strip().split("\n")
        with open(table_path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "beta0,sigma,success_rate,final_beta_median,n_aborted"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            beta0, sigma, rate, final_beta_median, n_aborted = line.split(",")
            assert 0.0 <= float(rate) <= 1.0
            assert n_aborted == "0"
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert len(summary["points"]) == 4
        assert all(len(p["outcomes"]) == 2 for p in summary["points"])

    @pytest.mark.parametrize("sweep,fragment", [
        (None, "non-empty 'sweep'"),
        ({}, "non-empty 'sweep'"),
        ({"dt": [0.1]}, "unsupported axes"),
        ({"beta0": []}, "non-empty list"),
    ])
    def test_bad_sweep_specs_exit_2(self, tmp_path, capsys, sweep, fragment):
        spec = write_spec(tmp_path / "spec.json", **TINY, sweep=sweep)
        rc = main(["sweep", "--spec", spec, "--out", str(tmp_path)])
        assert rc == 2
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("fields,fragment", [
        (dict(sweep={"beta0": ["x"]}), "invalid spec value"),
        (dict(sweep={"beta0": [0.1, None]}), "invalid spec value"),
        (dict(sweep={"beta0": [0.1, -1.0]}), "invalid spec value"),
        (dict(sweep={"beta0": [0.1]}, n_runs=0), "n_runs must be >= 1"),
        (dict(sweep={"beta0": [0.1]}, n_runs="x"), "invalid spec value"),
        (dict(sweep={"beta0": [0.1]}, tol_inf=0), "tol_inf must be > 0"),
        (dict(sweep={"beta0": [0.1]}, n_runs=2.5), "invalid spec value"),
        (dict(sweep={"beta0": [0.1]}, n_particles=6.7), "invalid spec value"),
        (dict(sweep={"beta0": [0.1]}, batch={"kind": "partition", "size": 3}), "must divide"),
    ])
    def test_bad_sweep_values_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                     fields, fragment):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("pencbo.repro.success_rate", no_runs)
        spec = write_spec(tmp_path / "spec.json", **{**TINY, **fields})
        rc = main(["sweep", "--spec", spec, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert fragment in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_threads_flag_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "spec.json", **TINY,
                          sweep={"beta0": [0.1]}, n_runs=4, tol_inf=5.0)
        assert main(["sweep", "--spec", spec, "--out", str(tmp_path),
                     "--threads", "3"]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "test1_sweep.csv")


class TestReproduce:
    def test_fig1_tiny(self, tmp_path, capsys):
        rc = main(["reproduce", "--figure", "fig1", "--out", str(tmp_path),
                   "--particles", "6"])
        assert rc == 0
        paths = capsys.readouterr().out.strip().split("\n")
        assert [os.path.basename(p) for p in paths] == [
            "fig1_trace.csv", "fig1_particles.csv", "fig1_summary.json"]
        assert all(os.path.exists(p) for p in paths)
        with open(paths[1]) as fh:
            part_lines = fh.read().strip().split("\n")
        assert part_lines[0] == "k,t,particle,x0"
        # initial snapshot plus one per iteration, six particles each
        assert len(part_lines) == 1 + 151 * 6
        float(part_lines[1].split(",")[3])
        with open(paths[2]) as fh:
            summary = json.load(fh)
        assert summary["figure"] == "fig1"
        assert summary["n_particles"] == 6

    def test_fig4_panels_tiny(self, tmp_path, capsys):
        rc = main(["reproduce", "--figure", "fig4", "--out", str(tmp_path),
                   "--particles", "30"])
        assert rc == 0
        paths = capsys.readouterr().out.strip().split("\n")
        assert [os.path.basename(p) for p in paths] == [
            "fig4a_trace.csv", "fig4b_trace.csv", "fig4c_trace.csv",
            "fig4d_trace.csv", "fig4_summary.json"]
        with open(paths[-1]) as fh:
            summary = json.load(fh)
        assert set(summary["panels"]) == {"fig4a", "fig4b", "fig4c", "fig4d"}
        assert summary["n_particles"] == 30
        # each panel carries the same fields as a `pencbo run` summary
        for path, stats in zip(paths, summary["panels"].values()):
            assert list(stats) == ["final_consensus", "final_beta", "iterations_recorded",
                                   "aborted", "abort_reason", "duration_s", "trace_csv"]
            assert stats["trace_csv"] == path
            assert stats["iterations_recorded"] == 500 and stats["abort_reason"] is None

    def test_fig7_single_run_sweep(self, tmp_path, capsys):
        rc = main(["reproduce", "--figure", "fig7", "--out", str(tmp_path),
                   "--particles", "8", "--runs", "1"])
        assert rc == 0
        table_path, summary_path = capsys.readouterr().out.strip().split("\n")
        with open(table_path) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "d,sigma,success_rate,final_beta_median,n_aborted"
        assert len(lines) == 1 + 3 * 12  # three dimensions, twelve noise levels
        with open(summary_path) as fh:
            summary = json.load(fh)
        assert summary["diffusion"] == "isotropic"
        assert len(summary["results"]) == 36

    @pytest.mark.parametrize("argv,flag", [
        (["--figure", "fig1", "--particles", "0"], "--particles"),
        (["--figure", "fig1", "--particles", "-3"], "--particles"),
        (["--figure", "fig5", "--runs", "0"], "--runs"),
    ])
    def test_counts_below_one_exit_2_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                     argv, flag):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("pencbo.repro.run", no_runs)
        monkeypatch.setattr("pencbo.repro.success_rate", no_runs)
        rc = main(["reproduce", *argv, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("kwargs", [dict(n_runs=0), dict(n_particles=0)])
    def test_library_counts_below_one_raise_before_any_output(self, tmp_path, kwargs):
        with pytest.raises(ValueError, match="must be >= 1"):
            reproduce("fig5", str(tmp_path / "out"), **kwargs)
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("argv", [
        ["reproduce", "--figure", "fig2", "--iters", "3"],
        ["reproduce", "--figure", "fig2", "--spec", "s.json"],
        ["qp-gen", "--dim", "4", "--spec", "s.json"],
        ["qp-gen", "--dim", "4", "--particles", "7"],
        ["qp-gen", "--dim", "4", "--iters", "0"],
    ])
    def test_flags_a_command_does_not_read_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        def no_runs(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr("pencbo.repro.run", no_runs)
        rc = main([*argv, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_several_figures_match_single_calls(self, tmp_path, capsys):
        def emit(out, *figures):
            assert main(["reproduce", "--figure", *figures, "--out", str(tmp_path / out),
                         "--particles", "6"]) == 0
            captured = capsys.readouterr()
            return captured.out.replace(str(tmp_path / out), "D"), captured.err

        together, report = emit("both", "fig2", "fig1")
        apart = emit("one", "fig2")[0] + emit("one", "fig1")[0]
        assert together == apart
        assert [line.split(" (")[0] for line in report.strip().split("\n")] == [
            "fig2: 2 files", "fig1: 3 files"]
        for name in ("fig1_trace.csv", "fig1_particles.csv", "fig2_trace.csv"):
            assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_unknown_figure_exits_2(self, tmp_path, capsys):
        rc = main(["reproduce", "--figure", "fig99", "--out", str(tmp_path)])
        assert rc == 2
        assert "invalid choice: 'fig99'" in capsys.readouterr().err

    def test_missing_figure_flag_exits_2(self, tmp_path, capsys):
        rc = main(["reproduce", "--out", str(tmp_path)])
        assert rc == 2
        assert "required: --figure" in capsys.readouterr().err


class TestQpGen:
    def test_round_trip_is_bit_exact(self, tmp_path, capsys):
        rc = main(["qp-gen", "--dim", "4", "--qp-seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("qp-d4-s3.json")
        with open(path) as fh:
            loaded = QpInstance.from_json(fh.read())
        _, direct = make_random_qp(4, 3)
        for field in ("A", "b", "H", "h0", "x_star", "multipliers"):
            np.testing.assert_array_equal(getattr(loaded, field), getattr(direct, field))

    def test_bare_seed_flag_sets_the_instance_seed(self, tmp_path, capsys):
        rc = main(["qp-gen", "--dim", "4", "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip().endswith("qp-d4-s3.json")

    def test_dim_below_two_exits_2(self, tmp_path, capsys):
        rc = main(["qp-gen", "--dim", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert "qp-gen" in capsys.readouterr().err
