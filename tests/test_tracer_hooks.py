"""The benchmark tracer (perfbench/tracing.py) patches pencbo names by
attribute lookup; these tests keep every name it patches in place and
check that its counts match the work a run does."""

import contextlib
import importlib
import importlib.util
import io
import json
import os

import pytest

import pencbo as pc
import pencbo.cli

K = 4

TRACING_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names(tracing):
    """Every (object, attribute) the tracer replaces, with its current value."""
    names = [(importlib.import_module(module), attr) for module, attr, _, _ in tracing._PATCHES]
    names += [(pc.RunTrace, "to_csv"), (pencbo.cli, "PROBLEMS")]
    return {(obj, attr): getattr(obj, attr) for obj, attr in names}


def traced(tracing, call):
    """Run ``call`` under the tracer; returns its counts and call's result
    after checking that every patched name is restored."""
    before = patched_names(tracing)
    tracer = tracing.Tracer()
    with tracer.installed(pc):
        result = call()
    assert patched_names(tracing) == before
    return tracer.counts, result


def config(batch=None, n_particles=6):
    return pc.RunConfig(
        params=pc.CboParams(lam=1.0, sigma=0.5, dt=0.1),
        controller=pc.PenaltyController.fresh(beta0=0.1, theta0=4.0),
        n_particles=n_particles, n_iterations=K, seed=3, batch=batch,
    )


@pytest.mark.parametrize("batch", [None, pc.BatchSpec.partition(2)])
def test_run_counts_one_step_per_iteration(tracing, batch):
    counts, trace = traced(tracing, lambda: pc.run(pc.make_j1_sphere(), config(batch)))
    assert trace.n_recorded == K
    assert counts["harness.iterations"] == K
    assert counts["dynamics.euler_maruyama_step.calls"] == K
    assert counts["dynamics.euler_maruyama_step.rows"] == 6 * K
    assert counts["harness.batched_consensus.calls"] == (0 if batch is None else K)


def test_success_rate_counts_every_run(tracing):
    counts, stats = traced(tracing, lambda: pc.success_rate(
        pc.make_j1_sphere(), config(), 3, 0.1, threads=1))
    assert len(stats.outcomes) == 3
    assert counts["harness.iterations"] == 3 * K
    assert counts["dynamics.euler_maruyama_step.calls"] == 3 * K


def test_cli_run_is_traced(tracing, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(problem="test1", n_particles=6, n_iterations=K)))
    argv = ["run", "--spec", str(spec), "--seed", "2", "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        counts, code = traced(tracing, lambda: pencbo.cli.main(argv))
    assert code == 0
    assert counts["cli.main.calls"] == 1
    assert counts["harness.iterations"] == K
    assert counts["dynamics.euler_maruyama_step.calls"] == K
    assert counts["problems.objective.calls"] > 0
    assert counts["harness.RunTrace.to_csv.calls"] == 1
