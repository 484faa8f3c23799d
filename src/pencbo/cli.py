"""Command-line driver: single runs, sweeps, figure reproduction, QP export.

Experiments are described by JSON spec files (schema in the README); flags
override file values.  Every command writes plot-ready CSV plus a summary
JSON that echoes the fully resolved spec, so any summary can be re-run.
Exit codes: 0 success, 1 runtime abort, 2 usage or spec error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Optional

import numpy as np

from .harness import SPEC_DEFAULTS, RunConfig, _whole, config_from_spec, run
from .problems import PROBLEMS, Problem
from .qp import make_random_qp
from .repro import DEFAULT_N_RUNS, FIGURES, _success_table, _write_json, _write_trace, reproduce

__all__ = ["main"]


class SpecError(Exception):
    """Malformed or inconsistent experiment spec; maps to exit code 2."""


_DEFAULTS = dict(SPEC_DEFAULTS, n_runs=DEFAULT_N_RUNS, tol_inf=0.1, sweep=None)


def _load_spec(path: Optional[str], args: argparse.Namespace) -> dict:
    spec = dict(_DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise SpecError(f"cannot read spec file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise SpecError("spec file must contain a JSON object")
        unknown = set(loaded) - set(_DEFAULTS) - {"problem"}
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        spec.update(loaded)
    for flag, field in (("seed", "seed"), ("particles", "n_particles"),
                        ("iters", "n_iterations")):
        value = getattr(args, flag)
        if value is not None:
            spec[field] = value
    return spec


def _build_problem(spec: dict):
    selector = spec.get("problem")
    if selector is None:
        raise SpecError("spec is missing the required field 'problem'")
    if isinstance(selector, str):
        if selector not in PROBLEMS:
            raise SpecError(
                f"problem: unknown name {selector!r}; known: {sorted(PROBLEMS)} or {{'qp': ...}}"
            )
        return PROBLEMS[selector]()
    if isinstance(selector, dict) and set(selector) == {"qp"}:
        qp = selector["qp"]
        try:
            problem, _ = make_random_qp(_whole(qp["d"], "d"), _whole(qp.get("seed", 0), "seed"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"problem.qp: {exc}") from exc
        return problem
    raise SpecError("problem: expected a problem name or {'qp': {'d': ..., 'seed': ...}}")


def _build_config(spec: dict, problem: Problem) -> RunConfig:
    """The spec's RunConfig, with each ``init`` bound checked to broadcast to
    ``(problem.dim,)`` as the run will need it."""
    try:
        config = config_from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec value: {exc}") from exc
    init = config.init
    if init is not None:
        for name in ("low", "high") if init.kind == "uniform" else ("mean", "std"):
            bound = getattr(init, name)
            try:
                np.broadcast_to(np.asarray(bound, dtype=float), (problem.dim,))
            except ValueError:
                raise SpecError(
                    f"init.{name}: shape {np.shape(bound)} does not broadcast "
                    f"to the problem's dimension ({problem.dim},)"
                ) from None
    return config


def cmd_run(args) -> int:
    spec = _load_spec(args.spec, args)
    problem = _build_problem(spec)
    config = _build_config(spec, problem)
    os.makedirs(args.out, exist_ok=True)
    trace = run(problem, config)
    base = os.path.join(args.out, f"{problem.name}_seed{config.seed}")
    stats = _write_trace(trace, f"{base}_trace.csv")
    print(stats["trace_csv"])
    print(_write_json(f"{base}_summary.json", dict(spec=spec, problem=problem.name, **stats)))
    if trace.aborted:
        print(f"run aborted: {trace.abort_reason}", file=sys.stderr)
        return 1
    return 0


_SWEEP_AXES = ("beta0", "sigma")


def cmd_sweep(args) -> int:
    spec = _load_spec(args.spec, args)
    problem = _build_problem(spec)
    axes = spec.get("sweep")
    if not isinstance(axes, dict) or not axes:
        raise SpecError("sweep: spec must provide a non-empty 'sweep' object")
    bad = set(axes) - set(_SWEEP_AXES)
    if bad:
        raise SpecError(f"sweep: unsupported axes {sorted(bad)}; supported: {_SWEEP_AXES}")
    names = sorted(axes)
    for name in names:
        if not isinstance(axes[name], list) or not axes[name]:
            raise SpecError(f"sweep.{name}: expected a non-empty list")
    try:
        n_runs = _whole(spec["n_runs"], "n_runs")
        tol = float(spec["tol_inf"])
        points = [tuple(float(v) for v in combo)
                  for combo in itertools.product(*(axes[name] for name in names))]
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec value: {exc}") from exc
    if n_runs < 1:
        raise SpecError(f"n_runs must be >= 1, got {n_runs}")
    if not tol > 0:
        raise SpecError(f"tol_inf must be > 0, got {tol}")
    # all configs are built first, so a bad value at any point fails before a run
    cells = [(point, problem, _build_config({**spec, **dict(zip(names, point))}, problem))
             for point in points]
    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, f"{problem.name}_sweep.csv")
    summary = dict(spec=spec, problem=problem.name, n_runs=n_runs, tol_inf=tol,
                   points=_success_table(table_path, names, cells, n_runs, tol),
                   table_csv=table_path)
    print(table_path)
    print(_write_json(os.path.join(args.out, f"{problem.name}_sweep_summary.json"), summary))
    return 0


def cmd_reproduce(args) -> int:
    for figure in args.figure:
        start = time.perf_counter()
        paths = reproduce(figure, args.out, seed=args.seed,
                          n_particles=args.particles, n_runs=args.runs)
        for p in paths:
            print(p)
        print(f"{figure}: {len(paths)} files ({time.perf_counter() - start:.1f} s)",
              file=sys.stderr)
    return 0


def cmd_qp_gen(args) -> int:
    try:
        problem, instance = make_random_qp(args.dim, args.qp_seed)
    except ValueError as exc:
        raise SpecError(f"qp-gen: {exc}") from exc
    instance.validate()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{problem.name}.json")
    with open(path, "w") as fh:
        fh.write(instance.to_json())
    print(path)
    return 0


def positive_int(text: str) -> int:
    """argparse type of the count flags: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pencbo",
        description="Penalized consensus-based optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary):
        cmd = sub.add_parser(name, help=summary)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--out", default=".", help="output directory (default: current)")
        return cmd

    for name, handler, summary in (
        ("run", cmd_run, "single run: trace CSV + summary"),
        ("sweep", cmd_sweep, "success-rate table over sweep axes"),
    ):
        cmd = command(name, handler, summary)
        cmd.add_argument("--spec", help="JSON experiment spec file")
        cmd.add_argument("--seed", type=int, help="override the spec seed")
        cmd.add_argument("--particles", type=positive_int, help="override particle count")
        cmd.add_argument("--iters", type=positive_int, help="override iteration count")
    rep = command("reproduce", cmd_reproduce, "emit the data behind published figures")
    rep.add_argument("--figure", nargs="+", choices=FIGURES, required=True,
                     help="figures to emit, in order")
    rep.add_argument("--seed", type=int, default=0, help="first run seed (default 0)")
    rep.add_argument("--particles", type=positive_int,
                     help="particle count of every run (default: the figure's own)")
    rep.add_argument("--runs", type=positive_int,
                     help=f"repetitions per sweep point (default {DEFAULT_N_RUNS})")
    qp = command("qp-gen", cmd_qp_gen, "generate and serialize a random QP instance")
    qp.add_argument("--dim", type=int, required=True, help="problem dimension (>= 2)")
    qp.add_argument("--qp-seed", "--seed", dest="qp_seed", type=int, default=0,
                    help="instance seed (default 0)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        return args.handler(args)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
