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
from typing import Optional

from .harness import SPEC_DEFAULTS, RunConfig, config_from_spec, run, success_rate
from .problems import PROBLEMS
from .qp import make_random_qp
from .repro import FIGURES, reproduce

__all__ = ["main"]


class SpecError(Exception):
    """Malformed or inconsistent experiment spec; maps to exit code 2."""


_DEFAULTS = dict(SPEC_DEFAULTS, n_runs=100, tol_inf=0.1, sweep=None)


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
        value = getattr(args, flag, None)
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
            problem, _ = make_random_qp(int(qp["d"]), int(qp.get("seed", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"problem.qp: {exc}") from exc
        return problem
    raise SpecError("problem: expected a problem name or {'qp': {'d': ..., 'seed': ...}}")


def _build_config(spec: dict) -> RunConfig:
    try:
        return config_from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid spec value: {exc}") from exc


def _echo(spec: dict, problem_name) -> dict:
    out = {k: v for k, v in spec.items() if k != "problem"}
    out["problem"] = problem_name
    return out


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_run(args) -> int:
    spec = _load_spec(args.spec, args)
    problem = _build_problem(spec)
    config = _build_config(spec)
    out = _out_dir(args)
    trace = run(problem, config)
    base = f"{problem.name}_seed{config.seed}"
    trace_path = os.path.join(out, f"{base}_trace.csv")
    trace.to_csv(trace_path)
    summary = dict(
        spec=_echo(spec, spec["problem"]),
        problem=problem.name,
        final_consensus=trace.final_consensus.tolist(),
        final_beta=trace.final_beta,
        iterations_recorded=trace.n_recorded,
        aborted=trace.aborted,
        abort_reason=trace.abort_reason,
        duration_s=trace.duration_s,
        trace_csv=trace_path,
    )
    summary_path = os.path.join(out, f"{base}_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(trace_path)
    print(summary_path)
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
    out = _out_dir(args)
    n_runs = int(spec["n_runs"])
    tol = float(spec["tol_inf"])
    rows = []
    for combo in itertools.product(*(axes[name] for name in names)):
        point = dict(spec)
        point.update(dict(zip(names, (float(v) for v in combo))))
        config = _build_config(point)
        stats = success_rate(problem, config, n_runs, tol)
        rows.append((combo, stats))
    table_path = os.path.join(out, f"{problem.name}_sweep.csv")
    with open(table_path, "w") as fh:
        fh.write(",".join(names) + ",success_rate,n_aborted\n")
        for combo, stats in rows:
            fh.write(",".join(repr(float(v)) for v in combo)
                     + f",{stats.rate!r},{stats.n_aborted}\n")
    summary = dict(
        spec=_echo(spec, spec["problem"]),
        problem=problem.name, n_runs=n_runs, tol_inf=tol,
        points=[dict(zip(names, combo), success_rate=stats.rate,
                     n_aborted=stats.n_aborted,
                     outcomes=[dict(seed=o.seed, success=o.success, aborted=o.aborted)
                               for o in stats.outcomes])
                for combo, stats in rows],
        table_csv=table_path,
    )
    summary_path = os.path.join(out, f"{problem.name}_sweep_summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(table_path)
    print(summary_path)
    return 0


def cmd_reproduce(args) -> int:
    if args.figure is None:
        raise SpecError("reproduce: --figure is required")
    if args.figure not in FIGURES:
        raise SpecError(f"reproduce: unknown figure {args.figure!r}; known: {FIGURES}")
    paths = reproduce(
        args.figure, _out_dir(args), seed=args.seed or 0,
        n_particles=args.particles, n_runs=args.runs,
    )
    for p in paths:
        print(p)
    return 0


def cmd_qp_gen(args) -> int:
    # qp-gen has no run seed, so a bare --seed means the instance seed.
    seed = args.qp_seed if args.qp_seed is not None else (args.seed or 0)
    try:
        problem, instance = make_random_qp(args.dim, seed)
    except ValueError as exc:
        raise SpecError(f"qp-gen: {exc}") from exc
    instance.validate()
    out = _out_dir(args)
    path = os.path.join(out, f"{problem.name}.json")
    with open(path, "w") as fh:
        fh.write(instance.to_json())
    print(path)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pencbo",
        description="Penalized consensus-based optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", help="JSON experiment spec file")
    common.add_argument("--seed", type=int, help="override the spec seed")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--particles", type=int, help="override particle count")
    common.add_argument("--iters", type=int, help="override iteration count")

    sub.add_parser("run", parents=[common], help="single run: trace CSV + summary")
    sub.add_parser("sweep", parents=[common], help="success-rate table over sweep axes")
    rep = sub.add_parser("reproduce", parents=[common],
                         help="emit the data behind a published figure")
    rep.add_argument("--figure", help=f"one of {', '.join(FIGURES)}")
    rep.add_argument("--runs", type=int, help="repetitions per sweep point")
    qp = sub.add_parser("qp-gen", parents=[common],
                        help="generate and serialize a random QP instance")
    qp.add_argument("--dim", type=int, required=True, help="problem dimension (>= 2)")
    qp.add_argument("--qp-seed", type=int, default=None,
                    help="instance seed (default 0; --seed is accepted too)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    handlers = {"run": cmd_run, "sweep": cmd_sweep,
                "reproduce": cmd_reproduce, "qp-gen": cmd_qp_gen}
    try:
        return handlers[args.command](args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
