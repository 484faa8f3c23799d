"""Benchmark of pencbo: four workloads timed in CPU seconds.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-sphere --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.
"""

import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy loads, here and in
# the set-up processes that inherit this environment: idle pool threads
# spin and are charged to the process's CPU time.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Listed here rather than taken from workloads.py, so that parsing the
# arguments of a set-up process loads no numpy before its clock starts.
WORKLOAD_NAMES = ("meanfield-rastrigin2d", "sweep-sphere", "sweep-qp", "trace-cli")
MIN_OPS = 5  # fewest timed operations in a run, however short --seconds is


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def import_pencbo():
    """Import pencbo from this checkout's src/, never from an installed copy."""
    if not (SRC / "pencbo" / "__init__.py").is_file():
        raise SystemExit(f"error: no pencbo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pencbo

    if Path(pencbo.__file__).resolve().parent != SRC / "pencbo":
        raise SystemExit(f"error: imported pencbo from {pencbo.__file__}, not {SRC}")
    return pencbo


def setup_child(workload: str, seed: int, out_dir: Path) -> int:
    """One fresh-process set-up: CPU seconds from before ``import pencbo`` to
    the end of the problem's first objective and penalty call."""
    start = time.process_time()
    pc = import_pencbo()
    import_s = time.process_time() - start
    from workloads import WORKLOADS

    marks = WORKLOADS[workload]().setup(pc, seed, str(out_dir))
    setup_s = time.process_time() - start
    print(json.dumps(dict(marks, setup_s=setup_s, import_s=import_s)))
    return 0


def fresh_setup(workload: str, seed: int, out_dir: Path) -> dict:
    child_dir = out_dir / "setup"
    child_dir.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-child",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=str(child_dir),
    )
    if proc.returncode != 0:
        log(proc.stderr)
        raise SystemExit(f"error: set-up process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(marks: list[dict], key: str) -> float:
    return statistics.median(m.get(key, 0.0) for m in marks)


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def op(self, wl, i: int, runs=lambda: ()):
        """Run and check operation i; returns (CPU seconds, particle-steps),
        or None when the operation failed."""
        from checks import CheckFailed
        from workloads import OpFailed

        self.attempted += 1
        start = time.process_time()
        try:
            out = wl.op(i)
        except Exception:
            log(traceback.format_exc())
            self.failed += 1
            return None
        cpu = time.process_time() - start
        try:
            return cpu, wl.check(i, out, runs())
        except OpFailed as exc:
            log(f"operation {i} failed: {exc}")
            self.failed += 1
        except CheckFailed as exc:
            log(f"operation {i} output is wrong: {exc}")
            self.correct = False
        return None

    def guard(self, check) -> None:
        from checks import CheckFailed

        try:
            check()
        except CheckFailed as exc:
            log(f"check failed: {exc}")
            self.correct = False


def timed_run(wl, seed: int, seconds: float, out_dir: Path) -> tuple[Tally, dict]:
    """Whole operations until they have taken ``seconds`` of wall time.

    The fresh set-up processes are spread evenly over the run, so that a
    spell in which the host runs this VM slowly moves at most some of them.
    """
    tally, setups, cpu, rates = Tally(), [], [], []
    busy = 0.0
    i = 0
    while i < MIN_OPS or busy < seconds:
        if len(setups) < wl.n_setups and busy >= len(setups) * seconds / wl.n_setups:
            setups.append(fresh_setup(wl.name, seed, out_dir))
        start = time.perf_counter()
        done = tally.op(wl, i)
        busy += time.perf_counter() - start
        if done is not None:
            cpu.append(done[0])
            rates.append(done[1] / done[0])
        i += 1
    # read before the checks below, which load scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < wl.n_setups:
        setups.append(fresh_setup(wl.name, seed, out_dir))
    tally.guard(wl.check_setup)
    tally.guard(wl.finish)
    if not cpu:
        raise SystemExit("error: no operation completed")
    log(f"{wl.name}: {len(cpu)} timed operations, {busy:.1f} s wall; "
        f"op CPU s {[round(c, 3) for c in cpu]}; set-up CPU s "
        f"{[round(m['setup_s'], 3) for m in setups]}")
    return tally, {
        "setup_s": (median_of(setups, "setup_s"), "s"),
        "op_s": (statistics.median(cpu), "s"),
        "particle_steps_per_s": (statistics.median(rates), "particle-steps/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def traced_run(wl, pc, seed: int, out_dir: Path) -> tuple[Tally, dict]:
    """A fixed number of operations, first untraced and then traced, so the
    counts repeat exactly and the difference in op CPU is the tracing cost."""
    from tracing import PER_LAYER, Tracer

    setups = [fresh_setup(wl.name, seed, out_dir) for _ in range(wl.n_setups)]
    tally, tracer = Tally(), Tracer()
    tally.guard(wl.check_setup)  # traced checks need its independent solution
    plain = [tally.op(wl, i) for i in range(wl.traced_ops)]
    with tracer.installed(pc), wl.traced(tracer):
        traced = []
        for i in range(wl.traced_ops):
            seen = len(tracer.runs)
            traced.append(tally.op(wl, i, lambda: tracer.runs[seen:]))
    tally.guard(wl.finish)
    if None in plain or None in traced:
        raise SystemExit("error: an operation of the traced run failed")
    tracer.write_spans(out_dir / "spans.csv")
    n = wl.traced_ops
    values = {key: v / n for key, v in tracer.counts.items()}
    values.update({key: v / n for key, v in tracer.self_times().items()})
    values["problems.first_call_s"] = median_of(setups, "first_call_s")
    values["qp.make_random_qp.self_s"] = median_of(setups, "make_qp_s")
    values["setup.import_s"] = median_of(setups, "import_s")
    values["trace.overhead_s"] = (statistics.median(c for c, _ in traced)
                                  - statistics.median(c for c, _ in plain))
    return tally, {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def run_workload(args) -> int:
    pc = import_pencbo()
    from workloads import WORKLOADS

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload]()
    wl.setup(pc, args.seed, str(out_dir))  # warms caches; timed in fresh processes
    if args.trace:
        tally, metrics = traced_run(wl, pc, args.seed, out_dir)
    else:
        tally, metrics = timed_run(wl, args.seed, args.seconds, out_dir)
    for name, (value, unit) in metrics.items():
        log(f"  {name:40s} {value:14.6g} {unit}")
    log(f"  attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / "result.json").write_text(line + "\n")
    print(line)
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        log(f"== {name}")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(json.dumps(dict(workload=name, **result)))
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_child:
        return setup_child(args.workload, args.seed, Path.cwd())
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
