"""Spans around the calls into each pencbo layer, recorded from outside.

The tracer replaces, for the duration of a ``with tracer.installed(...)``
block, the names that ``pencbo.harness`` and ``pencbo.cli`` look up when
they call into the dynamics, rng, penalty and problem layers, plus the
package entry points the benchmark itself calls.  Each call records a span
(name, parent span, CPU start, CPU end) and bumps the counters of its
layer.  A layer's self time is its spans' CPU time minus the time of the
spans nested in them.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict
from dataclasses import replace

# The per-layer metrics the traced run reports, in BENCHMARK.json order.
# Values are per operation; a layer a workload never calls reports 0.
PER_LAYER = (
    ("rng.noise_normals.self_s", "s"),
    ("rng.noise_normals.calls", "count"),
    ("rng.normals_drawn", "count"),
    ("rng.batch_stream.self_s", "s"),
    ("dynamics.consensus_raw.self_s", "s"),
    ("dynamics.consensus_raw.calls", "count"),
    ("dynamics.consensus_raw.rows", "count"),
    ("dynamics.euler_maruyama_step.self_s", "s"),
    ("dynamics.euler_maruyama_step.calls", "count"),
    ("dynamics.euler_maruyama_step.rows", "count"),
    ("dynamics.variance_functional.self_s", "s"),
    ("problems.objective.self_s", "s"),
    ("problems.objective.rows", "count"),
    ("problems.penalty.self_s", "s"),
    ("problems.penalty.rows", "count"),
    ("problems.penalty.zero_rows", "count"),
    ("problems.first_call_s", "s"),
    ("qp.make_random_qp.self_s", "s"),
    ("qp.objective.self_s", "s"),
    ("qp.objective.rows", "count"),
    ("qp.penalty.self_s", "s"),
    ("qp.penalty.rows", "count"),
    ("penalty.ensemble_violation.self_s", "s"),
    ("penalty.controller_step.self_s", "s"),
    ("penalty.controller_step.calls", "count"),
    ("penalty.checks_passed", "count"),
    ("harness.run.self_s", "s"),
    ("harness.iterations", "count"),
    ("harness.success_rate.self_s", "s"),
    ("harness.batched_consensus.self_s", "s"),
    ("harness.batched_consensus.calls", "count"),
    ("harness.RunTrace.to_csv.self_s", "s"),
    ("harness.RunTrace.to_csv.bytes", "count"),
    ("cli.main.self_s", "s"),
    ("setup.import_s", "s"),
    ("trace.overhead_s", "s"),
)


def _rows(counts, name, args, result):
    counts[name + ".rows"] += args[0].shape[0]


def _normals(counts, name, args, result):
    counts["rng.normals_drawn"] += args[2] * args[3]


def _ensemble_rows(counts, name, args, result):
    counts[name + ".rows"] += args[0].n


def _passed(counts, name, args, result):
    counts["penalty.checks_passed"] += int(result[1])


def _iterations(counts, name, args, result):
    counts["harness.iterations"] += result.n_recorded


def _csv_bytes(counts, name, args, result):
    counts[name + ".bytes"] += os.path.getsize(args[1])


def _penalty_rows(counts, name, args, result):
    _rows(counts, name, args, result)
    counts[name + ".zero_rows"] += int((result == 0.0).sum())


# (module, attribute, span name, counter).  The same function reached under
# several names is wrapped under each, so a call is recorded once whichever
# name it went through.
_PATCHES = (
    ("pencbo.harness", "noise_normals", "rng.noise_normals", _normals),
    ("pencbo.harness", "batch_stream", "rng.batch_stream", None),
    ("pencbo.harness", "consensus_raw", "dynamics.consensus_raw", _rows),
    ("pencbo.harness", "euler_maruyama_step", "dynamics.euler_maruyama_step", _ensemble_rows),
    ("pencbo.harness", "variance_functional", "dynamics.variance_functional", None),
    ("pencbo.harness", "ensemble_violation", "penalty.ensemble_violation", None),
    ("pencbo.harness", "controller_step", "penalty.controller_step", _passed),
    ("pencbo.harness", "batched_consensus", "harness.batched_consensus", None),
    ("pencbo.harness", "run", "harness.run", _iterations),
    ("pencbo.cli", "run", "harness.run", _iterations),
    ("pencbo", "run", "harness.run", _iterations),
    ("pencbo", "success_rate", "harness.success_rate", None),
    ("pencbo.cli", "main", "cli.main", None),
)


class Tracer:
    """Spans and counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, cpu start, cpu end]
        self.counts: dict[str, float] = defaultdict(float)
        self.runs: list = []  # every RunTrace returned through harness.run
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.process_time(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.process_time()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, name, args, result)
            if name == "harness.run":
                self.runs.append(result)
            return result

        return traced

    def wrap_problem(self, problem, layer: str):
        """The problem with its objective and penalty traced as ``layer``."""
        return replace(
            problem,
            objective=self.wrap(f"{layer}.objective", problem.objective, _rows),
            penalty=self.wrap(f"{layer}.penalty", problem.penalty, _penalty_rows),
        )

    @contextlib.contextmanager
    def installed(self, pc):
        """Route pencbo's inner calls and entry points through the tracer."""
        saved = []
        try:
            for module, attr, name, counter in _PATCHES:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), counter))
            to_csv = pc.RunTrace.to_csv
            saved.append((pc.RunTrace, "to_csv", to_csv))
            pc.RunTrace.to_csv = self.wrap("harness.RunTrace.to_csv", to_csv, _csv_bytes)
            cli = importlib.import_module("pencbo.cli")
            saved.append((cli, "PROBLEMS", cli.PROBLEMS))
            cli.PROBLEMS = {
                key: (lambda make=make: self.wrap_problem(make(), "problems"))
                for key, make in cli.PROBLEMS.items()
            }
            yield self
        finally:
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name + ".self_s"] += end - start - inner
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,cpu_start_s,cpu_end_s\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start!r},{end!r}\n")
