#!/usr/bin/env python3
"""Print SHA-256 fingerprints of fixed-seed runs, one line per case.

A case is one run of a problem (the six built-ins plus the d=10 QP) under
one diffusion, batch mode, feasibility check, controller mode and seed:
7 x 2 x 4 x 2 x 2 x 2 = 448 runs.  Each line hashes the trace CSV, the
final consensus, the final beta, the abort flag and every recorded particle
snapshot, so two checkouts that print the same lines produce bit-identical
runs.  Only the public API is used, so the script runs unchanged against
older versions of the package.

The 448 cases run twice.  The first block uses alpha = 1e6, where the
consensus is the best particle bit for bit, and ends with the line
"all 448 cases <total>".  The second block repeats the cases at
alpha = 1.0, where every weight counts, so a last-bit change in an
objective or penalty value reaches the hashes; its lines start with
"alpha=1.0".

Usage (takes about 6 s on a 2-vCPU VM):
    PYTHONPATH=src python3 scripts/trace_hashes.py > hashes.txt
    diff hashes_before.txt hashes_after.txt
"""

import hashlib
import io
import itertools
import sys

import numpy as np

import pencbo as pc

N_PARTICLES = 12
N_ITERATIONS = 20
SEEDS = (0, 1)
BATCHES = {
    "none": None,
    "subset-all": pc.BatchSpec.random_subset(4, update_scope="all"),
    "subset-batch": pc.BatchSpec.random_subset(4, update_scope="batch"),
    "partition": pc.BatchSpec.partition(3),
}


def problems():
    for name, make in pc.PROBLEMS.items():
        yield name, make()
    yield "qp-d10", pc.make_random_qp(10, 0)[0]


def fingerprint(trace) -> str:
    h = hashlib.sha256()
    buf = io.StringIO()
    trace.to_csv(buf)
    h.update(buf.getvalue().encode())
    h.update(np.asarray(trace.final_consensus, dtype=np.float64).tobytes())
    h.update(repr(float(trace.final_beta)).encode())
    h.update(b"aborted" if trace.aborted else b"finished")
    for snap in trace.particles:
        h.update(np.ascontiguousarray(snap, dtype=np.float64).tobytes())
    return h.hexdigest()


def block(alpha: float, prefix: str) -> None:
    total = hashlib.sha256()
    count = 0
    for (name, problem), diffusion, (label, batch), check, mode, seed in itertools.product(
        problems(), pc.DiffusionKind, BATCHES.items(), pc.FeasibilityCheck,
        pc.ControllerMode, SEEDS,
    ):
        config = pc.RunConfig(
            params=pc.CboParams(lam=1.0, sigma=0.8, dt=0.05, alpha=alpha, diffusion=diffusion),
            controller=pc.PenaltyController.fresh(beta0=5.0, theta0=0.1, mode=mode),
            n_particles=N_PARTICLES,
            n_iterations=N_ITERATIONS,
            seed=seed,
            check=check,
            batch=batch,
            record_particles=True,
        )
        digest = fingerprint(pc.run(problem, config))
        total.update(digest.encode())
        count += 1
        print(f"{prefix}{name} {diffusion.value} {label} {check.value} {mode.value} {seed} {digest}")
    print(f"{prefix}all {count} cases {total.hexdigest()}")


def main() -> int:
    block(1e6, "")
    block(1.0, "alpha=1.0 ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
