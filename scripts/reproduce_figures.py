#!/usr/bin/env python3
"""Emit the plot-ready data behind every built-in figure.

Defaults match the package's reproduction table (sweeps at 100 runs per
point, mean-field panels at 1e5 particles); pass --published to run the
full-size versions from the original study (500-run sweeps, 1e6-particle
panels), which takes hours rather than minutes.

Examples:
    python3 scripts/reproduce_figures.py --out data
    python3 scripts/reproduce_figures.py --figures fig7 fig8 --runs 25
"""

import argparse
import os
import sys
import time

from pencbo.repro import FIGURES, reproduce


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data", help="output directory root")
    parser.add_argument("--figures", nargs="+", default=list(FIGURES),
                        choices=list(FIGURES), help="subset of figures to emit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="repetitions per sweep point (default 100)")
    parser.add_argument("--particles", type=int, default=None,
                        help="override particle count for every run")
    parser.add_argument("--published", action="store_true",
                        help="full-size sweeps (500 runs) and panels (1e6 particles)")
    args = parser.parse_args()

    for figure in args.figures:
        n_runs = args.runs
        n_particles = args.particles
        if args.published:
            n_runs = n_runs or 500
            if figure == "fig4" and n_particles is None:
                n_particles = 1_000_000
        start = time.time()
        out_dir = os.path.join(args.out, figure)
        paths = reproduce(figure, out_dir, seed=args.seed,
                          n_particles=n_particles, n_runs=n_runs)
        print(f"{figure}: {len(paths)} files in {out_dir} "
              f"({time.time() - start:.1f}s)")
        for p in paths:
            print(f"  {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
