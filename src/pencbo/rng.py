"""Counter-based random streams.

Every random draw in a run is produced by a Philox generator keyed on
``(seed, purpose, iteration)``.  Streams are therefore a pure function of
those three integers: re-running with the same seed gives bit-identical
noise no matter how many threads execute runs concurrently, and iteration
``k`` of a run can be regenerated without replaying iterations ``0..k-1``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["noise_normals", "initial_positions"]

# Purpose tags keep the per-iteration streams for different jobs disjoint.
_NOISE = 0
_INIT = 1
_BATCH = 2
_PROBLEM = 3

_COUNTER_BITS = 48  # iteration counter space per purpose


def substream(seed: int, purpose: int, counter: int = 0) -> np.random.Generator:
    """Generator for one (seed, purpose, counter) cell of the key space."""
    if not 0 <= counter < 2**_COUNTER_BITS:
        raise ValueError(f"counter out of range: {counter}")
    if purpose < 0 or purpose > 2 ** (64 - _COUNTER_BITS) - 1:
        raise ValueError(f"purpose out of range: {purpose}")
    key = [np.uint64(seed % 2**64), np.uint64((purpose << _COUNTER_BITS) | counter)]
    return np.random.Generator(np.random.Philox(key=key))


def noise_normals(seed: int, iteration: int, n: int, d: int) -> np.ndarray:
    """The (n, d) standard-normal block driving one Euler-Maruyama step."""
    return substream(seed, _NOISE, iteration).standard_normal((n, d))


def initial_positions(seed: int, n: int, d: int, spec) -> np.ndarray:
    """Sample the initial ensemble from an InitSpec-like object.

    ``spec`` needs a ``kind`` attribute ("uniform" or "gaussian") plus
    (low, high) or (mean, std); bounds broadcast against shape (n, d).
    """
    gen = substream(seed, _INIT)
    if spec.kind == "uniform":
        low = np.broadcast_to(np.asarray(spec.low, dtype=float), (d,))
        high = np.broadcast_to(np.asarray(spec.high, dtype=float), (d,))
        return low + (high - low) * gen.random((n, d))
    if spec.kind == "gaussian":
        mean = np.broadcast_to(np.asarray(spec.mean, dtype=float), (d,))
        std = np.broadcast_to(np.asarray(spec.std, dtype=float), (d,))
        return mean + std * gen.standard_normal((n, d))
    raise ValueError(f"unknown init kind: {spec.kind!r}")


def batch_stream(seed: int, iteration: int) -> np.random.Generator:
    """Generator used to draw batch memberships at one iteration."""
    return substream(seed, _BATCH, iteration)


def problem_stream(seed: int) -> np.random.Generator:
    """Generator used to draw random problem instances (one per seed)."""
    return substream(seed, _PROBLEM)
