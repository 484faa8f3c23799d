"""Interacting-particle consensus dynamics.

The state is an ensemble of N particles in R^d.  Each iteration pulls every
particle toward a Gibbs-weighted average of the ensemble (the consensus
point) and adds multiplicative noise scaled by the particle's displacement
from that average:

    x' = x - lam * (x - x_c) * dt + sigma * D(x - x_c) * B * sqrt(dt)

with D either the Euclidean norm of the displacement times the identity
(isotropic) or the diagonal matrix of per-coordinate absolute displacements
(anisotropic), and B a standard-normal vector.  The consensus weights are
exp(-alpha * v_i) for per-particle values v_i; as alpha grows the consensus
point approaches the position of the best (lowest-value) particle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiffusionKind",
    "CboParams",
    "ParticleEnsemble",
    "consensus_raw",
    "euler_maruyama_step",
    "variance_functional",
]


class DiffusionKind(enum.Enum):
    ISOTROPIC = "isotropic"
    ANISOTROPIC = "anisotropic"


@dataclass(frozen=True)
class CboParams:
    """Dynamics constants: drift rate, noise strength, step size, weight sharpness.

    ``alpha`` is usable up to 1e6; consensus weights are computed in shifted
    form so large alpha cannot overflow.
    """

    lam: float = 1.0
    sigma: float = 1.0
    dt: float = 0.1
    alpha: float = 1e6
    diffusion: DiffusionKind = DiffusionKind.ISOTROPIC

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not isinstance(self.diffusion, DiffusionKind):
            object.__setattr__(self, "diffusion", DiffusionKind(self.diffusion))

    def decay_condition_holds(self, d: int) -> bool:
        """Whether the ensemble-contraction condition holds in dimension d.

        2*lam > d*sigma^2 for isotropic noise, 2*lam > sigma^2 for
        anisotropic.  Purely diagnostic: runs proceed either way.
        """
        if self.diffusion is DiffusionKind.ISOTROPIC:
            return 2.0 * self.lam > d * self.sigma**2
        return 2.0 * self.lam > self.sigma**2


@dataclass(frozen=True)
class ParticleEnsemble:
    """Immutable (n, d) array of particle positions, all finite."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.float64, copy=True, order="C")
        if pos.ndim != 2:
            raise ValueError(f"positions must be 2-d (n, d), got shape {pos.shape}")
        if pos.shape[0] < 1 or pos.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {pos.shape}")
        if not np.all(np.isfinite(pos)):
            bad = np.argwhere(~np.isfinite(pos))[0]
            raise ValueError(f"non-finite coordinate at particle {bad[0]}, dim {bad[1]}")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


def _gibbs_weights(values: np.ndarray, alpha: float) -> np.ndarray:
    """exp(-alpha * values), unnormalized and shifted by the minimum so
    that large alpha cannot overflow; all ones at alpha 0, whatever the spread."""
    if alpha == 0:
        return np.ones_like(values)
    # a spread whose product overflows to inf gets weight exp(-inf) = 0, its limit
    with np.errstate(over="ignore"):
        return np.exp(-alpha * (values - values.min()))


def consensus_raw(positions: np.ndarray, values: np.ndarray, alpha: float) -> np.ndarray:
    """Gibbs-weighted average of the rows of an (n, d) position array.

    ``values`` are the per-particle scores being minimized; weight i is
    proportional to exp(-alpha * values[i]).  The result always lies in the
    componentwise hull of the positions, and with alpha=0 it is the plain
    mean.  Non-finite values, or a point that rounding pushed outside the
    hull, raise FloatingPointError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (positions.shape[0],):
        raise ValueError(
            f"values must have shape ({positions.shape[0]},), got {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("consensus values must be finite")
    w = _gibbs_weights(values, alpha)
    point = (positions * w[:, None]).sum(axis=0) / w.sum()
    # weighted mean must stay in the componentwise hull; clip away the
    # last-ulp rounding excursions so downstream code can rely on it
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    slack = 1e-9 * np.maximum(1.0, np.abs(hi - lo))
    if np.any(point < lo - slack) or np.any(point > hi + slack):
        raise FloatingPointError("consensus point escaped the coordinate hull")
    return np.clip(point, lo, hi)


def euler_maruyama_step(
    ensemble: ParticleEnsemble,
    consensus: np.ndarray,
    params: CboParams,
    noise: np.ndarray,
) -> ParticleEnsemble:
    """One explicit step of the consensus SDE discretization.

    ``consensus`` is either one (d,) point that every particle moves toward
    or an (n, d) array with one target per particle; a particle whose target
    is its own position stays exactly where it is.  ``noise`` must be a
    caller-supplied (n, d) standard-normal block; the step itself draws
    nothing, so identical inputs give identical outputs.
    """
    pos = ensemble.positions
    target = np.asarray(consensus, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != pos.shape:
        raise ValueError(f"noise shape {noise.shape} != positions shape {pos.shape}")
    if target.shape not in ((ensemble.d,), pos.shape):
        raise ValueError(
            f"consensus must have shape ({ensemble.d},) or {pos.shape}, got {target.shape}"
        )
    diff = pos - target
    if params.diffusion is DiffusionKind.ISOTROPIC:
        scales = np.linalg.norm(diff, axis=1, keepdims=True)
    else:
        scales = np.abs(diff)
    new = pos - params.lam * diff * params.dt + params.sigma * scales * noise * np.sqrt(params.dt)
    if not np.all(np.isfinite(new)):
        bad = np.argwhere(~np.isfinite(new))[0]
        raise FloatingPointError(
            f"step produced non-finite coordinate at particle {bad[0]}, dim {bad[1]}"
        )
    return ParticleEnsemble(new)


def variance_functional(positions: np.ndarray, reference: np.ndarray) -> float:
    """Half the mean squared distance of the (n, d) rows to a reference point.

    The Lyapunov quantity of the contraction analysis; decays like
    exp(-(lam - d*sigma^2/2) t) toward a fixed reference when the decay
    condition 2*lam > d*sigma^2 holds.
    """
    reference = np.asarray(reference, dtype=np.float64)
    diff = positions - reference[None, :]
    with np.errstate(over="ignore"):  # huge but finite rows give V = inf
        return float(0.5 * np.mean(np.sum(diff * diff, axis=1)))
