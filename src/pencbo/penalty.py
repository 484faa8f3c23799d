"""Penalized objective and the adaptive penalty-weight controller.

Constrained problems are run through the merit function

    P(x, beta) = j(x) + beta * r(x)

where r >= 0 vanishes exactly on the feasible set.  For r built from l1
constraint residuals (or a distance to the feasible set) there is a finite
threshold beta_bar such that minimizers of P(., beta) coincide with
constrained minimizers for every beta >= beta_bar.  Since beta_bar is rarely
known, beta is adapted online: whenever the ensemble's aggregate
infeasibility exceeds a shrinking tolerance 1/sqrt(theta), beta is raised;
otherwise the tolerance tightens.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import _gibbs_weights

__all__ = [
    "FeasibilityCheck",
    "ControllerMode",
    "PenaltyController",
    "ensemble_violation",
    "controller_step",
]


class FeasibilityCheck(enum.Enum):
    """How ensemble infeasibility is aggregated each iteration."""

    PLAIN_MEAN = "plain_mean"
    GIBBS = "gibbs"


class ControllerMode(enum.Enum):
    """INCREASE_ONLY never lowers beta.  DECREASE_UNTIL_FIRST_VIOLATION also
    divides beta by eta_beta on each passed check until the first failed
    one, useful when the initial beta may be far too large."""

    INCREASE_ONLY = "increase_only"
    DECREASE_UNTIL_FIRST_VIOLATION = "decrease_until_first_violation"


@dataclass(frozen=True)
class PenaltyController:
    """Immutable controller state; ``controller_step`` returns the successor.

    theta grows through consecutive passed checks, so the tolerance
    1/sqrt(theta) can tighten without bound.  A failed check undoes one
    notch of tightening, theta <- max(theta/eta, theta0), so the tolerance
    relaxes step by step but never above its initial value 1/sqrt(theta0).
    """

    beta: float
    theta: float
    theta0: float
    eta_beta: float = 1.1
    eta_theta: float = 1.1
    mode: ControllerMode = ControllerMode.INCREASE_ONLY
    has_violated: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        if not (np.isfinite(self.theta0) and self.theta0 > 0):
            raise ValueError(f"theta0 must be finite and > 0, got {self.theta0}")
        if self.eta_beta <= 1:
            raise ValueError(f"eta_beta must be > 1, got {self.eta_beta}")
        if self.eta_theta <= 1:
            raise ValueError(f"eta_theta must be > 1, got {self.eta_theta}")
        if not isinstance(self.mode, ControllerMode):
            object.__setattr__(self, "mode", ControllerMode(self.mode))

    @classmethod
    def fresh(
        cls,
        beta0: float,
        theta0: float,
        eta_beta: float = 1.1,
        eta_theta: float = 1.1,
        mode: ControllerMode = ControllerMode.INCREASE_ONLY,
    ) -> "PenaltyController":
        return cls(
            beta=beta0,
            theta=theta0,
            theta0=theta0,
            eta_beta=eta_beta,
            eta_theta=eta_theta,
            mode=mode,
        )

    @property
    def tolerance(self) -> float:
        return 1.0 / np.sqrt(self.theta)


def _merit(objectives: np.ndarray, penalties: np.ndarray, beta: float) -> np.ndarray:
    """The merit P = j + beta * r of each particle.  An overflow raises
    FloatingPointError naming beta, so a run aborts for that reason."""
    with np.errstate(over="raise"):
        try:
            return objectives + beta * penalties
        except FloatingPointError:
            raise FloatingPointError(f"merit j + beta*r overflowed at beta={beta!r}") from None


def ensemble_violation(
    penalties: np.ndarray,
    objectives: np.ndarray,
    beta: float,
    alpha: float,
    check: FeasibilityCheck,
) -> float:
    """Aggregate infeasibility of the ensemble under the selected check,
    from the values r(x_i), j(x_i) the run loop already holds.

    PLAIN_MEAN is the unweighted mean of r.  GIBBS weights r(x_i) by
    exp(-alpha * P(x_i, beta)), concentrating the check on the particles
    currently steering the consensus point; with alpha = 0 it is the plain
    mean.  A finite mean is finite even where the sum of the rows overflows.
    """
    penalties = np.asarray(penalties, dtype=np.float64)
    objectives = np.asarray(objectives, dtype=np.float64)
    if penalties.shape != objectives.shape:
        raise ValueError("penalties and objectives must have matching shapes")
    w = (None if check is FeasibilityCheck.PLAIN_MEAN
         else _gibbs_weights(_merit(objectives, penalties, beta), alpha))

    def mean(r):
        return r.mean() if w is None else (r * w).sum() / w.sum()

    with np.errstate(over="ignore"):
        violation = mean(penalties)
        # only an overflowing sum is rescaled by the largest row; other means keep their bits
        if np.isinf(violation) and np.isfinite(scale := np.abs(penalties).max()):
            violation = mean(penalties / scale) * scale
    return float(violation)


_BOUND = float(np.finfo(np.float64).max)


def controller_step(controller: PenaltyController, violation: float) -> tuple[PenaltyController, bool]:
    """Advance the controller by one observed violation.

    Passed check (violation <= 1/sqrt(theta)): tolerance tightens,
    theta <- eta_theta * theta, beta holds (or shrinks, in the decreasing
    mode before any violation has occurred).  Failed check: beta <-
    eta_beta * beta and theta <- max(theta / eta_theta, theta0), so the
    tolerance relaxes one notch per failure but is capped at its initial
    value 1/sqrt(theta0).  beta and theta saturate at the largest finite
    float, and a shrinking beta at its reciprocal.  Returns (next state,
    passed); a non-finite violation raises FloatingPointError.
    """
    if not np.isfinite(violation):
        raise FloatingPointError(f"violation must be finite, got {violation}")
    if violation < 0:
        raise ValueError(f"violation must be >= 0, got {violation}")
    passed = violation <= controller.tolerance
    if passed:
        beta = controller.beta
        if (
            controller.mode is ControllerMode.DECREASE_UNTIL_FIRST_VIOLATION
            and not controller.has_violated
        ):
            beta = max(controller.beta / controller.eta_beta, 1.0 / _BOUND)
        theta = min(controller.theta * controller.eta_theta, _BOUND)
        nxt = replace(controller, beta=beta, theta=theta)
    else:
        nxt = replace(
            controller,
            beta=min(controller.beta * controller.eta_beta, _BOUND),
            theta=max(controller.theta / controller.eta_theta, controller.theta0),
            has_violated=True,
        )
    return nxt, passed
