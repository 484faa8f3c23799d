"""Random convex QP generator with a known solution.

Instances minimize (1/2) x'Ax - b'x subject to H'x + h0 = 0 and x >= 0.
The generator works backwards from a target solution: x* and multipliers
are drawn first, then b is chosen so the KKT stationarity condition holds
exactly.  Multiplier magnitudes are kept below 1, which places the exact-
penalty threshold for the l1 constraint residual near 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .problems import InitSpec, Problem, _rowwise
from .rng import problem_stream

__all__ = ["QpInstance", "make_random_qp"]


@dataclass(frozen=True)
class QpInstance:
    """Data of one generated QP: matrices, target solution, multipliers.

    A is d x d symmetric positive definite; H is d x p with p = floor(d/2),
    so the equality constraint reads H.T @ x + h0 = 0.  ``multipliers`` are
    the equality multipliers; the bound multipliers are recoverable as
    mu = A @ x_star - b + H @ multipliers.
    """

    A: np.ndarray
    b: np.ndarray
    H: np.ndarray
    h0: np.ndarray
    x_star: np.ndarray
    multipliers: np.ndarray

    def __post_init__(self):
        for field in ("A", "b", "H", "h0", "x_star", "multipliers"):
            arr = np.array(getattr(self, field), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, field, arr)
        d = self.A.shape[0]
        p = self.H.shape[1]
        if self.A.shape != (d, d):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.H.shape != (d, p):
            raise ValueError(f"H must be (d, p), got {self.H.shape}")
        if self.b.shape != (d,) or self.x_star.shape != (d,):
            raise ValueError("b and x_star must be d-vectors")
        if self.h0.shape != (p,) or self.multipliers.shape != (p,):
            raise ValueError("h0 and multipliers must be p-vectors")

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.H.shape[1]

    def bound_multipliers(self) -> np.ndarray:
        return self.A @ self.x_star - self.b + self.H @ self.multipliers

    def validate(self, tol: float = 1e-10) -> None:
        """Check symmetry, positive definiteness, feasibility of x_star, and
        the KKT conditions; raises ValueError on the first failure."""
        if not np.allclose(self.A, self.A.T, atol=tol):
            raise ValueError("A is not symmetric")
        try:
            np.linalg.cholesky(self.A)
        except np.linalg.LinAlgError:
            raise ValueError("A is not positive definite") from None
        eq_residual = self.H.T @ self.x_star + self.h0
        if np.max(np.abs(eq_residual)) > tol:
            raise ValueError(f"x_star violates the equality constraint by {np.max(np.abs(eq_residual)):.2e}")
        if np.min(self.x_star) < -tol:
            raise ValueError("x_star violates the bound constraint")
        mu = self.bound_multipliers()
        if np.min(mu) < -tol:
            raise ValueError("bound multipliers are not all nonnegative")
        comp = np.abs(mu * self.x_star)
        if np.max(comp) > tol:
            raise ValueError(f"complementarity violated by {np.max(comp):.2e}")

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "p": self.p,
            "A": self.A.tolist(),
            "b": self.b.tolist(),
            "H": self.H.tolist(),
            "h0": self.h0.tolist(),
            "x_star": self.x_star.tolist(),
            "multipliers": self.multipliers.tolist(),
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "QpInstance":
        payload = json.loads(text)
        return QpInstance(
            A=np.array(payload["A"]),
            b=np.array(payload["b"]),
            H=np.array(payload["H"]),
            h0=np.array(payload["h0"]),
            x_star=np.array(payload["x_star"]),
            multipliers=np.array(payload["multipliers"]),
        )


def make_random_qp(d: int, seed: int) -> tuple[Problem, QpInstance]:
    """Generate a solvable QP and wrap it as a Problem.

    Deterministic in (d, seed); the draw order below is frozen so stored
    instances stay reproducible.  Construction: A = BB'/d + I from a
    standard-normal B; standard-normal H with p = floor(d/2) columns;
    x* uniform on [0, 2] with ceil(d/4) entries zeroed (active bounds);
    equality multipliers uniform on [-0.9, 0.9]; bound multipliers uniform
    on [0, 1] at the zeroed entries; then b = A x* + H nu - mu and
    h0 = -H' x* close the KKT system.

    The penalty r(x) = ||H'x + h0||_1 + ||max(0, -x)||_1 vanishes exactly
    on the feasible set, and the multiplier bound makes it exact for
    beta >= max multiplier magnitude (recorded as known_beta_bar, < 1).
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    rng = problem_stream(seed)
    p = d // 2
    n_zero = -(-d // 4)

    B = rng.standard_normal((d, d))
    A = B @ B.T / d + np.eye(d)
    H = rng.standard_normal((d, p))
    x_star = rng.uniform(0.0, 2.0, size=d)
    zero_idx = rng.choice(d, size=n_zero, replace=False)
    x_star[zero_idx] = 0.0
    nu = rng.uniform(-0.9, 0.9, size=p)
    mu_raw = rng.uniform(0.0, 1.0, size=d)
    mu = np.zeros(d)
    mu[zero_idx] = mu_raw[zero_idx]

    b = A @ x_star + H @ nu - mu
    h0 = -H.T @ x_star
    instance = QpInstance(A=A, b=b, H=H, h0=h0, x_star=x_star, multipliers=nu)

    @_rowwise
    def objective(x):
        return 0.5 * np.einsum("ni,ij,nj->n", x, A, x) - x @ b

    @_rowwise
    def penalty(x):
        return np.sum(np.abs(x @ H + h0), axis=1) + np.sum(np.maximum(0.0, -x), axis=1)

    problem = Problem(
        name=f"qp-d{d}-s{seed}",
        dim=d,
        objective=objective,
        penalty=penalty,
        init=InitSpec.uniform(-1.0, 3.0),
        known_solution=x_star,
        known_beta_bar=float(max(np.max(np.abs(nu)), np.max(mu), 1e-12)),
    )
    return problem, instance
