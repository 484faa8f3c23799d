"""Benchmark problems: objectives, penalties, and known solutions.

Every objective and penalty is vectorized over particle rows: an (n, d)
array maps to an (n,) array, and a single (d,) point maps to a float.
The run loop raises ValueError on a problem whose callables break this.
Penalties are nonnegative and vanish exactly on the feasible set, so the
merit function j + beta * r reduces to the objective at feasible points.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import _row_sum

__all__ = [
    "InitSpec",
    "Problem",
    "make_test1",
    "make_rastrigin2d",
    "rastrigin2d_constraint",
    "make_j1",
    "make_j2",
    "sphere_penalty",
    "torus_penalty",
    "make_j1_sphere",
    "make_j2_sphere",
    "make_j1_torus",
    "make_j2_torus",
    "PROBLEMS",
]

# Shift vector for the Ackley objective; the repeating decimals
# 1.7666..., 1.5333..., 1.3333..., 1.0666..., 0.8333... as exact rationals.
ACKLEY_SHIFT = np.array([53 / 30, 23 / 15, 4 / 3, 16 / 15, 5 / 6])

# Constrained minimizer of the 2D problem, polished to machine precision
# and nudged to the feasible side of the active constraint (g ~ -2e-12).
RASTRIGIN2D_SOLUTION = np.array([-2.093744868285018, 1.6420373575486034])

# Minimizers of j1/j2 restricted to the unit sphere and to the torus,
# polished to machine precision from a dense multistart.
J1_SPHERE_SOLUTION = np.full(5, -0.4472135954999579)  # -1/sqrt(5) per coordinate
J2_SPHERE_SOLUTION = np.array([
    0.7554187557132483,
    0.5342625379147865,
    0.34470156461304147,
    0.09203144395398943,
    -0.1289072875153446,
])
J1_TORUS_SOLUTION = np.array([
    -0.7457281456339456,
    -0.7457281456339437,
    -0.7457281456339485,
    -0.7457281456339456,
    -0.09203648066507623,
])
J2_TORUS_SOLUTION = np.array([
    0.795061391193524,
    0.5638908421531229,
    0.36574899442037845,
    1.0569355114355652,
    -0.12712149386656435,
])


@dataclass(frozen=True)
class InitSpec:
    """Initial particle distribution: a uniform box or an axis-aligned Gaussian."""

    kind: str
    low: float | np.ndarray | None = None
    high: float | np.ndarray | None = None
    mean: float | np.ndarray | None = None
    std: float | np.ndarray | None = None

    def __post_init__(self):
        fields = {"uniform": ("low", "high"), "gaussian": ("mean", "std")}.get(self.kind)
        if fields is None:
            raise ValueError(f"unknown init kind {self.kind!r}")
        for name in fields:
            value = getattr(self, name)
            if value is None or not np.all(np.isfinite(value)):
                raise ValueError(f"{self.kind} init needs a finite {name}, got {value!r}")

    @staticmethod
    def uniform(low: float | np.ndarray, high: float | np.ndarray) -> "InitSpec":
        return InitSpec(kind="uniform", low=low, high=high)

    @staticmethod
    def gaussian(mean: float | np.ndarray = 0.0, std: float | np.ndarray = 1.0) -> "InitSpec":
        return InitSpec(kind="gaussian", mean=mean, std=std)


@dataclass(frozen=True)
class Problem:
    """A constrained minimization task packaged for the particle harness.

    ``objective`` and ``penalty`` follow the row-vectorized contract above.
    ``known_solution``/``known_beta_bar`` are populated where the minimizer
    or the exactness threshold of the penalty weight is available in closed
    or polished form.
    """

    name: str
    dim: int
    objective: Callable[[np.ndarray], np.ndarray]
    penalty: Callable[[np.ndarray], np.ndarray]
    init: InitSpec
    known_solution: Optional[np.ndarray] = None
    known_beta_bar: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.known_solution is not None:
            sol = np.array(self.known_solution, dtype=np.float64)
            if sol.shape != (self.dim,):
                raise ValueError(
                    f"known_solution shape {sol.shape} != ({self.dim},)"
                )
            sol.flags.writeable = False
            object.__setattr__(self, "known_solution", sol)


def _rowwise(f: Callable[[np.ndarray], np.ndarray]):
    """Lift an (n, d) -> (n,) function to also accept a single (d,) point.
    It runs silently: a value past the finite range comes back as inf or NaN."""

    def wrapped(x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError(f"expected (d,) or (n, d) input, got shape {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            return float(f(x[None, :])[0]) if x.ndim == 1 else f(x)

    return wrapped


def _quartic(u: np.ndarray) -> np.ndarray:
    """The double-well building block u^4/5 - 2 u^2 + u, elementwise."""
    return u**4 / 5.0 - 2.0 * u**2 + u


# ---------------------------------------------------------------------------
# 1D problem: quartic objective, half-line constraint x >= -1.5.


def make_test1() -> Problem:
    """1D double-well with the box constraint x >= -1.5.

    The objective x^4/5 - 2x^2 + x + 10, which is ``make_j1(1)``, has its
    global minimum near x = -2.3519, outside the feasible half-line, so the
    constrained solution sits on the boundary at x = -1.5.  The penalty is the
    constraint residual max(0, -x - 1.5); the derivative of the objective
    at the boundary makes the penalty exact precisely for beta >= 4.3.
    """

    @_rowwise
    def penalty(x):
        return np.maximum(0.0, -x[:, 0] - 1.5)

    return Problem(
        name="test1",
        dim=1,
        objective=make_j1(1),
        penalty=penalty,
        init=InitSpec.gaussian(0.0, 1.0),
        known_solution=np.array([-1.5]),
        known_beta_bar=4.3,
    )


# ---------------------------------------------------------------------------
# 2D problem: separable double-well objective, Rastrigin-type constraint
# g(x) <= 0 whose feasible set is a scattering of small disjoint discs.

_ROT = np.array([
    [np.cos(np.pi / 6), -np.sin(np.pi / 6)],
    [np.sin(np.pi / 6), np.cos(np.pi / 6)],
])
_SHIFT2D = np.array([1.0, 1.0])


def _to_z(x: np.ndarray) -> np.ndarray:
    """Constraint-frame coordinates: rotate by pi/6 after centering at (1,1)."""
    return (x - _SHIFT2D) @ _ROT.T


def _g_term(z: np.ndarray) -> np.ndarray:
    """The per-coordinate term z^2 - 10 cos(2 pi z) of g, elementwise."""
    return z**2 - 10.0 * np.cos(2.0 * np.pi * z)


def _g_of_z(z: np.ndarray) -> np.ndarray:
    """The rastrigin2d constraint g at constraint-frame rows z."""
    return 0.5 * _row_sum(_g_term(z)) + 5.0


@_rowwise
def rastrigin2d_constraint(x: np.ndarray) -> np.ndarray:
    """g(x) = (1/2) sum_i (z_i^2 - 10 cos(2 pi z_i)) + 5 in the rotated frame.

    Feasible (g <= 0) near rotated lattice points z = (m, n) with
    m^2 + n^2 <= 10; each such point carries a small disc.
    """
    return _g_of_z(_to_z(x))


# Distance field for the feasible set {g <= 0}, sampled on a z-frame grid.
# Grid feasible cells are genuinely feasible (g <= 0 at the center), so the
# cell-to-cell distance transform overestimates the true distance by at most
# one cell diagonal; subtracting two diagonals after interpolation makes the
# queried value a guaranteed underestimate, so dist-to-set bounds like
# r(x) <= |x - x*| survive discretization.  g is even in each z-coordinate,
# so only the quadrant z >= 0 of the _GRID_N x _GRID_N grid is stored: node
# (i, j) of the full grid reads quadrant node (|i - c|, |j - c|), c = _GRID_N // 2.
_GRID_LO = -6.0
_GRID_HI = 6.0
_GRID_N = 3001
_GRID_H = (_GRID_HI - _GRID_LO) / (_GRID_N - 1)
_field_lock = threading.Lock()
_field_cache: dict[str, np.ndarray] = {}


def _distance_field() -> np.ndarray:
    """The exact distance transform, in z units, of the infeasible nodes of
    the quadrant z >= 0, as a (c + 1, c + 1) float32 array.  A nearest
    feasible node mirrored into the quadrant is no farther away, so this is
    the full grid's transform read through the mirror map, bit for bit."""
    with _field_lock:
        if "field" not in _field_cache:
            from scipy.ndimage import distance_transform_edt

            # g is separable: node (i, j) sums t[i] + t[j], as _g_of_z sums a row
            t = _g_term(np.linspace(_GRID_LO, _GRID_HI, _GRID_N)[_GRID_N // 2:])
            infeasible = 0.5 * (t[:, None] + t[None, :]) + 5.0 > 0.0
            edt = distance_transform_edt(infeasible)
            _field_cache["field"] = (edt * _GRID_H).astype(np.float32)
        return _field_cache["field"]


def _distance_to_feasible(z: np.ndarray) -> np.ndarray:
    """Underestimated Euclidean distance from z-frame points to {g <= 0}."""
    field = _distance_field()
    c = _GRID_N // 2
    margin = 2.0 * np.sqrt(2.0) * _GRID_H
    inner_lo = _GRID_LO + _GRID_H
    inner_hi = _GRID_HI - _GRID_H
    zc = np.clip(z, inner_lo, inner_hi)
    over = z - zc
    overshoot = np.sqrt(_row_sum(over * over))

    u = (zc - _GRID_LO) / _GRID_H
    i0 = np.floor(u).astype(np.int64)
    i0 = np.clip(i0, 0, _GRID_N - 2)
    frac = u - i0
    # corner[a, b] is full-grid node (i0 + a, j0 + b), read through the mirror
    step = np.array([[0], [1]])
    rows = np.abs(i0[:, 0] + step - c) * (c + 1)
    cols = np.abs(i0[:, 1] + step - c)
    corner = field.take(rows[:, None] + cols[None, :])
    w0 = 1.0 - frac[:, 0]
    w1 = frac[:, 0]
    interp = (
        (corner[0, 0] * w0 + corner[1, 0] * w1) * (1.0 - frac[:, 1])
        + (corner[0, 1] * w0 + corner[1, 1] * w1) * frac[:, 1]
    )
    near = np.maximum(0.0, interp - margin)
    # outside the grid both the clamped field value and the overshoot are
    # lower bounds on the true distance; take the larger
    return np.maximum(near, overshoot)


def make_rastrigin2d() -> Problem:
    """2D double-well objective constrained to the discs where g <= 0.

    The penalty is the Euclidean distance to the feasible set, computed
    from a precomputed distance transform in the constraint frame (exact
    zero whenever g <= 0, slightly underestimated outside).  The distance
    scale makes the penalty exact at moderate beta even though g itself
    ranges over tens.
    """

    @_rowwise
    def penalty(x):
        z = _to_z(x)
        return np.where(_g_of_z(z) <= 0.0, 0.0, _distance_to_feasible(z))

    return Problem(
        name="rastrigin2d",
        dim=2,
        objective=make_j1(2),
        penalty=penalty,
        init=InitSpec.uniform(-3.0, 3.0),
        known_solution=RASTRIGIN2D_SOLUTION,
    )


# ---------------------------------------------------------------------------
# d=5 objectives and surface penalties.


def make_j1(d: int) -> Callable[[np.ndarray], np.ndarray]:
    """Separable double-well in dimension d: (1/d) sum_i quartic(x_i) + 10.

    In d=1 this is exactly the test1 objective.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")

    @_rowwise
    def objective(x):
        if x.shape[1] != d:
            raise ValueError(f"expected dimension {d}, got {x.shape[1]}")
        return _row_sum(_quartic(x)) / d + 10.0

    return objective


def make_j2() -> Callable[[np.ndarray], np.ndarray]:
    """Ackley objective shifted to have its global minimum (value 0) at
    the rational point ACKLEY_SHIFT; defined only in d=5, and other
    dimensions raise ValueError."""

    @_rowwise
    def objective(x):
        if x.shape[1] != 5:
            raise ValueError(f"expected dimension 5, got {x.shape[1]}")
        y = x - ACKLEY_SHIFT
        rms = np.sqrt(np.mean(y**2, axis=1))
        cos_mean = np.mean(np.cos(2.0 * np.pi * y), axis=1)
        return -20.0 * np.exp(-0.2 * rms) - np.exp(cos_mean) + 20.0 + np.e

    return objective


@_rowwise
def sphere_penalty(x: np.ndarray) -> np.ndarray:
    """Distance to the unit sphere: | ||x|| - 1 |."""
    return np.abs(np.linalg.norm(x, axis=1) - 1.0)


@_rowwise
def torus_penalty(x: np.ndarray) -> np.ndarray:
    """Distance to the torus of tube radius 1/2 around the unit circle in
    the leading d-1 coordinates.

    rho = sqrt(||x||^2 - x_d^2) is the radius in the leading coordinates;
    the value is | sqrt((rho - 1)^2 + x_d^2) - 1/2 |.  On the axis rho = 0
    the formula's limit (distance measured from the circle's axis) is used.
    """
    if x.shape[1] < 2:
        raise ValueError("torus penalty needs d >= 2")
    rho = np.sqrt(np.sum(x[:, :-1] ** 2, axis=1))
    return np.abs(np.sqrt((rho - 1.0) ** 2 + x[:, -1] ** 2) - 0.5)


def _surface_problem(
    name: str,
    objective: Callable[[np.ndarray], np.ndarray],
    penalty: Callable[[np.ndarray], np.ndarray],
    solution: np.ndarray,
) -> Problem:
    return Problem(
        name=name,
        dim=5,
        objective=objective,
        penalty=penalty,
        init=InitSpec.uniform(-2.0, 2.0),
        known_solution=solution,
    )


def make_j1_sphere() -> Problem:
    """Double-well objective restricted to the unit sphere in d=5."""
    return _surface_problem("j1-sphere", make_j1(5), sphere_penalty, J1_SPHERE_SOLUTION)


def make_j2_sphere() -> Problem:
    """Shifted Ackley objective restricted to the unit sphere in d=5."""
    return _surface_problem("j2-sphere", make_j2(), sphere_penalty, J2_SPHERE_SOLUTION)


def make_j1_torus() -> Problem:
    """Double-well objective restricted to the embedded torus in d=5."""
    return _surface_problem("j1-torus", make_j1(5), torus_penalty, J1_TORUS_SOLUTION)


def make_j2_torus() -> Problem:
    """Shifted Ackley objective restricted to the embedded torus in d=5."""
    return _surface_problem("j2-torus", make_j2(), torus_penalty, J2_TORUS_SOLUTION)


PROBLEMS: dict[str, Callable[[], Problem]] = {
    "test1": make_test1,
    "rastrigin2d": make_rastrigin2d,
    "j1-sphere": make_j1_sphere,
    "j2-sphere": make_j2_sphere,
    "j1-torus": make_j1_torus,
    "j2-torus": make_j2_torus,
}
