"""Consensus-based particle optimization with adaptive exact penalties.

Particles minimize a penalized objective j(x) + beta * r(x) by drifting
toward a Gibbs-weighted consensus point; beta and the feasibility
tolerance are adapted online from the ensemble's constraint violation.

The package re-exports the ``__all__`` of each module below.
"""

from . import dynamics, harness, penalty, problems, qp, rng
from .dynamics import *
from .harness import *
from .penalty import *
from .problems import *
from .qp import *
from .rng import *

__version__ = "0.1.0"

__all__ = [
    *dynamics.__all__, *harness.__all__, *penalty.__all__,
    *problems.__all__, *qp.__all__, *rng.__all__, "__version__",
]
