"""daeobs: minimax observers and infinite-horizon LQ controllers for
linear differential-algebraic equations.

The package reduces a (possibly non-regular) DAE to an ordinary linear
system through geometric control, solves the induced algebraic Riccati
equation, and assembles either the optimal dynamic controller or, through
duality, the minimax state observer with its guaranteed worst-case error.

The names below are the ones README and docs/ use; everything else is
imported from its module.
"""

__version__ = "0.1.0"

from .dae import DaeSystem, ObservedDae
from .errors import (
    ConsistencyError,
    DaeObsError,
    InestimableError,
    InputError,
    InternalConsistencyError,
    NotPositiveDefiniteError,
    NotStabilizableError,
    ProblemFileError,
)
from .lti import ConstructionRecord, construct
from .observer import EstimationProblem, synthesize, synthesize_estimator
from .riccati import (
    DynamicController,
    LqWeights,
    RiccatiSolution,
    assemble_controller,
    solve_are,
)
from .equivalence import build_equivalence
from .simulate import estimation_experiment, finite_horizon_infimum, sample_admissible

__all__ = [
    "__version__",
    "ConsistencyError",
    "ConstructionRecord",
    "DaeObsError",
    "DaeSystem",
    "DynamicController",
    "EstimationProblem",
    "InestimableError",
    "InputError",
    "InternalConsistencyError",
    "LqWeights",
    "NotPositiveDefiniteError",
    "NotStabilizableError",
    "ObservedDae",
    "ProblemFileError",
    "RiccatiSolution",
    "assemble_controller",
    "build_equivalence",
    "construct",
    "estimation_experiment",
    "finite_horizon_infimum",
    "sample_admissible",
    "solve_are",
    "synthesize",
    "synthesize_estimator",
]
