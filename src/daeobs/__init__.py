"""daeobs: minimax observers and infinite-horizon LQ controllers for
linear differential-algebraic equations.

The package reduces a (possibly non-regular) DAE to an ordinary linear
system through geometric control, solves the induced algebraic Riccati
equation, and assembles either the optimal dynamic controller or, through
duality, the minimax state observer with its guaranteed worst-case error.
"""

__version__ = "0.1.0"

from .dae import (
    CanonicalForm,
    DaeSystem,
    ObservedDae,
    canonical_form,
    dual_dae,
    induced_observed,
)
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
from .geometric import (
    OutputNullingData,
    friend,
    input_kernel_matrix,
    output_nulling,
    weakly_observable_subspace,
)
from .linalg import (
    Subspace,
    image_basis,
    inv_sqrt_spd,
    kernel_basis,
    pseudoinverse,
)
from .lti import (
    AssociatedLti,
    ConstructionRecord,
    assemble,
    construct,
    is_consistent,
    output_trajectory,
    output_trajectory_from_v0,
)
from .observer import (
    EstimationProblem,
    Observer,
    ObserverSynthesis,
    lambda_opt,
    observer_kernel,
    q0_bar,
    synthesize,
    synthesize_estimator,
    worst_case_bound,
)
from .riccati import (
    DynamicController,
    LqWeights,
    RiccatiSolution,
    assemble_controller,
    evaluate_cost,
    is_stabilizable,
    optimal_cost,
    solve_are,
)
from .equivalence import (
    FeedbackEquivalence,
    build_equivalence,
    randomized_construction,
    verify_equivalence,
)
from .signals import SampledSignal, integrate_lti, uniform_grid
from .simulate import (
    ExperimentResult,
    NoiseRealization,
    clean_realization,
    estimation_experiment,
    finite_horizon_infimum,
    run_estimation,
    run_observer,
    sample_admissible,
)

__all__ = [
    "__version__",
    "AssociatedLti",
    "CanonicalForm",
    "ConsistencyError",
    "ConstructionRecord",
    "DaeObsError",
    "DaeSystem",
    "DynamicController",
    "EstimationProblem",
    "ExperimentResult",
    "FeedbackEquivalence",
    "InestimableError",
    "InputError",
    "InternalConsistencyError",
    "LqWeights",
    "NoiseRealization",
    "NotPositiveDefiniteError",
    "NotStabilizableError",
    "ObservedDae",
    "Observer",
    "ObserverSynthesis",
    "OutputNullingData",
    "ProblemFileError",
    "RiccatiSolution",
    "SampledSignal",
    "Subspace",
    "assemble",
    "assemble_controller",
    "build_equivalence",
    "canonical_form",
    "clean_realization",
    "construct",
    "dual_dae",
    "estimation_experiment",
    "evaluate_cost",
    "finite_horizon_infimum",
    "friend",
    "image_basis",
    "induced_observed",
    "input_kernel_matrix",
    "integrate_lti",
    "inv_sqrt_spd",
    "is_consistent",
    "is_stabilizable",
    "kernel_basis",
    "lambda_opt",
    "observer_kernel",
    "optimal_cost",
    "output_nulling",
    "output_trajectory",
    "output_trajectory_from_v0",
    "pseudoinverse",
    "q0_bar",
    "randomized_construction",
    "run_estimation",
    "run_observer",
    "sample_admissible",
    "solve_are",
    "synthesize",
    "synthesize_estimator",
    "uniform_grid",
    "verify_equivalence",
    "weakly_observable_subspace",
    "worst_case_bound",
]
