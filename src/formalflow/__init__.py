"""Truncated formal mappings, their composition algebra, and the
Euler-Maruyama triangular solver for stochastic flow coefficients."""

__version__ = "0.1.0"

from .algebra import (
    FormalMapping,
    MultilinearMap,
    NonFiniteError,
    ShapeError,
    apply_to_tuple,
    compose,
    enumerate_compositions,
    evaluate,
    identity,
)
from .chain import (
    BlowupError,
    BrownianPath,
    ChainSolution,
    CoefficientFamily,
    DiffusionFamily,
    DiffusionMap,
    EvolutionReport,
    PathBatch,
    TimeGrid,
    evolution_check,
    forcing_terms,
    one_step_map,
    sample_path,
    sample_paths,
    simulate_direct,
    solve_chain,
    solve_chain_batch,
)
from .explicit import FundamentalSolution, UnsupportedCaseError, fundamental, variation_of_constants
from .verification import (
    ConvergenceReport,
    ExcessiveBlowupError,
    ScalingReport,
    bernoulli_closed_form,
    estimate_order,
    gbm_closed_form,
    polynomial_oracle_compose,
    quadratic_chain_s2_closed_form,
    truncation_scaling,
)
