"""Degree-constrained Nevanlinna-Pick interpolation by homotopy continuation.

Solves for a strictly positive-real rational function of degree at most n
matching prescribed values at self-conjugate nodes outside the unit disk,
with the solution family parameterized by a Schur spectral-zero
polynomial.  The solver reformulates the problem through a nonstandard
matrix Riccati equation (the covariance extension equation) and follows
its solution vector from a closed-form central start to the target data
with an RK4 predictor and Newton corrector.

Typical use::

    from nevpick import InterpolationProblem, MonicPolynomial, solve

    problem = InterpolationProblem(nodes, values, sigma)
    solution = solve(problem)
    solution.interpolant(z)

Post-solve analysis (positive-degree detection, model reduction, spectral
densities) lives in :mod:`nevpick.analysis`; data generation from
simulated time series in :mod:`nevpick.ingestion`; the command-line
interface in :mod:`nevpick.cli`.  The solver's internals (Pick matrix,
normalization, CEE matrices, operator pairs, homotopy context, recovery
of ``P``) are imported from their modules: :mod:`nevpick.problem`,
:mod:`nevpick.polyalg`, :mod:`nevpick.cee_core` and
:mod:`nevpick.continuation`.
"""

from .analysis import (
    DegreeReport,
    RunRecord,
    dominant_zeros,
    estimate_positive_degree,
    log_spectral_deviation,
    reduce_model,
    singular_values,
    spectral_density,
)
from .cee_core import RealnessError, SteinConsistencyError
from .continuation import (
    ContinuationState,
    CorrectorError,
    Diagnostics,
    PathError,
    Solution,
    solve,
)
from .ingestion import (
    FilterBankSpec,
    MonteCarloConfig,
    default_bank_poles,
    estimate_values,
    exact_values,
    filter_bank,
    monte_carlo,
    nodes_from_poles,
    simulate_arma,
)
from .polyalg import MonicPolynomial
from .problem import (
    INF,
    InterpolationProblem,
    ProblemValidationError,
    Violation,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "ContinuationState",
    "CorrectorError",
    "DegreeReport",
    "Diagnostics",
    "FilterBankSpec",
    "InterpolationProblem",
    "MonicPolynomial",
    "MonteCarloConfig",
    "PathError",
    "ProblemValidationError",
    "RealnessError",
    "RunRecord",
    "Solution",
    "SteinConsistencyError",
    "Violation",
    "default_bank_poles",
    "dominant_zeros",
    "estimate_positive_degree",
    "estimate_values",
    "exact_values",
    "filter_bank",
    "log_spectral_deviation",
    "monte_carlo",
    "nodes_from_poles",
    "reduce_model",
    "simulate_arma",
    "singular_values",
    "solve",
    "spectral_density",
    "validate",
]
