"""Existence checks, simulation, and perturbation analysis for boundary white noise.

The package decides (at desk scale) whether an evolution equation whose
boundary condition is driven by white noise has a state-space-valued solution,
simulates the solution when it exists, and verifies numerically that
solvability survives rank-one boundary feedback perturbations.
"""

__version__ = "0.1.0"

from .admissibility import (
    SeriesVerdict,
    Verdict,
    WeissScan,
    adjoint_duality_check,
    duality_residual,
    dyadic_diagnostic,
    dyadic_terms,
    frequency_series,
    gamma_infinite,
    gamma_time,
    parseval_identity_check,
    weiss_scan,
)
from .errors import (
    BoundaryNoiseError,
    ExistenceGateError,
    FactorizationError,
    PreconditionError,
    SingularResolventError,
    SpecValidationError,
    TruncationMismatchError,
    UnsupportedRepresentationError,
)
from .models import (
    HeatNeumannModel,
    TransportModel,
    build_heat_neumann,
    build_transport,
    constant_one_feedback,
    dirichlet_frequency_criterion,
    dirichlet_hs_norm_spectral,
    heat_dirichlet_closed_form,
    heat_dirichlet_hs_norm_quadrature,
)
from .modelspec import ModelBundle, ModelSpec, build_bundle, parse_model, parse_model_dict
from .perturbation import (
    RankOnePerturbation,
    galerkin_perturbed_generator,
    perturbed_gamma_time,
    perturbed_orbit_defect,
    perturbed_semigroup_apply,
)
from .simulate import (
    CovarianceMatrix,
    EnsembleStats,
    PathEnsemble,
    covariance_qt,
    ensemble_stats,
    factor_psd,
    require_existence,
    sample_exact,
    sample_grid,
)
from .spectral import (
    Coefficients,
    DiagonalModel,
    SpectrumTail,
    TailRule,
    evaluate_semigroup,
    growth_bound,
)
