"""Forward and inverse solver for Love-wave dispersion in layered half-spaces.

The forward path evaluates the dispersion function of an (n+1)-layer
elastic half-space with overflow-safe scaled transfer matrices, finds all
wavenumber roots at a frequency, traces branches, and counts modes against
Weyl-law asymptotics.  The inverse path recovers layer velocities,
thicknesses, and (for one layer) densities from dispersion data, with a
Levenberg-Marquardt least-squares refiner on Rayleigh-principle
sensitivities for the general case.  Two independent oracles (a
boundary-matching determinant and a finite-difference eigensolver)
cross-check the physics.
"""

from .branch import (
    Branch,
    BranchSet,
    cutoff_frequencies,
    roots_at_omega,
    trace_branches,
)
from .dispersion import DispersionValue, dispersion_value, layer_matrix
from .errors import (
    AmbiguousOrdering,
    BadBracket,
    DegeneratePoint,
    DivergedOrInfeasible,
    InsufficientData,
    LoveDispError,
    NoLoveWaves,
    NonPositiveParameter,
    NonRealResult,
    NotOnBranch,
    OutOfRange,
    ResultOutOfRange,
    UnresolvedLevels,
)
from .inversion import (
    DispersionDataset,
    InversionReport,
    ParameterEstimate,
    alt_thickness_estimate,
    branchset_from_dataset,
    invert_double_layer,
    invert_single_layer,
    least_squares_refine,
    parameter_mask,
    recover_extremes,
    synthesize_observations,
)
from .medium import (
    Medium,
    OrderedProfile,
    load_medium,
    ordered_profile,
    validate_medium,
)
from .modes import ModeDiagnostics, ModeShape, mode_norms, mode_residuals, mode_shape
from .oracles import determinant_oracle, fd_eigen_oracle
from .spectral import (
    LevelEstimate,
    WeylPrediction,
    accumulation_statistic,
    detect_levels,
    mode_count,
    weyl_prediction,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchSet",
    "cutoff_frequencies",
    "roots_at_omega",
    "trace_branches",
    "DispersionValue",
    "dispersion_value",
    "layer_matrix",
    "LoveDispError",
    "NonPositiveParameter",
    "NoLoveWaves",
    "BadBracket",
    "InsufficientData",
    "UnresolvedLevels",
    "AmbiguousOrdering",
    "OutOfRange",
    "ResultOutOfRange",
    "DivergedOrInfeasible",
    "DegeneratePoint",
    "NonRealResult",
    "NotOnBranch",
    "DispersionDataset",
    "InversionReport",
    "ParameterEstimate",
    "alt_thickness_estimate",
    "branchset_from_dataset",
    "invert_double_layer",
    "invert_single_layer",
    "least_squares_refine",
    "parameter_mask",
    "recover_extremes",
    "synthesize_observations",
    "Medium",
    "OrderedProfile",
    "load_medium",
    "ordered_profile",
    "validate_medium",
    "ModeDiagnostics",
    "ModeShape",
    "mode_norms",
    "mode_residuals",
    "mode_shape",
    "determinant_oracle",
    "fd_eigen_oracle",
    "LevelEstimate",
    "WeylPrediction",
    "accumulation_statistic",
    "detect_levels",
    "mode_count",
    "weyl_prediction",
]
