"""adveig: a numerical laboratory for the principal eigenvalue of
-phi'' - 2s m' phi' + c phi under Robin/Dirichlet/Neumann/periodic
boundary conditions, its s -> infinity limit predicted from the
monotonicity structure of the advection profile m, and the
concentration behavior of the principal eigenfunction."""

from .assembly import (DiscreteOperator, SubBC, assemble_periodic,
                       assemble_subinterval, assemble_transformed,
                       eigenfunction_on_grid, principal_eigen)
from .lab import (GridPolicy, LimitProfile, RescaledProfile, SweepRecord,
                  component_mass_radius, estimate_limit, growth_exponent,
                  limit_ode_ground_state, mass_distribution, profile_distance,
                  rescaled_profile, segment_restriction_distance, sweep)
from .maxset import (IsolatedMax, MaxSetDecomposition, SegmentMax, decompose,
                     decompose_periodic)
from .predictor import LimitPrediction, LimitTerm, periodic_prediction, predict_limit
from .profile import (AdvectionProfile, PeriodicBC, Potential, ProfileSpec,
                      RobinBC, TEMPLATES, build_profile, builtin, profile_from_dict)
from .spectral import EigenPair, SymTridiag, smallest_eig

__version__ = "0.1.0"

__all__ = [
    "AdvectionProfile", "DiscreteOperator", "EigenPair",
    "GridPolicy", "IsolatedMax", "LimitPrediction", "LimitProfile",
    "LimitTerm", "MaxSetDecomposition", "PeriodicBC", "Potential",
    "ProfileSpec", "RescaledProfile", "RobinBC", "SegmentMax", "SubBC",
    "SweepRecord", "SymTridiag", "TEMPLATES", "assemble_periodic",
    "assemble_subinterval", "assemble_transformed",
    "build_profile", "builtin", "component_mass_radius", "decompose",
    "decompose_periodic", "eigenfunction_on_grid",
    "estimate_limit", "growth_exponent", "limit_ode_ground_state",
    "mass_distribution", "periodic_prediction",
    "predict_limit", "principal_eigen", "profile_distance",
    "profile_from_dict", "rescaled_profile", "segment_restriction_distance",
    "smallest_eig", "sweep",
]
