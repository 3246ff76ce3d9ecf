"""Complex spectra, exceptional points and collectivity of rank-one decaying systems.

The package studies effective Hamiltonians H(Lambda) = diag(eps) - 1j*Lambda*v v^T
for a single decay channel: their complex eigenvalues through the secular
equation, the exceptional points where pairs of them coalesce, the B measure
and order parameter of the collectivity transition, infinite-ladder and
power-law asymptotics, and the monodromy of eigenvectors around exceptional
points.
"""

from .errors import (
    BranchPointError,
    ConfigError,
    ContourError,
    DivergentModelError,
    EpAtlasError,
    IllConditionedNormalizationError,
    IncompleteSearchError,
    InvalidCouplingError,
    InvalidModelError,
    OracleRangeError,
    PoleProximityError,
    ResolutionError,
    SolverFailureError,
    ThetaSingularError,
    TrajectoryAmbiguityError,
)
from .models import (
    CouplingParameter,
    EffectiveModel,
    PerturbedPicketFence,
    PicketFence,
    PowerLaw,
    SpacingEnsemble,
    TwoLevel,
    build_perturbed_fence,
    build_picket_fence,
    build_power_law,
    build_spacing_ensemble,
    build_two_level,
)
from .secular import Spectrum, eigen_spectrum, secular_eval, two_level_closed_form
from .exceptional import (
    AccumulationResult,
    AccumulationRow,
    ExceptionalPoint,
    accumulation_scan,
    expand_ep_set,
    find_eps,
    two_level_eps,
)
from .trajectories import (
    OrderParameterCurve,
    Trajectory,
    TurningPoint,
    WidthPartition,
    broad_index,
    central_band,
    order_parameter,
    sweep,
    turning_points,
    width_partition,
)
from .collectivity import BCurve, BPeak, b_curve, b_measure, find_peak, participation
from .asymptotics import (
    LADDER_CRITICAL,
    classify_compensation,
    critical_coupling,
    infinite_fence_energy,
    ladder_resultant,
    secular_integral,
    trapped_width,
    weak_coupling_width,
)
from .oracles import dense_oracle, resultant_oracle
from .monodromy import LoopResult, OmegaComparison, loop_ep, omega_comparison, theta_along, theta_of, two_level_loop

__version__ = "0.1.0"

__all__ = [
    "BranchPointError", "ConfigError", "ContourError", "DivergentModelError", "EpAtlasError",
    "IllConditionedNormalizationError", "IncompleteSearchError", "InvalidCouplingError",
    "InvalidModelError", "OracleRangeError", "PoleProximityError", "ResolutionError",
    "SolverFailureError", "ThetaSingularError", "TrajectoryAmbiguityError",
    "CouplingParameter", "EffectiveModel", "PicketFence", "PerturbedPicketFence", "PowerLaw",
    "SpacingEnsemble", "TwoLevel", "build_picket_fence", "build_perturbed_fence",
    "build_power_law", "build_two_level", "build_spacing_ensemble",
    "Spectrum", "eigen_spectrum", "secular_eval", "dense_oracle", "two_level_closed_form",
    "ExceptionalPoint", "AccumulationRow", "AccumulationResult", "find_eps", "expand_ep_set",
    "two_level_eps", "resultant_oracle", "accumulation_scan",
    "Trajectory", "TurningPoint", "WidthPartition", "OrderParameterCurve", "sweep",
    "turning_points", "broad_index", "width_partition", "central_band", "order_parameter",
    "BCurve", "BPeak", "b_measure", "b_curve", "find_peak", "participation",
    "LADDER_CRITICAL", "infinite_fence_energy", "ladder_resultant", "classify_compensation",
    "critical_coupling", "secular_integral", "weak_coupling_width", "trapped_width",
    "LoopResult", "OmegaComparison", "loop_ep", "two_level_loop", "theta_of", "theta_along",
    "omega_comparison",
]
