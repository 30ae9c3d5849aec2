"""gcsdyn: dispersionless wave-packet dynamics in one dimension.

Displacing the exact ground state of a well produces a packet whose density
rides a classical trajectory; rebuilding the potential around that moving
center every instant (the feedback mechanism) keeps the packet coherent
indefinitely, while freezing the potential lets it spread. This package
builds the displaced states, reconstructs the time-dependent potential from
the hydrodynamic form of the dynamics, extracts the classical center
potential, and propagates both modes with matched diagnostics.
"""

from .classical import (
    Trajectory,
    classical_energy,
    classical_force,
    classical_period,
    integrate_trajectory,
    linear_coefficient,
    turning_points,
    v_class,
)
from .config import RunConfig, config_from_dict, echo_config, load_config
from .diagnostics import DiagnosticsRecord, record
from .displacement import (
    ClassicalPoint,
    GCSState,
    PolarFields,
    density_phase,
    gcs_from_model,
)
from .errors import (
    ConfigError,
    CoverageError,
    DiagnosticsError,
    DisplacementError,
    EscapeError,
    ExtractionError,
    GcsdynError,
    InvalidFieldError,
    NodeError,
    NormalizationError,
    OptionalDependencyError,
    PropagationError,
    UnitarityError,
)
from .grids import (
    ComplexField,
    Grid,
    RealField,
    boundary_mass,
    integrate,
    moments,
    normalized,
    quadrature_weights,
    second_derivative,
)
from .hydrodynamics import (
    PotentialSnapshot,
    assemble_potential,
    continuity_residual,
    hjm_residual,
    quantum_curvature,
)
from .models import (
    GroundStateInfo,
    PotentialModel,
    ground_energy,
    ground_moments,
    ground_state,
    ground_state_values,
    ground_density_values,
    potential_gradient,
    potential_value,
    stationary_residual,
    suggest_grid,
)
from .propagation import (
    PropagatorConfig,
    RunResult,
    evolve_feedback,
    evolve_static,
    step,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
