"""City-road lattice invasion model: simulation, spreading speeds, verification.

Vertex ("city") densities on the integer lattice exchange mass with diffusive
edge ("road") profiles through Robin boundary conditions; a KPP reaction at
the vertices drives invasion fronts whose speed the dispersion relation
predicts.  The package simulates the coupled system and its large-diffusion
limit, computes the predicted speeds, and measures realized fronts.
"""

from .model import (
    EdgeGrid,
    LatticeState,
    NonlinearityDescriptor,
    Parameters,
    logistic,
    rescale_to_unit_length,
    stationary_from_rho,
    stationary_residual,
    total_mass,
)
from .edge_solver import (
    RobinStepInput,
    assemble_step_operator,
    integral_representation_oracle,
    manufactured_solution_error,
    step_edge,
)
from .lattice_sim import (
    BlowUpError,
    InitialData,
    SimulationConfig,
    Trajectory,
    check_long_time_convergence,
    compatibility_residuals,
    init_state,
    run_system,
    simulate,
    step_system,
)
from .dispersion import (
    DispersionPoint,
    DispersionResult,
    compute_c_star,
    dispersion_eval,
    find_lambda0,
    profile_v_star,
)
from .asymptotic import (
    AsymptoticSpeed,
    AsymptoticState,
    asymptotic_dispersion_eval,
    compute_c_star_inf,
    large_d_convergence_experiment,
    simulate_asymptotic,
    step_asymptotic,
)
from .front_speed import (
    FrontTrace,
    NoCrossingError,
    estimate_speed,
    level_position,
    loglog_fit,
)

__version__ = "0.1.0"
