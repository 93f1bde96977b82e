"""Range-difference localization workbench.

Two halves that meet in the benchmark harness: reconstruction of range
differences from modulo-wavelength phase remainders sharing a common
factor, and distributed source localization where cluster heads fit local
weighted least-squares estimates and fuse them by diffusion over the
network graph.
"""

from .diffusion import (
    DiffusionState,
    build_q_matrix,
    connectivity_weights,
    diffuse,
    median_weights,
    optimal_weights,
)
from .estimators import (
    EstimationError,
    LocalEstimate,
    SelectionWeights,
    build_selection_weights,
    crlb,
    global_wls,
    local_wls,
    residual_and_jacobian,
)
from .geometry import (
    NetworkTopology,
    build_grid_network,
    deployment_center,
    distance,
    true_range_difference,
)
from .rcrt import (
    WavelengthSet,
    make_wavelength_set,
    reconstruct_batch,
    remainders_of,
)
from .signals import (
    MeasurementSet,
    phase_noise_std,
    simulate_phase_remainders,
    simulate_tdoa_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "DiffusionState",
    "EstimationError",
    "LocalEstimate",
    "MeasurementSet",
    "NetworkTopology",
    "SelectionWeights",
    "WavelengthSet",
    "build_grid_network",
    "build_q_matrix",
    "build_selection_weights",
    "connectivity_weights",
    "crlb",
    "deployment_center",
    "diffuse",
    "distance",
    "global_wls",
    "local_wls",
    "make_wavelength_set",
    "median_weights",
    "optimal_weights",
    "phase_noise_std",
    "reconstruct_batch",
    "remainders_of",
    "residual_and_jacobian",
    "simulate_phase_remainders",
    "simulate_tdoa_measurements",
    "true_range_difference",
]
