"""Range-difference localization workbench.

Two halves that meet in the benchmark harness: reconstruction of range
differences from modulo-wavelength phase remainders sharing a common
factor, and distributed source localization where cluster heads fit local
weighted least-squares estimates and fuse them by diffusion over the
network graph.
"""

from .diffusion import DiffusionState, build_q_matrix, connectivity_weights, diffuse, median_weights, optimal_weights
from .estimators import (
    EstimationError,
    LocalEstimate,
    SelectionWeights,
    WlsOptions,
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
    dump_topology_csv,
    true_range_difference,
)
from .rcrt import (
    AmbiguityError,
    QuotientSearch,
    RemainderVector,
    WavelengthSet,
    build_candidate_set,
    make_wavelength_set,
    phase_to_remainder,
    reconstruct_batch,
    remainders_of,
    robust_crt_reconstruct,
)
from .signals import (
    MeasurementSet,
    SinusoidObservation,
    cross_correlation_phase,
    dump_measurements_csv,
    phase_noise_std,
    simulate_phase_remainders,
    simulate_tdoa_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityError",
    "DiffusionState",
    "EstimationError",
    "LocalEstimate",
    "MeasurementSet",
    "NetworkTopology",
    "QuotientSearch",
    "RemainderVector",
    "SelectionWeights",
    "SinusoidObservation",
    "WavelengthSet",
    "WlsOptions",
    "build_candidate_set",
    "build_grid_network",
    "build_q_matrix",
    "build_selection_weights",
    "connectivity_weights",
    "crlb",
    "cross_correlation_phase",
    "deployment_center",
    "diffuse",
    "distance",
    "dump_measurements_csv",
    "dump_topology_csv",
    "global_wls",
    "local_wls",
    "make_wavelength_set",
    "median_weights",
    "optimal_weights",
    "phase_noise_std",
    "phase_to_remainder",
    "reconstruct_batch",
    "remainders_of",
    "residual_and_jacobian",
    "robust_crt_reconstruct",
    "simulate_phase_remainders",
    "simulate_tdoa_measurements",
    "true_range_difference",
]
