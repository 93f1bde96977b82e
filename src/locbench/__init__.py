"""Range-difference localization workbench.

Two halves that meet in the benchmark harness: reconstruction of range
differences from modulo-wavelength phase remainders sharing a common
factor, and distributed source localization where cluster heads fit local
weighted least-squares estimates and fuse them by diffusion over the
network graph.
"""

from .diffusion import (
    connectivity_weights,
    diffuse,
    median_weights,
    optimal_weights,
)
from .estimators import (
    EstimationError,
    crlb,
    wls_group,
)
from .geometry import (
    NetworkTopology,
    build_grid_network,
    deployment_center,
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
    "EstimationError",
    "MeasurementSet",
    "NetworkTopology",
    "WavelengthSet",
    "build_grid_network",
    "connectivity_weights",
    "crlb",
    "deployment_center",
    "diffuse",
    "make_wavelength_set",
    "median_weights",
    "optimal_weights",
    "phase_noise_std",
    "reconstruct_batch",
    "remainders_of",
    "simulate_phase_remainders",
    "simulate_tdoa_measurements",
    "wls_group",
]
