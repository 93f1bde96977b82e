"""Synthetic measurements: noisy per-wavelength phases and noisy range differences."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _range_differences
from .geometry import NetworkTopology, as_position
from .rcrt import WavelengthSet, remainders_of

__all__ = [
    "MeasurementSet",
    "phase_noise_std",
    "simulate_phase_remainders",
    "simulate_tdoa_measurements",
]

TWO_PI = 2.0 * math.pi


def phase_noise_std(snr_db: float) -> float:
    """Phase error standard deviation for a sinusoid in white noise.

    High-SNR approximation: sigma_phi = 1 / sqrt(2 * snr_linear).
    """
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return 1.0 / math.sqrt(2.0 * 10.0 ** (snr_db / 10.0))


def simulate_phase_remainders(
    dividends: np.ndarray, ws: WavelengthSet, phase_errors: np.ndarray
) -> np.ndarray:
    """Fold a block of dividends and perturb each remainder by its phase error.

    dividends is a (T,) array, one trial per entry, and phase_errors the
    (T, size) phase errors in radians, drawn with standard deviation
    phase_noise_std(snr_db); zeros give a noiseless reading, the exact
    remainders. The remainder error is the phase error scaled by
    wavelength / (2*pi). Noisy remainders are wrapped back into
    [0, wavelength), the way a wrapped phase reading would arrive. Returns
    the (T, size) remainder block; row t depends on trial t alone.
    """
    exact, _ = remainders_of(dividends, ws)
    shift = ws.wavelengths / TWO_PI * phase_errors
    noisy = np.mod(exact + shift, ws.wavelengths)
    # mod can round a tiny negative input up to the modulus itself
    hit = noisy >= ws.wavelengths
    noisy[hit] -= np.broadcast_to(ws.wavelengths, noisy.shape)[hit]
    return noisy


@dataclass(frozen=True)
class MeasurementSet:
    """Range-difference measurements, one per sensor against its own head.

    Entry r belongs to the r-th pair of NetworkTopology.measurement_nodes()
    (head-major: r = l * M + s is sensor s of head l). values holds the
    noisy range differences, variances the per-measurement noise variance
    (the diagonal of the measurement covariance).
    """

    values: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        k = self.values.shape[0]
        if self.variances.shape != (k,):
            raise ValueError(f"variances must match values, shape ({k},)")
        if not np.all(np.isfinite(self.variances) & (self.variances > 0)):
            raise ValueError("variances must be positive and finite")

    @property
    def size(self) -> int:
        return self.values.shape[0]


def simulate_tdoa_measurements(
    topology: NetworkTopology, source, sigma: float, rng
) -> MeasurementSet:
    """Draw one noisy range difference per sensor, referenced to its head.

    The clean differences come from the model the fits and crlb use. sigma
    is the additive noise standard deviation in meters; sigma = 0 produces
    exact differences and unit variances are stored so weighted solvers
    stay defined (weights are scale-free).
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    src = as_position(source)
    xi, xj = topology.measurement_nodes()
    with np.errstate(divide="ignore", invalid="ignore"):  # the jacobian on a node
        clean = _range_differences(*src, *xi.T, *xj.T)[0]
    values = clean if sigma == 0 else clean + sigma * rng.standard_normal(clean.size)
    var = 1.0 if sigma == 0 else sigma * sigma
    return MeasurementSet(values=values, variances=np.full(clean.size, var))
