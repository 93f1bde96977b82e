"""Synthetic measurements: noisy per-wavelength phases and noisy range differences."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    r_true: float, ws: WavelengthSet, snr_db: float, rng
) -> np.ndarray:
    """Fold a dividend and perturb each remainder with phase noise.

    Each wavelength contributes Gaussian phase noise of standard deviation
    phase_noise_std(snr_db); the remainder error is the phase error scaled
    by wavelength / (2*pi). Noisy remainders are wrapped back into
    [0, wavelength), the way a wrapped phase reading would arrive. Returns
    the (size,) remainder array.
    """
    exact, _ = remainders_of(r_true, ws)
    sigma_phi = phase_noise_std(snr_db)
    if sigma_phi == 0.0:
        return exact
    shift = ws.wavelengths / TWO_PI * rng.normal(0.0, sigma_phi, size=ws.size)
    noisy = np.mod(exact + shift, ws.wavelengths)
    # mod can round a tiny negative input up to the modulus itself
    hit = noisy >= ws.wavelengths
    noisy[hit] -= ws.wavelengths[hit]
    return noisy


@dataclass(frozen=True)
class MeasurementSet:
    """Range-difference measurements, one per sensor against its own head.

    head_idx / sensor_idx identify each measurement's sensor node; the
    reference node is always the sensor's cluster head. values holds the
    noisy range differences, variances the per-measurement noise variance
    (the diagonal of the measurement covariance).
    """

    head_idx: np.ndarray
    sensor_idx: np.ndarray
    values: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        k = self.values.shape[0]
        for name, arr in (
            ("head_idx", self.head_idx),
            ("sensor_idx", self.sensor_idx),
            ("variances", self.variances),
        ):
            if arr.shape != (k,):
                raise ValueError(f"{name} must match values, shape ({k},)")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def size(self) -> int:
        return self.values.shape[0]


def simulate_tdoa_measurements(
    topology: NetworkTopology, source, sigma: float, rng
) -> MeasurementSet:
    """Draw one noisy range difference per sensor, referenced to its head.

    sigma is the additive noise standard deviation in meters; sigma = 0
    produces exact differences and unit variances are stored so weighted
    solvers stay defined (weights are scale-free).
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    src = as_position(source)
    head_idx, sensor_idx = topology.measurement_pairs()
    xi = topology.sensors[head_idx, sensor_idx]
    xj = topology.heads[head_idx]
    clean = np.linalg.norm(src - xi, axis=1) - np.linalg.norm(src - xj, axis=1)
    values = clean if sigma == 0 else clean + sigma * rng.standard_normal(clean.size)
    var = 1.0 if sigma == 0 else sigma * sigma
    return MeasurementSet(
        head_idx=head_idx,
        sensor_idx=sensor_idx,
        values=np.asarray(values, dtype=float),
        variances=np.full(clean.size, var),
    )
