"""Network geometry: cluster-head grids, sensor placement, neighbor structure."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkTopology",
    "as_position",
    "build_grid_network",
    "deployment_center",
]

# the experiments' grid in meters; a head's neighbors are the 4 nearest heads
GRID_SPACING = 50.0
PLACEMENT_RADIUS = 10.0


def as_position(point) -> np.ndarray:
    """Coerce a 2-coordinate point to a float array, rejecting non-finite input."""
    arr = np.asarray(point, dtype=float).reshape(-1)
    if arr.shape != (2,):
        raise ValueError(f"expected 2 coordinates, got shape {np.shape(point)}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return arr


@dataclass(frozen=True)
class NetworkTopology:
    """Immutable cluster-head / sensor layout with head neighborhoods.

    heads: (N, 2) cluster-head positions.
    sensors: (N, M, 2) sensor positions; row l belongs to head l.
    neighborhoods: (N, N) boolean mask of the self-inclusive neighborhoods:
        row k, like column k, marks N_k, head k and the heads adjacent to it.
    """

    heads: np.ndarray
    sensors: np.ndarray
    neighborhoods: np.ndarray

    def __post_init__(self):
        if self.heads.ndim != 2 or self.heads.shape[1] != 2:
            raise ValueError("heads must have shape (N, 2)")
        if self.sensors.ndim != 3 or self.sensors.shape[2] != 2:
            raise ValueError("sensors must have shape (N, M, 2)")
        if self.sensors.shape[0] != self.heads.shape[0]:
            raise ValueError("sensors and heads disagree on head count")
        n = self.heads.shape[0]
        if self.neighborhoods.shape != (n, n):
            raise ValueError("neighborhoods must be (N, N)")
        if not self.neighborhoods.diagonal().all():
            raise ValueError("every neighborhood must hold its own head")
        if not np.array_equal(self.neighborhoods, self.neighborhoods.T):
            raise ValueError("neighborhoods must be symmetric")

    @property
    def n_heads(self) -> int:
        return self.heads.shape[0]

    @property
    def sensors_per_head(self) -> int:
        return self.sensors.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Self-inclusive neighborhood size of every head."""
        return self.neighborhoods.sum(axis=1)

    def measurement_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, 2) sensor and reference-head coordinates of every measurement.

        One range difference per sensor, referenced to its own head, in
        head-major order: measurement l * M + s is sensor s of head l.
        """
        m = self.sensors_per_head
        return self.sensors.reshape(-1, 2), np.repeat(self.heads, m, axis=0)


def build_grid_network(n_heads: int, sensors_per_head: int = 10, seed=None) -> NetworkTopology:
    """Place cluster heads on a square grid and scatter sensors around them.

    Heads sit on a sqrt(N) x sqrt(N) grid of pitch GRID_SPACING, head l at
    (GRID_SPACING * (l // side), GRID_SPACING * (l % side)), adjacent to the
    heads one step away along its row or column. Each head gets
    sensors_per_head sensors drawn uniformly over a disk of PLACEMENT_RADIUS.

    Args:
        n_heads: perfect square number of cluster heads.
        sensors_per_head: sensors attached to each head.
        seed: anything accepted by numpy.random.default_rng.

    Returns:
        NetworkTopology; the same seed always yields the same topology.
    """
    side = math.isqrt(n_heads)
    if side * side != n_heads or n_heads < 1:
        raise ValueError(f"n_heads must be a perfect square, got {n_heads}")
    if sensors_per_head < 1:
        raise ValueError("sensors_per_head must be positive")

    rng = np.random.default_rng(seed)
    idx = np.arange(n_heads)
    heads = GRID_SPACING * np.column_stack((idx // side, idx % side)).astype(float)

    # uniform over the disk: radius scales with sqrt of a uniform draw
    radii = PLACEMENT_RADIUS * np.sqrt(rng.random((n_heads, sensors_per_head)))
    angles = 2.0 * np.pi * rng.random((n_heads, sensors_per_head))
    offsets = np.stack((radii * np.cos(angles), radii * np.sin(angles)), axis=-1)
    sensors = heads[:, None, :] + offsets

    grid = idx.reshape(side, side)
    hoods = np.eye(n_heads, dtype=bool)
    hoods[grid[:, :-1], grid[:, 1:]] = True  # the next head along a row
    hoods[grid[:-1], grid[1:]] = True  # the next head down a column
    hoods |= hoods.T

    return NetworkTopology(heads=heads, sensors=sensors, neighborhoods=hoods)


def deployment_center(topology: NetworkTopology) -> np.ndarray:
    """Center of the deployment area: midpoint of the head bounding box."""
    return 0.5 * (topology.heads.min(axis=0) + topology.heads.max(axis=0))
