"""Topology construction and geometric primitives."""

import math

import numpy as np
import pytest

from locbench.estimators import _range_differences
from locbench.geometry import (
    NetworkTopology,
    as_position,
    build_grid_network,
    deployment_center,
)


def test_as_position_accepts_pairs():
    p = as_position((3.0, 4.0))
    assert p.shape == (2,)
    assert p.dtype == float


def test_as_position_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_position((1.0, 2.0, 3.0))


def test_distance_matches_hypot():
    # the range-difference model's distances, one coordinate array at a time
    *_, di, dj = _range_differences(0.0, 0.0, 3.0, 4.0, -1.0, 2.0)
    assert di == pytest.approx(5.0)
    assert dj == pytest.approx(math.hypot(1.0, 2.0))


def test_true_range_difference_sign_convention():
    # measurement is ||x - x_i|| - ||x - x_j||: sensor minus its head
    predicted, *_ = _range_differences(0.0, 0.0, 3.0, 4.0, 6.0, 8.0)
    assert predicted == pytest.approx(5.0 - 10.0)


class TestGridNetwork:
    def test_heads_sit_on_grid(self):
        topo = build_grid_network(16, seed=0)
        assert topo.heads.shape == (16, 2)
        # row-major layout with 50 m spacing, corner at the origin
        assert np.allclose(topo.heads[0], (0.0, 0.0))
        assert np.allclose(topo.heads[1], (0.0, 50.0))
        assert np.allclose(topo.heads[4], (50.0, 0.0))
        assert np.allclose(topo.heads[15], (150.0, 150.0))

    def test_rejects_non_square_head_count(self):
        with pytest.raises(ValueError):
            build_grid_network(12, seed=0)

    def test_sensors_stay_inside_placement_disk(self):
        topo = build_grid_network(16, sensors_per_head=10, seed=3)
        offsets = topo.sensors - topo.heads[:, None, :]
        radii = np.linalg.norm(offsets, axis=2)
        assert radii.max() <= 10.0 + 1e-12

    def test_sensor_placement_is_area_uniform(self):
        # disk-uniform draws have mean radius 2R/3
        topo = build_grid_network(4, sensors_per_head=4000, seed=5)
        radii = np.linalg.norm(topo.sensors - topo.heads[:, None, :], axis=2)
        assert radii.mean() == pytest.approx(20.0 / 3.0, rel=0.02)

    def test_adjacency_is_symmetric_and_irreflexive(self):
        topo = build_grid_network(16, seed=1)
        adj = topo.adjacency
        assert adj.dtype == bool
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_neighbor_radius_links_only_adjacent_grid_heads(self):
        # 50 m axial gap is inside the 55 m radius, the 70.7 m diagonal is not
        topo = build_grid_network(16, seed=1)
        assert topo.adjacency[0, 1]
        assert topo.adjacency[0, 4]
        assert not topo.adjacency[0, 5]
        assert not topo.adjacency[0, 2]

    def test_degrees_count_self(self):
        topo = build_grid_network(16, seed=2)
        deg = topo.degrees
        assert deg[0] == 3  # corner: 2 neighbors + self
        assert deg[1] == 4  # edge: 3 neighbors + self
        assert deg[5] == 5  # interior: 4 neighbors + self

    def test_neighborhood_is_sorted_and_self_inclusive(self):
        topo = build_grid_network(16, seed=2)
        assert np.flatnonzero(topo.neighborhoods[5]).tolist() == [1, 4, 5, 6, 9]
        assert np.flatnonzero(topo.neighborhoods[0]).tolist() == [0, 1, 4]

    def test_measurement_pairs_are_head_major(self):
        topo = build_grid_network(4, sensors_per_head=3, seed=4)
        xi, xj = topo.measurement_nodes()
        assert xi.shape == xj.shape == (12, 2)
        for r in range(12):
            head, sensor = divmod(r, 3)
            assert np.array_equal(xi[r], topo.sensors[head, sensor])
            assert np.array_equal(xj[r], topo.heads[head])

    def test_same_seed_reproduces_layout(self):
        a = build_grid_network(9, seed=11)
        b = build_grid_network(9, seed=11)
        assert np.array_equal(a.sensors, b.sensors)

    def test_generator_seed_passthrough(self):
        rng = np.random.default_rng(11)
        a = build_grid_network(9, seed=rng)
        b = build_grid_network(9, seed=np.random.default_rng(11))
        assert np.array_equal(a.sensors, b.sensors)


def test_deployment_center_is_bounding_box_midpoint():
    topo = build_grid_network(16, seed=0)
    assert np.allclose(deployment_center(topo), (75.0, 75.0))


def test_topology_validation_rejects_asymmetric_adjacency():
    heads = np.zeros((2, 2))
    heads[1] = (10.0, 0.0)
    sensors = heads[:, None, :] + 1.0
    adj = np.array([[False, True], [False, False]])
    with pytest.raises(ValueError):
        NetworkTopology(heads=heads, sensors=sensors, adjacency=adj)
