"""Topology construction and geometric primitives."""

import math
import tracemalloc

import numpy as np
import pytest

from locbench.estimators import _range_differences
from locbench.geometry import (
    GRID_SPACING,
    NetworkTopology,
    as_position,
    build_grid_network,
    deployment_center,
    grid_heads,
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

    def test_grid_heads_equal_the_placement_rule_bit_for_bit(self):
        # the rule one head at a time: head l in row l // side, column l % side
        for side in range(1, 61):
            n = side * side
            rule = [[GRID_SPACING * (h // side), GRID_SPACING * (h % side)] for h in range(n)]
            heads = grid_heads(n)
            assert heads.shape == (n, 2) and heads.dtype == np.float64
            assert heads.tobytes() == np.array(rule).tobytes(), side

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

    def test_neighborhoods_are_symmetric_and_self_inclusive(self):
        topo = build_grid_network(16, seed=1)
        hoods = topo.neighborhoods
        assert hoods.dtype == bool
        assert np.array_equal(hoods, hoods.T)
        assert hoods.diagonal().all()

    def test_only_row_and_column_steps_are_neighbors(self):
        # the 50 m steps along a row or column link, the 70.7 m diagonal and
        # the 100 m second step do not
        topo = build_grid_network(16, seed=1)
        assert topo.neighborhoods[0, 1]
        assert topo.neighborhoods[0, 4]
        assert not topo.neighborhoods[0, 5]
        assert not topo.neighborhoods[0, 2]

    @pytest.mark.parametrize("side", range(1, 25))
    def test_mask_equals_the_distance_rule(self, side):
        # the earlier rule: heads at most 55 m apart on the 50 m grid, and
        # every head in its own neighborhood; the last head of a row and the
        # first of the next are 50 * sqrt(side**2 - 2 * side + 2) m apart
        topo = build_grid_network(side * side, sensors_per_head=1, seed=0)
        gaps = np.linalg.norm(topo.heads[:, None, :] - topo.heads[None, :, :], axis=-1)
        expected = (gaps <= 55.0) | np.eye(side * side, dtype=bool)
        np.testing.assert_array_equal(topo.neighborhoods, expected)

    def test_large_grid_builds_no_pairwise_array_beyond_the_mask(self):
        # the (N, N) boolean mask and its transpose take 2 N**2 bytes; an
        # (N, N, 2) float gap array alone would take 16 N**2
        n_heads = 2304
        build_grid_network(4, seed=0)  # a first call's one-time costs are not the grid's
        tracemalloc.start()
        try:
            build_grid_network(n_heads, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n_heads**2

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


def two_heads(hoods):
    heads = np.array([[0.0, 0.0], [10.0, 0.0]])
    return NetworkTopology(heads=heads, sensors=heads[:, None, :] + 1.0, neighborhoods=hoods)


def test_topology_validation_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="symmetric"):
        two_heads(np.array([[True, True], [False, True]]))


def test_topology_validation_rejects_a_head_outside_its_neighborhood():
    two_heads(np.array([[True, True], [True, True]]))
    with pytest.raises(ValueError, match="its own head"):
        two_heads(np.array([[True, True], [True, False]]))
