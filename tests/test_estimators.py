"""WLS estimators: Jacobians, solver behavior, selection weights, CRLB."""

import numpy as np
import pytest

from locbench.estimators import (
    EstimationError,
    SelectionWeights,
    build_selection_weights,
    crlb,
    global_wls,
    local_wls,
    residual_and_jacobian,
)
from locbench.geometry import build_grid_network, deployment_center
from locbench.signals import simulate_tdoa_measurements

SOURCE = (60.0, 70.0)


def finite_difference_rows(x, meas, topo, h=1e-5):
    """Central differences of the range-difference model, one row per pair."""
    def model(p):
        sensors = topo.sensors[meas.head_idx, meas.sensor_idx]
        heads = topo.heads[meas.head_idx]
        return np.linalg.norm(p - sensors, axis=1) - np.linalg.norm(p - heads, axis=1)

    rows = np.empty((meas.values.size, 2))
    for d in range(2):
        step = np.zeros(2)
        step[d] = h
        rows[:, d] = (model(x + step) - model(x - step)) / (2.0 * h)
    return rows


class TestJacobian:
    def test_matches_central_differences_over_geometries(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            topo = build_grid_network(16, seed=rng)
            meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
            x = rng.uniform(10.0, 140.0, size=2)
            _, jac = residual_and_jacobian(x, meas, topo)
            fd = finite_difference_rows(x, meas, topo)
            worst = max(worst, np.abs(jac - fd).max() / np.abs(fd).max())
        assert worst < 1e-6

    def test_raises_on_coincident_node(self):
        topo = build_grid_network(4, seed=0)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(0))
        at_sensor = topo.sensors[0, 0]
        with pytest.raises(EstimationError):
            residual_and_jacobian(at_sensor, meas, topo)

    def test_residual_zero_at_truth_without_noise(self):
        topo = build_grid_network(9, seed=2)
        meas = simulate_tdoa_measurements(topo, SOURCE, 0.0, np.random.default_rng(0))
        res, _ = residual_and_jacobian(np.asarray(SOURCE), meas, topo)
        assert np.abs(res).max() < 1e-12


class TestGlobalWls:
    def test_exact_recovery_without_noise(self):
        topo = build_grid_network(16, seed=4)
        meas = simulate_tdoa_measurements(topo, SOURCE, 0.0, np.random.default_rng(0))
        init = deployment_center(topo)
        est = global_wls(meas, topo, init)
        assert np.linalg.norm(est - SOURCE) < 1e-8

    def test_noisy_estimate_beats_grid_refinement(self):
        # independent oracle: the solver's weighted cost is no worse than
        # the best point of a fine grid centered on the solution
        topo = build_grid_network(16, seed=6)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(6))
        init = deployment_center(topo)
        est = global_wls(meas, topo, init)

        def cost(p):
            res, _ = residual_and_jacobian(p, meas, topo)
            return float(np.sum(res * res / meas.variances))

        base = cost(est)
        grid = np.linspace(-0.5, 0.5, 41)
        best = min(
            cost(est + np.array([dx, dy])) for dx in grid for dy in grid
        )
        assert base <= best + 1e-9

    def test_estimate_lands_near_source_under_noise(self):
        rng = np.random.default_rng(21)
        errors = []
        for _ in range(30):
            topo = build_grid_network(16, seed=rng)
            meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
            est = global_wls(meas, topo, deployment_center(topo))
            errors.append(np.linalg.norm(est - SOURCE))
        # CRLB-level accuracy is about 1.8 m at this operating point
        assert np.mean(errors) < 3.0

    def test_monte_carlo_covariance_matches_crlb(self):
        # the solver is asymptotically efficient: over repeated noise draws
        # on one geometry, the sample mean squared error tracks the CRLB
        topo = build_grid_network(16, seed=7)
        rng = np.random.default_rng(77)
        sq = []
        for _ in range(400):
            meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
            est = global_wls(meas, topo, deployment_center(topo))
            sq.append(np.sum((est - SOURCE) ** 2))
        bound = np.trace(crlb(topo, SOURCE, meas.variances))
        assert np.mean(sq) == pytest.approx(bound, rel=0.15)


class TestSelectionWeights:
    def test_columns_sum_to_one(self):
        topo = build_grid_network(16, seed=3)
        weights = build_selection_weights(topo)
        assert np.allclose(weights.head_matrix.sum(axis=0), 1.0)
        head_idx, _ = topo.measurement_pairs()
        for k in range(16):
            column = weights.column(k)
            assert column.sum() == pytest.approx(1.0)
            # a measurement carries its owning head's entry split over the
            # head's sensors
            assert np.array_equal(column, weights.head_matrix[head_idx, k] / 10)

    def test_metropolis_values_on_grid(self):
        # corner head 0 (degree 3) with edge neighbors 1 and 4 (degree 4):
        # off-diagonal 1/4 each, diagonal absorbs the remainder
        topo = build_grid_network(16, seed=3)
        hm = build_selection_weights(topo).head_matrix
        assert hm[1, 0] == pytest.approx(0.25)
        assert hm[4, 0] == pytest.approx(0.25)
        assert hm[0, 0] == pytest.approx(0.5)
        assert hm[5, 0] == 0.0

    def test_measurement_weights_split_head_mass(self):
        topo = build_grid_network(16, sensors_per_head=10, seed=3)
        weights = build_selection_weights(topo)
        col = weights.column(0)
        assert col.shape == (160,)
        # head 1's ten sensors share its 1/4 mass
        assert np.allclose(col[10:20], 0.025)


class TestLocalWls:
    def test_operator_is_left_inverse_of_jacobian(self):
        topo = build_grid_network(16, seed=5)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(5))
        weights = build_selection_weights(topo)
        init = deployment_center(topo)
        for k in (0, 5, 15):
            est = local_wls(k, meas, weights, topo, init)
            _, jac = residual_and_jacobian(est.position, meas, topo)
            assert np.allclose(est.operator @ jac, np.eye(2), atol=1e-8)

    def test_operator_support_is_local(self):
        topo = build_grid_network(16, seed=5)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(5))
        weights = build_selection_weights(topo)
        est = local_wls(0, meas, weights, topo, deployment_center(topo))
        outside = np.isin(meas.head_idx, topo.neighborhood(0), invert=True)
        assert np.all(est.operator[:, outside] == 0.0)

    def test_starved_neighborhood_is_an_error(self):
        topo = build_grid_network(4, sensors_per_head=2, seed=1)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(1))
        head_matrix = np.zeros((4, 4))
        head_matrix[0, 0] = 1.0  # head 0 may use only its own 2 measurements
        starved = SelectionWeights(head_matrix=head_matrix, sensors_per_head=2)
        assert np.count_nonzero(starved.column(0)) == 2
        with pytest.raises(EstimationError):
            local_wls(0, meas, starved, topo, deployment_center(topo))

    @pytest.mark.parametrize("init", [(np.nan, 0.0), (0.0, np.inf), (1.0, 2.0, 3.0)])
    def test_start_point_must_be_a_finite_position(self, init):
        topo = build_grid_network(16, seed=5)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(5))
        with pytest.raises(ValueError):
            global_wls(meas, topo, init)
        with pytest.raises(ValueError):
            local_wls(0, meas, build_selection_weights(topo), topo, init)


class TestCrlb:
    def test_regression_value(self):
        topo = build_grid_network(16, seed=7)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(7))
        value = np.sqrt(np.trace(crlb(topo, SOURCE, meas.variances)))
        assert value == pytest.approx(1.8232699349041, abs=1e-9)

    def test_more_sensors_tighten_the_bound(self):
        small = build_grid_network(16, sensors_per_head=5, seed=9)
        large = build_grid_network(16, sensors_per_head=20, seed=9)
        var_small = np.ones(small.n_measurements)
        var_large = np.ones(large.n_measurements)
        assert np.trace(crlb(large, SOURCE, var_large)) < np.trace(
            crlb(small, SOURCE, var_small)
        )

    def test_noise_scales_the_bound(self):
        topo = build_grid_network(16, seed=9)
        base = np.trace(crlb(topo, SOURCE, np.ones(topo.n_measurements)))
        scaled = np.trace(crlb(topo, SOURCE, 4.0 * np.ones(topo.n_measurements)))
        assert scaled == pytest.approx(4.0 * base)
