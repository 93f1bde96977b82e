"""Phase-noise model and synthetic measurement generation."""

import math

import numpy as np
import pytest

from locbench.geometry import build_grid_network, true_range_difference
from locbench.rcrt import make_wavelength_set, remainders_of, robust_crt_reconstruct
from locbench.signals import (
    MeasurementSet,
    phase_noise_std,
    simulate_phase_remainders,
    simulate_tdoa_measurements,
)

WS = make_wavelength_set(80.0, (15, 16, 17))


class TestPhaseNoiseStd:
    def test_known_points(self):
        assert phase_noise_std(math.inf) == 0.0
        assert phase_noise_std(0.0) == pytest.approx(1.0 / math.sqrt(2.0))
        assert phase_noise_std(20.0) == pytest.approx(1.0 / math.sqrt(200.0))

    def test_monotone_decreasing_in_snr(self):
        grid = [phase_noise_std(s) for s in (-10.0, 0.0, 10.0, 20.0, 30.0)]
        assert all(a > b for a, b in zip(grid, grid[1:]))


class TestSimulatePhaseRemainders:
    def test_noiseless_matches_exact_fold(self):
        noisy = simulate_phase_remainders(5000.0, WS, math.inf, np.random.default_rng(0))
        assert np.allclose(noisy.remainders, (200.0, 1160.0, 920.0))
        assert noisy.quotients is None or np.array_equal(noisy.quotients, (4, 3, 3))

    def test_golden_vector_at_20_db(self):
        # frozen from a seeded draw; guards the noise scaling and wrapping
        noisy = simulate_phase_remainders(5000.0, WS, 20.0, np.random.default_rng(123))
        golden = (186.6421686443372, 1154.7020108290988, 939.7121821544034)
        assert np.allclose(noisy.remainders, golden, atol=1e-9)
        estimate, quotients, _ = robust_crt_reconstruct(noisy, WS)
        assert estimate == pytest.approx(5000.352120542612, abs=1e-6)
        assert quotients.tolist() == [4, 3, 3]

    def test_remainders_stay_wrapped(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            r = rng.uniform(0.0, WS.max_range)
            noisy = simulate_phase_remainders(r, WS, 0.0, rng)
            assert np.all(noisy.remainders >= 0.0)
            assert np.all(noisy.remainders < WS.wavelengths)

    def test_error_scale_tracks_wavelength(self):
        # remainder error std is wavelength / (2*pi) times the phase std;
        # the dividend is chosen so every remainder sits far from a wrap
        rng = np.random.default_rng(8)
        r = 150500.0
        exact = remainders_of(r, WS)
        draws = np.array(
            [simulate_phase_remainders(r, WS, 25.0, rng).remainders for _ in range(4000)]
        )
        errors = draws - exact.remainders
        expected = WS.wavelengths / (2.0 * math.pi) * phase_noise_std(25.0)
        assert np.allclose(errors.std(axis=0), expected, rtol=0.08)
        assert np.allclose(errors.mean(axis=0), 0.0, atol=4.0 * expected.max() / 63.0)


class TestTdoaMeasurements:
    def test_noiseless_values_are_true_differences(self):
        topo = build_grid_network(4, sensors_per_head=3, seed=2)
        src = (60.0, 70.0)
        meas = simulate_tdoa_measurements(topo, src, 0.0, np.random.default_rng(0))
        assert np.all(meas.variances == 1.0)
        for i in range(meas.values.size):
            h = meas.head_idx[i]
            s = meas.sensor_idx[i]
            expected = true_range_difference(src, topo.sensors[h, s], topo.heads[h])
            assert meas.values[i] == pytest.approx(expected, abs=1e-12)

    def test_noise_statistics(self):
        topo = build_grid_network(4, sensors_per_head=250, seed=2)
        src = (60.0, 70.0)
        exact = simulate_tdoa_measurements(topo, src, 0.0, np.random.default_rng(0))
        noisy = simulate_tdoa_measurements(topo, src, 2.0, np.random.default_rng(9))
        resid = noisy.values - exact.values
        assert resid.std() == pytest.approx(2.0, rel=0.07)
        assert np.all(noisy.variances == 4.0)

    def test_head_major_measurement_order(self):
        topo = build_grid_network(4, sensors_per_head=3, seed=2)
        meas = simulate_tdoa_measurements(topo, (0.0, 0.0), 1.0, np.random.default_rng(0))
        assert meas.head_idx.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        assert meas.sensor_idx.tolist() == [0, 1, 2] * 4

    def test_variance_invariant(self):
        with pytest.raises(ValueError):
            MeasurementSet(
                head_idx=np.array([0]),
                sensor_idx=np.array([0]),
                values=np.array([1.0]),
                variances=np.array([0.0]),
            )
