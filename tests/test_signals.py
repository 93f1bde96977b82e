"""Phase-noise model and synthetic measurement generation."""

import math

import numpy as np
import pytest

from locbench.geometry import build_grid_network
from locbench.rcrt import make_wavelength_set, reconstruct_batch, remainders_of
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


def phase_errors(rng, snr_db, trials):
    """Each trial's phase errors in radians, drawn from rng in trial order."""
    return rng.normal(0.0, phase_noise_std(snr_db), size=(trials, WS.size))


class TestSimulatePhaseRemainders:
    def test_noiseless_matches_exact_fold(self):
        noisy = simulate_phase_remainders(np.array([5000.0]), WS, np.zeros((1, WS.size)))
        assert isinstance(noisy, np.ndarray) and noisy.shape == (1, 3)
        assert np.array_equal(noisy[0], remainders_of(5000.0, WS)[0])
        assert np.allclose(noisy, [(200.0, 1160.0, 920.0)])

    def test_golden_vector_at_20_db(self):
        # frozen from a seeded draw; guards the noise scaling and wrapping
        phases = phase_errors(np.random.default_rng(123), 20.0, 1)
        noisy = simulate_phase_remainders(np.array([5000.0]), WS, phases)
        golden = (186.6421686443372, 1154.7020108290988, 939.7121821544034)
        assert np.allclose(noisy, [golden], atol=1e-9)
        (estimate,), (quotients,), (ambiguous,) = reconstruct_batch(noisy, WS)
        assert not ambiguous
        assert estimate == pytest.approx(5000.352120542612, abs=1e-6)
        assert quotients.tolist() == [4, 3, 3]

    def test_remainders_stay_wrapped(self):
        rng = np.random.default_rng(5)
        truths = np.empty(300)
        phases = np.empty((300, WS.size))
        for t in range(300):
            truths[t] = rng.uniform(0.0, WS.max_range)
            phases[t] = phase_errors(rng, 0.0, 1)
        noisy = simulate_phase_remainders(truths, WS, phases)
        assert np.all(noisy >= 0.0)
        assert np.all(noisy < WS.wavelengths)

    def test_tiny_negative_reading_wraps_below_the_wavelength(self):
        # mod rounds -1.9e-18 up to the wavelength itself; the wrap fix
        # brings it back to 0
        phases = np.full((1, WS.size), -1e-20)
        noisy = simulate_phase_remainders(np.array([0.0]), WS, phases)
        assert np.array_equal(noisy, np.zeros((1, WS.size)))

    def test_error_scale_tracks_wavelength(self):
        # remainder error std is wavelength / (2*pi) times the phase std;
        # the dividend is chosen so every remainder sits far from a wrap
        rng = np.random.default_rng(8)
        r = 150500.0
        exact, _ = remainders_of(r, WS)
        draws = simulate_phase_remainders(np.full(4000, r), WS, phase_errors(rng, 25.0, 4000))
        errors = draws - exact
        expected = WS.wavelengths / (2.0 * math.pi) * phase_noise_std(25.0)
        assert np.allclose(errors.std(axis=0), expected, rtol=0.08)
        assert np.allclose(errors.mean(axis=0), 0.0, atol=4.0 * expected.max() / 63.0)


class TestTdoaMeasurements:
    def test_noiseless_values_are_true_differences(self):
        topo = build_grid_network(4, sensors_per_head=3, seed=2)
        src = np.array([60.0, 70.0])
        meas = simulate_tdoa_measurements(topo, src, 0.0, np.random.default_rng(0))
        assert np.all(meas.variances == 1.0)
        for i in range(meas.size):
            h, s = divmod(i, topo.sensors_per_head)
            xi, xj = topo.sensors[h, s], topo.heads[h]
            expected = np.linalg.norm(src - xi) - np.linalg.norm(src - xj)
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
        src = np.array([0.0, 0.0])
        meas = simulate_tdoa_measurements(topo, src, 1.0, np.random.default_rng(0))
        noise = np.random.default_rng(0).standard_normal(12)
        assert meas.size == 12
        for r in range(12):
            # measurement r is sensor r % M of head r // M, against that head
            h, s = divmod(r, 3)
            xi, xj = topo.sensors[h, s], topo.heads[h]
            clean = np.linalg.norm(src - xi) - np.linalg.norm(src - xj)
            assert meas.values[r] == pytest.approx(clean + noise[r], abs=1e-12)

    def test_variance_invariant(self):
        # a NaN variance would make its row's fit weight NaN, and an inf one
        # a zero weight
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="variances must be positive and finite"):
                MeasurementSet(values=np.zeros(2), variances=np.array([1.0, bad]))
