"""Diffusion schemes: coefficient rules, the variance QP, and the iteration."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench.diffusion import (
    _KKT_TOL,
    DiffusionState,
    _simplex_qp,
    build_q_matrix,
    connectivity_weights,
    diffuse,
    median_weights,
    optimal_weights,
)
from locbench.estimators import build_selection_weights, local_wls
from locbench.geometry import NetworkTopology, build_grid_network, deployment_center
from locbench.signals import simulate_tdoa_measurements

SOURCE = (60.0, 70.0)


def clique_topology(n):
    """n mutually adjacent heads with one dummy sensor each."""
    heads = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    sensors = heads[:, None, :] + np.array([0.0, 1.0])
    adjacency = ~np.eye(n, dtype=bool)
    return NetworkTopology(heads=heads, sensors=sensors, adjacency=adjacency)


def path_topology(n):
    """n heads in a chain, adjacent only to immediate neighbors."""
    heads = np.column_stack([50.0 * np.arange(n, dtype=float), np.zeros(n)])
    sensors = heads[:, None, :] + np.array([0.0, 1.0])
    adjacency = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = True
    return NetworkTopology(heads=heads, sensors=sensors, adjacency=adjacency)


def induced(topology, keep):
    """The sub-network of the heads in keep, the way the bench builds it."""
    return NetworkTopology(
        heads=topology.heads[keep],
        sensors=topology.sensors[keep],
        adjacency=topology.adjacency[np.ix_(keep, keep)],
    )


def prepared_trial(seed):
    rng = np.random.default_rng(seed)
    topo = build_grid_network(16, seed=rng)
    meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
    weights = build_selection_weights(topo)
    init = deployment_center(topo)
    locals_ = [local_wls(k, meas, weights, topo, init) for k in range(16)]
    state = DiffusionState(
        estimates=np.array([e.position for e in locals_]),
        operators=np.array([e.operator for e in locals_]),
    )
    return topo, meas, state


# ---------------------------------------------------------------------------
# the earlier per-head rules, one column at a time: an oracle for the
# whole-network matrices


def oracle_connectivity(topology, k):
    nbhd = topology.neighborhood(k)
    weights = np.zeros(topology.n_heads)
    weights[nbhd] = topology.degrees[nbhd]
    return weights / weights.sum()


def oracle_median(estimates, k, topology, decay_scale):
    nbhd = topology.neighborhood(k)
    median = np.median(estimates, axis=0)
    sq_dist = np.sum((estimates[nbhd] - median) ** 2, axis=1)
    raw = np.exp(-sq_dist / decay_scale)
    total = raw.sum()
    if total <= 0.0 or not np.isfinite(total):
        raw = np.ones(nbhd.size)
        total = float(nbhd.size)
    weights = np.zeros(topology.n_heads)
    weights[nbhd] = raw / total
    return weights


def oracle_optimal(q, k, topology):
    nbhd = topology.neighborhood(k)
    q_sub = q[np.ix_(nbhd, nbhd)]
    solution = _simplex_qp(q_sub)
    if float(solution @ q_sub @ solution) < -_KKT_TOL:
        epsilon = 1e-9 * np.trace(q) / q.shape[0]
        solution = _simplex_qp(q_sub + epsilon * np.eye(nbhd.size))
    weights = np.zeros(topology.n_heads)
    weights[nbhd] = solution
    return weights


def oracle_matrix(rule, topology):
    return np.column_stack([rule(k) for k in range(topology.n_heads)])


@st.composite
def networks(draw, max_heads):
    """A random symmetric topology; heads sit on a line, one sensor each."""
    n = draw(st.integers(1, max_heads))
    density = draw(st.floats(0.0, 1.0))
    coins = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(coins).reshape(n, n) < density, 1)
    heads = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return NetworkTopology(
        heads=heads,
        sensors=heads[:, None, :] + np.array([0.0, 1.0]),
        adjacency=upper | upper.T,
    )


@st.composite
def spread_estimates(draw, n):
    """Estimates around the origin, some shifted into a far-off pocket.

    A pocket 1e4 away from the network median underflows every exponent
    of a neighborhood that lies inside it.
    """
    coords = draw(
        st.lists(st.floats(-50.0, 50.0), min_size=2 * n, max_size=2 * n)
    )
    estimates = np.array(coords).reshape(n, 2)
    pocket = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    estimates[np.array(pocket)] += 1.0e4
    return estimates


def assert_combination_matrix(weights, topology):
    """Column-stochastic, non-negative, supported on the neighborhoods."""
    assert weights.shape == (topology.n_heads, topology.n_heads)
    assert np.allclose(weights.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    assert weights.min() >= -1e-12
    assert np.all(weights[~topology.neighborhoods] == 0.0)


class TestMatrixRulesMatchPerHeadOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_connectivity(self, data):
        topo = data.draw(networks(max_heads=14))
        weights = connectivity_weights(topo)
        assert np.array_equal(
            weights, oracle_matrix(lambda k: oracle_connectivity(topo, k), topo)
        )
        assert_combination_matrix(weights, topo)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_median(self, data):
        topo = data.draw(networks(max_heads=14))
        estimates = data.draw(spread_estimates(topo.n_heads))
        decay_scale = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 30.0, 1e4]))
        weights = median_weights(estimates, topo, decay_scale)
        expected = oracle_matrix(
            lambda k: oracle_median(estimates, k, topo, decay_scale), topo
        )
        # the column sum adds a neighborhood in head order; numpy summed the
        # oracle's packed neighborhood the same way below 8 members (every
        # grid the experiments build has at most 5) and pairwise above, where
        # at most 14 float64 terms in another order differ by a few ulp
        small = topo.degrees < 8
        assert np.array_equal(weights[:, small], expected[:, small])
        np.testing.assert_allclose(weights, expected, rtol=1e-14, atol=0.0)
        assert_combination_matrix(weights, topo)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_optimal(self, data):
        topo = data.draw(networks(max_heads=6))
        n, k = topo.n_heads, 8
        entries = data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=n * 2 * k, max_size=n * 2 * k)
        )
        operators = np.array(entries).reshape(n, 2, k)
        q = build_q_matrix(operators, np.linspace(0.5, 2.0, k))
        weights = optimal_weights(q, topo)
        assert np.array_equal(
            weights, oracle_matrix(lambda h: oracle_optimal(q, h, topo), topo)
        )
        assert_combination_matrix(weights, topo)


class TestConnectivityWeights:
    def test_degree_proportional_on_grid(self):
        topo = build_grid_network(16, seed=0)
        w = connectivity_weights(topo)[:, 0]
        # corner head: self degree 3, both neighbors degree 4
        assert w[0] == pytest.approx(3.0 / 11.0)
        assert w[1] == pytest.approx(4.0 / 11.0)
        assert w[4] == pytest.approx(4.0 / 11.0)
        assert w.sum() == pytest.approx(1.0)
        assert np.count_nonzero(w) == 3

    def test_active_mask_drops_members(self):
        # a head left out of the active mask leaves the sub-network, and
        # degrees are counted in the sub-network: corner head 0 keeps only
        # itself (degree 2 without head 1) and head 4 (degree 4)
        topo = build_grid_network(16, seed=0)
        active = np.ones(16, dtype=bool)
        active[1] = False
        keep = np.flatnonzero(active)
        w = connectivity_weights(induced(topo, keep))[:, 0]
        assert np.count_nonzero(w) == 2
        assert w[0] == pytest.approx(2.0 / 6.0)
        assert w[list(keep).index(4)] == pytest.approx(4.0 / 6.0)
        assert w.sum() == pytest.approx(1.0)


class TestMedianWeights:
    def test_outlier_is_downweighted(self):
        # hand example: median (1,1); the far point keeps weight exp(-162)
        topo = clique_topology(3)
        estimates = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
        w = median_weights(estimates, topo, 1.0)[:, 0]
        raw = np.array([np.exp(-2.0), 1.0, np.exp(-162.0)])
        assert np.allclose(w, raw / raw.sum())
        assert w.argmin() == 2

    def test_reference_median_is_network_wide(self):
        # head 3 on a chain never sees heads 0 and 1, yet the reference
        # median still reflects them
        topo = path_topology(4)
        estimates = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        w = median_weights(estimates, topo, 1.0)[:, 3]
        assert w[0] == 0.0 and w[1] == 0.0  # outside the neighborhood
        # distances to the (5.05, 5.0) median differ by exactly 1 in square
        assert w[2] / w[3] == pytest.approx(np.e)

    def test_weights_decrease_with_distance_from_median(self):
        topo = build_grid_network(16, seed=1)
        rng = np.random.default_rng(10)
        for _ in range(20):
            estimates = rng.normal(60.0, 3.0, size=(16, 2))
            k = int(rng.integers(16))
            w = median_weights(estimates, topo, 2.0)[:, k]
            nbhd = topo.neighborhood(k)
            ref = np.median(estimates, axis=0)
            dist = np.linalg.norm(estimates[nbhd] - ref, axis=1)
            order = np.argsort(dist)
            assert np.all(np.diff(w[nbhd][order]) <= 1e-15)

    def test_underflow_falls_back_to_uniform(self, caplog):
        # a two-head pocket stranded far from the network median underflows
        # every exponent in its neighborhood
        heads = np.column_stack([50.0 * np.arange(5.0), np.zeros(5)])
        sensors = heads[:, None, :] + np.array([0.0, 1.0])
        adjacency = np.zeros((5, 5), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        for i, j in ((2, 3), (3, 4)):
            adjacency[i, j] = adjacency[j, i] = True
        topo = NetworkTopology(heads=heads, sensors=sensors, adjacency=adjacency)
        estimates = np.array(
            [[1.0e4, 0.0], [1.0001e4, 0.0], [0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
        )
        with caplog.at_level(logging.WARNING):
            w = median_weights(estimates, topo, 1.0)
        for k in (0, 1):
            assert np.array_equal(w[:, k], [0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.all(w[:2, 2:] == 0.0)
        underflows = [r.getMessage() for r in caplog.records]
        assert underflows == ["median weights underflowed for 2 of 5 heads; using uniform"]

    def test_rejects_nonpositive_scale(self):
        topo = clique_topology(3)
        for scale in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                median_weights(np.zeros((3, 2)), topo, scale)


class TestQMatrix:
    def test_matches_monte_carlo_covariance(self):
        # [Q]_mn is E[(L_m z) . (L_n z)] for z ~ N(0, diag(variances))
        rng = np.random.default_rng(123)
        n, k = 4, 12
        ops = rng.normal(size=(n, 2, k))
        variances = rng.uniform(0.5, 2.0, size=k)
        q = build_q_matrix(ops, variances)
        draws = 200_000
        z = rng.normal(0.0, np.sqrt(variances)[:, None], size=(k, draws))
        x = np.einsum("ndk,ks->nds", ops, z)
        q_mc = np.einsum("mds,nds->mn", x, x) / draws
        assert np.allclose(q, q_mc, rtol=0.03, atol=0.05)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        ops = rng.normal(size=(5, 2, 20))
        q = build_q_matrix(ops, np.ones(20))
        assert np.allclose(q, q.T)
        assert np.linalg.eigvalsh(q).min() > -1e-10


def simplex_grid_minimum(q_sub, step=1e-3):
    """Dense scan of the probability simplex for a 3x3 objective."""
    best, arg = np.inf, None
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    for a in ticks:
        for b in ticks[: int((1.0 - a) / step) + 2]:
            c = 1.0 - a - b
            if c < -1e-12:
                continue
            vec = np.array([a, b, max(c, 0.0)])
            val = vec @ q_sub @ vec
            if val < best:
                best, arg = val, vec
    return best, arg


class TestOptimalWeights:
    def test_two_head_closed_form(self):
        # diag(1, 2) splits as (2/3, 1/3) on the simplex
        topo = clique_topology(2)
        q = np.diag([1.0, 2.0])
        w = optimal_weights(q, topo)
        assert np.allclose(w[:, 0], (2.0 / 3.0, 1.0 / 3.0))
        assert np.allclose(w[:, 1], (2.0 / 3.0, 1.0 / 3.0))

    def test_matches_grid_search_on_random_instances(self):
        topo = clique_topology(3)
        rng = np.random.default_rng(31)
        for _ in range(10):
            root = rng.normal(size=(3, 3))
            q = root @ root.T + 0.1 * np.eye(3)
            w = optimal_weights(q, topo)[:, 0]
            best, arg = simplex_grid_minimum(q)
            assert w @ q @ w <= best + 1e-9
            assert np.abs(w - arg).max() < 2e-3

    def test_never_worse_than_connectivity(self):
        topo, meas, state = prepared_trial(3)
        q = build_q_matrix(state.operators, meas.variances)
        w_opt = optimal_weights(q, topo)
        w_con = connectivity_weights(topo)
        for k in range(16):
            a, b = w_opt[:, k], w_con[:, k]
            assert a @ q @ a <= b @ q @ b + 1e-12

    def test_simplex_invariants(self):
        topo, meas, state = prepared_trial(4)
        q = build_q_matrix(state.operators, meas.variances)
        assert_combination_matrix(optimal_weights(q, topo), topo)


class TestDiffuse:
    def test_consensus_on_clique_with_con(self):
        topo = clique_topology(4)
        estimates = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        state = DiffusionState(estimates=estimates, operators=None)
        final = diffuse(state, "con", 1e-10, 200, topo)
        assert final.converged
        # equal degrees: uniform averaging lands on the centroid in one step
        assert np.allclose(final.estimates, [2.0, 2.0], atol=1e-8)

    def test_con_coefficients_are_static(self):
        topo, meas, state = prepared_trial(5)
        seen = []
        diffuse(state, "con", 1e-4, 50, topo, on_epoch=lambda e, x, c, s: seen.append(c))
        assert len(seen) >= 2
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])
        assert np.array_equal(seen[0], connectivity_weights(topo))

    def test_every_epoch_keeps_simplex_and_envelope(self):
        topo, meas, state = prepared_trial(6)
        for scheme in ("con", "wei", "opt"):
            ranges = []
            coeff_ok = []

            def watch(epoch, estimates, coeffs, max_step):
                coeff_ok.append(
                    np.allclose(coeffs.sum(axis=0), 1.0, atol=1e-12)
                    and coeffs.min() >= -1e-12
                )
                ranges.append(
                    (estimates.min(axis=0).copy(), estimates.max(axis=0).copy())
                )

            fresh = DiffusionState(
                estimates=state.estimates.copy(), operators=state.operators.copy()
            )
            final = diffuse(
                fresh, scheme, 1e-4, 500, topo,
                variances=meas.variances, on_epoch=watch,
            )
            assert final.converged
            assert all(coeff_ok)
            los = np.array([r[0] for r in ranges])
            his = np.array([r[1] for r in ranges])
            assert np.all(np.diff(los, axis=0) >= -1e-9)
            assert np.all(np.diff(his, axis=0) <= 1e-9)

    def test_nonconvergence_is_reported(self, caplog):
        topo, meas, state = prepared_trial(7)
        with caplog.at_level(logging.WARNING):
            final = diffuse(state, "con", 1e-13, 3, topo)
        assert not final.converged
        assert final.epoch == 3
        assert "did not settle" in caplog.text

    def test_final_step_honors_epsilon(self):
        topo, meas, state = prepared_trial(8)
        steps = []
        final = diffuse(
            state, "con", 1e-3, 500, topo, on_epoch=lambda e, x, c, s: steps.append(s)
        )
        assert final.converged
        assert steps[-1] <= 1e-3
        assert all(s > 1e-3 for s in steps[:-1])
        assert final.epoch == len(steps)

    def test_optimize_once_reuses_first_epoch_coefficients(self):
        topo, meas, state = prepared_trial(10)
        seen = []
        diffuse(
            state, "opt", 1e-4, 500, topo, variances=meas.variances,
            optimize_once=True, on_epoch=lambda e, x, c, s: seen.append(c.copy()),
        )
        assert len(seen) >= 2
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])

    def test_opt_updates_operators(self):
        topo, meas, state = prepared_trial(11)
        final = diffuse(
            state, "opt", 1e-4, 500, topo, variances=meas.variances
        )
        assert final.converged
        assert final.operators.shape == state.operators.shape
        assert not np.allclose(final.operators, state.operators)

    def test_rejects_unknown_scheme_and_bad_knobs(self):
        topo, meas, state = prepared_trial(12)
        with pytest.raises(ValueError):
            diffuse(state, "avg", 1e-4, 10, topo)
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                diffuse(state, "con", epsilon, 10, topo)
        with pytest.raises(ValueError, match="shape"):
            diffuse(state, "con", 1e-4, 10, induced(topo, np.arange(15)))
        with pytest.raises(ValueError):
            diffuse(state, "con", 1e-4, 0, topo)
        with pytest.raises(ValueError):
            diffuse(
                DiffusionState(estimates=state.estimates, operators=None),
                "opt", 1e-4, 10, topo, variances=meas.variances,
            )
