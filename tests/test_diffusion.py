"""Diffusion schemes: coefficient rules, the variance QP, and the iteration."""

import itertools
import logging
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from locbench import diffusion
from locbench.diffusion import (
    _KKT_TOL,
    _record_walk,
    _support_table,
    build_q_matrix,
    connectivity_weights,
    diffuse,
    median_weights,
    optimal_weights,
)
from locbench.estimators import build_selection_weights, local_wls_batch
from locbench.geometry import build_grid_network, deployment_center
from locbench.signals import simulate_tdoa_measurements

SOURCE = (60.0, 70.0)


def clique(n):
    """The neighborhood mask of n mutually adjacent heads."""
    return np.ones((n, n), dtype=bool)


def path(n):
    """The neighborhood mask of n heads in a chain, each adjacent only to
    its immediate neighbors."""
    steps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return steps <= 1


def prepared_trial(seed):
    """(hoods, positions, operators, variances) of a 16-head trial."""
    rng = np.random.default_rng(seed)
    topo = build_grid_network(16, seed=rng)
    meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
    selection = build_selection_weights(topo)
    init = deployment_center(topo)
    heads, positions, operators = local_wls_batch(meas, selection, topo, init)
    assert heads.tolist() == list(range(16))
    return topo.neighborhoods, positions, operators, meas.variances


def count_opt_updates(monkeypatch):
    """From here on, count each Q that diffuse builds and each operator
    combination that numpy's einsum makes: returns a function of the two."""
    builds, einsum = mock.Mock(wraps=build_q_matrix), mock.Mock(wraps=np.einsum)
    monkeypatch.setattr(diffusion, "build_q_matrix", builds)
    monkeypatch.setattr(np, "einsum", einsum)
    return lambda: (
        builds.call_count,
        sum(c.args[0] == "lk,ldi->kdi" for c in einsum.call_args_list),
    )


# ---------------------------------------------------------------------------
# the earlier per-head rules, one column at a time: an oracle for the
# whole-network matrices


def oracle_connectivity(hoods, k):
    nbhd = np.flatnonzero(hoods[k])
    weights = np.zeros(len(hoods))
    weights[nbhd] = hoods.sum(axis=1)[nbhd]
    return weights / weights.sum()


def oracle_median(estimates, k, hoods, decay_scale):
    nbhd = np.flatnonzero(hoods[k])
    median = np.median(estimates, axis=0)
    sq_dist = np.sum((estimates[nbhd] - median) ** 2, axis=1)
    raw = np.exp(-sq_dist / decay_scale)
    total = raw.sum()
    if total <= 0.0 or not np.isfinite(total):
        raw = np.ones(nbhd.size)
        total = float(nbhd.size)
    weights = np.zeros(len(hoods))
    weights[nbhd] = raw / total
    return weights


def _equality_solution(q_sub):
    """Minimize a'Qa subject to sum(a) = 1 on a fixed support.

    Solves the stationarity system; returns None when it is singular.
    """
    m = q_sub.shape[0]
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = 2.0 * q_sub
    kkt[:m, m] = -1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:m]


def _simplex_qp(q_sub):
    """Exact minimizer of a'Qa over the probability simplex.

    Tries the full support first; when that solution leaves the simplex,
    every support subset is solved and the feasible minimizer kept.
    """
    m = q_sub.shape[0]
    if m == 1:
        return np.ones(1)

    def feasible(vec):
        return vec is not None and np.all(vec >= -1e-12)

    full = _equality_solution(q_sub)
    if feasible(full):
        best = np.clip(full, 0.0, None)
        return best / best.sum()

    best_vec = None
    best_obj = np.inf
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(m), size):
            idx = np.array(subset)
            if size == 1:
                cand = np.ones(1)
            else:
                cand = _equality_solution(q_sub[np.ix_(idx, idx)])
                if not feasible(cand):
                    continue
                cand = np.clip(cand, 0.0, None)
                cand = cand / cand.sum()
            obj = float(cand @ q_sub[np.ix_(idx, idx)] @ cand)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_vec = np.zeros(m)
                best_vec[idx] = cand
    return best_vec


def oracle_optimal(q, k, hoods, events=None):
    """Head k's column, one simplex QP at a time; events, when given,
    collects "indefinite" and "loose" for each warning the head raises."""
    nbhd = np.flatnonzero(hoods[k])
    q_sub = q[np.ix_(nbhd, nbhd)]
    solution = _simplex_qp(q_sub)
    events = [] if events is None else events
    if float(solution @ q_sub @ solution) < -_KKT_TOL:
        events.append("indefinite")
        epsilon = 1e-9 * abs(np.trace(q)) / q.shape[0]
        solution = _simplex_qp(q_sub + epsilon * np.eye(nbhd.size))
    grad = 2.0 * (q_sub @ solution)
    level = float(grad @ solution)
    if np.any(grad < level - _KKT_TOL * max(1.0, abs(level))):
        events.append("loose")
    weights = np.zeros(len(hoods))
    weights[nbhd] = solution
    return weights


def oracle_matrix(rule, hoods):
    return np.column_stack([rule(k) for k in range(len(hoods))])


def assert_optimal_matches_the_oracle(q, hoods, caplog):
    """optimal_weights, with its support table built inside or passed in,
    equals the per-head oracle bit for bit and logs the oracle's lines."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="locbench"):
        weights = optimal_weights(q, hoods)
    events = []
    expected = oracle_matrix(lambda h: oracle_optimal(q, h, hoods, events), hoods)
    assert np.array_equal(weights, expected)
    n = len(hoods)
    lines = []
    if "indefinite" in events:
        ridge = 1e-9 * abs(np.trace(q)) / n
        lines.append(
            f"indefinite neighborhood matrix for {events.count('indefinite')} "
            f"of {n} heads; regularizing with {ridge:g}"
        )
    if "loose" in events:
        lines.append(f"optimality conditions loose for {events.count('loose')} of {n} heads")
    assert [r.getMessage() for r in caplog.records] == lines
    supports = _support_table(hoods)
    assert np.array_equal(optimal_weights(q, hoods, supports=supports), weights)


def sequential_walk(row):
    """The record walk as a loop: a later objective replaces the best only
    when it is lower by more than 1e-15."""
    best, winner = np.inf, -1
    for col, obj in enumerate(row):
        if obj < best - 1e-15:
            best, winner = obj, col
    return winner


@st.composite
def networks(draw, max_heads):
    """The neighborhood mask of a random symmetric graph: density 0 leaves
    every head isolated, 1 makes a clique."""
    n = draw(st.integers(1, max_heads))
    density = draw(st.floats(0.0, 1.0))
    coins = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(coins).reshape(n, n) < density, 1)
    return upper | upper.T | np.eye(n, dtype=bool)


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


@st.composite
def stacked_networks(draw):
    """Heads whose neighborhoods share a size, so that one stack holds many.

    Three disconnected parts: a ring of 8-12 heads, each linked to the
    `reach` nearest on either side (every neighborhood has 3, 5 or 7
    members), a clique of 1-7 heads and a random network of up to 7.
    """
    ring = draw(st.integers(8, 12))
    reach = draw(st.integers(1, 3))
    clique = draw(st.integers(1, 7))
    rest = draw(networks(max_heads=7))
    n = ring + clique + len(rest)
    offsets = np.subtract.outer(np.arange(ring), np.arange(ring)) % ring
    hoods = np.zeros((n, n), dtype=bool)
    hoods[:ring, :ring] = np.minimum(offsets, ring - offsets) <= reach
    hoods[ring:ring + clique, ring:ring + clique] = True
    hoods[ring + clique:, ring + clique:] = rest
    return hoods


@st.composite
def objective_matrices(draw):
    """Walk objectives: runs of ties and near-ties a few ulp to 1e-15
    apart, -inf, and infeasible inf or NaN entries; some rows hold no
    feasible entry at all."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 31))
    base = draw(st.sampled_from([1.0, 0.0, -2.5, 1e-3, 40.0]))
    step = draw(st.sampled_from([2.0**-52, 2.5e-16, 5e-16, 1e-15, 1.5e-15]))
    entry = st.one_of(
        st.integers(-8, 8).map(lambda k: base + k * step),
        st.sampled_from([np.inf, np.nan, -np.inf]),
        st.floats(-1e3, 1e3),
    )
    cells = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    objs = np.array(cells).reshape(rows, cols)
    blank = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    objs[blank] = draw(st.sampled_from([np.inf, np.nan]))
    return objs


def degree_mixed_grid(n_heads, drop):
    """The mask of a grid without the heads in drop, the block the bench
    passes for the heads whose fits succeeded: neighborhoods of 1 to 5."""
    keep = np.setdiff1d(np.arange(n_heads), drop)
    return build_grid_network(n_heads, seed=0).neighborhoods[np.ix_(keep, keep)]


def assert_combination_matrix(weights, hoods):
    """Column-stochastic, non-negative, supported on the neighborhoods."""
    assert weights.shape == hoods.shape
    assert np.allclose(weights.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    assert weights.min() >= -1e-12
    assert np.all(weights[~hoods] == 0.0)


class TestMatrixRulesMatchPerHeadOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_connectivity(self, data):
        hoods = data.draw(networks(max_heads=14))
        weights = connectivity_weights(hoods)
        assert np.array_equal(
            weights, oracle_matrix(lambda k: oracle_connectivity(hoods, k), hoods)
        )
        assert_combination_matrix(weights, hoods)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_median(self, data):
        hoods = data.draw(networks(max_heads=14))
        estimates = data.draw(spread_estimates(len(hoods)))
        decay_scale = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 30.0, 1e4]))
        weights = median_weights(estimates, hoods, decay_scale)
        expected = oracle_matrix(
            lambda k: oracle_median(estimates, k, hoods, decay_scale), hoods
        )
        # the column sum adds a neighborhood in head order; numpy summed the
        # oracle's packed neighborhood the same way below 8 members (every
        # grid the experiments build has at most 5) and pairwise above, where
        # at most 14 float64 terms in another order differ by a few ulp
        small = hoods.sum(axis=1) < 8
        assert np.array_equal(weights[:, small], expected[:, small])
        np.testing.assert_allclose(weights, expected, rtol=1e-14, atol=0.0)
        assert_combination_matrix(weights, hoods)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_optimal(self, data):
        hoods = data.draw(networks(max_heads=6))
        n, k = len(hoods), 8
        entries = data.draw(
            st.lists(st.floats(-3.0, 3.0), min_size=n * 2 * k, max_size=n * 2 * k)
        )
        operators = np.array(entries).reshape(n, 2, k)
        q = build_q_matrix(operators, np.linspace(0.5, 2.0, k))
        weights = optimal_weights(q, hoods)
        assert np.array_equal(
            weights, oracle_matrix(lambda h: oracle_optimal(q, h, hoods), hoods)
        )
        assert_combination_matrix(weights, hoods)

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_optimal_stacks_match_the_oracle(self, caplog, data):
        hoods = data.draw(stacked_networks())
        n, k = len(hoods), 8
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        operators = rng.normal(size=(n, 2, k))
        variances = rng.uniform(0.5, 2.0, size=k)
        if data.draw(st.booleans(), label="rounded"):
            # rounded operators repeat entries, so objectives tie or nearly
            # tie and the tie rule decides
            operators = np.round(operators)
        # heads sharing one operator make the subset systems singular
        shared = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="shared")
        operators[rng.random(n) < shared] = operators[0]
        # a negative diagonal shift makes neighborhoods indefinite, which
        # takes the ridge retry
        shift = data.draw(st.sampled_from([0.0, 4.0, 40.0]), label="shift")
        q = build_q_matrix(operators, variances) - shift * np.eye(n)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="locbench"):
            weights = optimal_weights(q, hoods)
        events = []
        expected = oracle_matrix(lambda h: oracle_optimal(q, h, hoods, events), hoods)
        assert np.array_equal(weights, expected)
        lines = []
        if "indefinite" in events:
            ridge = 1e-9 * abs(np.trace(q)) / n
            lines.append(
                f"indefinite neighborhood matrix for {events.count('indefinite')} "
                f"of {n} heads; regularizing with {ridge:g}"
            )
        if "loose" in events:
            lines.append(f"optimality conditions loose for {events.count('loose')} of {n} heads")
        assert [r.getMessage() for r in caplog.records] == lines

    def test_optimal_near_tie_matches_the_oracle(self):
        # heads 0 and 2 share an operator, so two supports tie; a stacked
        # objective on operands that are not C-contiguous skips BLAS, moves
        # by an ulp and picks another support
        a, b, c = 17.645503622677907, -5.39423275451317, 15.462451698174055
        q = np.array([[a, b, a], [b, c, b], [a, b, a]])
        hoods = clique(3)
        assert np.array_equal(
            optimal_weights(q, hoods),
            oracle_matrix(lambda h: oracle_optimal(q, h, hoods), hoods),
        )

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_optimal_mixed_degrees_match_the_oracle(self, caplog, data):
        # one support-size stack holds the whole neighborhoods of some heads
        # and proper subsets of larger ones
        n_heads = data.draw(st.sampled_from([16, 25]), label="heads")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        share = data.draw(st.sampled_from([0.1, 0.3, 0.5]), label="dropped")
        hoods = degree_mixed_grid(n_heads, np.flatnonzero(rng.random(n_heads) < share))
        assume(len(hoods) > 0)
        operators = rng.normal(size=(len(hoods), 2, 8))
        if data.draw(st.booleans(), label="rounded"):
            operators = np.round(operators)
        # heads sharing one operator tie supports, and the walk order decides
        shared = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="shared")
        operators[rng.random(len(hoods)) < shared] = operators[0]
        shift = data.draw(st.sampled_from([0.0, 4.0, 40.0]), label="shift")
        q = build_q_matrix(operators, rng.uniform(0.5, 2.0, size=8))
        assert_optimal_matches_the_oracle(q - shift * np.eye(len(hoods)), hoods, caplog)

    @pytest.mark.parametrize("shift", [0.0, 40.0])
    def test_optimal_on_a_grid_with_every_degree(self, caplog, shift):
        # without heads 1, 3 and 5 of a 5x5 grid, head 0 stands alone,
        # heads 2 and 4 have one neighbour and head 12 all four; the shift
        # makes every neighborhood indefinite and takes the ridge retry
        hoods = degree_mixed_grid(25, [1, 3, 5])
        assert set(hoods.sum(axis=1)) == {1, 2, 3, 4, 5}
        rng = np.random.default_rng(17)
        q = build_q_matrix(rng.normal(size=(22, 2, 8)), rng.uniform(0.5, 2.0, size=8))
        assert_optimal_matches_the_oracle(q - shift * np.eye(22), hoods, caplog)
        if shift:
            assert caplog.records[0].getMessage().startswith(
                "indefinite neighborhood matrix for 22 of 22 heads"
            )


class TestRecordWalk:
    @settings(max_examples=400, deadline=None)
    @given(objective_matrices())
    def test_matches_the_sequential_walk(self, objs):
        assert _record_walk(objs).tolist() == [sequential_walk(row) for row in objs]

    def test_a_near_tie_keeps_the_earlier_record_not_the_minimum(self):
        # 1 - 1.5e-15 beats 1 by more than 1e-15; 1 - 2e-15 does not beat it
        objs = np.array([[1.0, 1.0 - 1.5e-15, 1.0 - 2e-15]])
        assert objs[0].argmin() == 2
        assert sequential_walk(objs[0]) == 1
        assert _record_walk(objs).tolist() == [1]

    def test_a_row_without_a_feasible_entry_keeps_none(self):
        objs = np.array([[np.inf, np.nan, np.inf], [np.nan, 3.0, 3.0], [2.0, np.nan, -np.inf]])
        assert _record_walk(objs).tolist() == [-1, 1, 2]


class TestConnectivityWeights:
    def test_degree_proportional_on_grid(self):
        hoods = build_grid_network(16, seed=0).neighborhoods
        w = connectivity_weights(hoods)[:, 0]
        # corner head: self degree 3, both neighbors degree 4
        assert w[0] == pytest.approx(3.0 / 11.0)
        assert w[1] == pytest.approx(4.0 / 11.0)
        assert w[4] == pytest.approx(4.0 / 11.0)
        assert w.sum() == pytest.approx(1.0)
        assert np.count_nonzero(w) == 3

    def test_active_mask_drops_members(self):
        # a head left out of the mask block leaves every neighborhood, and
        # degrees are counted in the block: corner head 0 keeps only itself
        # (degree 2 without head 1) and head 4 (degree 4)
        keep = np.setdiff1d(np.arange(16), [1])
        w = connectivity_weights(degree_mixed_grid(16, [1]))[:, 0]
        assert np.count_nonzero(w) == 2
        assert w[0] == pytest.approx(2.0 / 6.0)
        assert w[list(keep).index(4)] == pytest.approx(4.0 / 6.0)
        assert w.sum() == pytest.approx(1.0)


class TestMedianWeights:
    def test_outlier_is_downweighted(self):
        # hand example: median (1,1); the far point keeps weight exp(-162)
        hoods = clique(3)
        estimates = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
        w = median_weights(estimates, hoods, 1.0)[:, 0]
        raw = np.array([np.exp(-2.0), 1.0, np.exp(-162.0)])
        assert np.allclose(w, raw / raw.sum())
        assert w.argmin() == 2

    def test_reference_median_is_network_wide(self):
        # head 3 on a chain never sees heads 0 and 1, yet the reference
        # median still reflects them
        hoods = path(4)
        estimates = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        w = median_weights(estimates, hoods, 1.0)[:, 3]
        assert w[0] == 0.0 and w[1] == 0.0  # outside the neighborhood
        # distances to the (5.05, 5.0) median differ by exactly 1 in square
        assert w[2] / w[3] == pytest.approx(np.e)

    def test_weights_decrease_with_distance_from_median(self):
        hoods = build_grid_network(16, seed=1).neighborhoods
        rng = np.random.default_rng(10)
        for _ in range(20):
            estimates = rng.normal(60.0, 3.0, size=(16, 2))
            k = int(rng.integers(16))
            w = median_weights(estimates, hoods, 2.0)[:, k]
            nbhd = np.flatnonzero(hoods[k])
            ref = np.median(estimates, axis=0)
            dist = np.linalg.norm(estimates[nbhd] - ref, axis=1)
            order = np.argsort(dist)
            assert np.all(np.diff(w[nbhd][order]) <= 1e-15)

    def test_underflow_falls_back_to_uniform(self, caplog):
        # a two-head pocket stranded far from the network median underflows
        # every exponent in its neighborhood
        hoods = np.zeros((5, 5), dtype=bool)
        hoods[:2, :2] = True
        hoods[2:, 2:] = path(3)
        estimates = np.array(
            [[1.0e4, 0.0], [1.0001e4, 0.0], [0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
        )
        with caplog.at_level(logging.WARNING):
            w = median_weights(estimates, hoods, 1.0)
        for k in (0, 1):
            assert np.array_equal(w[:, k], [0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.all(w[:2, 2:] == 0.0)
        underflows = [r.getMessage() for r in caplog.records]
        assert underflows == ["median weights underflowed for 2 of 5 heads; using uniform"]

    def test_tiny_scale_falls_back_without_numpy_warnings(self, caplog):
        # every squared distance from the (1.5, 0) median over 1e-320
        # overflows to inf, so every weight is exp(-inf) = 0
        estimates = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING):
            warnings.simplefilter("error")
            w = median_weights(estimates, clique(4), 1e-320)
        assert np.array_equal(w, np.full((4, 4), 0.25))
        underflows = [r.getMessage() for r in caplog.records]
        assert underflows == ["median weights underflowed for 4 of 4 heads; using uniform"]

    def test_rejects_nonpositive_scale(self):
        hoods = clique(3)
        for scale in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                median_weights(np.zeros((3, 2)), hoods, scale)


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
    """Dense scan of the probability simplex for a 3x3 objective; the first
    minimum in a-major order."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    grid_a, grid_b = np.meshgrid(ticks, ticks, indexing="ij")
    grid_c = 1.0 - grid_a - grid_b
    keep = grid_c >= -1e-12
    lattice = np.column_stack([grid_a[keep], grid_b[keep], np.maximum(grid_c[keep], 0.0)])
    values = np.einsum("si,ij,sj->s", lattice, q_sub, lattice)
    first = np.argmin(values)
    return values[first], lattice[first]


class TestOptimalWeights:
    def test_two_head_closed_form(self):
        # diag(1, 2) splits as (2/3, 1/3) on the simplex
        hoods = clique(2)
        q = np.diag([1.0, 2.0])
        w = optimal_weights(q, hoods)
        assert np.allclose(w[:, 0], (2.0 / 3.0, 1.0 / 3.0))
        assert np.allclose(w[:, 1], (2.0 / 3.0, 1.0 / 3.0))

    def test_matches_grid_search_on_random_instances(self):
        hoods = clique(3)
        rng = np.random.default_rng(31)
        for _ in range(10):
            root = rng.normal(size=(3, 3))
            q = root @ root.T + 0.1 * np.eye(3)
            w = optimal_weights(q, hoods)[:, 0]
            best, arg = simplex_grid_minimum(q)
            assert w @ q @ w <= best + 1e-9
            assert np.abs(w - arg).max() < 2e-3

    def test_one_warning_line_per_call(self, caplog):
        # -I is indefinite everywhere; the end heads of the path (two
        # members) and the inner heads (three) are solved in two stacks
        with caplog.at_level(logging.WARNING):
            optimal_weights(-np.eye(4), path(4))
        # the equality minimizer (-5e-13, 1) passes the feasibility slack and
        # is clipped to a vertex whose gradient condition misses by 2e-6
        b = 1.0 - 1e-6
        q = np.array([[-2e6 + 1.0 - 2e-6, b], [b, 1.0]])
        with caplog.at_level(logging.WARNING):
            optimal_weights(q, clique(2))
        assert [r.getMessage() for r in caplog.records] == [
            "indefinite neighborhood matrix for 4 of 4 heads; regularizing with 1e-09",
            "optimality conditions loose for 2 of 2 heads",
        ]

    def test_rejects_a_q_of_another_size(self):
        for q in (np.eye(3), np.eye(5), np.ones((4, 3))):
            with pytest.raises(ValueError, match="shape"):
                optimal_weights(q, path(4))

    def test_ridge_is_positive_for_a_negative_trace(self, caplog):
        # the retry must add to the diagonal, whatever the sign of trace(Q)
        with caplog.at_level(logging.WARNING):
            optimal_weights(-np.eye(4), path(4))
        (line,) = [r.getMessage() for r in caplog.records]
        assert float(line.rsplit(" ", 1)[1]) > 0.0

    def test_never_worse_than_connectivity(self):
        hoods, _, operators, variances = prepared_trial(3)
        q = build_q_matrix(operators, variances)
        w_opt = optimal_weights(q, hoods)
        w_con = connectivity_weights(hoods)
        for k in range(16):
            a, b = w_opt[:, k], w_con[:, k]
            assert a @ q @ a <= b @ q @ b + 1e-12

    def test_simplex_invariants(self):
        hoods, _, operators, variances = prepared_trial(4)
        q = build_q_matrix(operators, variances)
        assert_combination_matrix(optimal_weights(q, hoods), hoods)


class TestDiffuse:
    def test_consensus_on_clique_with_con(self):
        estimates = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
        final = diffuse(estimates, "con", clique(4), 1e-10, 200)
        assert final.converged
        # equal degrees: uniform averaging lands on the centroid in one step
        assert np.allclose(final.estimates, [2.0, 2.0], atol=1e-8)

    def test_con_coefficients_are_static(self):
        hoods, positions, _, _ = prepared_trial(5)
        seen = []
        diffuse(positions, "con", hoods, 1e-4, 50, on_epoch=lambda e, x, c, s: seen.append(c))
        assert len(seen) >= 2
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])
        assert np.array_equal(seen[0], connectivity_weights(hoods))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_epoch_keeps_simplex_and_envelope(self, data):
        # random graphs: isolated heads, cliques, rings and disconnected
        # parts; estimates with far-off pockets that underflow wei's weights
        hoods = data.draw(st.one_of(networks(max_heads=12), stacked_networks()), label="hoods")
        n = len(hoods)
        estimates = data.draw(spread_estimates(n), label="estimates")
        decay_scale = data.draw(st.sampled_from([1e-3, 1.0, 1e4]), label="decay_scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        operators = rng.normal(size=(n, 2, 8))
        variances = rng.uniform(0.5, 2.0, size=8)
        for scheme in ("con", "wei", "opt"):
            envelopes = [(estimates.min(axis=0), estimates.max(axis=0))]

            def watch(epoch, new, coeffs, max_step):
                assert np.abs(coeffs.sum(axis=0) - 1.0).max() <= 1e-12
                assert coeffs.min() >= -1e-12
                assert np.all(coeffs[~hoods] == 0.0)
                # a convex combination of the previous epoch's estimates,
                # up to the rounding of sums of at most 26 terms
                lo, hi = envelopes[-1]
                assert np.all(new >= lo - 1e-9) and np.all(new <= hi + 1e-9)
                envelopes.append((new.min(axis=0), new.max(axis=0)))

            final = diffuse(
                estimates, scheme, hoods, 1e-6, 20, operators=operators,
                variances=variances, decay_scale=decay_scale, on_epoch=watch,
            )
            assert final.epoch == len(envelopes) - 1

    def test_every_scheme_settles_on_a_grid_trial(self):
        hoods, positions, operators, variances = prepared_trial(6)
        for scheme in ("con", "wei", "opt"):
            final = diffuse(
                positions, scheme, hoods, 1e-4, 500, operators=operators, variances=variances
            )
            assert final.converged

    def test_nonconvergence_is_reported(self, caplog):
        hoods, positions, _, _ = prepared_trial(7)
        with caplog.at_level(logging.WARNING):
            final = diffuse(positions, "con", hoods, 1e-13, 3)
        assert not final.converged
        assert final.epoch == 3
        assert "did not settle" in caplog.text

    def test_final_step_honors_epsilon(self):
        hoods, positions, _, _ = prepared_trial(8)
        steps = []
        final = diffuse(
            positions, "con", hoods, 1e-3, 500, on_epoch=lambda e, x, c, s: steps.append(s)
        )
        assert final.converged
        assert steps[-1] <= 1e-3
        assert all(s > 1e-3 for s in steps[:-1])
        assert final.epoch == len(steps)

    def test_optimize_once_reuses_first_epoch_coefficients(self, monkeypatch):
        hoods, positions, operators, variances = prepared_trial(10)
        counts = count_opt_updates(monkeypatch)
        seen = []
        diffuse(
            positions, "opt", hoods, 1e-4, 500, operators=operators, variances=variances,
            optimize_once=True, on_epoch=lambda e, x, c, s: seen.append(c.copy()),
        )
        assert len(seen) >= 2
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])
        # one Q, and no operator combination, which no later Q would read
        assert counts() == (1, 0)

    def test_opt_updates_operators(self, monkeypatch):
        # each epoch's weights come from the operators combined with the
        # previous epoch's weights; the caller's operators stay as they were
        hoods, positions, operators, variances = prepared_trial(11)
        given_ops = operators.copy()
        counts = count_opt_updates(monkeypatch)
        seen = []
        final = diffuse(
            positions, "opt", hoods, 1e-4, 500, operators=operators, variances=variances,
            on_epoch=lambda e, x, c, s: seen.append(c.copy()),
        )
        assert final.converged and len(seen) >= 3
        # one Q per epoch, and one combination per Q after the first: none
        # after the last epoch, whose operators nothing reads
        assert counts() == (len(seen), len(seen) - 1)
        assert np.array_equal(operators, given_ops)
        for previous, coeffs in zip(seen, seen[1:]):
            operators = np.einsum("lk,ldi->kdi", previous, operators)
            q = build_q_matrix(operators, variances)
            assert np.array_equal(coeffs, optimal_weights(q, hoods))
        assert not np.array_equal(seen[1], seen[0])

    def test_rejects_unknown_scheme_and_bad_knobs(self):
        hoods, positions, operators, variances = prepared_trial(12)
        with pytest.raises(ValueError):
            diffuse(positions, "avg", hoods, 1e-4, 10)
        for epsilon in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                diffuse(positions, "con", hoods, epsilon, 10)
        with pytest.raises(ValueError, match="shape"):
            diffuse(positions, "con", hoods[:15, :15], 1e-4, 10)
        one_way, no_self = hoods.copy(), hoods.copy()
        one_way[0, 1], no_self[3, 3] = False, False
        for bad in (one_way, no_self, hoods[:, :15]):
            with pytest.raises(ValueError, match="hoods must be"):
                diffuse(positions[:len(bad)], "con", bad, 1e-4, 10)
        with pytest.raises(ValueError):
            diffuse(positions, "con", hoods, 1e-4, 0)
        for ops, var in ((None, variances), (operators, None)):
            with pytest.raises(ValueError, match="opt scheme needs"):
                diffuse(positions, "opt", hoods, 1e-4, 10, operators=ops, variances=var)
