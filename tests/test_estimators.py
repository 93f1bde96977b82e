"""WLS estimators: Jacobians, solver behavior, selection weights, CRLB."""

import ast
import functools
import itertools
import logging
import operator
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbench import estimators
from locbench.diffusion import connectivity_weights, median_weights, optimal_weights
from locbench.estimators import (
    _INITIAL_DAMPING,
    _MAX_DAMPING,
    _MAX_ITERS,
    _STEP_TOL,
    EstimationError,
    _gram,
    _range_differences,
    _selection,
    _solve_stack,
    crlb,
    wls_group,
)
from locbench.geometry import (
    NetworkTopology,
    as_position,
    build_grid_network,
    deployment_center,
)
from locbench.signals import simulate_tdoa_measurements

SOURCE = (60.0, 70.0)


def fit(meas, topo, init, with_global=True, with_local=True, with_q=True):
    """One run's wls_group fits: (position, heads, positions, q)."""
    (fits,) = wls_group([(meas, topo, init)], with_global, with_local, with_q)
    return fits


def same_position(have, want):
    """Equal global-fit outcomes: one point, both None, or errors of one text."""
    if isinstance(want, EstimationError):
        return isinstance(have, EstimationError) and str(have) == str(want)
    return (have is None) == (want is None) and (want is None or np.array_equal(have, want))


def residual_and_jacobian(x, meas, topo):
    """Residuals (measured minus predicted) and the model's jacobian at x."""
    xi, xj = topo.measurement_nodes()
    predicted, jac0, jac1, _, _ = _range_differences(*as_position(x), *xi.T, *xj.T)
    return meas.values - predicted, np.column_stack((jac0, jac1))


# ---------------------------------------------------------------------------
# the earlier one-fit-at-a-time solver over all K rows, kept as a bitwise
# oracle for the lockstep batch


def oracle_evaluate(x, meas, topo, weights):
    """Residuals and jacobian at x on the rows of nonzero weight, zero on
    the others; raises where x lies on a node of a weighted row."""
    on = weights != 0
    xi, xj = (nodes[on] for nodes in topo.measurement_nodes())
    di = np.linalg.norm(x - xi, axis=1)
    dj = np.linalg.norm(x - xj, axis=1)
    if np.any(di == 0.0) or np.any(dj == 0.0):
        raise EstimationError("evaluation point coincides with a node of a weighted row")
    res, jac = np.zeros(meas.size), np.zeros((meas.size, 2))
    res[on] = meas.values[on] - (di - dj)
    jac[on] = (x - xi) / di[:, None] - (x - xj) / dj[:, None]
    return res, jac


def oracle_gauss_newton(meas, topo, x0, weights):
    """Returns (x, converged)."""
    x = np.array(x0, dtype=float)
    res, jac = oracle_evaluate(x, meas, topo, weights)
    cost = float(np.dot(weights * res, res))
    mu = _INITIAL_DAMPING
    for _ in range(_MAX_ITERS):
        grad = jac.T @ (weights * res)
        hess = (jac * weights[:, None]).T @ jac
        accepted = False
        while mu <= _MAX_DAMPING:
            try:
                step = np.linalg.solve(hess + mu * np.eye(2), grad)
            except np.linalg.LinAlgError as exc:
                raise EstimationError("normal equations are singular") from exc
            if not np.all(np.isfinite(step)):
                raise EstimationError("normal equations produced a non-finite step")
            x_new = x + step
            res_new, jac_new = oracle_evaluate(x_new, meas, topo, weights)
            cost_new = float(np.dot(weights * res_new, res_new))
            if cost_new <= cost:
                accepted = True
                break
            mu = mu * 10.0 if mu > 0 else 1e-8
        if not accepted:
            return x, False
        x, res, jac, cost = x_new, res_new, jac_new, cost_new
        mu *= 0.1
        if float(np.linalg.norm(step)) < _STEP_TOL:
            return x, True
    return x, False


def oracle_global_fit(meas, topo, init):
    return oracle_gauss_newton(meas, topo, init, 1.0 / meas.variances)[0]


def oracle_local_wls(k, meas, topo, init):
    """Head k's fit over all K rows, zero weight outside its neighborhood;
    raises EstimationError where the batch leaves head k out."""
    m = topo.sensors_per_head
    combined = np.repeat(oracle_selection_weights(topo)[:, k] / m, m) / meas.variances
    if np.count_nonzero(combined) < 3:
        raise EstimationError(f"head {k} has fewer than 3 accessible measurements")
    x, _ = oracle_gauss_newton(meas, topo, init, combined)
    _, jac = oracle_evaluate(x, meas, topo, combined)
    weighted_jac = jac * combined[:, None]
    normal = weighted_jac.T @ jac
    try:
        operator = np.linalg.solve(normal, weighted_jac.T)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"head {k}: rank-deficient local geometry") from exc
    if not np.all(np.isfinite(operator)):
        raise EstimationError(f"head {k}: rank-deficient local geometry")
    return x, operator


def finite_difference_rows(x, meas, topo, h=1e-5):
    """Central differences of the range-difference model, one row per pair."""
    def model(p):
        sensors, heads = topo.measurement_nodes()
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
        est = fit(meas, topo, init, with_local=False)[0]
        assert np.linalg.norm(est - SOURCE) < 1e-8

    def test_noisy_estimate_beats_grid_refinement(self):
        # independent oracle: the solver's weighted cost is no worse than
        # the best point of a fine grid centered on the solution
        topo = build_grid_network(16, seed=6)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(6))
        init = deployment_center(topo)
        est = fit(meas, topo, init, with_local=False)[0]

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
            est = fit(meas, topo, deployment_center(topo), with_local=False)[0]
            errors.append(np.linalg.norm(est - SOURCE))
        # CRLB-level accuracy is about 1.8 m at this operating point
        assert np.mean(errors) < 3.0

    def test_a_round_that_leaves_no_fit_live_yields_the_failure(self):
        # one head of one sensor: the one row's rank-one normal matrix ends
        # in a singular step, which leaves the batch without a live fit
        rng = np.random.default_rng(62)
        topo = build_grid_network(1, sensors_per_head=1, seed=rng)
        init = rng.uniform(-40.0, 40.0, size=2)
        meas = simulate_tdoa_measurements(topo, topo.sensors[0, 0], 0.0, rng)
        position = fit(meas, topo, init, with_local=False)[0]
        assert str(position) == "global WLS failed: singular step"
        with pytest.raises(EstimationError):
            oracle_global_fit(meas, topo, init)

    def test_monte_carlo_covariance_matches_crlb(self):
        # the solver is asymptotically efficient: over repeated noise draws
        # on one geometry, the sample mean squared error tracks the CRLB
        topo = build_grid_network(16, seed=7)
        rng = np.random.default_rng(77)
        sq = []
        for _ in range(400):
            meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
            est = fit(meas, topo, deployment_center(topo), with_local=False)[0]
            sq.append(np.sum((est - SOURCE) ** 2))
        bound = np.trace(crlb(topo, SOURCE, meas.variances))
        assert np.mean(sq) == pytest.approx(bound, rel=0.15)


def oracle_selection_weights(topology):
    """The per-head double loop, summing each head's other entries one at
    a time in column order: an oracle for _selection's bits on any mask."""
    n = topology.n_heads
    degrees = topology.degrees
    head_matrix = np.zeros((n, n))
    for k in range(n):
        others = 0.0
        for l in np.flatnonzero(topology.neighborhoods[:, k]):
            if l != k:
                head_matrix[l, k] = 1.0 / max(degrees[l], degrees[k])
                others += head_matrix[l, k]
        head_matrix[k, k] = 1.0 - others
    return head_matrix


def dense_selection_weights(topology):
    """The dense (N, N) matrix the run path once built for every run, whose
    diagonal takes numpy's pairwise row sums: an oracle for _selection's
    bits on a grid."""
    degrees = topology.degrees
    weights = topology.neighborhoods / np.maximum.outer(degrees, degrees)
    np.fill_diagonal(weights, 0.0)
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return weights


def selection_matrix(topology):
    """_selection's weights as an (N, N) matrix: entry [l, k] is head k's
    weight on head l, zero outside k's neighborhood."""
    n = topology.n_heads
    fit, owners, weights = _selection(topology)
    matrix = np.zeros((n, n))
    matrix[owners, fit] = weights
    return matrix


@st.composite
def networks(draw):
    """A random symmetric topology of up to 40 heads; a high density gives
    neighborhoods of 8 heads and more. Heads sit on a line, one sensor each."""
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    heads = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return NetworkTopology(
        heads=heads,
        sensors=heads[:, None, :] + np.array([0.0, 1.0]),
        neighborhoods=upper | upper.T | np.eye(n, dtype=bool),
    )


def with_mask(topo, hoods):
    """topo's heads and sensors over another neighborhood mask."""
    return NetworkTopology(heads=topo.heads, sensors=topo.sensors, neighborhoods=hoods)


class TestSelectionWeights:
    def test_columns_sum_to_one(self):
        topo = build_grid_network(16, seed=3)
        selection = selection_matrix(topo)
        assert np.allclose(selection.sum(axis=0), 1.0)
        m = topo.sensors_per_head
        for k in range(16):
            # head k's weight on each measurement, as wls_group applies it
            column = np.repeat(selection[:, k] / m, m)
            assert column.sum() == pytest.approx(1.0)
            # a measurement carries its owning head's entry split over the
            # head's sensors; measurement r belongs to head r // M
            assert np.array_equal(column, selection[np.arange(16 * m) // m, k] / m)

    def test_metropolis_values_on_grid(self):
        # corner head 0 (degree 3) with edge neighbors 1 and 4 (degree 4):
        # off-diagonal 1/4 each, diagonal absorbs the remainder
        fit, owners, weights = _selection(build_grid_network(16, seed=3))
        assert owners[fit == 0].tolist() == [0, 1, 4]
        assert weights[fit == 0].tolist() == [0.5, 0.25, 0.25]

    def test_measurement_weights_split_head_mass(self):
        topo = build_grid_network(16, sensors_per_head=10, seed=3)
        # head 0's weight on each measurement, as wls_group applies it
        column = np.repeat(selection_matrix(topo)[:, 0] / 10, 10)
        assert column.shape == (160,)
        # head 1's ten sensors share its 1/4 mass
        assert np.allclose(column[10:20], 0.025)

    @settings(max_examples=300, deadline=None)
    @given(topo=networks())
    def test_entries_equal_the_loop_bit_for_bit(self, topo):
        fit, owners, _ = _selection(topo)
        assert np.array_equal(np.flatnonzero(topo.neighborhoods), fit * topo.n_heads + owners)
        assert np.array_equal(selection_matrix(topo), oracle_selection_weights(topo))

    def test_grid_entries_equal_the_dense_matrix_bit_for_bit(self):
        # _selection sums a head's other entries in column order, the dense
        # matrix in numpy's pairwise order, and the two agree on a grid: a
        # grid head's off-diagonal weights are {1/4, 1/4} (corner), {1/3,
        # 1/3} (side 2), {1/4, 1/4, 1/5} (edge) or {1/5 x 4} (interior),
        # each multiset sums to one value in every order (a left fold of
        # some permutation, or with four values also two pairs), and the
        # zeros between them add nothing
        multisets = ([1 / 4, 1 / 4], [1 / 3, 1 / 3], [1 / 4, 1 / 4, 1 / 5], [1 / 5] * 4)
        for values in multisets:
            sums = {functools.reduce(operator.add, p) for p in itertools.permutations(values)}
            if len(values) == 4:
                sums |= {(a + b) + (c + d) for a, b, c, d in itertools.permutations(values)}
            assert len(sums) == 1
        for side in range(2, 61):
            topo = build_grid_network(side * side, sensors_per_head=1, seed=0)
            fit, owners, weights = _selection(topo)
            dense = dense_selection_weights(topo)
            assert all(np.array_equal(a, b) for a, b in zip(np.nonzero(dense.T), (fit, owners)))
            assert np.array_equal(weights, dense[owners, fit]), side

    def test_peak_grows_with_the_nonzeros(self):
        # a 2,304-head grid's mask has 11,328 true entries; one (N, N)
        # float array would take 42.5 MB, the mask itself 5.3 MB
        topo = build_grid_network(2304, sensors_per_head=1, seed=0)
        tracemalloc.start()
        try:
            _selection(topo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * np.count_nonzero(topo.neighborhoods)


class TestSolveStack:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_per_matrix_solve_with_nan_at_singular_members(self, n):
        # n = 2 is a fit's normal matrix; n = m + 1 for m = 2..5 is the
        # KKT system of an m-point simplex QP, whose one (m + 1, 1) side
        # broadcasts over the stack
        rng = np.random.default_rng(8)
        a = rng.normal(size=(200, n, n))
        members = np.flatnonzero(rng.random(200) < 0.3)
        a[members[0::4], :, 0] = 0.0  # a zero column
        a[members[1::4], 1] = 0.0  # a zero row
        a[members[2::4]] = 0.0
        a[members[3::4], 1] = 2.0 * a[members[3::4], 0]  # rank one, up to rounding
        exact = np.concatenate((members[0::4], members[1::4], members[2::4]))
        kkt_side = np.zeros((n, 1))
        kkt_side[-1] = 1.0
        for b in (rng.normal(size=(200, n, 1)), rng.normal(size=(200, n, 640)), kkt_side):
            got = _solve_stack(a, b)
            assert got.shape == (200, n, b.shape[-1])
            singular = np.zeros(200, dtype=bool)
            for i in range(200):
                try:
                    expected = np.linalg.solve(a[i], b if b.ndim == 2 else b[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
                    assert np.all(np.isnan(got[i]))
                else:
                    assert np.array_equal(got[i], expected)
            assert singular[exact].all()

    def test_identity_side_fails_exactly_where_any_side_does(self):
        # a fit's rank-deficiency verdict comes from its normal matrix
        # solved against I; the operator solve must fail on the same members
        rng = np.random.default_rng(9)
        a = rng.normal(size=(300, 2, 2))
        members = np.flatnonzero(rng.random(300) < 0.3)
        a[members[0::3], :, 1] = 0.0
        a[members[1::3], 0] = 0.0
        a[members[2::3]] = 0.0
        for width in (1, 2, 640):
            b = rng.normal(size=(300, 2, width))
            inverse = np.isfinite(_solve_stack(a, np.eye(2))).all(axis=(1, 2))
            solved = np.isfinite(_solve_stack(a, b)).all(axis=(1, 2))
            assert np.array_equal(inverse, solved)
            assert np.flatnonzero(~inverse).tolist() == sorted(members.tolist())

    def test_only_estimators_imports_the_private_gufuncs(self):
        # numpy.linalg._umath_linalg is private numpy API; _solve_stack is
        # its one wrapper, so dropping it is one import to delete
        def imported(node):
            if isinstance(node, ast.Import):
                return [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                return [f"{node.module}.{alias.name}" for alias in node.names]
            return []

        importers = [
            path.name for path in sorted(Path(estimators.__file__).parent.glob("*.py"))
            if any("_umath_linalg" in name
                   for node in ast.walk(ast.parse(path.read_text())) for name in imported(node))
        ]
        assert importers == ["estimators.py"]

    def test_only_the_model_silences_divide_and_invalid(self):
        # _range_differences owns the on-node warning policy of its own
        # arithmetic; a caller wrapping it again, or another silenced
        # division, shows here (all= and over= guard other rules)
        def silenced(node, function):
            if isinstance(node, ast.FunctionDef):
                function = node.name
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate"
                    and {kw.arg for kw in node.keywords} & {"divide", "invalid"}):
                yield function
            for child in ast.iter_child_nodes(node):
                yield from silenced(child, function)

        owners = [
            (path.name, function)
            for path in sorted(Path(estimators.__file__).parent.glob("*.py"))
            for function in silenced(ast.parse(path.read_text()), None)
        ]
        assert owners == [("estimators.py", "_range_differences")]


class TestLocalWls:
    def test_operator_is_left_inverse_of_jacobian(self):
        # seen through Q0: head 0, joined to every head, weights every row
        # by 1 / (N M) over its variance (its degree is N, so each of its
        # weights is 1 / N), so its operator is the left inverse L of the
        # jacobian J of least covariance, L W L^T = (J^T W^-1 J)^-1 for the
        # noise covariance W, and its Q0 entry is the trace of the CRLB at
        # its fitted point; every other head's operator, a left inverse of
        # J that is zero outside its neighborhood, has a larger trace
        grid = build_grid_network(16, seed=5)
        hoods = grid.neighborhoods.copy()
        hoods[0] = hoods[:, 0] = True
        topo = with_mask(grid, hoods)
        assert np.all(selection_matrix(topo)[:, 0] == 1.0 / 16)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(5))
        _, heads, positions, q = fit(meas, topo, deployment_center(topo), False)
        assert heads.tolist() == list(range(16))
        bounds = [np.trace(crlb(topo, x, meas.variances)) for x in positions]
        assert q[0, 0] == pytest.approx(bounds[0], rel=1e-9)
        assert np.all(np.diagonal(q)[1:] > np.array(bounds[1:]) * (1 + 1e-9))

    def test_operator_support_is_local(self):
        # head k's operator is zero outside the measurements of its
        # neighborhood, so the Q0 entry of two heads whose neighborhoods
        # share no head is exactly zero
        topo = build_grid_network(16, seed=5)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(5))
        _, heads, _, q = fit(meas, topo, deployment_center(topo), False)
        hoods = topo.neighborhoods.astype(int)
        shared = (hoods @ hoods)[np.ix_(heads, heads)] > 0
        assert not shared.all() and np.all(q[~shared] == 0.0) and np.all(q[shared] != 0.0)

    def test_starved_neighborhood_is_left_out(self):
        # head 0, cut from its neighbours, may use only its own 2 measurements
        topo = isolated(build_grid_network(4, sensors_per_head=2, seed=1), 0)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(1))
        assert np.count_nonzero(np.repeat(selection_matrix(topo)[:, 0] / 2, 2)) == 2
        heads = fit(meas, topo, deployment_center(topo), with_global=False)[1]
        assert heads.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("init", [(np.nan, 0.0), (0.0, np.inf), (1.0, 2.0, 3.0)])
    def test_start_point_must_be_a_finite_position(self, init):
        topo = build_grid_network(16, seed=5)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(5))
        with pytest.raises(ValueError):
            fit(meas, topo, init, with_local=False)
        with pytest.raises(ValueError):
            fit(meas, topo, init, with_global=False)

    def test_one_debug_line_per_batch(self, caplog):
        # 9 heads: the deployment center is head 4, so the fits of head 4
        # and its neighbours start on a node of their own rows; cut from
        # its neighbours, head 0 keeps too few rows
        topo = isolated(build_grid_network(9, sensors_per_head=2, seed=1), 0)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(1))
        with caplog.at_level(logging.DEBUG, logger="locbench.estimators"):
            _, heads, positions, q = fit(meas, topo, deployment_center(topo), with_global=False)
        assert heads.tolist() == [2, 6, 8]
        assert positions.shape == (3, 2) and q.shape == (3, 3)
        (line,) = [r.getMessage() for r in caplog.records]
        assert line == (
            "local WLS fitted 3 of 9 heads; stopped before the step tolerance: []; "
            "failed: too few rows [0], on a node [1, 3, 4, 5, 7]"
        )

    @pytest.mark.parametrize("n_heads", [9, 25])
    def test_only_the_center_neighbourhood_starts_on_its_own_nodes(self, n_heads, caplog):
        # an odd-sided grid's deployment center is its middle head; a fit
        # fails there only if that head is one of its own rows' nodes
        rng = np.random.default_rng(3)
        topo = build_grid_network(n_heads, seed=rng)
        meas = simulate_tdoa_measurements(topo, SOURCE, 0.5, rng)
        init = deployment_center(topo)
        (center,) = np.flatnonzero((topo.heads == init).all(axis=1))
        on_node = np.flatnonzero(topo.neighborhoods[center])
        with caplog.at_level(logging.DEBUG, logger="locbench.estimators"):
            heads = fit(meas, topo, init, with_global=False)[1]
        (line,) = [r.getMessage() for r in caplog.records]
        assert line.endswith(f"failed: on a node {on_node.tolist()}")
        assert heads.tolist() == np.setdiff1d(np.arange(n_heads), on_node).tolist()
        if n_heads == 9:
            assert on_node.tolist() == [1, 3, 4, 5, 7]
        position = fit(meas, topo, init, with_local=False)[0]
        assert isinstance(position, EstimationError) and "on a node" in str(position)


def isolated(topo, *heads):
    """topo with heads cut from every neighborhood but their own: with at
    most 2 sensors a head, each of them keeps fewer than 3 measurements."""
    hoods, cut = topo.neighborhoods.copy(), list(heads)
    hoods[cut] = hoods[:, cut] = False
    hoods[cut, cut] = True
    return with_mask(topo, hoods)


def starved(topo, rng):
    """topo with a random share of its links cut, so that with at most 2
    sensors a head some heads keep fewer than 3 measurements."""
    upper = np.triu(topo.neighborhoods & (rng.random(topo.neighborhoods.shape) < 0.6), 1)
    return with_mask(topo, upper | upper.T | np.eye(topo.n_heads, dtype=bool))


class TestBatchMatchesPerHeadOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fits_equal_the_oracle_bit_for_bit(self, data):
        n_heads = data.draw(st.sampled_from([1, 4, 9, 16, 25, 36]), label="n_heads")
        m = data.draw(st.integers(1, 12), label="sensors_per_head")
        # a noise_std whose square underflows is rejected by
        # simulate_tdoa_measurements, so draw zero or at least 1e-3
        noise = data.draw(st.just(0.0) | st.floats(1e-3, 5.0), label="noise_std")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        topo = build_grid_network(n_heads, sensors_per_head=m, seed=rng)
        nodes = np.concatenate((topo.heads, topo.sensors.reshape(-1, 2)))
        span = 50.0 * (np.sqrt(n_heads) - 1)

        def point(label):
            kind = data.draw(st.sampled_from(["random", "node", "center"]), label=label)
            if kind == "node":
                return nodes[data.draw(st.integers(0, len(nodes) - 1), label=f"{label} node")]
            if kind == "center":
                return deployment_center(topo)
            return rng.uniform(-40.0, span + 40.0, size=2)

        source, init = point("source"), point("init")
        meas = simulate_tdoa_measurements(topo, source, noise, rng)
        if data.draw(st.booleans(), label="starved"):
            topo = starved(topo, rng)

        expected = {}
        for k in range(n_heads):
            try:
                expected[k] = oracle_local_wls(k, meas, topo, init)
            except EstimationError:
                pass
        # one run's global and local fits in one batch, and its global fit alone
        together = fit(meas, topo, init)
        alone = fit(meas, topo, init, True, False, False)
        got = dict(zip(together[1].tolist(), together[2]))
        assert sorted(got) == sorted(expected)
        for k, (position, _) in expected.items():
            assert np.array_equal(got[k], position)
        # Q0 of the oracle's operators, stacked in head order
        operators = np.array([op for _, op in expected.values()]).reshape(-1, 2, meas.size)
        assert np.array_equal(together[3], _gram(operators, meas.variances))
        assert alone[1].size == 0 and alone[3] is None

        try:
            global_expected = oracle_global_fit(meas, topo, init)
        except EstimationError:
            assert isinstance(together[0], EstimationError)
            assert isinstance(alone[0], EstimationError)
        else:
            assert np.array_equal(together[0], global_expected)
            assert np.array_equal(alone[0], global_expected)


def batch_fits(runs, with_global):
    """(meas, topo, init, weights) of each fit of a wls_group batch with
    local fits, in batch order: a run's global fit, then its heads of 3 or
    more rows."""
    for meas, topo, init in runs:
        if with_global:
            yield meas, topo, init, 1.0 / meas.variances
        m, selection = topo.sensors_per_head, oracle_selection_weights(topo)
        for k in range(topo.n_heads):
            weights = np.repeat(selection[:, k] / m, m) / meas.variances
            if np.count_nonzero(weights) >= 3:
                yield meas, topo, init, weights


def oracle_outcome(meas, topo, init, weights):
    """(outcome code, x, normal matrix at x) of the per-fit oracle; x and
    the normal matrix are None where it fails."""
    try:
        x, converged = oracle_gauss_newton(meas, topo, init, weights)
    except EstimationError as exc:
        return (estimators._ON_NODE if "node" in str(exc) else estimators._SINGULAR), None, None
    _, jac = oracle_evaluate(x, meas, topo, weights)
    code = estimators._CONVERGED if converged else estimators._STOPPED
    return code, x, (jac * weights[:, None]).T @ jac


def one_head_run(seed, kind):
    """A run of one head and one sensor (K = 1), noise-free: its source on
    the sensor, or random with kind "random"; its start on the sensor with
    kind "node", else random."""
    rng = np.random.default_rng(seed)
    topo = build_grid_network(1, sensors_per_head=1, seed=rng)
    init = rng.uniform(-40.0, 40.0, size=2)
    sensor = topo.sensors[0, 0]
    source = rng.uniform(-40.0, 40.0, size=2) if kind == "random" else sensor
    meas = simulate_tdoa_measurements(topo, source, 0.0, rng)
    return meas, topo, sensor if kind == "node" else init


def nine_head_runs(seed):
    """Six 9-head runs of 3 sensors (K = 27), noise 0 to 3; every other one
    starts at the middle head, on a node of the centre's neighbours' rows."""
    rng = np.random.default_rng(seed)
    runs = []
    for i in range(6):
        topo = build_grid_network(9, sensors_per_head=3, seed=rng)
        meas = simulate_tdoa_measurements(topo, rng.uniform(-40.0, 140.0, size=2), i % 3 * 1.5, rng)
        init = deployment_center(topo) if i % 2 == 0 else rng.uniform(-40.0, 140.0, size=2)
        runs.append((meas, topo, init))
    return runs


class TestLayoutRebuilds:
    # _gauss_newton keeps a layout until at most half of its fits are live,
    # then lays out the live ones again; in these batches the fits finish in
    # staggered rounds, so the layout is rebuilt several times mid-batch, and
    # every fit's point, outcome and normal matrix must be the per-fit
    # oracle's, bit for bit. The runs of SINGULAR_SEEDS all end in a
    # singular step on both kernels digests are pinned for, in staggered
    # rounds (layouts of 7, 2 or 3, and 1 live fits), so that batch's last
    # round leaves no fit live in its step solve.
    SINGULAR_SEEDS = (15, 51, 62, 87, 93, 104, 105)
    BATCHES = {
        "singular steps": (
            [one_head_run(s, "sensor") for s in SINGULAR_SEEDS], {estimators._SINGULAR}
        ),
        "one-row fits": (
            [one_head_run(s, ("sensor", "random", "node")[s % 3]) for s in range(30)],
            {estimators._CONVERGED, estimators._STOPPED, estimators._ON_NODE, estimators._SINGULAR},
        ),
        "nine heads": (
            nine_head_runs(5), {estimators._CONVERGED, estimators._STOPPED, estimators._ON_NODE}
        ),
    }

    @pytest.mark.parametrize("name", list(BATCHES))
    def test_rebuilt_layouts_keep_every_fit_bit_for_bit(self, monkeypatch, name):
        runs, codes = self.BATCHES[name]
        seen, layouts = {}, []
        gauss_newton, layout = estimators._gauss_newton, estimators._layout

        def watched_gauss_newton(x0, fit, rows, data, k):
            seen["fit"] = fit
            seen["out"] = gauss_newton(x0, fit, rows, data, k)
            return seen["out"]

        def watched_layout(members, fit, rows, k):
            if fit is seen.get("fit"):  # a layout of the batch's live fits
                layouts.append(np.count_nonzero(members))
            return layout(members, fit, rows, k)

        monkeypatch.setattr(estimators, "_gauss_newton", watched_gauss_newton)
        monkeypatch.setattr(estimators, "_layout", watched_layout)
        wls_group(runs, True, True, False)
        x, outcome, hess = seen["out"]
        fits = list(batch_fits(runs, True))
        assert len(fits) == len(x) == layouts[0] and len(layouts) >= 3
        assert set(outcome.tolist()) == codes
        for f, args in enumerate(fits):
            code, want_x, want_hess = oracle_outcome(*args)
            assert outcome[f] == code
            if want_x is not None:
                assert np.array_equal(x[f], want_x)
                assert np.array_equal(hess[f], want_hess)


class TestGroupMatchesPerRunFits:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_fits_equal_per_run_fits(self, data):
        # every fit's sums run on its own K-row layout, so a run's global and
        # local fits keep their bits whatever else shares the batch; odd
        # grids start the global fit on the middle head, where it fails
        n_heads = data.draw(st.sampled_from([4, 9, 16, 25, 36]), label="n_heads")
        m = data.draw(st.integers(1, 10), label="sensors_per_head")
        with_global = data.draw(st.booleans(), label="with_global")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        span = 50.0 * (np.sqrt(n_heads) - 1)
        runs = []
        for run in range(data.draw(st.integers(1, 5), label="runs")):
            topo = build_grid_network(n_heads, sensors_per_head=m, seed=rng)
            noise = data.draw(st.just(0.0) | st.floats(1e-3, 5.0), label=f"noise {run}")
            meas = simulate_tdoa_measurements(
                topo, rng.uniform(-40.0, span + 40.0, size=2), noise, rng
            )
            kind = data.draw(st.sampled_from(["center", "node", "random"]), label=f"start {run}")
            init = {
                "center": deployment_center(topo),
                "node": topo.sensors[rng.integers(n_heads), rng.integers(m)],
                "random": rng.uniform(-40.0, span + 40.0, size=2),
            }[kind]
            runs.append((meas, topo, init))

        fits = wls_group(runs, with_global, True, True)
        assert len(fits) == len(runs)
        for (meas, topo, init), (position, *local) in zip(runs, fits):
            # the run's global fit alone, then its heads' fits alone
            alone = fit(meas, topo, init, True, False, False)[0] if with_global else None
            assert same_position(position, alone)
            for have, want in zip(local, fit(meas, topo, init, False)[1:]):
                assert np.array_equal(have, want)


class TestGroupWithoutOperators:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_group_fits_keep_their_bits_without_operators(self, data):
        # the rank-deficiency verdict comes from the normal matrix alone, so
        # skipping the operators and Q leaves every run's fitted heads, their
        # positions and its global fit as they are; odd grids start the
        # global fit and the centre's neighbours on a node
        n_heads = data.draw(st.sampled_from([4, 9, 16, 25]), label="n_heads")
        m = data.draw(st.integers(1, 10), label="sensors_per_head")
        with_global = data.draw(st.booleans(), label="with_global")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        span = 50.0 * (np.sqrt(n_heads) - 1)
        runs = []
        for run in range(data.draw(st.integers(1, 4), label="runs")):
            topo = build_grid_network(n_heads, sensors_per_head=m, seed=rng)
            noise = data.draw(st.just(0.0) | st.floats(1e-3, 5.0), label=f"noise {run}")
            meas = simulate_tdoa_measurements(
                topo, rng.uniform(-40.0, span + 40.0, size=2), noise, rng
            )
            if data.draw(st.booleans(), label=f"starved {run}"):
                topo = starved(topo, rng)
            runs.append((meas, topo, deployment_center(topo)))

        bare = wls_group(runs, with_global, True, False)
        full = wls_group(runs, with_global, True, True)
        assert len(bare) == len(full) == len(runs)
        for run, (position, heads, positions, q), (want, *local) in zip(runs, bare, full):
            assert q is None
            assert same_position(position, want) and (want is None) != with_global
            assert np.array_equal(heads, local[0])
            assert np.array_equal(positions, local[1])
            expected = set()
            for k in range(n_heads):
                try:
                    oracle_local_wls(k, *run)
                except EstimationError:
                    continue
                expected.add(k)
            assert set(heads.tolist()) == expected


class TestChunkSize:
    # clean: 16 heads of 10 sensors and the global fit, 17 fits of K = 160
    # rows; starved: 36 heads of 2 sensors (K = 72) with a random share of
    # their links cut, so that some heads keep too few rows. The default
    # chunk size packs either run's fits into one chunk; 1 element gives
    # the floor of _CHUNK_FITS = 8 fits a chunk, and 9 * 160 chunks of 9
    # and 8 fits at K = 160, of 20 fits at K = 72
    @pytest.mark.parametrize("elements", [1, 9 * 160])
    @pytest.mark.parametrize("starve", [False, True], ids=["clean", "starved"])
    def test_chunk_size_moves_no_bit(self, monkeypatch, elements, starve):
        rng = np.random.default_rng(21)
        topo = build_grid_network(36, sensors_per_head=2, seed=rng) if starve else (
            build_grid_network(16, seed=rng))
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, rng)
        if starve:
            topo = starved(topo, rng)
        n, init = topo.n_heads, deployment_center(topo)
        assert estimators._CHUNK_ELEMENTS // meas.size >= n + 1
        expected = fit(meas, topo, init)
        monkeypatch.setattr(estimators, "_CHUNK_ELEMENTS", elements)
        every = np.ones(17, dtype=bool), np.repeat(np.arange(17), 160), np.tile(np.arange(160), 17)
        chunks = estimators._layout(*every, 160)[2]
        assert [hi - lo for lo, hi, *_ in chunks] == {1: [8, 8, 1], 9 * 160: [9, 8]}[elements]
        got = fit(meas, topo, init)
        assert 0 < len(expected[1]) < n if starve else len(expected[1]) == n
        assert isinstance(expected[0], np.ndarray) and np.array_equal(got[0], expected[0])
        for want, have in zip(expected[1:], got[1:]):
            assert np.array_equal(have, want)


class TestGram:
    def test_matches_monte_carlo_covariance(self):
        # [Q]_mn is E[(L_m z) . (L_n z)] for z ~ N(0, diag(variances))
        rng = np.random.default_rng(123)
        n, k = 4, 12
        ops = rng.normal(size=(n, 2, k))
        variances = rng.uniform(0.5, 2.0, size=k)
        q = _gram(ops, variances)
        draws = 200_000
        z = rng.normal(0.0, np.sqrt(variances)[:, None], size=(k, draws))
        x = np.einsum("ndk,ks->nds", ops, z)
        q_mc = np.einsum("mds,nds->mn", x, x) / draws
        assert np.allclose(q, q_mc, rtol=0.03, atol=0.05)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_combining_operators_takes_q_to_a_t_q_a(self, data):
        # operators combined by a rule's column-stochastic A, G'_k = sum_l
        # A_lk G_l, have the Q0 A.T @ Q @ A: diffuse follows Q alone
        n = data.draw(st.integers(1, 12), label="heads")
        k = data.draw(st.integers(1, 30), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        upper = np.triu(rng.random((n, n)) < data.draw(st.floats(0.0, 1.0), label="density"), 1)
        hoods = upper | upper.T | np.eye(n, dtype=bool)
        operators = rng.normal(size=(n, 2, k))
        variances = 10.0 ** rng.uniform(-3.0, 3.0, size=k)
        q = _gram(operators, variances)
        rule = data.draw(st.sampled_from(["con", "wei", "opt"]), label="rule")
        if rule == "con":
            a = connectivity_weights(hoods)
        elif rule == "wei":
            a = median_weights(rng.normal(0.0, 5.0, size=(1, n, 2)), hoods, 10.0)[0]
        else:
            a = optimal_weights(q[None], hoods)[0]
        assert np.allclose(a.sum(axis=0), 1.0) and not a[~hoods].any()
        combined = _gram(np.einsum("lk,ldi->kdi", a, operators), variances)
        np.testing.assert_allclose(a.T @ q @ a, combined, rtol=0.0, atol=1e-9 * np.abs(q).max())

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        ops = rng.normal(size=(5, 2, 20))
        q = _gram(ops, np.ones(20))
        assert np.allclose(q, q.T)
        assert np.linalg.eigvalsh(q).min() > -1e-10


class TestCrlb:
    def test_regression_value(self):
        topo = build_grid_network(16, seed=7)
        meas = simulate_tdoa_measurements(topo, SOURCE, 1.0, np.random.default_rng(7))
        value = np.sqrt(np.trace(crlb(topo, SOURCE, meas.variances)))
        assert value == pytest.approx(1.8232699349041, abs=1e-9)

    def test_more_sensors_tighten_the_bound(self):
        small = build_grid_network(16, sensors_per_head=5, seed=9)
        large = build_grid_network(16, sensors_per_head=20, seed=9)
        var_small = np.ones(small.n_heads * small.sensors_per_head)
        var_large = np.ones(large.n_heads * large.sensors_per_head)
        assert np.trace(crlb(large, SOURCE, var_large)) < np.trace(
            crlb(small, SOURCE, var_small)
        )

    def test_noise_scales_the_bound(self):
        topo = build_grid_network(16, seed=9)
        k = topo.n_heads * topo.sensors_per_head
        base = np.trace(crlb(topo, SOURCE, np.ones(k)))
        scaled = np.trace(crlb(topo, SOURCE, 4.0 * np.ones(k)))
        assert scaled == pytest.approx(4.0 * base)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("per_measurement", [False, True], ids=["scalar", "vector"])
    def test_variances_must_be_positive_and_finite(self, bad, per_measurement):
        # an inf variance would count as zero information, and a NaN one
        # would read as a singular Fisher information
        topo = build_grid_network(16, seed=9)
        variances = np.ones(topo.n_heads * topo.sensors_per_head)
        variances[3] = bad
        with pytest.raises(ValueError, match="variances must be positive and finite"):
            crlb(topo, SOURCE, variances if per_measurement else bad)

    def test_raises_on_coincident_node(self):
        topo = build_grid_network(4, seed=0)
        at_sensor = topo.sensors[0, 0]
        with pytest.raises(EstimationError, match="coincides with a network node"):
            crlb(topo, at_sensor, 1.0)
