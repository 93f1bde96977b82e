"""Weighted least-squares source estimation from range differences.

Covers the centralized estimator over all measurements, the per-head local
estimators that see only their neighborhood's measurements through selection
weights, and the trace benchmark (inverse Fisher information) both are
judged against. Both estimators run the same damped Gauss-Newton loop, the
local one over every head at once.
"""

from __future__ import annotations

import logging

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import NetworkTopology, as_position
from .signals import MeasurementSet

__all__ = [
    "EstimationError",
    "build_selection_weights",
    "crlb",
    "global_wls",
    "local_wls_batch",
]

logger = logging.getLogger(__name__)

# damped Gauss-Newton controls: iteration cap, step length that counts as
# converged, and the initial additive damping on the normal equations,
# which grows by 10x whenever a step would increase the weighted cost and
# shrinks by 10x after every accepted step
_MAX_ITERS = 50
_STEP_TOL = 1e-8
_INITIAL_DAMPING = 1e-6
# damping growth past this level means the cost cannot be reduced further
_MAX_DAMPING = 1e12

# elements per (fits, K) buffer of the batched sums; sizes the chunks of
# fits so that memory stays flat in the head count
_CHUNK_ELEMENTS = 8192

# how a fit ends: the first two leave an estimate, _LIVE is still running
_CONVERGED, _STOPPED, _FEW_ROWS, _ON_NODE, _SINGULAR, _RANK_DEFICIENT, _LIVE = range(7)
_FAILURES = {
    _FEW_ROWS: "too few rows",
    _ON_NODE: "on a node",
    _SINGULAR: "singular step",
    _RANK_DEFICIENT: "rank-deficient operator",
}


class EstimationError(RuntimeError):
    """Estimation failed: degenerate geometry or singular normal equations."""


def _range_differences(x0, x1, xi0, xi1, xj0, xj1):
    """The range-difference model one coordinate array at a time.

    Returns (predicted, jac0, jac1, di, dj): ||x - xi|| - ||x - xj||, the
    two jacobian columns of (x - xi)/||x - xi|| - (x - xj)/||x - xj||, and
    both distances. A distance is sqrt(dx*dx + dy*dy), the same bits as
    np.linalg.norm along an axis of two.
    """
    a0, a1, b0, b1 = x0 - xi0, x1 - xi1, x0 - xj0, x1 - xj1
    di = np.sqrt(a0 * a0 + a1 * a1)
    dj = np.sqrt(b0 * b0 + b1 * b1)
    return di - dj, a0 / di - b0 / dj, a1 / di - b1 / dj, di, dj


def _range_difference_jacobian(x: np.ndarray, xi: np.ndarray, xj: np.ndarray):
    """Predicted differences and their (K, 2) derivative rows at x."""
    with np.errstate(divide="ignore", invalid="ignore"):  # raised on below
        predicted, jac0, jac1, di, dj = _range_differences(
            x[..., 0], x[..., 1], xi[:, 0], xi[:, 1], xj[:, 0], xj[:, 1]
        )
    if np.any(di == 0.0) or np.any(dj == 0.0):
        raise EstimationError("evaluation point coincides with a network node")
    return predicted, np.column_stack((jac0, jac1))


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack of (2, 2) systems with (2, c) sides.

    Calls the gufunc behind np.linalg.solve, which fills the solution of a
    singular a[i] with NaN instead of raising for the whole stack; every
    other system gets the LAPACK call, and the bits, of a solve of its own.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.solve(a, b, signature="dd->d")


def _layout(members: np.ndarray, fit: np.ndarray, rows: np.ndarray, k: int):
    """Select the rows of some fits and split them into chunks.

    members is a boolean mask over the fits, fit[r] (nondecreasing) the
    fit of row r and rows[r] its measurement. Returns (on, slot, chunks):
    the mask of the members' rows, each such row's fit rank among the
    members, and (lo, hi, a, b, at) per chunk of at most
    _CHUNK_ELEMENTS // k members: fits [lo, hi) own the selected rows
    [a, b), whose flat positions in a (hi - lo, k) layout are at.
    """
    on = members[fit]
    slot = np.cumsum(members)[fit[on]] - 1
    n, size, rows = np.count_nonzero(members), max(1, _CHUNK_ELEMENTS // k), rows[on]
    starts = list(range(0, n, size))
    cuts = np.searchsorted(slot, starts + [n]).tolist()
    chunks = [
        (lo, min(lo + size, n), a, b, (slot[a:b] - lo) * k + rows[a:b])
        for lo, a, b in zip(starts, cuts[:-1], cuts[1:])
    ]
    return on, slot, chunks


def _padded(columns, at: np.ndarray, n: int, k: int):
    """An (n, k) zero buffer with one row column, or an (n, k, 2) one with
    two, scattered to the flat row positions at.

    Summing a fit's padded row is the same BLAS reduction, bit for bit,
    as summing its K-row vector in which the unweighted rows contribute
    zero.
    """
    if len(columns) == 1:
        buf = np.zeros(n * k)
        buf[at] = columns[0]
        return buf.reshape(n, k)
    buf = np.zeros(n * k * 2)
    buf[2 * at] = columns[0]
    buf[2 * at + 1] = columns[1]
    return buf.reshape(n, k, 2)


def _gauss_newton(x0, fit, rows, w, meas: MeasurementSet, topology: NetworkTopology):
    """Damped Gauss-Newton over a batch of weighted fits, run in lockstep.

    Fit f minimizes sum(w * residual^2) over its rows, the measurements
    rows[r] with fit[r] == f; fit is nondecreasing. Each fit keeps its own
    point, cost, damping and count of accepted steps, and in every round
    each live fit makes one trial step. A step that does not increase the
    cost is accepted and shrinks the damping 10x; any other grows it 10x.
    A fit converges when an accepted step is shorter than _STEP_TOL. It
    stops after _MAX_ITERS accepted steps or once its damping passes
    _MAX_DAMPING. It fails on a singular or non-finite step, and when a
    point it evaluates lies on a node of one of its own rows: a distance
    of exactly zero, where its range-difference model is undefined. The
    first round evaluates the start points and takes no step.

    Residuals and jacobians are evaluated on each fit's rows only. The sums
    over them run on the K-row layout, zero-padded, so each fit's iterates
    are those of a fit over all K measurements with zero weight elsewhere,
    whatever else is in the batch.

    Returns (x, outcome, hess): (F, 2) final points, (F,) outcome codes
    and the (F, 2, 2) normal matrices at the final points.
    """
    n, k = len(x0), meas.size
    xi, xj = topology.measurement_nodes()
    # per row: both nodes' coordinates, the measurement and the weight
    row_data = np.stack((*xi[rows].T, *xj[rows].T, meas.values[rows], w))
    x = trial = np.array(x0, dtype=float)
    cost, grad, hess = np.empty(n), np.empty((n, 2)), np.empty((n, 2, 2))
    mu = np.full(n, _INITIAL_DAMPING)
    accepted = np.zeros(n, dtype=int)
    outcome = np.full(n, _LIVE)
    idx, eye, start, n_live = np.arange(n), np.eye(2), True, -1
    while idx.size:
        if not start:
            step = _solve_stack(hess[idx] + mu[idx, None, None] * eye, grad[idx, :, None])
            step = step[..., 0]
            solved = np.isfinite(step).all(axis=1)
            if not solved.all():
                outcome[idx[~solved]] = _SINGULAR
                idx, step = idx[solved], step[solved]
            trial = x[idx] + step
        # the live set only shrinks, so an equal size means the same fits
        if n_live != len(idx):
            on, slot, chunks = _layout(outcome == _LIVE, fit, rows, k)
            n_live, live_rows = len(idx), rows[on]
            xi0, xi1, xj0, xj1, values, w_on = row_data[:, on]
        with np.errstate(divide="ignore", invalid="ignore"):  # on a node
            predicted, jac0, jac1, di, dj = _range_differences(
                trial[slot, 0], trial[slot, 1], xi0, xi1, xj0, xj1
            )
        on_node = np.zeros(len(idx), dtype=bool)
        on_node[slot[(di == 0.0) | (dj == 0.0)]] = True
        res = values - predicted
        wres = w_on * res
        cost_new = np.empty(len(idx))
        for lo, hi, a, b, at in chunks:
            wres_k = _padded((wres[a:b],), at, hi - lo, k)
            res_k = _padded((res[a:b],), at, hi - lo, k)
            cost_new[lo:hi] = np.matmul(wres_k[:, None, :], res_k[:, :, None])[:, 0, 0]
        outcome[idx[on_node]] = _ON_NODE
        better = ~on_node if start else (cost_new <= cost[idx]) & ~on_node
        up = idx[better]
        cost[up] = cost_new[better]
        # gradient jac^T (w * res) and normal matrix jac^T W jac of the
        # accepted fits, at their new points
        picked, picked_chunks = (jac0, jac1, w_on, wres), chunks
        if not better.all():
            keep, _, picked_chunks = _layout(better, slot, live_rows, k)
            picked = [v[keep] for v in picked]
        jac0, jac1, w_up, wres = picked
        grad_up, hess_up = np.empty((len(up), 2)), np.empty((len(up), 2, 2))
        for lo, hi, a, b, at in picked_chunks:
            jac = (jac0[a:b], jac1[a:b])
            jac_k = _padded(jac, at, hi - lo, k)
            wjac_k = _padded([c * w_up[a:b] for c in jac], at, hi - lo, k)
            wres_k = _padded((wres[a:b],), at, hi - lo, k)
            grad_up[lo:hi] = np.matmul(jac_k.transpose(0, 2, 1), wres_k[:, :, None])[..., 0]
            hess_up[lo:hi] = np.matmul(wjac_k.transpose(0, 2, 1), jac_k)
        grad[up], hess[up] = grad_up, hess_up
        if not start:
            x[up] = trial[better]
            mu[up] *= 0.1
            accepted[up] += 1
            # the step length as np.linalg.norm takes it, from a BLAS dot
            length = np.sqrt(np.matmul(step[better, None, :], step[better, :, None]))
            outcome[up[length[:, 0, 0] < _STEP_TOL]] = _CONVERGED
            outcome[up[(outcome[up] == _LIVE) & (accepted[up] >= _MAX_ITERS)]] = _STOPPED
            down = idx[~better & ~on_node]
            mu[down] = np.where(mu[down] > 0, mu[down] * 10.0, 1e-8)
            outcome[down[mu[down] > _MAX_DAMPING]] = _STOPPED
        start = False
        idx = idx[outcome[idx] == _LIVE]
    return x, outcome, hess


def global_wls(meas: MeasurementSet, topology: NetworkTopology, init) -> np.ndarray:
    """Centralized weighted least-squares fit over every measurement.

    init is the Gauss-Newton start point, usually the deployment center.
    """
    x0 = as_position(init)
    x, (outcome,), _ = _gauss_newton(
        x0[None],
        np.zeros(meas.size, dtype=int),
        np.arange(meas.size),
        1.0 / meas.variances,
        meas,
        topology,
    )
    if outcome in _FAILURES:
        raise EstimationError(f"global WLS failed: {_FAILURES[outcome]}")
    if outcome == _STOPPED:
        logger.warning("global WLS stopped before the step tolerance was met")
    return x[0]


def build_selection_weights(topology: NetworkTopology) -> np.ndarray:
    """Metropolis-style (N, N) measurement selection weights.

    For l adjacent to k the entry [l, k] is 1 / max(degree_l, degree_k)
    with self-inclusive degrees; the diagonal absorbs the remainder so
    every column sums to one. Head k gives each of head l's M measurements
    the weight [l, k] / M.
    """
    degrees = topology.degrees
    weights = topology.adjacency / np.maximum.outer(degrees, degrees)
    # the matrix is symmetric, and a row sum adds a column's entries in the
    # pairwise order that summing the column itself would (axis=0 does not)
    np.fill_diagonal(weights, 1.0 - weights.sum(axis=1))
    return weights


def local_wls_batch(
    meas: MeasurementSet,
    selection: np.ndarray,
    topology: NetworkTopology,
    init,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every head's weighted fit on the measurements its neighborhood can access.

    Head k weights measurement r = l * M + s by selection[l, k] / M over
    the noise variance of r; the measurements outside its neighborhood
    carry weight zero and are never evaluated. Every head starts from
    init, as for global_wls, and all heads are fitted in one lockstep
    batch. A head fails, and is left out, when it has fewer than 3
    weighted measurements, when its fit fails, or when the normal matrix
    at its final point is singular or gives a non-finite operator.

    Returns (heads, positions, operators) of the heads that succeeded, in
    head order: (F,) head ids, (F, 2) positions and (F, 2, K) operators.
    A head's operator (J^T W J)^-1 J^T W maps the stacked linearized
    measurement vector to its position; it is evaluated at the converged
    point and satisfies operator @ jacobian = identity there.
    """
    x0 = as_position(init)
    n, m, k = topology.n_heads, topology.sensors_per_head, meas.size
    # head k's rows: the measurements of every head l with a nonzero
    # selection[l, k], in measurement order
    fit, owners = np.nonzero(selection.T)
    rows = (owners[:, None] * m + np.arange(m)).ravel()
    w = np.repeat(selection[owners, fit] / m, m) / meas.variances[rows]
    weighted = w != 0
    fit, rows, w = np.repeat(fit, m)[weighted], rows[weighted], w[weighted]
    solvable = np.bincount(fit, minlength=n) >= 3
    on, fit, _ = _layout(solvable, fit, rows, k)
    rows, w = rows[on], w[on]
    heads = np.flatnonzero(solvable)
    x, status, normal = _gauss_newton(
        np.repeat(x0[None], len(heads), axis=0), fit, rows, w, meas, topology
    )

    # each fitted head's operator (J^T W J)^-1 J^T W at its final point
    done = status <= _STOPPED
    fitted = np.flatnonzero(done)
    on, slot, chunks = _layout(done, fit, rows, k)
    rows, w = rows[on], w[on]
    xi, xj = topology.measurement_nodes()
    operators = np.empty((len(fitted), 2, k))
    for lo, hi, a, b, at in chunks:
        points = x[fitted[slot[a:b]]]
        _, jac = _range_difference_jacobian(points, xi[rows[a:b]], xj[rows[a:b]])
        wjac_k = _padded((jac * w[a:b, None]).T, at, hi - lo, k)
        operators[lo:hi] = _solve_stack(normal[fitted[lo:hi]], wjac_k.transpose(0, 2, 1))
    solved = np.isfinite(operators).all(axis=(1, 2))
    status[fitted[~solved]] = _RANK_DEFICIENT

    outcome = np.full(n, _FEW_ROWS)
    outcome[heads] = status
    _log_local_batch(outcome)
    return heads[fitted[solved]], x[fitted[solved]], operators[solved]


def _log_local_batch(outcome: np.ndarray) -> None:
    """One debug line per batch: fitted heads, early stops, failures by reason."""
    if not logger.isEnabledFor(logging.DEBUG):
        return
    failed = [
        f"{reason} {np.flatnonzero(outcome == code).tolist()}"
        for code, reason in _FAILURES.items()
        if np.any(outcome == code)
    ]
    logger.debug(
        "local WLS fitted %d of %d heads; stopped before the step tolerance: %s; "
        "failed: %s",
        int(np.sum(outcome <= _STOPPED)),
        len(outcome),
        np.flatnonzero(outcome == _STOPPED).tolist(),
        ", ".join(failed) or "none",
    )


def crlb(topology: NetworkTopology, source, variances) -> np.ndarray:
    """Inverse Fisher information of the source position, evaluated at truth.

    variances is a scalar or per-measurement vector of noise variances.
    Returns the 2x2 lower bound on the covariance of any unbiased
    estimator; sqrt(trace) benchmarks the RMSE curves.
    """
    src = as_position(source)
    xi, xj = topology.measurement_nodes()
    _, jac = _range_difference_jacobian(src, xi, xj)
    var = np.broadcast_to(np.asarray(variances, dtype=float), (jac.shape[0],))
    if np.any(var <= 0):
        raise ValueError("variances must be positive")
    fisher = (jac / var[:, None]).T @ jac
    try:
        bound = np.linalg.inv(fisher)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("Fisher information is singular") from exc
    return bound
