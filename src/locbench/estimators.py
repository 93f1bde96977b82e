"""Weighted least-squares source estimation from range differences.

Covers the centralized estimator over all measurements, the per-head local
estimators that see only their neighborhood's measurements through selection
weights, and the trace benchmark (inverse Fisher information) both are
judged against. wls_group fits whole runs, global and local fits alike, in
one lockstep batch of a damped Gauss-Newton loop.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import NetworkTopology, as_position

__all__ = [
    "EstimationError",
    "crlb",
    "wls_group",
    "wls_groups",
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

# elements per (fits, K) buffer of the batched sums, and the fewest fits a
# chunk holds: memory stays flat in the head count up to K = 1,024 rows
_CHUNK_ELEMENTS, _CHUNK_FITS = 8192, 8
# rows of one batch of whole runs (wls_groups): a 16-head run of 10 sensors
# has 800 with its global fit, so ten share a batch, and a 64-head run
# 3,520, so two do; the batch holds about 270 bytes a row while it runs
# (2.1 MB for ten 16-head runs), and its per-row arrays go when wls_group
# returns, before its runs are scored
_GROUP_ROWS = 8192

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
    # the operations of sqrt(a0 * a0 + a1 * a1) and a0 / di - b0 / dj, partly in place
    di, dj = a0 * a0, b0 * b0
    di += a1 * a1
    dj += b1 * b1
    di, dj = np.sqrt(di), np.sqrt(dj)
    a0 /= di
    b0 /= dj
    a1 /= di
    b1 /= dj
    return di - dj, a0 - b0, a1 - b1, di, dj


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a stack of (n, n) systems with (n, c) sides.

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
    members, and (lo, hi, a, b, at) per chunk of _CHUNK_ELEMENTS // k
    members, but at least _CHUNK_FITS: fits [lo, hi) own the selected rows
    [a, b), whose flat positions in a (hi - lo, k) layout are at.
    """
    on = members[fit]
    slot = np.cumsum(members)[fit[on]] - 1
    n, size, rows = np.count_nonzero(members), max(_CHUNK_FITS, _CHUNK_ELEMENTS // k), rows[on]
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


def _gauss_newton(x0, fit, rows, data, k: int):
    """Damped Gauss-Newton over a batch of weighted fits, run in lockstep.

    Fit f minimizes sum(w * residual^2) over the rows r with fit[r] == f;
    fit is nondecreasing. data holds each row's (xi0, xi1, xj0, xj1, value,
    w) as a (6, R) array, and rows[r] in [0, k) is its measurement. Each
    fit keeps its own point, cost, damping and count of accepted steps, and
    in every round each live fit makes one trial step. A step that does not
    increase the cost is accepted and shrinks the damping 10x; any other
    grows it 10x. A fit converges when an accepted step is shorter than
    _STEP_TOL. It stops after _MAX_ITERS accepted steps or once its damping
    passes _MAX_DAMPING. It fails on a singular or non-finite step, and
    when a point it evaluates lies on a node of one of its own rows: a
    distance of exactly zero, where its range-difference model is
    undefined. The first round evaluates the start points and takes no step.

    Residuals and jacobians are evaluated on a layout: copies of some fits'
    rows, in chunks, with each fit's state held in arrays over the layout's
    fits. A layout is built over the live fits and kept until at most half
    of them are live; until then a finished fit's rows ride along at its
    last point, and its sums are masked out of every accept, damping and
    outcome decision. The sums run on the K-row layout, zero-padded, so
    each fit's iterates are those of a fit over all K measurements with
    zero weight elsewhere, whatever else is in the batch.

    Returns (x, outcome, hess): (F, 2) final points, (F,) outcome codes
    and the (F, 2, 2) normal matrices at the final points.
    """
    n = len(x0)
    x, hess, outcome = np.array(x0, dtype=float), np.zeros((n, 2, 2)), np.full(n, _LIVE)
    ids, eye, start = np.arange(n), np.eye(2), True
    # per layout fit: point, cost, gradient, normal matrix, damping, accepted steps
    state = x, np.empty(n), np.zeros((n, 2)), hess, np.full(n, _INITIAL_DAMPING), np.zeros(n, int)
    while ids.size:
        on, slot, chunks = _layout(outcome == _LIVE, fit, rows, k)
        live_rows, (xi0, xi1, xj0, xj1, values, w_on) = rows[on], data[:, on]
        (px, cost, grad, normal, mu, accepted), code = state, outcome[ids]
        live = np.ones(len(ids), dtype=bool)
        while 2 * np.count_nonzero(live) > len(ids):
            trial = px
            if not start:
                step = _solve_stack(normal + mu[:, None, None] * eye, grad[:, :, None])[..., 0]
                solved = np.isfinite(step).all(axis=1)
                code[live & ~solved] = _SINGULAR
                live &= solved
                step[~live] = 0.0  # a finished fit stays at its last point
                trial = px + step
            with np.errstate(divide="ignore", invalid="ignore"):  # on a node
                predicted, jac0, jac1, di, dj = _range_differences(
                    trial[:, 0][slot], trial[:, 1][slot], xi0, xi1, xj0, xj1
                )
            on_node = np.zeros(len(ids), dtype=bool)
            on_node[slot[(di == 0.0) | (dj == 0.0)]] = True
            on_node &= live
            res = values - predicted
            del predicted, di, dj  # the working set holds only what is read below
            wres, cost_new = w_on * res, np.empty(len(ids))
            for lo, hi, a, b, at in chunks:
                wres_k, res_k = (_padded((v[a:b],), at, hi - lo, k) for v in (wres, res))
                cost_new[lo:hi] = np.matmul(wres_k[:, None, :], res_k[:, :, None])[:, 0, 0]
            del res, wres_k, res_k
            code[on_node] = _ON_NODE
            better = live & ~on_node & (start | (cost_new <= cost))
            up = np.flatnonzero(better)
            cost[up] = cost_new[up]
            # gradient jac^T (w * res) and normal matrix jac^T W jac of the
            # accepted fits, at their new points
            picked, picked_chunks = (jac0, jac1, w_on, wres), chunks
            if len(up) < len(ids):
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
            grad[up], normal[up] = grad_up, hess_up
            jac_k = wjac_k = wres_k = None  # the last chunk's buffers go before the next round
            if not start:
                px[up] = trial[up]
                mu[up] *= 0.1
                accepted[up] += 1
                # the step length as np.linalg.norm takes it, from a BLAS dot
                length = np.sqrt(np.matmul(step[up, None, :], step[up, :, None]))
                code[up[length[:, 0, 0] < _STEP_TOL]] = _CONVERGED
                code[up[(code[up] == _LIVE) & (accepted[up] >= _MAX_ITERS)]] = _STOPPED
                down = np.flatnonzero(live & ~better & ~on_node)
                # from _INITIAL_DAMPING, at most _MAX_ITERS accepted 10x cuts: mu stays >= 1e-56
                mu[down] *= 10.0
                code[down[mu[down] > _MAX_DAMPING]] = _STOPPED
            start, live = False, code == _LIVE
        x[ids], hess[ids], outcome[ids] = px, normal, code
        ids, state = ids[live], tuple(v[live] for v in (px, cost, grad, normal, mu, accepted))
    return x, outcome, hess


def _selection(topology: NetworkTopology):
    """Metropolis-style selection weights (fit, owners, weights), one per
    neighborhood mask entry, by fit, then owner: head k gives each other
    head l of its neighborhood 1 / max(degree_l, degree_k), with
    self-inclusive degrees, and itself the rest of one, summed in owner
    order. A head splits its weight on head l evenly over l's M measurements.
    """
    degrees = topology.degrees
    fit, owners = np.nonzero(topology.neighborhoods)  # the mask is symmetric
    weights = 1.0 / np.maximum(degrees[fit], degrees[owners])
    own = fit == owners
    weights[own] = 1.0 - np.bincount(fit[~own], weights[~own], topology.n_heads)
    return fit, owners, weights


def wls_groups(runs, with_global: bool, with_local: bool):
    """Split the (meas, topology, init) runs, in order, into lists of as
    many as fit _GROUP_ROWS rows, at least one, sized by the first; without
    with_local a run counts its global fit's rows alone."""
    runs = iter(runs)
    for meas, topology, init in runs:
        local = np.count_nonzero(topology.neighborhoods) * topology.sensors_per_head
        rows = meas.size * with_global + local * with_local
        more = itertools.islice(runs, max(1, _GROUP_ROWS // rows) - 1)
        yield [(meas, topology, init), *more]


def wls_group(runs, with_global: bool, with_local: bool, with_q: bool):
    """Fit the (meas, topology, init) runs, all of one K, in one lockstep
    batch: with with_global each run's global fit, weighting every
    measurement by its inverse variance, and with with_local every head's
    local fit. Head k weights measurement l * M + s of each head l of its
    neighborhood by its _selection weight on l over M and the variance, and
    evaluates no other row. Each fit starts from its run's init and sums on
    its own K-row layout, so no other fit moves its bits.

    A fit fails on a singular or non-finite step (singular step) or where a
    point it evaluates lies on a node of its own rows (on a node); a head
    also fails with fewer than 3 weighted rows (too few rows) or when its
    final normal matrix has a zero LU pivot (rank-deficient operator),
    judged on that matrix alone, so the same with or without Q.

    Returns a list with one (position, heads, positions, q) per run:
    position is the global fit's point, the EstimationError saying why it
    failed, or None without with_global; the heads that succeeded follow in
    head order, as (F,) ids, (F, 2) positions and, with with_q (else None),
    their (F, F) Q0, the Gram matrix under the noise covariance (_gram) of
    their operators (J^T W J)^-1 J^T W at the final points. The operators
    are made one run at a time and never leave this module.
    """
    k, parts, spans, n_fits, n_rows = runs[0][0].size, [], [], 0, 0
    for meas, topology, init in runs:
        n, heads, fit, rows, w = 0, np.arange(0), np.arange(0), np.arange(0), np.ones(0)
        if with_local:
            n, m = topology.n_heads, topology.sensors_per_head
            # head k's rows: the measurements of every head of its
            # neighborhood, in measurement order
            fit, owners, weights = _selection(topology)
            rows = (owners[:, None] * m + np.arange(m)).ravel()
            w, fit = np.repeat(weights / m, m) / meas.variances[rows], np.repeat(fit, m)
            solvable = np.bincount(fit, minlength=n) >= 3
            on, fit, _ = _layout(solvable, fit, rows, k)
            rows, w, heads = rows[on], w[on], np.flatnonzero(solvable)
        if with_global:  # the run's first fit, over all K rows
            fit, rows = np.append(np.zeros(k, dtype=int), fit + 1), np.append(np.arange(k), rows)
            w = np.append(1.0 / meas.variances, w)
        xi, xj = topology.measurement_nodes()
        fits, data = with_global + len(heads), (*xi[rows].T, *xj[rows].T, meas.values[rows], w)
        parts.append((np.tile(as_position(init), fits), fit + n_fits, rows, np.stack(data)))
        spans.append((n_fits, n_rows, n, heads, meas.variances))
        n_fits, n_rows = n_fits + fits, n_rows + len(rows)
    x0, fit, rows, data = (np.concatenate(p, axis=-1) for p in zip(*parts))
    del parts  # the batch runs on the joined copies
    x, status, normal = _gauss_newton(x0.reshape(-1, 2), fit, rows, data, k)
    spans.append((n_fits, n_rows, 0, None, None))

    def finish(f0, r0, n, heads, variances, f1, r1, *_):  # one run's Q0 and log lines
        position = None
        if with_global:
            code, position, f0, r0 = status[f0], x[f0], f0 + 1, r0 + k
            if code in _FAILURES:
                position = EstimationError(f"global WLS failed: {_FAILURES[code]}")
            elif code == _STOPPED:
                logger.warning("global WLS stopped before the step tolerance was met")
        # a fitted head whose normal matrix has a zero LU pivot has no
        # operator: the operator solve below NaN-fills on the same verdict
        done = status[f0:f1] <= _STOPPED
        fitted = f0 + np.flatnonzero(done)
        solved = np.isfinite(_solve_stack(normal[fitted], np.eye(2))).all(axis=(1, 2))
        status[fitted[~solved]] = _RANK_DEFICIENT
        q = None
        if with_q:  # Q0 of each fitted head's (J^T W J)^-1 J^T W at its final point
            on, slot, chunks = _layout(done, fit[r0:r1] - f0, rows[r0:r1], k)
            on = r0 + np.flatnonzero(on)
            operators = np.empty((len(fitted), 2, k))
            for lo, hi, a, b, at in chunks:
                nodes, w = data[:4, on[a:b]], data[5, on[a:b]]
                with np.errstate(divide="ignore", invalid="ignore"):
                    _, j0, j1, _, _ = _range_differences(*x[fitted[slot[a:b]]].T, *nodes)
                wjac_k = _padded((j0 * w, j1 * w), at, hi - lo, k)
                operators[lo:hi] = _solve_stack(normal[fitted[lo:hi]], wjac_k.transpose(0, 2, 1))
            q = _gram(operators[solved], variances)
        if n and logger.isEnabledFor(logging.DEBUG):
            _log_local_batch(n, heads, status[f0:f1])
        return position, heads[fitted[solved] - f0], x[fitted[solved]], q

    return [finish(*span, *end) for span, end in zip(spans, spans[1:])]


def _gram(operators: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Q0 of (F, 2, K) operators under the noise covariance W = diag(variances):
    entry (m, n) is trace(operators[m] @ W @ operators[n].T), symmetrized."""
    q = np.einsum("mdk,ndk->mn", operators * variances[None, None, :], operators)
    return 0.5 * (q + q.T)


def _log_local_batch(n: int, heads: np.ndarray, status: np.ndarray) -> None:
    """One debug line for a run's n heads, from its solvable heads' status."""
    outcome = np.full(n, _FEW_ROWS)
    outcome[heads] = status
    failed = [
        f"{reason} {np.flatnonzero(outcome == code).tolist()}"
        for code, reason in _FAILURES.items()
        if np.any(outcome == code)
    ]
    logger.debug(
        "local WLS fitted %d of %d heads; stopped before the step tolerance: %s; failed: %s",
        int(np.sum(outcome <= _STOPPED)), n, np.flatnonzero(outcome == _STOPPED).tolist(),
        ", ".join(failed) or "none",
    )


def crlb(topology: NetworkTopology, source, variances) -> np.ndarray:
    """Inverse Fisher information of the source position, evaluated at truth.

    variances is a scalar or per-measurement vector of noise variances.
    Returns the 2x2 lower bound on the covariance of any unbiased
    estimator; sqrt(trace) benchmarks the RMSE curves. Raises
    EstimationError where the source lies on a node, or where the bound is
    not finite or its trace not positive (an underflowed information).
    """
    xi, xj = topology.measurement_nodes()
    with np.errstate(divide="ignore", invalid="ignore"):  # raised on below
        _, jac0, jac1, di, dj = _range_differences(*as_position(source), *xi.T, *xj.T)
    if np.any(di == 0.0) or np.any(dj == 0.0):
        raise EstimationError("evaluation point coincides with a network node")
    jac = np.column_stack((jac0, jac1))
    var = np.broadcast_to(np.asarray(variances, dtype=float), (jac.shape[0],))
    if not np.all(np.isfinite(var) & (var > 0)):
        raise ValueError("variances must be positive and finite")
    fisher = (jac / var[:, None]).T @ jac
    try:
        bound = np.linalg.inv(fisher)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("Fisher information is singular") from exc
    # an underflowed information inverts to inf, -inf or NaN without a
    # LinAlgError; finiteness comes first, since the trace of inf and -inf warns
    if not np.isfinite(bound).all() or np.trace(bound) <= 0:
        raise EstimationError("Fisher information is singular")
    return bound
