"""Weighted least-squares source estimation from range differences.

Covers the centralized estimator over all measurements, the per-head local
estimator that sees only its neighborhood's measurements through selection
weights, and the trace benchmark (inverse Fisher information) both are
judged against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import NetworkTopology, as_position
from .signals import MeasurementSet

__all__ = [
    "EstimationError",
    "LocalEstimate",
    "SelectionWeights",
    "WlsOptions",
    "build_selection_weights",
    "crlb",
    "global_wls",
    "local_wls",
    "residual_and_jacobian",
]

logger = logging.getLogger(__name__)

# damping growth past this level means the cost cannot be reduced further
_MAX_DAMPING = 1e12


class EstimationError(RuntimeError):
    """Estimation failed: degenerate geometry or singular normal equations."""


@dataclass(frozen=True)
class WlsOptions:
    """Iteration controls for the damped Gauss-Newton solver.

    init: starting position, usually the deployment-area center.
    damping: initial additive damping on the normal equations; grows by 10x
        whenever a step would increase the weighted cost and shrinks by 10x
        after every accepted step.
    """

    init: np.ndarray
    max_iters: int = 50
    step_tol: float = 1e-8
    damping: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "init", as_position(self.init))
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.step_tol <= 0:
            raise ValueError("step_tol must be positive")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")


def _pair_positions(meas: MeasurementSet, topology: NetworkTopology):
    xi = topology.sensors[meas.head_idx, meas.sensor_idx]
    xj = topology.heads[meas.head_idx]
    return xi, xj


def _range_difference_jacobian(x: np.ndarray, xi: np.ndarray, xj: np.ndarray):
    """Predicted differences and their derivative rows at x.

    Row l of the jacobian is the unit-vector difference
    (x - xi_l)/||x - xi_l|| - (x - xj_l)/||x - xj_l||.
    """
    di = np.linalg.norm(x - xi, axis=1)
    dj = np.linalg.norm(x - xj, axis=1)
    if np.any(di == 0.0) or np.any(dj == 0.0):
        raise EstimationError("evaluation point coincides with a network node")
    predicted = di - dj
    jac = (x - xi) / di[:, None] - (x - xj) / dj[:, None]
    return predicted, jac


def residual_and_jacobian(x, meas: MeasurementSet, topology: NetworkTopology):
    """Residuals (measured minus predicted) and jacobian of the prediction."""
    pos = as_position(x)
    xi, xj = _pair_positions(meas, topology)
    predicted, jac = _range_difference_jacobian(pos, xi, xj)
    return meas.values - predicted, jac


def _damped_gauss_newton(evaluate, x0: np.ndarray, weights: np.ndarray, opts: WlsOptions):
    """Minimize sum(weights * residual^2); evaluate(x) -> (residuals, jacobian).

    Returns (x, converged, cost). Accepted iterations never increase the
    cost; a rejected step only grows the damping.
    """
    x = np.array(x0, dtype=float)
    res, jac = evaluate(x)
    cost = float(np.dot(weights * res, res))
    mu = float(opts.damping)
    converged = False
    for _ in range(opts.max_iters):
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
            res_new, jac_new = evaluate(x_new)
            cost_new = float(np.dot(weights * res_new, res_new))
            if cost_new <= cost:
                accepted = True
                break
            mu = mu * 10.0 if mu > 0 else 1e-8
        if not accepted:
            break
        x, res, jac, cost = x_new, res_new, jac_new, cost_new
        mu *= 0.1
        if float(np.linalg.norm(step)) < opts.step_tol:
            converged = True
            break
    return x, converged, cost


def global_wls(meas: MeasurementSet, topology: NetworkTopology, opts: WlsOptions) -> np.ndarray:
    """Centralized weighted least-squares fit over every measurement."""
    xi, xj = _pair_positions(meas, topology)

    def evaluate(x):
        predicted, jac = _range_difference_jacobian(x, xi, xj)
        return meas.values - predicted, jac

    weights = 1.0 / meas.variances
    x, converged, _ = _damped_gauss_newton(evaluate, opts.init, weights, opts)
    if not converged:
        logger.warning("global WLS stopped before the step tolerance was met")
    return x


@dataclass(frozen=True)
class SelectionWeights:
    """Head-level (N, N) selection weights and the sensors behind each head."""

    head_matrix: np.ndarray
    sensors_per_head: int

    def column(self, k: int) -> np.ndarray:
        """Per-measurement weights head k applies (diagonal of its selector).

        A measurement owned by head l gets head_matrix[l, k] divided by the
        per-head measurement count, so the column still sums to one.
        """
        m = self.sensors_per_head
        return np.repeat(self.head_matrix[:, k] / m, m)


def build_selection_weights(topology: NetworkTopology) -> SelectionWeights:
    """Metropolis-style measurement selection weights for every head.

    Head-level entries: for l adjacent to k the weight is
    1 / max(degree_l, degree_k) with self-inclusive degrees; the diagonal
    absorbs the remainder so every column sums to one. SelectionWeights.column
    spreads a head's column over the measurements.
    """
    n = topology.n_heads
    degrees = topology.degrees
    head_matrix = np.zeros((n, n))
    for k in range(n):
        for l in topology.neighborhood(k):
            if l != k:
                head_matrix[l, k] = 1.0 / max(degrees[l], degrees[k])
        head_matrix[k, k] = 1.0 - head_matrix[:, k].sum()
    return SelectionWeights(
        head_matrix=head_matrix, sensors_per_head=topology.sensors_per_head
    )


@dataclass(frozen=True)
class LocalEstimate:
    """One head's estimate with the linear operator that produced it.

    operator maps the stacked linearized measurement vector to the position
    estimate (2 x K); it is evaluated at the converged point and satisfies
    operator @ jacobian = identity there.
    """

    head: int
    position: np.ndarray
    operator: np.ndarray


def local_wls(
    k: int,
    meas: MeasurementSet,
    weights: SelectionWeights,
    topology: NetworkTopology,
    opts: WlsOptions,
) -> LocalEstimate:
    """Per-head weighted fit using only the measurements head k can access.

    The measurement weights are the selection column scaled by the inverse
    noise variances; measurements outside the neighborhood carry weight
    zero and do not influence the fit.
    """
    if not 0 <= k < topology.n_heads:
        raise ValueError(f"head index {k} out of range")
    column = weights.column(k)
    combined = column / meas.variances
    if np.count_nonzero(combined) < 3:
        raise EstimationError(f"head {k} has fewer than 3 accessible measurements")
    xi, xj = _pair_positions(meas, topology)

    def evaluate(x):
        predicted, jac = _range_difference_jacobian(x, xi, xj)
        return meas.values - predicted, jac

    x, converged, _ = _damped_gauss_newton(evaluate, opts.init, combined, opts)
    if not converged:
        logger.debug("local WLS for head %d stopped before step tolerance", k)
    _, jac = _range_difference_jacobian(x, xi, xj)
    weighted_jac = jac * combined[:, None]
    normal = weighted_jac.T @ jac
    try:
        operator = np.linalg.solve(normal, weighted_jac.T)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"head {k}: rank-deficient local geometry") from exc
    if not np.all(np.isfinite(operator)):
        raise EstimationError(f"head {k}: rank-deficient local geometry")
    return LocalEstimate(head=k, position=x, operator=operator)


def crlb(topology: NetworkTopology, source, variances) -> np.ndarray:
    """Inverse Fisher information of the source position, evaluated at truth.

    variances is a scalar or per-measurement vector of noise variances.
    Returns the 2x2 lower bound on the covariance of any unbiased
    estimator; sqrt(trace) benchmarks the RMSE curves.
    """
    src = as_position(source)
    head_idx, sensor_idx = topology.measurement_pairs()
    xi = topology.sensors[head_idx, sensor_idx]
    xj = topology.heads[head_idx]
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
