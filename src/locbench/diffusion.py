"""Diffusion of per-head estimates over the cluster-head graph.

Every epoch each head replaces its estimate with a convex combination of
its neighborhood's estimates. Each of the three coefficient rules takes
the network's state and returns the whole column-stochastic (N, N)
matrix, column k holding head k's weights over its self-inclusive
neighborhood:

* ``con``: static weights proportional to neighbor degrees.
* ``wei``: weights shrink exponentially with squared distance from the
  network-wide per-dimension median, recomputed every epoch.
* ``opt``: weights minimize the fused estimator's variance through a
  simplex-constrained quadratic program over each neighborhood, using the
  heads' linear estimation operators.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import NetworkTopology

__all__ = [
    "DiffusionState",
    "SCHEMES",
    "build_q_matrix",
    "connectivity_weights",
    "diffuse",
    "median_weights",
    "optimal_weights",
]

logger = logging.getLogger(__name__)

SCHEMES = ("con", "wei", "opt")

# reduced-gradient slack accepted when checking the QP optimality conditions
_KKT_TOL = 1e-8


@dataclass(frozen=True)
class DiffusionState:
    """Snapshot of the diffusion iteration.

    estimates: (N, 2) per-head positions.
    operators: (N, 2, K) per-head linear estimation operators, or None for
        schemes that do not track them.
    epoch: epochs completed (0 for a fresh initial state).
    converged: True when the largest per-head step fell to the tolerance.
    """

    estimates: np.ndarray
    operators: Optional[np.ndarray]
    epoch: int = 0
    converged: bool = False


def connectivity_weights(topology: NetworkTopology) -> np.ndarray:
    """Degree-proportional combination matrix of the network.

    Column k holds head k's weights: each member l of its self-inclusive
    neighborhood gets degree_l, normalized over the neighborhood.
    """
    weights = topology.neighborhoods * topology.degrees[:, None]
    return weights / weights.sum(axis=0)


def median_weights(
    estimates: np.ndarray, topology: NetworkTopology, decay_scale: float
) -> np.ndarray:
    """Distance-from-median combination matrix of the network.

    The reference point is the per-dimension median over every head's
    estimate; head l's weight in column k is exp(-d_l^2 / decay_scale) of
    its squared distance from that median, normalized over k's
    neighborhood. A network-wide reference keeps far-off estimates
    down-weighted everywhere, so stray heads are pulled toward the
    consensus instead of anchoring their own cluster. A column whose
    weights all underflow to zero falls back to uniform weights over the
    neighborhood; each call logs how many heads fell back.
    """
    if not decay_scale > 0:
        raise ValueError("decay_scale must be positive")
    mask = topology.neighborhoods
    median = np.median(estimates, axis=0)
    raw = np.exp(-np.sum((estimates - median) ** 2, axis=1) / decay_scale)
    weights = np.where(mask, raw[:, None], 0.0)
    totals = weights.sum(axis=0)
    fallback = (totals <= 0.0) | ~np.isfinite(totals)
    if fallback.any():
        logger.warning(
            "median weights underflowed for %d of %d heads; using uniform",
            int(fallback.sum()),
            topology.n_heads,
        )
        weights[:, fallback] = mask[:, fallback]
        totals[fallback] = topology.degrees[fallback]
    return weights / totals


def build_q_matrix(operators: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Gram matrix of the estimation operators under the noise covariance.

    Entry (m, n) is trace(W @ operators[m].T @ operators[n]) with diagonal
    W. Symmetric positive semidefinite up to rounding.
    """
    ops = np.asarray(operators, dtype=float)
    var = np.asarray(variances, dtype=float)
    if ops.ndim != 3 or ops.shape[1] != 2:
        raise ValueError("operators must have shape (N, 2, K)")
    if var.shape != (ops.shape[2],):
        raise ValueError("variances must match the operator columns")
    q = np.einsum("mdk,ndk->mn", ops * var[None, None, :], ops)
    return 0.5 * (q + q.T)


def _equality_solution(q_sub: np.ndarray) -> Optional[np.ndarray]:
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


def _simplex_qp(q_sub: np.ndarray) -> np.ndarray:
    """Exact minimizer of a'Qa over the probability simplex.

    Tries the full support first; when that solution leaves the simplex,
    every support subset is solved and the feasible minimizer kept. The
    supports here are neighborhood-sized, so the enumeration stays tiny.
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


def optimal_weights(q: np.ndarray, topology: NetworkTopology) -> np.ndarray:
    """Variance-minimizing combination matrix of the network.

    Column k minimizes a' Q a subject to the weights being a probability
    vector supported on head k's neighborhood, one simplex QP per head. An
    indefinite restriction (possible through rounding) is regularized by
    adding a small multiple of the identity before solving; the event is
    logged.
    """
    q = np.asarray(q, dtype=float)
    ridge = 1e-9 * np.trace(q) / q.shape[0]
    weights = np.zeros((topology.n_heads, topology.n_heads))
    for k in range(topology.n_heads):
        nbhd = topology.neighborhood(k)
        q_sub = q[np.ix_(nbhd, nbhd)]
        solution = _simplex_qp(q_sub)
        if float(solution @ q_sub @ solution) < -_KKT_TOL:
            logger.warning(
                "indefinite neighborhood matrix for head %d; regularizing with %g",
                k,
                ridge,
            )
            solution = _simplex_qp(q_sub + ridge * np.eye(nbhd.size))
        grad = 2.0 * (q_sub @ solution)
        level = float(grad @ solution)
        if np.any(grad < level - _KKT_TOL * max(1.0, abs(level))):
            logger.warning("optimality conditions loose for head %d", k)
        weights[nbhd, k] = solution
    return weights


def diffuse(
    initial: DiffusionState,
    scheme: str,
    epsilon: float,
    max_epochs: int,
    topology: NetworkTopology,
    variances: Optional[np.ndarray] = None,
    decay_scale: float = 1.0,
    optimize_once: bool = False,
    on_epoch: Optional[Callable[[int, np.ndarray, np.ndarray, float], None]] = None,
) -> DiffusionState:
    """Iterate neighborhood combinations until the estimates settle.

    Every head of topology takes part; a caller that leaves heads out
    passes the sub-network of the rest. Each epoch the scheme's rule gives
    the column-stochastic (N, N) coefficient matrix A and the estimates
    become A.T @ estimates. Stops when the largest per-head displacement
    in one epoch is at most epsilon, or after max_epochs epochs (logged as
    non-convergence). For the ``opt`` scheme the estimation operators are
    combined with the same coefficients each epoch and the variance matrix
    rebuilt from them; optimize_once solves the quadratic programs only in
    the first epoch and reuses those coefficients afterwards.

    on_epoch, when given, is called after each epoch with (epoch,
    estimates, coefficients, max_step).

    Returns the final DiffusionState; convex combination keeps every
    estimate inside the per-dimension envelope of the previous epoch.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    if max_epochs < 1:
        raise ValueError("max_epochs must be positive")
    estimates = np.array(initial.estimates, dtype=float)
    if estimates.shape != (topology.n_heads, 2):
        raise ValueError("estimates must have shape (n_heads, 2)")
    if scheme == "opt":
        if initial.operators is None:
            raise ValueError("opt scheme needs estimation operators")
        if variances is None:
            raise ValueError("opt scheme needs measurement variances")
    operators = None if initial.operators is None else np.array(initial.operators)

    if scheme == "con":
        coeffs = connectivity_weights(topology)
    epoch = 0
    converged = False
    for epoch in range(1, max_epochs + 1):
        if scheme == "wei":
            coeffs = median_weights(estimates, topology, decay_scale)
        elif scheme == "opt" and (epoch == 1 or not optimize_once):
            coeffs = optimal_weights(build_q_matrix(operators, variances), topology)
        new_estimates = coeffs.T @ estimates
        if scheme == "opt":
            operators = np.einsum("lk,ldi->kdi", coeffs, operators)
        max_step = float(np.linalg.norm(new_estimates - estimates, axis=1).max())
        estimates = new_estimates
        if on_epoch is not None:
            on_epoch(epoch, estimates, coeffs, max_step)
        if max_step <= epsilon:
            converged = True
            break
    if not converged:
        logger.warning("diffusion (%s) did not settle in %d epochs", scheme, max_epochs)
    return DiffusionState(
        estimates=estimates, operators=operators, epoch=epoch, converged=converged
    )
