"""Diffusion of per-head estimates over the cluster-head graph.

Every epoch each head replaces its estimate with a convex combination of
its neighborhood's estimates. Each of the three coefficient rules takes
hoods, the symmetric (N, N) mask of the self-inclusive neighborhoods, and
the heads' state, and returns the whole column-stochastic (N, N) matrix,
column k holding head k's weights over its neighborhood:

* ``con``: static weights proportional to neighbor degrees.
* ``wei``: weights shrink exponentially with squared distance from the
  network-wide per-dimension median, recomputed every epoch.
* ``opt``: weights minimize the fused estimator's variance through a
  simplex-constrained quadratic program over each neighborhood, using the
  heads' linear estimation operators.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "Diffused",
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


class Diffused(NamedTuple):
    """Outcome of diffuse.

    estimates: (N, 2) per-head positions after the last epoch.
    epoch: epochs run.
    converged: True when the largest per-head step fell to the tolerance.
    """

    estimates: np.ndarray
    epoch: int
    converged: bool


def connectivity_weights(hoods: np.ndarray) -> np.ndarray:
    """Degree-proportional combination matrix of the network.

    Column k holds head k's weights: each member l of its self-inclusive
    neighborhood gets degree_l, the size of l's neighborhood, normalized
    over k's neighborhood.
    """
    weights = hoods * hoods.sum(axis=1)[:, None]
    return weights / weights.sum(axis=0)


def median_weights(
    estimates: np.ndarray, hoods: np.ndarray, decay_scale: float
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
    median = np.median(estimates, axis=0)
    with np.errstate(over="ignore"):  # an inf quotient is a weight of 0
        raw = np.exp(-np.sum((estimates - median) ** 2, axis=1) / decay_scale)
    weights = np.where(hoods, raw[:, None], 0.0)
    totals = weights.sum(axis=0)
    fallback = (totals <= 0.0) | ~np.isfinite(totals)
    if fallback.any():
        logger.warning(
            "median weights underflowed for %d of %d heads; using uniform",
            int(fallback.sum()),
            len(hoods),
        )
        weights[:, fallback] = hoods[:, fallback]
        totals[fallback] = hoods[:, fallback].sum(axis=0)
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


def _equality_solutions(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize a'Qa subject to sum(a) = 1 for each stacked (m, m) Q.

    Returns the (H, m) minimizers and a mask of those inside the simplex;
    a singular or non-finite system counts as outside.
    """
    h, m, _ = qs.shape
    if m == 1:
        return np.ones((h, 1)), np.ones(h, dtype=bool)
    kkt = np.zeros((h, m + 1, m + 1))
    kkt[:, :m, :m] = 2.0 * qs
    kkt[:, :m, m] = -1.0
    kkt[:, m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    # np.linalg.solve raises for the whole stack when one matrix is
    # singular; its (private) gufunc gives NaN rows for that matrix alone
    with np.errstate(all="ignore"):
        sol = _umath_linalg.solve1(kkt, rhs, signature="dd->d")
    inside = np.isfinite(sol).all(axis=1) & (sol[:, :m] >= -1e-12).all(axis=1)
    return sol[:, :m], inside


def _quadratic_forms(vecs: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """vecs[i] @ qs[i] @ vecs[i] over the leading axes. Stacked matmul makes
    the BLAS calls of a single product only on C-contiguous operands."""
    vecs = np.ascontiguousarray(vecs)
    rows = vecs[..., None, :] @ np.ascontiguousarray(qs)
    return (rows @ vecs[..., :, None])[..., 0, 0]


def _support_table(hoods: np.ndarray) -> tuple:
    """(stacks, entries, whole) of every candidate support of every head's
    simplex QP, in flat indices into the (N, N) Q and weights. stacks holds
    (heads, pairs, cols) per support size s: each support's head, the (s, s)
    block of Q over its members (ascending), and its column in the head's
    walk: 0 for the whole neighborhood, then the proper subsets in
    itertools.combinations order, smallest first. entries holds (head,
    slot, col) per member in stack order, whole (heads, pairs, slots) of
    the whole neighborhoods of each size."""
    n, by_size, whole = len(hoods), {}, []
    degrees = hoods.sum(axis=1)
    for m in np.unique(degrees):
        h = np.flatnonzero(degrees == m)
        nb = np.nonzero(hoods[h])[1].reshape(-1, m)
        whole.append((h, nb[:, :, None] * n + nb[:, None, :], nb * n + h[:, None]))
        walk = [range(m)] + [c for s in range(1, m) for c in combinations(range(m), s)]
        for s in range(1, m + 1):
            cols = [col for col, c in enumerate(walk) if len(c) == s]
            members = nb[:, [walk[c] for c in cols]].reshape(-1, s)
            owners = h.repeat(len(cols))
            by_size.setdefault(s, []).append((owners, members, cols * len(h)))
    stacks = [[np.concatenate(p) for p in zip(*by_size[s])] for s in sorted(by_size)]
    flat = [(h.repeat(s), (m * n + h[:, None]).ravel(), c.repeat(s))
            for s, (h, m, c) in enumerate(stacks, start=1)]
    stacks = [(h, m[:, :, None] * n + m[:, None, :], c) for h, m, c in stacks]
    return stacks, [np.concatenate(p) for p in zip(*flat)], whole


def _record_walk(objs: np.ndarray) -> np.ndarray:
    """Column each row's left-to-right walk keeps (-1 if none is below inf):
    an entry replaces the best only when lower by more than 1e-15, so a tie
    keeps the earlier one and NaN never wins. A row's next record is its
    first entry below best - 1e-15; no earlier entry can be."""
    best, winner = np.full(len(objs), np.inf), np.full(len(objs), -1)
    while (below := objs < best[:, None] - 1e-15).any():
        moved = below.any(axis=1)
        winner[moved] = below[moved].argmax(axis=1)
        best[moved] = objs[moved, winner[moved]]
    return winner


def _simplex_weights(q: np.ndarray, supports: tuple, base: np.ndarray) -> tuple:
    """(weights, bad, loose): column k of the (N, N) weights minimizes a'Qa
    over head k's neighborhood simplex; per head, is a' base a < -_KKT_TOL,
    and do its optimality conditions under base hold only loosely."""
    stacks, (heads, slots, cols), whole = supports
    objs, values = np.full((len(q), cols.max() + 1), np.inf), []
    for stack_heads, pairs, stack_cols in stacks:
        qs = q.take(pairs)
        sol, ok = _equality_solutions(qs)
        cands = np.clip(np.where(ok[:, None], sol, 1.0), 0.0, None)
        cands /= cands.sum(axis=1, keepdims=True)
        # a feasible whole neighborhood ends the walk where it starts
        forms = np.where(stack_cols == 0, -np.inf, _quadratic_forms(cands, qs))
        objs[stack_heads, stack_cols] = np.where(ok, forms, np.inf)
        values.append(cands.ravel())
    take = _record_walk(objs)[heads] == cols
    weights = np.zeros(q.shape)
    weights.flat[slots[take]] = np.concatenate(values)[take]
    bad, loose = np.zeros((2, len(q)), dtype=bool)
    for owners, pairs, nbhd_slots in whole:
        qs = base.take(pairs)
        solution = weights.take(nbhd_slots)
        bad[owners] = _quadratic_forms(solution, qs) < -_KKT_TOL
        grad = 2.0 * (qs @ solution[:, :, None])[:, :, 0]
        level = (grad[:, None, :] @ solution[:, :, None])[:, 0, 0]
        slack = level - _KKT_TOL * np.maximum(1.0, np.abs(level))
        loose[owners] = (grad < slack[:, None]).any(axis=1)
    return weights, bad, loose


def optimal_weights(
    q: np.ndarray, hoods: np.ndarray, *, supports: Optional[tuple] = None
) -> np.ndarray:
    """Variance-minimizing combination matrix of the network.

    Column k minimizes a' Q a subject to the weights being a probability
    vector supported on head k's neighborhood. Every candidate support of
    every head is solved in one stack per support size. A head keeps its
    whole-neighborhood minimizer when that lies inside the simplex; else
    its proper supports are walked in itertools.combinations order, and a
    feasible candidate replaces the best so far only when its objective is
    lower by more than 1e-15, so a tie keeps the earlier support. Each head
    gets the bits a QP of its own would. An indefinite restriction (possible
    through rounding) is regularized by adding 1e-9 |trace Q| / N times the
    identity and solved again. Each call logs one line counting the
    regularized heads and one counting the heads whose optimality conditions
    hold only loosely. diffuse builds supports, the mask's support table,
    once per run; a direct call leaves it out.
    """
    q, n = np.asarray(q, dtype=float), len(hoods)
    if q.shape != (n, n):
        raise ValueError(f"q must have shape ({n}, {n}) for {n} heads, got {q.shape}")
    ridge = 1e-9 * abs(np.trace(q)) / n
    supports = _support_table(hoods) if supports is None else supports
    weights, bad, loose = _simplex_weights(q, supports, q)
    if bad.any():
        retry, _, retry_loose = _simplex_weights(q + ridge * np.eye(n), supports, q)
        weights[:, bad], loose[bad] = retry[:, bad], retry_loose[bad]
        logger.warning(
            "indefinite neighborhood matrix for %d of %d heads; regularizing with %g",
            bad.sum(), n, ridge,
        )
    if loose.any():
        logger.warning("optimality conditions loose for %d of %d heads", loose.sum(), n)
    return weights


def diffuse(
    estimates: np.ndarray,
    scheme: str,
    hoods: np.ndarray,
    epsilon: float,
    max_epochs: int,
    *,
    operators: Optional[np.ndarray] = None,
    variances: Optional[np.ndarray] = None,
    decay_scale: float = 1.0,
    optimize_once: bool = False,
    on_epoch: Optional[Callable[[int, np.ndarray, np.ndarray, float], None]] = None,
) -> Diffused:
    """Iterate neighborhood combinations until the estimates settle.

    estimates holds one (N, 2) row per head of the (N, N) mask hoods, and
    every head takes part; a caller that leaves heads out passes the rows
    and the mask block of the rest. Each epoch the scheme's rule gives the
    column-stochastic (N, N) coefficient matrix A and the estimates become
    A.T @ estimates. Stops when the largest per-head displacement in one
    epoch is at most epsilon, or after max_epochs epochs (logged as
    non-convergence). The ``opt`` scheme needs the (N, 2, K) estimation
    operators and the K measurement variances: each epoch after the first
    combines the operators with the last coefficients and rebuilds the
    variance matrix from them; optimize_once solves the quadratic programs
    only in the first epoch and reuses those coefficients afterwards. The
    programs' support table is built once per call.

    on_epoch, when given, is called after each epoch with (epoch,
    estimates, coefficients, max_step).

    Returns Diffused(estimates, epoch, converged); convex combination
    keeps every estimate inside the per-dimension envelope of the previous
    epoch.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    if max_epochs < 1:
        raise ValueError("max_epochs must be positive")
    estimates = np.array(estimates, dtype=float)
    if estimates.shape != (len(hoods), 2):
        raise ValueError("estimates must have shape (n_heads, 2)")
    if not (np.array_equal(hoods, hoods.T) and hoods.diagonal().all()):
        raise ValueError("hoods must be a symmetric (N, N) mask with every head in its own row")
    if scheme == "opt" and (operators is None or variances is None):
        raise ValueError("opt scheme needs estimation operators and measurement variances")

    if scheme == "con":
        coeffs = connectivity_weights(hoods)
    supports = _support_table(hoods) if scheme == "opt" else None
    converged = False
    for epoch in range(1, max_epochs + 1):
        if scheme == "wei":
            coeffs = median_weights(estimates, hoods, decay_scale)
        elif scheme == "opt" and (epoch == 1 or not optimize_once):
            if epoch > 1:  # combined with the previous epoch's coefficients
                operators = np.einsum("lk,ldi->kdi", coeffs, operators)
            q = build_q_matrix(operators, variances)
            coeffs = optimal_weights(q, hoods, supports=supports)
        new_estimates = coeffs.T @ estimates
        max_step = float(np.linalg.norm(new_estimates - estimates, axis=1).max())
        estimates = new_estimates
        if on_epoch is not None:
            on_epoch(epoch, estimates, coeffs, max_step)
        if max_step <= epsilon:
            converged = True
            break
    if not converged:
        logger.warning("diffusion (%s) did not settle in %d epochs", scheme, max_epochs)
    return Diffused(estimates, epoch, converged)
