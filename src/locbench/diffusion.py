"""Diffusion of per-head estimates over the cluster-head graph.

Every epoch each head replaces its estimate with a convex combination of
its neighborhood's estimates. Each of the three coefficient rules takes
hoods, the symmetric (N, N) mask of the self-inclusive neighborhoods, and
the state of R runs on it (``con`` needs none), and returns each run's
column-stochastic (N, N) matrix, column k holding head k's weights over
its neighborhood:

* ``con``: static weights proportional to neighbor degrees.
* ``wei``: weights shrink exponentially with squared distance from the
  network-wide per-dimension median, recomputed every epoch.
* ``opt``: weights minimize the fused estimator's variance through a
  simplex-constrained quadratic program over each neighborhood, using Q,
  the Gram matrix of the heads' linear estimation operators; its caller
  passes Q0 from wls_group, so no operator reaches this module.

A run's bits and log lines never depend on the other runs of its stack.
"""

from __future__ import annotations

import logging
import math
from itertools import combinations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .estimators import _solve_stack

__all__ = [
    "Diffused",
    "SCHEMES",
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

    estimates: (R, N, 2) per-head positions after each run's last epoch.
    epoch: (R,) epochs each run ran.
    converged: (R,) True where the largest per-head step fell to the tolerance.
    """

    estimates: np.ndarray
    epoch: np.ndarray
    converged: np.ndarray


def connectivity_weights(hoods: np.ndarray) -> np.ndarray:
    """Degree-proportional combination matrix of the network.

    Column k holds head k's weights: each member l of its self-inclusive
    neighborhood gets degree_l, the size of l's neighborhood, normalized
    over k's neighborhood. It reads the mask alone, so every run shares it.
    Each entry is one division by its column's exact integer total.
    """
    degrees, (rows, cols) = hoods.sum(axis=1), np.nonzero(hoods)
    weights = np.zeros(hoods.shape)
    weights[rows, cols] = degrees[rows] / np.bincount(cols, degrees[rows], len(hoods))[cols]
    return weights


def median_weights(estimates: np.ndarray, hoods: np.ndarray, decay_scale: float) -> np.ndarray:
    """Distance-from-median combination matrices of R runs' (R, N, 2) estimates.

    The reference point is the per-dimension median over every head's
    estimate; head l's weight in column k is exp(-d_l^2 / decay_scale) of
    its squared distance from that median, normalized over k's
    neighborhood. A network-wide reference keeps far-off estimates
    down-weighted everywhere, so stray heads are pulled toward the
    consensus instead of anchoring their own cluster. A column whose
    weights all underflow to zero falls back to uniform weights over the
    neighborhood; each call logs a line for each run that fell back.
    """
    if not decay_scale > 0:
        raise ValueError("decay_scale must be positive")
    ranked = np.sort(estimates, axis=1)
    mid = ranked.shape[1] // 2  # np.median's value from a sort, without its numpy.ma import
    median = ranked[:, mid] if ranked.shape[1] % 2 else (ranked[:, mid - 1] + ranked[:, mid]) / 2
    median[np.isnan(ranked[:, -1])] = np.nan  # NaN sorts last
    with np.errstate(over="ignore"):  # an inf quotient is a weight of 0
        raw = np.exp(-np.sum((estimates - median[:, None]) ** 2, axis=2) / decay_scale)
    weights = np.where(hoods, raw[:, :, None], 0.0)
    totals = weights.sum(axis=1)
    fallback = (totals <= 0.0) | ~np.isfinite(totals)
    if fallback.any():
        for count in fallback.sum(axis=1)[fallback.any(axis=1)]:
            logger.warning("median weights underflowed for %d of %d heads; using uniform",
                           count, len(hoods))
        weights = np.where(fallback[:, None, :], hoods, weights)
        totals = np.where(fallback, hoods.sum(axis=0), totals)
    return weights / totals[:, None]


def _equality_solutions(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize a'Qa subject to sum(a) = 1 for each (..., m, m) Q, m >= 2.

    Returns the (..., m) minimizers and a mask of those inside the simplex;
    a singular or non-finite system counts as outside. A one-point support
    needs no solve (_simplex_weights sets its weight to 1).
    """
    m = qs.shape[-1]
    kkt = np.zeros(qs.shape[:-2] + (m + 1, m + 1))
    kkt[..., :m, :m] = 2.0 * qs
    kkt[..., :m, m] = -1.0
    kkt[..., m, :m] = 1.0
    rhs = np.zeros((m + 1, 1))
    rhs[m] = 1.0
    sol = _solve_stack(kkt, rhs)[..., 0]  # NaN where a system is singular
    inside = np.isfinite(sol).all(axis=-1) & (sol[..., :m] >= -1e-12).all(axis=-1)
    return sol[..., :m], inside


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
    for m in sorted(set(degrees.tolist())):  # np.unique would import numpy.ma
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
    keeps the earlier one and NaN never wins.

    With NaN read as +inf, a row's first minimum m is the walk's winner when
    it lies more than 1e-15 below p, the least entry before it: every record
    before m is at least p, and no later entry lies below the minimum. Only
    the other rows, near-ties, walk their records in turn: a row's next
    record is its first entry below best - 1e-15, and no earlier entry can be.
    """
    objs = np.where(np.isnan(objs), np.inf, objs)
    first = objs.argmin(axis=1)
    low = objs.min(axis=1)
    before = np.where(np.arange(objs.shape[1]) < first[:, None], objs, np.inf).min(axis=1)
    winner = np.where(low < before - 1e-15, first, -1)
    ties = np.flatnonzero((winner < 0) & (low < np.inf))
    if ties.size:
        near, best, record = objs[ties], np.full(len(ties), np.inf), np.full(len(ties), -1)
        while (below := near < best[:, None] - 1e-15).any():
            moved = below.any(axis=1)
            record[moved] = below[moved].argmax(axis=1)
            best[moved] = near[moved, record[moved]]
        winner[ties] = record
    return winner


def _simplex_weights(q: np.ndarray, supports: tuple, base: np.ndarray) -> tuple:
    """(weights, bad, loose) per run of the (R, N, N) q: column k of the
    weights minimizes a'Qa over head k's neighborhood simplex; per head, is
    a' base a < -_KKT_TOL, and do its KKT conditions under base hold loosely.
    A one-point support {l} is not solved: its weight is 1 and its objective
    Q[l, l], read from q, the value a 1x1 solve gives up to the sign of a
    zero, which no comparison of the walk sees."""
    stacks, (heads, slots, cols), whole = supports
    count, n = q.shape[:2]
    q, base = q.reshape(count, -1), base.reshape(count, -1)
    objs, values = np.full((count, n, cols.max() + 1), np.inf), []
    for stack_heads, pairs, stack_cols in stacks:
        qs = q.take(pairs, axis=1)
        if pairs.shape[-1] == 1:  # a one-point support: weight 1, objective Q[l, l]
            cands, ok, forms = np.ones(qs.shape[:-1]), True, qs[..., 0, 0]
        else:
            sol, ok = _equality_solutions(qs)
            cands = np.maximum(np.where(ok[..., None], sol, 1.0), 0.0)  # np.clip's own call
            cands /= cands.sum(axis=-1, keepdims=True)
            forms = _quadratic_forms(cands, qs)
        # a feasible whole neighborhood ends the walk where it starts
        forms = np.where(stack_cols == 0, -np.inf, forms)
        objs[:, stack_heads, stack_cols] = np.where(ok, forms, np.inf)
        values.append(cands.reshape(count, -1))
    take = _record_walk(objs.reshape(count * n, -1)).reshape(count, n)[:, heads] == cols
    weights, (run, entry) = np.zeros(q.shape), np.nonzero(take)
    weights[run, slots[entry]] = np.concatenate(values, axis=1)[take]
    bad, loose = np.zeros((2, count, n), dtype=bool)
    for owners, pairs, nbhd_slots in whole:
        qs = base.take(pairs, axis=1)
        solution = weights.take(nbhd_slots, axis=1)
        bad[:, owners] = _quadratic_forms(solution, qs) < -_KKT_TOL
        grad = 2.0 * (qs @ solution[..., None])[..., 0]
        level = (grad[..., None, :] @ solution[..., None])[..., 0, 0]
        slack = level - _KKT_TOL * np.maximum(1.0, np.abs(level))
        loose[:, owners] = (grad < slack[..., None]).any(axis=-1)
    return weights.reshape(count, n, n), bad, loose


def optimal_weights(
    q: np.ndarray, hoods: np.ndarray, *, supports: Optional[tuple] = None
) -> np.ndarray:
    """Variance-minimizing combination matrices of R runs' (R, N, N) Q.

    Column k minimizes a' Q a subject to the weights being a probability
    vector supported on head k's neighborhood. Every candidate support of
    every head of every run is solved in one stack per support size. A
    head keeps its whole-neighborhood minimizer when that lies inside the
    simplex; else its proper supports are walked in itertools.combinations
    order, and a feasible candidate replaces the best so far only when its
    objective is lower by more than 1e-15, so a tie keeps the earlier
    support. Each head gets the bits a QP of its own would. A run with an
    indefinite restriction (possible through rounding) is solved again
    with 1e-9 |trace Q| / N of its own Q added to the diagonal. Each call
    logs, per run, one line counting the regularized heads and one counting
    the heads whose optimality conditions hold only loosely. diffuse builds
    supports, the mask's support table, once per group of runs.
    """
    q, n = np.asarray(q, dtype=float), len(hoods)
    if q.ndim != 3 or q.shape[1:] != (n, n):
        raise ValueError(f"q must have shape (runs, {n}, {n}) for {n} heads, got {q.shape}")
    supports = _support_table(hoods) if supports is None else supports
    weights, bad, loose = _simplex_weights(q, supports, q)
    for r in np.flatnonzero(bad.any(axis=1)):  # each run's ridge, from its own Q
        ridge, one = 1e-9 * abs(np.trace(q[r])) / n, q[r, None]
        retry, _, retry_loose = _simplex_weights(one + ridge * np.eye(n), supports, one)
        weights[r][:, bad[r]], loose[r, bad[r]] = retry[0][:, bad[r]], retry_loose[0, bad[r]]
        logger.warning("indefinite neighborhood matrix for %d of %d heads; regularizing with %g",
                       bad[r].sum(), n, ridge)
    for r in np.flatnonzero(loose.any(axis=1)):
        logger.warning("optimality conditions loose for %d of %d heads", loose[r].sum(), n)
    return weights


def diffuse(
    estimates: np.ndarray,
    scheme: str,
    hoods: np.ndarray,
    epsilon: float,
    max_epochs: int,
    *,
    q: Optional[np.ndarray] = None,
    decay_scale: float = 1.0,
    optimize_once: bool = False,
    on_epoch: Optional[Callable[[int, int, np.ndarray, np.ndarray, float], None]] = None,
) -> Diffused:
    """Iterate neighborhood combinations until each run's estimates settle.

    estimates holds R runs' (N, 2) rows, one per head of the (N, N) mask
    hoods, and every head takes part; a caller that leaves heads out passes
    the rows and the mask block of the rest. Each epoch the scheme's rule,
    called once for every live run, gives each run's column-stochastic
    (N, N) coefficient matrix A, and its estimates become A.T @ estimates.
    A run stops when the largest per-head displacement in one epoch is at
    most epsilon, or after max_epochs epochs (logged as non-convergence).
    The ``opt`` scheme needs q, each run's (N, N) Q0 (wls_group's q).
    Operators combined by A have the Q A.T @ Q @ A, so each later epoch
    takes that of the last A, symmetrized; optimize_once instead reuses
    the first epoch's coefficients. The quadratic programs'
    support table is built once per call, so once per group of runs.

    on_epoch, when given, is called after each epoch with (run, epoch,
    estimates, coefficients, max_step) for each live run, in run order.

    Returns Diffused(estimates, epoch, converged); convex combination
    keeps every estimate inside the per-dimension envelope of its run's
    previous epoch.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    if max_epochs < 1:
        raise ValueError("max_epochs must be positive")
    estimates = np.array(estimates, dtype=float)
    runs, n = len(estimates), len(hoods)
    if estimates.shape != (runs, n, 2) or not runs:
        raise ValueError("estimates must have shape (runs, n_heads, 2)")
    if not (np.array_equal(hoods, hoods.T) and hoods.diagonal().all()):
        raise ValueError("hoods must be a symmetric (N, N) mask with every head in its own row")
    if scheme == "opt" and np.shape(q) != (runs, n, n):
        raise ValueError("opt scheme needs q, the (runs, N, N) Gram matrices of the operators")

    final, live = estimates.copy(), np.arange(runs)
    epochs, converged = np.zeros(runs, dtype=int), np.zeros(runs, dtype=bool)
    if scheme == "con":
        coeffs = np.broadcast_to(connectivity_weights(hoods), (runs, n, n))
    supports = _support_table(hoods) if scheme == "opt" else None
    for epoch in range(1, max_epochs + 1):
        if scheme == "wei":
            coeffs = median_weights(estimates, hoods, decay_scale)
        elif scheme == "opt" and (epoch == 1 or not optimize_once):
            if epoch > 1:  # Q of the operators combined by the last coefficients
                q = coeffs.transpose(0, 2, 1) @ q @ coeffs
                q = 0.5 * (q + q.transpose(0, 2, 1))
            coeffs = optimal_weights(q, hoods, supports=supports)
        new_estimates = coeffs.transpose(0, 2, 1) @ estimates
        moved = new_estimates - estimates  # squared and summed as np.linalg.norm does
        steps = np.sqrt(np.add.reduce(moved * moved, axis=2)).max(axis=1)
        estimates = new_estimates
        if on_epoch is not None:
            for r, run in enumerate(live.tolist()):
                on_epoch(run, epoch, estimates[r], coeffs[r], float(steps[r]))
        if epoch == max_epochs or any(step <= epsilon for step in steps.tolist()):
            settled = steps <= epsilon  # these runs and, at the cap, all leave the stacks
            stop = settled | (epoch == max_epochs)
            done, keep = live[stop], ~stop
            final[done], epochs[done], converged[done] = estimates[stop], epoch, settled[stop]
            if not keep.any():
                break
            live, estimates, coeffs = live[keep], estimates[keep], coeffs[keep]
            q = q[keep] if scheme == "opt" else q
    for _ in range(np.count_nonzero(~converged)):
        logger.warning("diffusion (%s) did not settle in %d epochs", scheme, max_epochs)
    return Diffused(final, epochs, converged)
