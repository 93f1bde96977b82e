"""The benchmark's workloads, their output checks and their quality figures.

Each workload is a flat config in the format of `configs/*.cfg`, parsed by
the package's own loader. One timed repetition ("rep") runs that config
once through the public API with a seed derived from the workload seed
and the rep index, and writes its CSV the way the command line does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Checked against every rep: the centralized fit may not be worse than
# this many times the Cramer-Rao RMSE. Measured ratios per rep lie near 1;
# 3 leaves room for two-run reps while catching a broken estimator.
GLOBAL_RMSE_FACTOR = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ranging" or "localize"
    config: str  # flat key = value text; its seed is the reference seed
    calibration: str  # host-speed calibration loop, see run.calibrate


# Why each workload exists is recorded in BENCHMARK.json and README.md:
# ranging is the only one that runs the CRT search; localize-op is the
# paper's operating point, dominated by the opt QP and wei median weights;
# localize-scale is dominated by the local fits and never runs the QP or
# the median, so gains there must show nothing.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ranging",
            kind="ranging",
            config="""\
common_factor = 80
coprime_factors = 15, 16, 17
snr_grid_db = 0, 5, 10, 15, 20, 25, 30
trials_per_point = 100
seed = 1
""",
            calibration="small",
        ),
        Workload(
            name="localize-op",
            kind="localize",
            config="""\
n_heads = 16
sensors_per_head = 10
noise_std = 1.0,
decay_scale = 1.0
source = 60, 70
runs = 2
schemes = global, con, wei, opt, local
seed = 1
""",
            calibration="small",
        ),
        Workload(
            name="localize-scale",
            kind="localize",
            config="""\
n_heads = 64
sensors_per_head = 10
noise_std = 1.0,
decay_scale = 1.0
source = 60, 70
runs = 2
schemes = global, con, local
seed = 1
""",
            calibration="rows",
        ),
    )
}


def rep_seed(seed: int, rep: int) -> int:
    """Experiment seed of one rep, a pure function of (seed, rep)."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def rep_ops(kind: str, cfg) -> int:
    """Trials per rep: reconstructions for ranging, Monte-Carlo runs otherwise."""
    if kind == "ranging":
        return cfg.trials_per_point * len(cfg.snr_grid_db)
    return cfg.runs * len(cfg.sweep_values)


def rep_attempts(kind: str, cfg) -> int:
    """Operations per rep that can fail: trials, or runs times schemes."""
    if kind == "ranging":
        return rep_ops(kind, cfg)
    return rep_ops(kind, cfg) * len(cfg.schemes)


def rep_failures(kind: str, records) -> int:
    if kind == "ranging":
        return 0
    return sum(r.fail_count for r in records)


def check_records(kind: str, cfg, records) -> list[str]:
    """Problems with one rep's records; each holds for any seed."""
    if kind == "ranging":
        return _check_ranging(cfg, records)
    return _check_localize(cfg, records)


def _check_ranging(cfg, records) -> list[str]:
    problems = []
    if [r.snr_db for r in records] != list(cfg.snr_grid_db):
        return [f"expected one row per SNR point {cfg.snr_grid_db}, got {len(records)} rows"]
    for r in records:
        cell = f"snr {r.snr_db:g} dB"
        if not 0.0 <= r.ambiguity_rate <= 1.0:
            problems.append(f"{cell}: ambiguity_rate {r.ambiguity_rate} outside [0, 1]")
            continue
        if r.ambiguity_rate < 1.0:
            if not (math.isfinite(r.relative_error) and 0.0 <= r.relative_error <= 1.0):
                problems.append(f"{cell}: relative_error {r.relative_error} outside [0, 1]")
            if not (math.isfinite(r.stderr) and r.stderr >= 0.0):
                problems.append(f"{cell}: stderr {r.stderr} not finite and >= 0")
    return problems


def _check_localize(cfg, records) -> list[str]:
    expected = [(float(v), s) for v in cfg.sweep_values for s in cfg.schemes]
    got = [(float(r.sweep_value), r.scheme) for r in records]
    if got != expected:
        return [f"expected one row per (sweep value, scheme) {expected}, got {got}"]
    problems = []
    for r in records:
        cell = f"{r.scheme} at {r.sweep_value:g}"
        if not 0 <= r.fail_count <= cfg.runs:
            problems.append(f"{cell}: fail_count {r.fail_count} outside [0, {cfg.runs}]")
            continue
        if not (math.isfinite(r.crlb_rmse) and r.crlb_rmse > 0.0):
            problems.append(f"{cell}: crlb_rmse {r.crlb_rmse} not finite and > 0")
            continue
        if r.fail_count == cfg.runs:
            continue
        if not (math.isfinite(r.rmse) and r.rmse >= 0.0):
            problems.append(f"{cell}: rmse {r.rmse} not finite and >= 0")
        if r.scheme in ("global", "local"):
            if r.mean_epochs is not None:
                problems.append(f"{cell}: mean_epochs {r.mean_epochs} for a scheme without diffusion")
        elif r.mean_epochs is None or not 1.0 <= r.mean_epochs <= cfg.max_epochs:
            problems.append(f"{cell}: mean_epochs {r.mean_epochs} outside [1, {cfg.max_epochs}]")
        if r.scheme == "global" and not r.rmse <= GLOBAL_RMSE_FACTOR * r.crlb_rmse:
            problems.append(
                f"{cell}: rmse {r.rmse:.4g} above {GLOBAL_RMSE_FACTOR:g} x crlb_rmse {r.crlb_rmse:.4g}"
            )
    return problems


def quality(kind: str, cfg, reps_records) -> dict[str, float]:
    """Accuracy figures pooled over several reps' records.

    Ranging: share of ambiguous trials and mean relative error over the
    unambiguous ones. Localization: per scheme, pooled RMSE over pooled
    Cramer-Rao RMSE, and mean diffusion epochs.
    """
    if kind == "ranging":
        trials = cfg.trials_per_point
        ambiguous = sum(r.ambiguity_rate * trials for recs in reps_records for r in recs)
        ok = [(r.relative_error, trials * (1.0 - r.ambiguity_rate)) for recs in reps_records for r in recs]
        total = len(reps_records) * trials * len(cfg.snr_grid_db)
        weight = sum(w for _, w in ok)
        return {
            "ambiguity_rate": ambiguous / total,
            "rel_error_mean": sum(e * w for e, w in ok if w > 0) / weight if weight else math.nan,
        }
    out = {}
    crlb_sq = np.mean([r.crlb_rmse**2 for recs in reps_records for r in recs])
    for scheme in cfg.schemes:
        rows = [r for recs in reps_records for r in recs if r.scheme == scheme]
        succ = [cfg.runs - r.fail_count for r in rows]
        n = sum(succ)
        if n == 0:
            continue
        mse = sum(r.rmse**2 * s for r, s in zip(rows, succ) if s) / n
        out[f"rmse_over_crlb.{scheme}"] = math.sqrt(mse / crlb_sq)
        if rows[0].mean_epochs is not None:
            out[f"mean_epochs.{scheme}"] = sum(r.mean_epochs * s for r, s in zip(rows, succ) if s) / n
    return out
