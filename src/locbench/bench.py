"""Experiment harness: ranging sweeps, localization sweeps, configs, CSV output.

Determinism contract: every trial derives its own random stream from the
experiment seed and the trial's indices, so a (config, seed) pair fully
determines every estimate in the output. Wall-clock timing is optional and
off by default, keeping the emitted CSV byte-stable across replays.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .diffusion import SCHEMES as DIFFUSION_SCHEMES
from .diffusion import DiffusionState, diffuse
from .estimators import (
    EstimationError,
    LocalEstimate,
    build_selection_weights,
    crlb,
    global_wls,
    local_wls,
)
from .geometry import NetworkTopology, build_grid_network, deployment_center
from .rcrt import make_wavelength_set, reconstruct_batch
from .signals import MeasurementSet, simulate_phase_remainders, simulate_tdoa_measurements

__all__ = [
    "ALL_SCHEMES",
    "LocalizationExperiment",
    "MetricsRecord",
    "RangingExperiment",
    "RangingRecord",
    "emit_csv",
    "load_localization_experiment",
    "load_ranging_experiment",
    "parse_flat_config",
    "run_localization_experiment",
    "run_ranging_experiment",
]

GRID_SPACING = 50.0
PLACEMENT_RADIUS = 10.0
NEIGHBOR_RADIUS = 55.0

ALL_SCHEMES = ("global",) + DIFFUSION_SCHEMES + ("local",)

# the sweepable fields, each with the values it admits; every value is
# checked at construction, before any trial runs
_SWEEPABLE = {
    "n_heads": (
        "a perfect square of at least 1",
        lambda v: v >= 1 and math.isqrt(int(v)) ** 2 == v,
    ),
    "sensors_per_head": ("at least 1", lambda v: v >= 1),
    "noise_std": ("at least 0", lambda v: v >= 0),
    "decay_scale": ("above 0", lambda v: v > 0),
}


# ---------------------------------------------------------------------------
# experiment descriptions


@dataclass(frozen=True)
class RangingExperiment:
    """Reconstruction error sweep over signal-to-noise ratios."""

    common_factor: float
    coprime_factors: tuple[int, ...]
    snr_grid_db: tuple[float, ...]
    trials_per_point: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "coprime_factors", tuple(self.coprime_factors))
        object.__setattr__(
            self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db)
        )
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")
        if any(a >= b for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class RangingRecord:
    """One grid point: mean relative error over unambiguous trials."""

    snr_db: float
    relative_error: float
    stderr: float
    ambiguity_rate: float


@dataclass(frozen=True)
class LocalizationExperiment:
    """Localization sweep; exactly one field among n_heads,
    sensors_per_head, noise_std and decay_scale must be a tuple of sweep
    values, the rest stay scalar."""

    n_heads: Union[int, tuple[int, ...]]
    sensors_per_head: Union[int, tuple[int, ...]]
    noise_std: Union[float, tuple[float, ...]]
    decay_scale: Union[float, tuple[float, ...]]
    source: tuple[float, float]
    runs: int
    schemes: tuple[str, ...]
    seed: int
    epsilon: float = 1e-4
    max_epochs: int = 500
    optimize_once: bool = False
    timing: bool = False

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(float(c) for c in self.source))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if len(self.source) != 2:
            raise ValueError("source must have two coordinates")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if not self.schemes:
            raise ValueError("schemes must not be empty")
        for s in self.schemes:
            if s not in ALL_SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; choose from {ALL_SCHEMES}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("schemes must not repeat")
        swept = [name for name in _SWEEPABLE if isinstance(getattr(self, name), tuple)]
        if len(swept) != 1:
            raise ValueError(
                f"exactly one of {tuple(_SWEEPABLE)} must be a sweep list, "
                f"got {swept or 'none'}"
            )
        for name, (rule, admits) in _SWEEPABLE.items():
            values = getattr(self, name)
            for v in values if isinstance(values, tuple) else (values,):
                if not admits(v):
                    raise ValueError(f"{name} must be {rule}, got {v}")
        if not all(math.isfinite(c) for c in self.source):
            raise ValueError(f"source must be finite, got {self.source}")
        # squared distances to every node must stay finite: sensors lie
        # within PLACEMENT_RADIUS of the largest grid's box
        heads = self.n_heads if isinstance(self.n_heads, tuple) else (self.n_heads,)
        hi = GRID_SPACING * (math.isqrt(max(heads)) - 1) + PLACEMENT_RADIUS
        reach = [max(c + PLACEMENT_RADIUS, hi - c) for c in self.source]
        if not math.isfinite(sum(d * d for d in reach)):
            raise ValueError(
                f"source {self.source} is too far from the deployment: "
                "its squared distance overflows"
            )

    @property
    def sweep_field(self) -> str:
        for name in _SWEEPABLE:
            if isinstance(getattr(self, name), tuple):
                return name
        raise AssertionError("validated at construction")

    @property
    def sweep_values(self) -> tuple:
        return getattr(self, self.sweep_field)


@dataclass(frozen=True)
class MetricsRecord:
    """One (sweep value, scheme) cell of a localization sweep."""

    sweep_value: float
    scheme: str
    rmse: float
    cpu_time: Optional[float]
    mean_epochs: Optional[float]
    crlb_rmse: float
    fail_count: int


# ---------------------------------------------------------------------------
# ranging


def run_ranging_experiment(cfg: RangingExperiment) -> list[RangingRecord]:
    """Sweep reconstruction over the SNR grid.

    Each trial draws a dividend uniformly over the unambiguous range and
    perturbs its remainders with phase noise; the trials of one grid point
    are then reconstructed together, and each records
    |estimate - truth| / max_range. Ambiguous trials (no unique quotient)
    are counted separately and excluded from the error mean. Trial streams
    are derived from (seed, grid index, trial index) only, so experiments
    sharing a seed share their random draws point for point.
    """
    ws = make_wavelength_set(cfg.common_factor, cfg.coprime_factors)
    truths = np.empty(cfg.trials_per_point)
    noisy = np.empty((cfg.trials_per_point, ws.size))
    records = []
    for p_idx, snr_db in enumerate(cfg.snr_grid_db):
        for t_idx in range(cfg.trials_per_point):
            rng = np.random.default_rng([cfg.seed, p_idx, t_idx])
            r = float(rng.uniform(0.0, ws.max_range))
            if r >= ws.max_range:  # float rounding at the upper edge
                r = float(np.nextafter(ws.max_range, 0.0))
            truths[t_idx] = r
            noisy[t_idx] = simulate_phase_remainders(r, ws, snr_db, rng)
        estimates, _, ambiguous = reconstruct_batch(noisy, ws)
        solved = ~ambiguous
        errors = np.abs(estimates[solved] - truths[solved]) / ws.max_range
        if errors.size:
            mean = float(errors.mean())
            stderr = (
                float(errors.std(ddof=1) / math.sqrt(errors.size))
                if errors.size > 1
                else 0.0
            )
        else:
            mean = math.nan
            stderr = math.nan
        records.append(
            RangingRecord(
                snr_db=snr_db,
                relative_error=mean,
                stderr=stderr,
                ambiguity_rate=int(ambiguous.sum()) / cfg.trials_per_point,
            )
        )
    return records


# ---------------------------------------------------------------------------
# localization


@dataclass
class _Trial:
    topology: NetworkTopology
    meas: MeasurementSet
    source: np.ndarray
    global_pos: Optional[np.ndarray]
    global_time: float
    local_estimates: list[LocalEstimate]  # the heads whose fit succeeded
    local_time: float
    crlb_trace: float


def _prepare_trial(n_heads, sensors_per_head, sigma, source, rng) -> _Trial:
    topology = build_grid_network(
        n_heads,
        GRID_SPACING,
        sensors_per_head,
        PLACEMENT_RADIUS,
        NEIGHBOR_RADIUS,
        seed=rng,
    )
    meas = simulate_tdoa_measurements(topology, source, sigma, rng)
    weights = build_selection_weights(topology)
    init = deployment_center(topology)

    t0 = time.process_time()
    try:
        global_pos = global_wls(meas, topology, init)
    except EstimationError:
        global_pos = None
    global_time = time.process_time() - t0

    locals_: list[LocalEstimate] = []
    t0 = time.process_time()
    for k in range(topology.n_heads):
        try:
            locals_.append(local_wls(k, meas, weights, topology, init))
        except EstimationError:
            pass
    local_time = time.process_time() - t0

    if sigma > 0:
        crlb_trace = float(np.trace(crlb(topology, source, sigma * sigma)))
    else:
        crlb_trace = 0.0
    return _Trial(
        topology=topology,
        meas=meas,
        source=np.asarray(source, dtype=float),
        global_pos=global_pos,
        global_time=global_time,
        local_estimates=locals_,
        local_time=local_time,
        crlb_trace=crlb_trace,
    )


def _run_scheme(
    scheme: str,
    trial: _Trial,
    cfg: LocalizationExperiment,
    decay_scale: float,
    on_epoch=None,
):
    """Returns (squared_error, epochs, seconds) or None when the scheme fails.

    Diffusion runs on the heads whose local fit succeeded, over the
    sub-network they induce; on_epoch sees their rows in head order.
    """
    if scheme == "global":
        if trial.global_pos is None:
            return None
        err = float(np.sum((trial.global_pos - trial.source) ** 2))
        return err, None, trial.global_time

    if not trial.local_estimates:
        return None

    t0 = time.process_time()
    points = np.array([le.position for le in trial.local_estimates])
    if scheme == "local":
        center = points.mean(axis=0)
        dt = time.process_time() - t0
        err = float(np.sum((center - trial.source) ** 2))
        return err, None, trial.local_time + dt

    fitted = [le.head for le in trial.local_estimates]
    full = trial.topology
    topology = NetworkTopology(
        heads=full.heads[fitted],
        sensors=full.sensors[fitted],
        adjacency=full.adjacency[np.ix_(fitted, fitted)],
    )
    operators = np.array([le.operator for le in trial.local_estimates])
    state = diffuse(
        DiffusionState(estimates=points, operators=operators),
        scheme,
        cfg.epsilon,
        cfg.max_epochs,
        topology,
        variances=trial.meas.variances,
        decay_scale=decay_scale,
        optimize_once=cfg.optimize_once,
        on_epoch=on_epoch,
    )
    dt = time.process_time() - t0
    offsets = state.estimates - trial.source
    err = float(np.mean(np.sum(offsets**2, axis=1)))
    return err, state.epoch, trial.local_time + dt


def run_localization_experiment(
    cfg: LocalizationExperiment,
    trace_writer: Optional[Callable[[int, int, int, float, float, float], None]] = None,
) -> list[MetricsRecord]:
    """Run the configured sweep and aggregate per-scheme metrics.

    Every run rebuilds topology and noise from the stream
    (seed, sweep index, run). A decay_scale sweep is the exception: its
    trials derive from (seed, run) alone and are shared across the grid,
    so the combination-weight scale is compared on frozen noise.

    trace_writer, when given, receives (trial, epoch, head, x1, x2,
    max_step) rows for the first diffusion scheme listed in cfg.schemes,
    one per head whose local fit succeeded.
    """
    sweep_name = cfg.sweep_field
    source = np.asarray(cfg.source, dtype=float)
    trace_scheme = None
    if trace_writer is not None:
        trace_scheme = next((s for s in cfg.schemes if s in DIFFUSION_SCHEMES), None)
    trace_count = 0

    base = {
        "n_heads": cfg.n_heads,
        "sensors_per_head": cfg.sensors_per_head,
        "noise_std": cfg.noise_std,
        "decay_scale": cfg.decay_scale,
    }
    records = []
    # a decay_scale sweep reuses each run's trial at every sweep value
    frozen = sweep_name == "decay_scale"
    cache: dict[int, _Trial] = {}
    for s_idx, value in enumerate(cfg.sweep_values):
        params = dict(base)
        params[sweep_name] = value
        sq_errors: dict[str, list[float]] = {s: [] for s in cfg.schemes}
        epochs: dict[str, list[int]] = {s: [] for s in cfg.schemes}
        seconds: dict[str, list[float]] = {s: [] for s in cfg.schemes}
        fails: dict[str, int] = {s: 0 for s in cfg.schemes}
        crlb_traces = []
        for run in range(cfg.runs):
            trial = cache.get(run)
            if trial is None:
                stream = [cfg.seed, run] if frozen else [cfg.seed, s_idx, run]
                trial = _prepare_trial(
                    params["n_heads"],
                    params["sensors_per_head"],
                    params["noise_std"],
                    source,
                    np.random.default_rng(stream),
                )
                if frozen:
                    cache[run] = trial
            crlb_traces.append(trial.crlb_trace)
            for scheme in cfg.schemes:
                on_epoch = None
                if scheme == trace_scheme:
                    trial_idx = trace_count
                    trace_count += 1
                    heads = [le.head for le in trial.local_estimates]

                    def on_epoch(epoch, estimates, _coeffs, max_step, _t=trial_idx, _h=heads):
                        for row, head in enumerate(_h):
                            trace_writer(
                                _t,
                                epoch,
                                head,
                                float(estimates[row, 0]),
                                float(estimates[row, 1]),
                                max_step,
                            )

                outcome = _run_scheme(
                    scheme, trial, cfg, params["decay_scale"], on_epoch
                )
                if outcome is None:
                    fails[scheme] += 1
                    continue
                err, n_epochs, dt = outcome
                sq_errors[scheme].append(err)
                seconds[scheme].append(dt)
                if n_epochs is not None:
                    epochs[scheme].append(n_epochs)
        crlb_rmse = float(math.sqrt(np.mean(crlb_traces)))
        for scheme in cfg.schemes:
            errs = sq_errors[scheme]
            rmse = float(math.sqrt(np.mean(errs))) if errs else math.nan
            mean_epochs = float(np.mean(epochs[scheme])) if epochs[scheme] else None
            cpu = float(np.mean(seconds[scheme])) if cfg.timing and seconds[scheme] else None
            records.append(
                MetricsRecord(
                    sweep_value=value,
                    scheme=scheme,
                    rmse=rmse,
                    cpu_time=cpu,
                    mean_epochs=mean_epochs,
                    crlb_rmse=crlb_rmse,
                    fail_count=fails[scheme],
                )
            )
    return records


# ---------------------------------------------------------------------------
# CSV output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(records: Sequence, path, record_type=None) -> None:
    """Write dataclass records to CSV, one column per field.

    Floats are printed with 9 significant digits and None as an empty
    cell, so replaying a deterministic experiment reproduces the file byte
    for byte. record_type supplies the header when records is empty.
    """
    if records:
        record_type = type(records[0])
    if record_type is None:
        raise ValueError("record_type is required for an empty record list")
    names = [f.name for f in fields(record_type)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for rec in records:
            writer.writerow([_format_cell(getattr(rec, name)) for name in names])


# ---------------------------------------------------------------------------
# config files


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blank lines skipped."""
    entries: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {number}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {number}: empty key")
        if key in entries:
            raise ValueError(f"line {number}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _split_list(value: str) -> list[str]:
    parts = [p.strip() for p in value.split(",")]
    return [p for p in parts if p]


def _parse_scalar_or_tuple(value: str, convert):
    if "," in value:
        return tuple(convert(p) for p in _split_list(value))
    return convert(value)


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


_MISSING = object()


def _take(entries: dict[str, str], key: str, convert, default=_MISSING):
    if key in entries:
        raw = entries.pop(key)
        try:
            return convert(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    if default is _MISSING:
        raise ValueError(f"missing config key {key!r}")
    return default


def _reject_unknown(entries: dict[str, str]) -> None:
    if entries:
        unknown = ", ".join(sorted(entries))
        raise ValueError(f"unknown config keys: {unknown}")


def load_ranging_experiment(path, seed_override: Optional[int] = None) -> RangingExperiment:
    """Load a RangingExperiment from a flat key-value file."""
    with open(path) as fh:
        entries = parse_flat_config(fh.read())
    cfg = RangingExperiment(
        common_factor=_take(entries, "common_factor", float),
        coprime_factors=_take(
            entries, "coprime_factors", lambda v: tuple(int(p) for p in _split_list(v))
        ),
        snr_grid_db=_take(
            entries, "snr_grid_db", lambda v: tuple(float(p) for p in _split_list(v))
        ),
        trials_per_point=_take(entries, "trials_per_point", int),
        seed=seed_override if seed_override is not None else _take(entries, "seed", int),
    )
    if seed_override is not None:
        entries.pop("seed", None)
    _reject_unknown(entries)
    return cfg


def load_localization_experiment(
    path, seed_override: Optional[int] = None
) -> LocalizationExperiment:
    """Load a LocalizationExperiment from a flat key-value file."""
    with open(path) as fh:
        entries = parse_flat_config(fh.read())
    cfg = LocalizationExperiment(
        n_heads=_take(entries, "n_heads", lambda v: _parse_scalar_or_tuple(v, int)),
        sensors_per_head=_take(
            entries, "sensors_per_head", lambda v: _parse_scalar_or_tuple(v, int)
        ),
        noise_std=_take(entries, "noise_std", lambda v: _parse_scalar_or_tuple(v, float)),
        decay_scale=_take(
            entries, "decay_scale", lambda v: _parse_scalar_or_tuple(v, float)
        ),
        source=_take(entries, "source", lambda v: tuple(float(p) for p in _split_list(v))),
        runs=_take(entries, "runs", int),
        schemes=_take(entries, "schemes", lambda v: tuple(_split_list(v))),
        seed=seed_override if seed_override is not None else _take(entries, "seed", int),
        epsilon=_take(entries, "epsilon", float, default=1e-4),
        max_epochs=_take(entries, "max_epochs", int, default=500),
        optimize_once=_take(entries, "optimize_once", _parse_bool, default=False),
        timing=_take(entries, "timing", _parse_bool, default=False),
    )
    if seed_override is not None:
        entries.pop("seed", None)
    _reject_unknown(entries)
    return cfg
