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
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence, Union

import numpy as np

from .diffusion import SCHEMES as DIFFUSION_SCHEMES
from .diffusion import diffuse
from .estimators import (
    EstimationError,
    build_selection_weights,
    crlb,
    global_wls,
    local_wls_batch,
)
from .geometry import GRID_SPACING, PLACEMENT_RADIUS, build_grid_network, deployment_center
from .rcrt import WavelengthSet, make_wavelength_set, reconstruct_batch
from .signals import TWO_PI, phase_noise_std, simulate_phase_remainders
from .signals import simulate_tdoa_measurements

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

ALL_SCHEMES = ("global",) + DIFFUSION_SCHEMES + ("local",)

# the sweepable fields, each with the values it admits; every value is
# checked at construction, before any trial runs
_SWEEPABLE = {
    # one head's only start point, the deployment center, is that head, a
    # node of its own rows: every scheme would fail every run
    "n_heads": (
        "a perfect square of at least 4",
        lambda v: v >= 4 and math.isqrt(int(v)) ** 2 == v,
    ),
    "sensors_per_head": ("at least 1", lambda v: v >= 1),
    # the fits sum the reciprocal of the variance noise_std**2 over every
    # measurement, so a nonzero one must stay far inside the float range
    "noise_std": (
        "0 or between 1e-150 and 1e150",
        lambda v: v == 0 or 1e-150 <= v <= 1e150,
    ),
    "decay_scale": ("above 0", lambda v: v > 0),
}

# a finite SNR point must keep its linear SNR 10**(s/10), and twice that,
# inside the float range (up to about 3080 dB each way); inf is noiseless
_SNR_LIMIT_DB = 3000.0
# the remainder errors, wavelength / 2pi times a phase error, must stay far
# inside the float range: below the limit at the noisiest point of the
# grid, and above the floor at its quietest finite point, where a subnormal
# scale would round the errors or flush them to zero
_PHASE_SPAN_LIMIT = 1e300
_PHASE_SPAN_FLOOR = 1e-300
# reconstruct_batch's temporaries grow with its block (about 400 bytes a
# trial at three wavelengths), so a ranging point is reconstructed in
# slices of this many trials; a trial's row does not depend on its slice
_RECONSTRUCT_ROWS = 4096


# ---------------------------------------------------------------------------
# experiment descriptions


@dataclass(frozen=True)
class RangingExperiment:
    """Reconstruction error sweep over signal-to-noise ratios; the
    wavelength set is built at construction, so bad factors fail there."""

    common_factor: float
    coprime_factors: tuple[int, ...]
    snr_grid_db: tuple[float, ...]
    trials_per_point: int
    seed: int
    wavelength_set: WavelengthSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coprime_factors", tuple(self.coprime_factors))
        object.__setattr__(
            self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db)
        )
        ws = make_wavelength_set(self.common_factor, self.coprime_factors)
        object.__setattr__(self, "wavelength_set", ws)
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must not be empty")
        for s in self.snr_grid_db:
            if not (-_SNR_LIMIT_DB <= s <= _SNR_LIMIT_DB or s == math.inf):
                raise ValueError(
                    f"snr_grid_db points must lie in [-{_SNR_LIMIT_DB:g}, "
                    f"{_SNR_LIMIT_DB:g}] dB or be inf, got {s}"
                )
        if any(a >= b for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        longest = float(ws.wavelengths.max())
        span = longest / TWO_PI * phase_noise_std(self.snr_grid_db[0])
        if span > _PHASE_SPAN_LIMIT:
            raise ValueError(
                f"the largest wavelength {longest:g} / 2pi times the phase noise "
                f"std at the lowest snr_grid_db point {self.snr_grid_db[0]:g} dB "
                f"is {span:g}, above {_PHASE_SPAN_LIMIT:g}"
            )
        finite = [s for s in self.snr_grid_db if s != math.inf]
        if finite:
            shortest = float(ws.wavelengths.min())
            span = shortest / TWO_PI * phase_noise_std(finite[-1])
            if span < _PHASE_SPAN_FLOOR:
                raise ValueError(
                    f"the smallest wavelength {shortest:g} / 2pi times the phase "
                    f"noise std at the highest finite snr_grid_db point "
                    f"{finite[-1]:g} dB is {span:g}, below {_PHASE_SPAN_FLOOR:g}"
                )
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
    then its phase errors; the trials of one grid point are then folded and
    perturbed together and reconstructed in fixed slices, and each records
    |estimate - truth| / max_range. Ambiguous trials (no unique quotient)
    are counted separately and excluded from the error mean. Trial streams
    are derived from (seed, grid index, trial index) only, so experiments
    sharing a seed share their random draws point for point.
    """
    ws = cfg.wavelength_set
    truths = np.empty(cfg.trials_per_point)
    phase_errors = np.empty((cfg.trials_per_point, ws.size))
    records = []
    for p_idx, snr_db in enumerate(cfg.snr_grid_db):
        sigma_phi = phase_noise_std(snr_db)
        for t_idx in range(cfg.trials_per_point):
            rng = np.random.default_rng([cfg.seed, p_idx, t_idx])
            r = float(rng.uniform(0.0, ws.max_range))
            if r >= ws.max_range:  # float rounding at the upper edge
                r = float(np.nextafter(ws.max_range, 0.0))
            truths[t_idx] = r
            # a noiseless point draws zeros: 0 * z + 0 is +0
            phase_errors[t_idx] = rng.normal(0.0, sigma_phi, size=ws.size)
        noisy = simulate_phase_remainders(truths, ws, phase_errors)
        estimates = np.empty(cfg.trials_per_point)
        ambiguous = np.empty(cfg.trials_per_point, dtype=bool)
        for start in range(0, cfg.trials_per_point, _RECONSTRUCT_ROWS):
            rows = slice(start, start + _RECONSTRUCT_ROWS)
            estimates[rows], _, ambiguous[rows] = reconstruct_batch(noisy[rows], ws)
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
    source: np.ndarray
    global_pos: Optional[np.ndarray]
    global_time: float
    # the heads whose local fit succeeded: (F,) ids, (F, 2) positions and
    # (F, 2, K) operators, as local_wls_batch returns them, and the (F, F)
    # block of the neighborhood mask that diffusion runs on
    heads: np.ndarray
    positions: np.ndarray
    operators: np.ndarray
    hoods: np.ndarray
    variances: np.ndarray
    local_time: float
    crlb_trace: float


def _prepare_trial(n_heads, sensors_per_head, sigma, source, rng, fit_global) -> _Trial:
    """One run's trial; the global fit (no random draws) runs if fit_global."""
    topology = build_grid_network(n_heads, sensors_per_head=sensors_per_head, seed=rng)
    meas = simulate_tdoa_measurements(topology, source, sigma, rng)
    selection = build_selection_weights(topology)
    init = deployment_center(topology)

    global_pos, global_time = None, 0.0
    if fit_global:
        t0 = time.process_time()
        try:
            global_pos = global_wls(meas, topology, init)
        except EstimationError:
            pass
        global_time = time.process_time() - t0

    t0 = time.process_time()
    heads, positions, operators = local_wls_batch(meas, selection, topology, init)
    local_time = time.process_time() - t0

    if sigma > 0:
        crlb_trace = float(np.trace(crlb(topology, source, sigma * sigma)))
    else:
        crlb_trace = 0.0
    return _Trial(
        source=np.asarray(source, dtype=float),
        global_pos=global_pos,
        global_time=global_time,
        heads=heads,
        positions=positions,
        operators=operators,
        hoods=topology.neighborhoods[np.ix_(heads, heads)],
        variances=meas.variances,
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

    Diffusion runs on the heads whose local fit succeeded, over their block
    of the neighborhood mask; on_epoch sees their rows in head order.
    """
    if scheme == "global":
        if trial.global_pos is None:
            return None
        err = float(np.sum((trial.global_pos - trial.source) ** 2))
        return err, None, trial.global_time

    if not trial.heads.size:
        return None

    t0 = time.process_time()
    if scheme == "local":
        center = trial.positions.mean(axis=0)
        dt = time.process_time() - t0
        err = float(np.sum((center - trial.source) ** 2))
        return err, None, trial.local_time + dt

    result = diffuse(
        trial.positions,
        scheme,
        trial.hoods,
        cfg.epsilon,
        cfg.max_epochs,
        operators=trial.operators,
        variances=trial.variances,
        decay_scale=decay_scale,
        optimize_once=cfg.optimize_once,
        on_epoch=on_epoch,
    )
    dt = time.process_time() - t0
    offsets = result.estimates - trial.source
    err = float(np.mean(np.sum(offsets**2, axis=1)))
    return err, result.epoch, trial.local_time + dt


def run_localization_experiment(
    cfg: LocalizationExperiment, trace=None
) -> list[MetricsRecord]:
    """Run the configured sweep and aggregate per-scheme metrics.

    Every run rebuilds topology and noise from the stream
    (seed, sweep index, run). A decay_scale sweep is the exception: its
    trials derive from (seed, run) alone and are shared across the grid,
    so the combination-weight scale is compared on frozen noise.

    trace, a csv.writer when given, receives a header and then one
    (trial, epoch, head, x1, x2, max_step) row per epoch and per head whose
    local fit succeeded, for the first diffusion scheme in cfg.schemes.
    """
    sweep_name = cfg.sweep_field
    source = np.asarray(cfg.source, dtype=float)
    trace_scheme = None
    if trace is not None:
        trace.writerow(["trial", "epoch", "head", "x1", "x2", "max_step"])
        trace_scheme = next((s for s in cfg.schemes if s in DIFFUSION_SCHEMES), None)

    def on_epoch(epoch, estimates, _coeffs, max_step):
        # called from the run loop below, on its current s_idx, run and
        # trial; the traced scheme runs once per (sweep value, run)
        index = s_idx * cfg.runs + run
        trace.writerows(
            [index, epoch, head, f"{x1:.9g}", f"{x2:.9g}", f"{max_step:.9g}"]
            for head, (x1, x2) in zip(trial.heads.tolist(), estimates.tolist())
        )

    records = []
    # a decay_scale sweep reuses each run's trial at every sweep value
    frozen = sweep_name == "decay_scale"
    cache: dict[int, _Trial] = {}
    for s_idx, value in enumerate(cfg.sweep_values):
        params = {n: value if n == sweep_name else getattr(cfg, n) for n in _SWEEPABLE}
        # each scheme's _run_scheme outcome of every run, None where it failed
        outcomes: dict[str, list] = {s: [] for s in cfg.schemes}
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
                    fit_global="global" in cfg.schemes,
                )
                if frozen:
                    cache[run] = trial
            crlb_traces.append(trial.crlb_trace)
            for scheme in cfg.schemes:
                traced = on_epoch if scheme == trace_scheme else None
                outcomes[scheme].append(
                    _run_scheme(scheme, trial, cfg, params["decay_scale"], traced)
                )
        crlb_rmse = float(math.sqrt(np.mean(crlb_traces)))
        for scheme in cfg.schemes:
            done = [o for o in outcomes[scheme] if o is not None]
            errs = [err for err, _, _ in done]
            epochs = [n for _, n, _ in done if n is not None]
            rmse = float(math.sqrt(np.mean(errs))) if errs else math.nan
            mean_epochs = float(np.mean(epochs)) if epochs else None
            cpu = float(np.mean([dt for _, _, dt in done])) if cfg.timing and done else None
            records.append(
                MetricsRecord(
                    sweep_value=value,
                    scheme=scheme,
                    rmse=rmse,
                    cpu_time=cpu,
                    mean_epochs=mean_epochs,
                    crlb_rmse=crlb_rmse,
                    fail_count=len(outcomes[scheme]) - len(done),
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


def _listed(convert):
    """A reader of a comma list of convert's values; empty items are dropped."""
    return lambda value: tuple(convert(p) for p in map(str.strip, value.split(",")) if p)


def _sweepable(convert):
    """A reader of one value, or of a comma list: the sweep axis."""
    return lambda value: _listed(convert)(value) if "," in value else convert(value)


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# every config key with its reader, one table per experiment; a key is
# required unless its field has a default
_KEYS = {
    RangingExperiment: {
        "common_factor": float,
        "coprime_factors": _listed(int),
        "snr_grid_db": _listed(float),
        "trials_per_point": int,
        "seed": int,
    },
    LocalizationExperiment: {
        "n_heads": _sweepable(int),
        "sensors_per_head": _sweepable(int),
        "noise_std": _sweepable(float),
        "decay_scale": _sweepable(float),
        "source": _listed(float),
        "runs": int,
        "schemes": _listed(str),
        "seed": int,
        "epsilon": float,
        "max_epochs": int,
        "optimize_once": _parse_bool,
        "timing": _parse_bool,
    },
}


def _load(cls, path, seed_override: Optional[int]):
    """Read the keys in field order, construct (which validates), then
    reject the keys left over. A seed override replaces the file's seed
    before anything is read."""
    with open(path) as fh:
        entries = parse_flat_config(fh.read())
    if seed_override is not None:
        entries["seed"] = str(seed_override)
    values = {}
    for f in (f for f in fields(cls) if f.init):
        if f.name in entries:
            try:
                values[f.name] = _KEYS[cls][f.name](entries.pop(f.name))
            except ValueError as exc:
                raise ValueError(f"config key {f.name!r}: {exc}") from exc
        elif f.default is MISSING:
            raise ValueError(f"missing config key {f.name!r}")
    cfg = cls(**values)
    if entries:
        raise ValueError(f"unknown config keys: {', '.join(sorted(entries))}")
    return cfg


def load_ranging_experiment(path, seed_override: Optional[int] = None) -> RangingExperiment:
    """Load a RangingExperiment from a flat key-value file."""
    return _load(RangingExperiment, path, seed_override)


def load_localization_experiment(
    path, seed_override: Optional[int] = None
) -> LocalizationExperiment:
    """Load a LocalizationExperiment from a flat key-value file."""
    return _load(LocalizationExperiment, path, seed_override)
