"""Experiment harness: ranging sweeps, localization sweeps, configs, CSV output.

Determinism contract: every trial derives its own random stream from the
experiment seed and the trial's indices, so a (config, seed) pair fully
determines every estimate in the output; a ranging trial's stream is
default_rng([seed, point, trial]) bit for bit. The CSV holds no clock
reading, so replaying a (config, seed) pair reproduces it byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import tempfile
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import diffusion
from .diffusion import SCHEMES as DIFFUSION_SCHEMES
from .estimators import crlb, wls_group, wls_groups
from .geometry import build_grid_network, deployment_center, grid_heads
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

# the localization fields of which exactly one is a sweep list
_SWEEP_AXES = ("n_heads", "sensors_per_head", "noise_std", "decay_scale")

# the remainder errors, wavelength / 2pi times a phase error, must stay far
# inside the float range: below the limit at the noisiest point of the
# grid, and above the floor at its quietest finite point, where a subnormal
# scale would round the errors or flush them to zero
_PHASE_SPAN_LIMIT = 1e300
_PHASE_SPAN_FLOOR = 1e-300

# numpy's SeedSequence hash constants, and the (point, trial) rows whose
# seed words one numpy pass computes and one reconstruct_batch call takes;
# a point of more trials fills aligned blocks, so none straddles 2**32
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_BLOCK = 4096

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
        _check(self)
        ws = make_wavelength_set(self.common_factor, self.coprime_factors)
        object.__setattr__(self, "wavelength_set", ws)
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
    sweep_field: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(float(c) for c in self.source))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        _check(self)
        swept = [name for name in _SWEEP_AXES if isinstance(getattr(self, name), tuple)]
        if len(swept) != 1:
            raise ValueError(
                f"exactly one of {_SWEEP_AXES} must be a sweep list, "
                f"got {swept or 'none'}"
            )
        object.__setattr__(self, "sweep_field", swept[0])
        if not self.sweep_values:
            raise ValueError(f"{swept[0]} must not be an empty sweep list")
        # every run fails on a source at squared distance 0 from a head, exact or underflowed
        for n in self.n_heads if swept == ["n_heads"] else (self.n_heads,):
            gaps = np.sum((grid_heads(n) - self.source) ** 2, axis=1)
            if not gaps.all():
                head = gaps.argmin()
                raise ValueError(f"source {self.source} is head {head} of the {n}-head grid")

    @property
    def sweep_values(self) -> tuple:
        return getattr(self, self.sweep_field)


@dataclass(frozen=True)
class MetricsRecord:
    """One (sweep value, scheme) cell of a localization sweep."""

    sweep_value: float
    scheme: str
    rmse: float
    cpu_time: Optional[float]  # always None: an empty column, kept for the CSV layout
    mean_epochs: Optional[float]
    crlb_rmse: float
    fail_count: int


# ---------------------------------------------------------------------------
# ranging


def run_ranging_experiment(cfg: RangingExperiment) -> list[RangingRecord]:
    """Sweep reconstruction over the SNR grid.

    Each trial draws a dividend uniformly over the unambiguous range and
    then its phase errors; the (point, trial) rows of up to _SEED_BLOCK
    trials, across grid points, are then folded, perturbed and
    reconstructed together, and each records |estimate - truth| / max_range.
    Ambiguous trials (no unique quotient) are counted separately and
    excluded from the error mean. Trial t of grid point p draws from
    default_rng([seed, p, t]) (seeded via _seed_words), so experiments
    sharing a seed share their random draws point for point. A pass holds
    the errors of as many whole points as a block takes, at least one.
    """
    ws, trials = cfg.wavelength_set, cfg.trials_per_point
    sigmas = np.array([phase_noise_std(s) for s in cfg.snr_grid_db])
    per_pass = max(1, _SEED_BLOCK // trials)
    records = []
    for first in range(0, len(cfg.snr_grid_db), per_pass):
        grid = cfg.snr_grid_db[first : first + per_pass]
        # allocated whole before any trial runs: an impossible size fails at once
        errors = np.empty(len(grid) * trials)
        ambiguous = np.empty(errors.size, dtype=bool)
        for start in range(0, errors.size, _SEED_BLOCK):
            stop = min(start + _SEED_BLOCK, errors.size)
            points, trial = np.divmod(np.arange(start, stop, dtype=np.uint64), np.uint64(trials))
            points += np.uint64(first)
            seeds = _SeedWords(_seed_words(cfg.seed, points, trial))
            unit, z = [], np.empty((stop - start, ws.size))
            for row in z:  # each PCG64 takes the next trial's seed words
                rng = np.random.Generator(np.random.PCG64(seeds))
                unit.append(rng.random())
                rng.standard_normal(out=row)
            # uniform(0, max_range) is 0.0 + max_range * random(), and
            # normal(0.0, sigma) is 0.0 + sigma * z, bit for bit; a
            # noiseless point's 0 * z + 0 is +0
            truths = ws.max_range * np.array(unit)
            truths[truths >= ws.max_range] = np.nextafter(ws.max_range, 0.0)  # rounded up
            noisy = simulate_phase_remainders(truths, ws, 0.0 + sigmas[points, None] * z)
            estimates, _, ambiguous[start:stop] = reconstruct_batch(noisy, ws)
            errors[start:stop] = np.abs(estimates - truths) / ws.max_range
        errors, ambiguous = errors.reshape(-1, trials), ambiguous.reshape(-1, trials)
        for snr_db, err, amb in zip(grid, errors, ambiguous):
            err = err[~amb]
            if err.size:
                mean = float(err.mean())
                stderr = float(err.std(ddof=1) / math.sqrt(err.size)) if err.size > 1 else 0.0
            else:
                mean = math.nan
                stderr = math.nan
            records.append(
                RangingRecord(
                    snr_db=snr_db,
                    relative_error=mean,
                    stderr=stderr,
                    ambiguity_rate=int(amb.sum()) / trials,
                )
            )
    return records


class _SeedWords(ISeedSequence):
    """A block's seed words, C-contiguous (T, 4) uint64 rows: each PCG64
    seeded from it takes the next row."""

    def __init__(self, rows: np.ndarray):
        self._rows = iter(rows)

    def generate_state(self, n_words, dtype=np.uint32):
        return next(self._rows)


def _seed_words(seed: int, points: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, p, t]).generate_state(4, np.uint64) as (T, 4)
    rows, for the (T,) uint64 points p and trials t at once, each array of
    one word count: one entropy or pool word per row, in uint32 arithmetic,
    which wraps as numpy's does.
    """
    const, mult = _INIT_A, _MULT_A

    def hashmix(rows):  # each row in turn, with the next hash constant
        nonlocal const
        consts = [const * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(len(rows) + 1)]
        const, column = consts[-1], np.array(consts, np.uint32)[:, None]
        rows = (rows ^ column[:-1]) * column[1:]
        return rows ^ rows >> 16

    def words(n, top):  # little-endian 32-bit words, as many as top has; 0 has one
        return [n >> s & 0xFFFFFFFF for s in range(0, top.bit_length() or 1, 32)]

    rows = words(seed, seed) + words(points, int(points.max())) + words(trials, int(trials.max()))
    entropy = np.zeros((max(len(rows), 4), trials.size), np.uint32)
    for i, row in enumerate(rows):
        entropy[i] = row
    pool = hashmix(entropy[:4])
    # mix each pool word, then each entropy word past the fourth, into the rest
    for src in range(len(entropy)):
        dst = [d for d in range(4) if d != src]
        hashed = hashmix(np.tile(pool[src] if src < 4 else entropy[src], (len(dst), 1)))
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
        pool[dst] = mixed ^ mixed >> 16
    const, mult = _INIT_B, _MULT_B
    state = hashmix(np.tile(pool, (2, 1)))  # pool words 0-3, then 0-3 again
    return np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64, copy=False)


# ---------------------------------------------------------------------------
# localization


def _score_group(cfg, sigma, group, scales, trace_scheme):
    """Fit a wls_groups group of R runs and score the C cfg.schemes at the S
    scales. Returns the (R,) CRLB traces, taken first so that a singular
    one stops the sweep before any fit; (S, R, C) tables of done (False
    where the scheme failed), squared errors and epochs (0 for global and
    local); and each scale's list of each run's trace_scheme (epoch, head,
    x1, x2, max_step) rows. Diffusion runs on the fitted heads' block of
    the mask, in one diffuse call per scheme for the runs that fitted the
    same heads, and for wei, the one scheme that reads the scale, one per
    scale: the others' cells and trace rows hold at every scale. The fit
    lines log before each diffuse call's, and the fits go when the
    function returns.
    """
    source = np.asarray(cfg.source, dtype=float)
    column = {scheme: c for c, scheme in enumerate(cfg.schemes)}
    bounds = np.array([np.trace(crlb(topology, source, meas.variances)) if sigma else 0.0
                       for meas, topology, _ in group])
    fits = wls_group(group, "global" in column, set(column) != {"global"}, "opt" in column)
    shape = (len(scales), len(group), len(column))
    done, errors, epochs = np.zeros(shape, bool), np.zeros(shape), np.zeros(shape, int)
    rows = [[[] for _ in group] for _ in scales]
    if trace_scheme != "wei":  # a scheme that reads no scale traces one list per run
        rows = rows[:1] * len(scales)
    stacks = {}  # the runs by their fitted heads, with those heads' block of the mask
    for r, ((_, topology, _), (position, heads, positions, _)) in enumerate(zip(group, fits)):
        fixed = {}  # the errors that no decay scale changes
        if isinstance(position, np.ndarray):
            fixed["global"] = np.sum((position - source) ** 2)
        if heads.size:
            fixed["local"] = np.sum((positions.mean(axis=0) - source) ** 2)
            hoods = topology.neighborhoods[np.ix_(heads, heads)]
            stacks.setdefault(heads.tobytes(), (hoods, []))[1].append(r)
        for scheme in fixed.keys() & column.keys():
            done[:, r, column[scheme]], errors[:, r, column[scheme]] = True, fixed[scheme]
    schemes = [scheme for scheme in cfg.schemes if scheme in DIFFUSION_SCHEMES]
    for hoods, members in stacks.values():
        _, heads, positions, q = zip(*(fits[r] for r in members))
        positions, q = np.stack(positions), np.stack(q) if "opt" in column else None
        for (s, scale), scheme in itertools.product(enumerate(scales), schemes):
            if s and scheme != "wei":
                continue  # only wei reads the scale: the first scale's cell holds for all

            def on_epoch(i, epoch, estimates, _coeffs, max_step):
                points = zip(heads[i].tolist(), estimates.tolist())
                rows[s][members[i]].extend((epoch, head, *x, max_step) for head, x in points)

            result = diffusion.diffuse(
                positions, scheme, hoods, cfg.epsilon, cfg.max_epochs,
                q=q, decay_scale=scale, optimize_once=cfg.optimize_once,
                on_epoch=on_epoch if scheme == trace_scheme else None,
            )
            cell = s if scheme == "wei" else slice(None), members, column[scheme]
            done[cell], epochs[cell] = True, result.epoch
            errors[cell] = np.mean(np.sum((result.estimates - source) ** 2, axis=2), axis=1)
    return bounds, done, errors, epochs, rows


def _records(cfg, values, bounds, done, errors, epochs):
    """A draw's records from its joined tables: np.means over unfailed runs, in run order."""
    crlb_rmse, records = float(math.sqrt(np.mean(bounds))), []
    for (s, value), (c, scheme) in itertools.product(enumerate(values), enumerate(cfg.schemes)):
        errs, n = errors[s, done[s, :, c], c], epochs[s, done[s, :, c], c]
        rmse = float(math.sqrt(np.mean(errs))) if errs.size else math.nan
        mean_epochs = float(np.mean(n)) if n.size and scheme in DIFFUSION_SCHEMES else None
        fails = cfg.runs - errs.size
        records.append(MetricsRecord(value, scheme, rmse, None, mean_epochs, crlb_rmse, fails))
    return records


def run_localization_experiment(
    cfg: LocalizationExperiment, trace=None
) -> list[MetricsRecord]:
    """Run the configured sweep and aggregate per-scheme metrics.

    A draw of cfg.runs runs is fitted and scored a wls_groups group at a
    time (_score_group); its tables are joined along the run axis and
    reduced to records (_records). A draw is one sweep value, whose runs
    rebuild topology and noise from the stream (seed, sweep index, run), or
    a whole decay_scale sweep, whose runs derive from (seed, run) alone and
    are scored at every value, so the weight scale is compared on frozen noise.

    trace, a csv.writer when given, receives a header and then one
    (trial = sweep index * runs + run, epoch, head, x1, x2, max_step) row
    per epoch and per head whose local fit succeeded, for the first
    diffusion scheme in cfg.schemes: the first scale's rows group by group,
    a decay_scale sweep's later ones as it ends, spooled to a temporary
    file per scale until then.
    """
    frozen = cfg.sweep_field == "decay_scale"
    with_global, with_local = "global" in cfg.schemes, set(cfg.schemes) != {"global"}
    trace_scheme = None
    if trace is not None:
        trace.writerow(["trial", "epoch", "head", "x1", "x2", "max_step"])
        trace_scheme = next((s for s in cfg.schemes if s in DIFFUSION_SCHEMES), None)

    records = []
    for d, value in enumerate((None,) if frozen else cfg.sweep_values):
        n_heads, m, sigma, _ = (value if n == cfg.sweep_field else getattr(cfg, n)
                                for n in _SWEEP_AXES)
        values, scales = (cfg.decay_scale,) * 2 if frozen else ((value,), (cfg.decay_scale,))

        def draw(run):
            rng = np.random.default_rng([cfg.seed, run] if frozen else [cfg.seed, d, run])
            topology = build_grid_network(n_heads, sensors_per_head=m, seed=rng)
            meas = simulate_tdoa_measurements(topology, cfg.source, sigma, rng)
            return meas, topology, deployment_center(topology)

        tables, first = [], d * cfg.runs
        with contextlib.ExitStack() as spooled:
            # each later scale's trace rows wait as CSV text until the draw ends
            spools = [spooled.enter_context(tempfile.TemporaryFile("w+", newline=""))
                      for _ in scales[1:] if trace is not None]
            for group in wls_groups(map(draw, range(cfg.runs)), with_global, with_local):
                *table, rows = _score_group(cfg, sigma, group, scales, trace_scheme)
                tables.append(table)
                if trace is not None:
                    for s, out in enumerate([trace, *map(csv.writer, spools)]):
                        for index, run in enumerate(rows[s], first + s * cfg.runs):
                            out.writerows([_format_cell(c) for c in (index, *row)] for row in run)
                    rows.clear()  # written: the next group is scored without them
                first += len(group)
            for spool in spools:
                spool.seek(0)
                trace.writerows(csv.reader(spool))
        bounds, *per_group = zip(*tables)
        joined = (np.concatenate(table, axis=1) for table in per_group)
        records += _records(cfg, values, np.concatenate(bounds), *joined)
    return records


# ---------------------------------------------------------------------------
# CSV output


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def emit_csv(records: Sequence, path) -> None:
    """Write dataclass records to CSV, one column per field.

    Floats are printed with 9 significant digits and None as an empty
    cell, so replaying a deterministic experiment reproduces the file byte
    for byte. Every experiment returns at least one record, so an empty
    list is an error.
    """
    if not records:
        raise ValueError("no records to write")
    names = [f.name for f in fields(records[0])]
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


# every config key with its reader and the rule its values must meet, a
# text and a predicate (None where the reader or make_wavelength_set checks
# the value), one table per experiment; a key is required unless its field
# has a default, and every value is checked at construction
_KEYS = {
    RangingExperiment: {
        "common_factor": (float, None, None),
        "coprime_factors": (_listed(int), None, None),
        # a finite point must keep its linear SNR 10**(s/10), and twice that,
        # inside the float range (up to about 3080 dB each way); inf is noiseless
        "snr_grid_db": (
            _listed(float),
            "a non-empty, strictly increasing list of points in [-3000, 3000] dB or inf",
            lambda v: bool(v)
            and all(-3000.0 <= s <= 3000.0 or s == math.inf for s in v)
            and all(a < b for a, b in zip(v, v[1:])),
        ),
        "trials_per_point": (int, "at least 1", lambda v: v >= 1),
        "seed": (int, "at least 0", lambda v: v >= 0),
    },
    LocalizationExperiment: {
        # one head's only start point, the deployment center, is that head,
        # a node of its own rows: every scheme would fail every run
        "n_heads": (
            _sweepable(int),
            "a perfect square of at least 4",
            lambda v: v >= 4 and math.isqrt(int(v)) ** 2 == v,
        ),
        "sensors_per_head": (_sweepable(int), "at least 1", lambda v: v >= 1),
        # the fits sum the reciprocal of the variance noise_std**2 over every
        # measurement, so a nonzero one must stay far inside the float range
        "noise_std": (
            _sweepable(float),
            "0 or between 1e-150 and 1e150",
            lambda v: v == 0 or 1e-150 <= v <= 1e150,
        ),
        "decay_scale": (_sweepable(float), "above 0", lambda v: v > 0),
        # from about 1e10 out, some 4- to 16-head runs' Fisher information is singular
        "source": (
            _listed(float),
            "two coordinates at most 1e9 in magnitude (a farther one is too far:"
            " a fit gets a bearing but no range)",
            lambda v: len(v) == 2 and all(abs(c) <= 1e9 for c in v),
        ),
        "runs": (int, "at least 1", lambda v: v >= 1),
        "schemes": (
            _listed(str),
            f"a non-empty list of distinct names from {ALL_SCHEMES}",
            lambda v: bool(v) and len(set(v)) == len(v) and set(v) <= set(ALL_SCHEMES),
        ),
        "seed": (int, "at least 0", lambda v: v >= 0),
        "epsilon": (float, "above 0 and finite", lambda v: 0 < v < math.inf),
        "max_epochs": (int, "at least 1", lambda v: v >= 1),
        "optimize_once": (_parse_bool, None, None),
    },
}


def _check(cfg) -> None:
    """Hold every value of cfg to its key's rule, each sweep value on its own."""
    for name, (_, rule, admits) in _KEYS[type(cfg)].items():
        value = getattr(cfg, name)
        swept = name in _SWEEP_AXES and isinstance(value, tuple)
        for v in value if swept else (value,):
            if rule is not None and not admits(v):
                raise ValueError(f"{name} must be {rule}, got {v}")


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
                values[f.name] = _KEYS[cls][f.name][0](entries.pop(f.name))
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
