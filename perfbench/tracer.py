"""Per-layer spans and log-warning counts for the locbench benchmark.

The spans are recorded from outside the package: `installed` swaps each
public function for a timing wrapper at the name through which its caller
reaches it (`locbench.bench` for the experiment pipeline,
`locbench.diffusion` for the combination-weight rules called from
`diffuse`, `locbench.cli` for CSV output), and restores the originals on
exit. Spans stay in memory as (label, start, end, parent index) tuples;
the aggregates are computed once, after the timed region.
"""

from __future__ import annotations

import collections
import logging
import time
from contextlib import contextmanager

import numpy as np

# Warnings the package logs, keyed by the start of their format string.
WARNING_METRICS = {
    "median weights underflowed": "diffusion.warn.median_underflow",
    "optimality conditions loose": "diffusion.warn.kkt_loose",
    "indefinite neighborhood matrix": "diffusion.warn.indefinite",
    "diffusion (%s) did not settle": "diffusion.warn.unsettled",
    "global WLS stopped": "estimators.warn.global_unconverged",
}


class WarningCounter(logging.Handler):
    """Counts `locbench` log records by message instead of printing them.

    While installed, the package logger stops propagating, so warnings
    cost no terminal output inside the timed region.
    """

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts = collections.Counter()

    def emit(self, record):
        msg = str(record.msg)
        for prefix, metric in WARNING_METRICS.items():
            if msg.startswith(prefix):
                self.counts[metric] += 1
                return
        self.counts[f"{record.name}.warn.other"] += 1

    @contextmanager
    def installed(self):
        logger = logging.getLogger("locbench")
        propagate = logger.propagate
        logger.addHandler(self)
        logger.propagate = False
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.propagate = propagate


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list = []
        self.counts = collections.Counter()
        self.values = collections.defaultdict(list)
        self._stack = [-1]

    def wrap(self, label, fn, on_result=None, on_error=None):
        """Return fn wrapped in a span.

        label is a string or a function of (args, kwargs) giving one.
        on_result(args, kwargs, result) and on_error(args, kwargs, exc) run
        after the span closes, so their bookkeeping is not charged to it.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def hook(fn, *hook_args):
            # bookkeeping that no longer fits the package's signatures must
            # not fail the program's own call; it is counted instead
            try:
                fn(*hook_args)
            except Exception:
                counts["trace.hook_errors"] += 1

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
                if on_error is not None:
                    hook(on_error, args, kwargs, exc)
                raise
            spans[idx] = (name, start, clock(), parent)
            stack.pop()
            if on_result is not None:
                hook(on_result, args, kwargs, result)
            return result

        return traced

    def layer_times(self):
        """{label: (durations array in seconds, total self time in seconds)}.

        A span's self time is its duration minus that of its direct
        children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = collections.defaultdict(list)
        self_time = collections.defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - child[idx]
        return {
            name: (np.asarray(durations[name]), self_time[name]) for name in durations
        }


def tail_percentile(n: int) -> float:
    """Highest percentile, capped at 99, with at least 10 samples beyond it.

    Below 20 samples no percentile at or above the median qualifies; the
    median is reported then, and the sample count says how little it rests
    on.
    """
    if n < 20:
        return 50.0
    return min(99.0, float(np.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0))


def latency_summary(samples, scale: float):
    """(p50, tail value, tail percentile, n) of samples multiplied by scale."""
    arr = np.asarray(samples, dtype=float) * scale
    n = int(arr.size)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    pct = tail_percentile(n)
    return float(np.median(arr)), float(np.percentile(arr, pct)), pct, n


def _scheme(args, kwargs):
    """The scheme argument of a diffuse call."""
    return args[1] if len(args) > 1 else kwargs["scheme"]


@contextmanager
def installed(tracer: Tracer, pkg):
    """Wrap the layer functions of pkg (the modules run.Package imports)
    in spans for the duration of the block."""
    bench, diffusion, cli = pkg.bench, pkg.diffusion, pkg.cli
    counts = tracer.counts
    values = tracer.values

    def candidates(search):
        if search is not None:
            values["rcrt.candidates"].append(
                sum(len(s) for s in search.candidate_sets.values())
            )

    def crt_result(args, kwargs, result):
        candidates(result[2])

    def crt_error(args, kwargs, exc):
        if isinstance(exc, pkg.rcrt.AmbiguityError):
            counts["rcrt.ambiguous"] += 1
            candidates(exc.search)

    def local_rows(args):
        k, meas, weights = args[0], args[1], args[2]
        counts["local_wls.useful_rows"] += int(np.count_nonzero(weights.column(k)))
        counts["local_wls.rows"] += meas.size

    def local_result(args, kwargs, result):
        local_rows(args)

    def local_error(args, kwargs, exc):
        local_rows(args)
        if isinstance(exc, pkg.estimators.EstimationError):
            counts["local_wls.failed"] += 1

    def diffuse_result(args, kwargs, state):
        scheme = _scheme(args, kwargs)
        values[f"diffuse.{scheme}.epochs"].append(state.epoch)
        counts[f"diffuse.{scheme}.unsettled"] += not state.converged

    targets = [
        (bench, "run_ranging_experiment", "bench.run_ranging_experiment", None, None),
        (bench, "run_localization_experiment", "bench.run_localization_experiment", None, None),
        (bench, "robust_crt_reconstruct", "rcrt.robust_crt_reconstruct", crt_result, crt_error),
        (bench, "simulate_phase_remainders", "signals.simulate_phase_remainders", None, None),
        (bench, "build_grid_network", "geometry.build_grid_network", None, None),
        (bench, "simulate_tdoa_measurements", "signals.simulate_tdoa_measurements", None, None),
        (bench, "build_selection_weights", "estimators.build_selection_weights", None, None),
        (bench, "global_wls", "estimators.global_wls", None, None),
        (bench, "local_wls", "estimators.local_wls", local_result, local_error),
        (bench, "crlb", "estimators.crlb", None, None),
        (bench, "diffuse", lambda a, k: f"diffusion.diffuse.{_scheme(a, k)}", diffuse_result, None),
        (diffusion, "optimal_weights", "diffusion.optimal_weights", None, None),
        (diffusion, "median_weights", "diffusion.median_weights", None, None),
        (cli, "emit_csv", "cli.emit_csv", None, None),
    ]
    saved = []
    try:
        for module, attr, label, on_result, on_error in targets:
            original = getattr(module, attr, None)
            if original is None:  # a layer the package no longer has reads as idle
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(label, original, on_result, on_error))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
