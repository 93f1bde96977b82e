"""Closed-loop throughput benchmark for locbench.

One process drives the package's public API. It loads a workload config
with the package's own loader, runs it once at the config's own seed and
compares that CSV's sha256 with `reference.json` (a mismatch is reported
as a behaviour change), then runs the experiment again and again, back to
back, each time with a seed derived from --seed and the rep index, writing
the CSV as the command line does, until --seconds have passed. Every rep's
records are checked. Rep times are rescaled to a reference host speed
measured between reps (see `calibrate`); the wall-clock rate is printed
beside it.

    python3 perfbench/run.py --workload ranging --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30 --trace 1

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced reps on the same seeds and prints the per-layer metrics and the
tracing overhead. The last stdout line is one JSON object. Outputs go to
`.bench_out/` in the checkout. The package is imported from `src/` of the
checkout that holds this file, never from anywhere else.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9  # set-up is timed in this many fresh processes; median reported
MIN_REPS = 10  # reps that always run; the quality figures pool exactly these

# On a shared host the speed drifts by up to +-25% over seconds (measured
# on a 2-vCPU Xeon VM; CPU time drifts with wall time, so it is not
# scheduling). A fixed calibration loop is timed between reps, and each
# rep's time is divided by the host slowness around it: the loop's time
# over its time on a quiet host. The loop mirrors the numpy calls of the
# workload's dominant layer, since the drift slows different kinds of work
# by different amounts: 3x3 solves and medians ("small": the QP, median
# weights and CRT search), or distances and Jacobian products over 640
# rows ("rows": the local fits at 64 heads). On localize-scale, with five
# seeds each run in turn on a 2-vCPU Xeon VM, the quartile spread of
# trials_per_ref_s was 5.2% of its median with "small" and 1.9% with "rows".
CAL_LOOPS = {"small": 240, "rows": 120}
CAL_REF_S = {"small": 0.0075, "rows": 0.0078}
_CAL_MATRIX = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
_CAL_POINTS = np.random.default_rng(0).normal(size=(640, 2)) * 50.0
_CAL_WEIGHTS = np.random.default_rng(1).uniform(0.5, 1.5, size=640)


class Package:
    """The locbench modules the benchmark drives, imported from SRC."""

    def __init__(self):
        if not (SRC / "locbench" / "__init__.py").is_file():
            raise SystemExit(f"error: no locbench package under {SRC}; run from a full checkout")
        sys.path.insert(0, str(SRC))
        import locbench
        import locbench.bench
        import locbench.cli
        import locbench.diffusion
        import locbench.estimators
        import locbench.rcrt

        if SRC not in Path(locbench.__file__).resolve().parents:
            raise SystemExit(f"error: imported locbench from {locbench.__file__}, not {SRC}")
        self.bench = locbench.bench
        self.cli = locbench.cli
        self.diffusion = locbench.diffusion
        self.estimators = locbench.estimators
        self.rcrt = locbench.rcrt

    def load(self, kind, path, seed=None):
        if kind == "ranging":
            return self.bench.load_ranging_experiment(path, seed_override=seed)
        return self.bench.load_localization_experiment(path, seed_override=seed)

    def run(self, kind, cfg):
        # looked up per call, so spans installed by the tracer are used
        if kind == "ranging":
            return self.bench.run_ranging_experiment(cfg)
        return self.bench.run_localization_experiment(cfg)


@dataclasses.dataclass
class Rep:
    seconds: float
    ops: int
    attempts: int
    failed: int
    records: list
    problems: list
    slowness: float = 1.0  # host slowness around the rep, 1 on a quiet host

    @property
    def ref_seconds(self):
        """The rep's time at the reference host speed."""
        return self.seconds / self.slowness


def throughput(reps, reference=True):
    """Trials per second over the reps, at the reference host speed or by
    the wall clock."""
    seconds = sum(r.ref_seconds if reference else r.seconds for r in reps)
    return sum(r.ops for r in reps) / seconds


def calibrate(kind):
    """Seconds the host takes for the fixed calibration loop of this kind."""
    x = np.ones(3)
    y = np.array([60.0, 70.0])
    start = time.perf_counter()
    for _ in range(CAL_LOOPS[kind]):
        if kind == "small":
            x = np.linalg.solve(_CAL_MATRIX, x + 1.0)
            x[0] += np.abs(x - np.median(x)).sum() * 1e-3
        else:
            d = np.linalg.norm(y - _CAL_POINTS, axis=1)
            jac = (y - _CAL_POINTS) / d[:, None]
            hess = (jac * _CAL_WEIGHTS[:, None]).T @ jac
            y = y + 1e-6 * np.linalg.solve(hess + np.eye(2), jac.T @ (_CAL_WEIGHTS * d))
    return time.perf_counter() - start


def one_rep(pkg, workload, cfg, csv_path):
    """Run and write one experiment; only the run and the CSV are timed."""
    ops = wl.rep_ops(workload.kind, cfg)
    attempts = wl.rep_attempts(workload.kind, cfg)
    start = time.perf_counter()
    try:
        records = pkg.run(workload.kind, cfg)
        pkg.cli.emit_csv(records, csv_path)
    except Exception as exc:
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return Rep(seconds, ops, attempts, attempts, None, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    problems = wl.check_records(workload.kind, cfg, records)
    failed = attempts if problems else wl.rep_failures(workload.kind, records)
    return Rep(seconds, ops, attempts, failed, records, problems)


def measure_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to it being ready for the
    first trial (package imported, config parsed), once per probe, as wall
    time and divided by the host slowness around the probe."""
    wall, ref = [], []
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload.name, "--seed", str(seed), "--probe"]
    cal = calibrate(workload.calibration)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe exited with {proc.returncode}")
        after = calibrate(workload.calibration)
        wall.append(elapsed)
        ref.append(elapsed * 2.0 * CAL_REF_S[workload.calibration] / (cal + after))
        cal = after
    return wall, ref


def run_workload(pkg, workload, args):
    out_dir = OUT / workload.name
    cfg_path = out_dir / "workload.cfg"
    if args.probe:
        pkg.load(workload.kind, cfg_path, args.seed)
        print("ready", flush=True)
        return 0

    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(workload.config)
    setup_wall, setup = measure_setup(workload, args.seed)
    cfg = pkg.load(workload.kind, cfg_path, args.seed)
    csv_path = out_dir / "rep.csv"
    counter = tr.WarningCounter()  # every rep; keeps warnings off stderr
    traced_counter = tr.WarningCounter()  # traced reps only
    tracer = tr.Tracer() if args.trace else None
    plain, traced = [], []

    cal = [calibrate(workload.calibration)]

    def calibrated(rep):
        cal.append(calibrate(workload.calibration))
        rep.slowness = (cal[-2] + cal[-1]) / (2.0 * CAL_REF_S[workload.calibration])
        return rep

    with counter.installed():
        ref = reference_check(pkg, workload, out_dir)  # also warms caches before timing
        start = time.perf_counter()
        while len(plain) < MIN_REPS or time.perf_counter() - start < args.seconds:
            rep_cfg = dataclasses.replace(cfg, seed=wl.rep_seed(args.seed, len(plain)))
            plain.append(calibrated(one_rep(pkg, workload, rep_cfg, csv_path)))
            if len(plain) > MIN_REPS:
                plain[-1].records = None  # only the first MIN_REPS feed the quality figures
            if tracer is not None:
                with traced_counter.installed(), tr.installed(tracer, pkg):
                    traced.append(calibrated(one_rep(pkg, workload, rep_cfg, csv_path)))
                traced[-1].records = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = plain + traced
    problems = [p for r in reps for p in r.problems] + ref["problems"]
    attempted = sum(r.attempts for r in reps) + ref["attempts"]
    failed = sum(r.failed for r in reps) + ref["failed"]
    e2e = {
        "trials_per_ref_s": (throughput(plain), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    quality = wl.quality(workload.kind, cfg, [r.records for r in plain[:MIN_REPS] if r.records])

    print(f"== {workload.name}  seed {args.seed}  {len(plain)} reps of {plain[0].ops} trials")
    rep_p50, rep_tail, rep_pct, rep_n = tr.latency_summary([r.seconds for r in plain], 1e3)
    print(f"  rep time           p50 {rep_p50:.2f} ms  p{rep_pct:g} {rep_tail:.2f} ms  n={rep_n}")
    print(f"  set-up probes      {' '.join(f'{s:.3f}' for s in setup_wall)} s wall clock")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {value:.6g} {unit}")
    slowness = statistics.median(r.slowness for r in plain)
    print(
        f"  {'trials_per_s':<24} {throughput(plain, reference=False):.6g} 1/s"
        f"  (wall clock; host slowness p50 {slowness:.3f})"
    )
    print(f"  {'fail_share':<24} {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    for name, value in quality.items():
        unit = "epochs" if name.startswith("mean_epochs") else "ratio"
        print(f"  {name:<24} {value:.6g} {unit}  (first {MIN_REPS} reps)")
    if tracer is None:  # the traced printout lists the warnings below
        for name, count in sorted(counter.counts.items()):
            print(f"  {name:<24} {count} count")
    print(f"  reference csv sha256 {ref['sha256']}  {ref['verdict']}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}")

    if tracer is None:
        metrics = e2e
    else:
        metrics, notes = layer_metrics(tracer, traced_counter, traced, plain)
        tracer_dump(tracer, out_dir / "spans.csv")
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<48} {value:.6g} {unit}{note}")
        if tracer.counts["trace.hook_errors"]:
            print(f"  tracer bookkeeping failed {tracer.counts['trace.hook_errors']} times")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def reference_check(pkg, workload, out_dir):
    """Rerun the workload at its config seed; compare the CSV's sha256."""
    cfg = pkg.load(workload.kind, out_dir / "workload.cfg")
    path = out_dir / "reference.csv"
    rep = one_rep(pkg, workload, cfg, path)
    sha = hashlib.sha256(path.read_bytes()).hexdigest() if rep.records is not None else "none"
    expected = json.loads(REFERENCE.read_text()).get(workload.name) if REFERENCE.is_file() else None
    if expected is None:
        verdict = "no committed reference"
    elif sha == expected:
        verdict = "matches the committed reference"
    else:
        verdict = f"BEHAVIOUR CHANGE: committed reference is {expected}"
    return {
        "sha256": sha,
        "verdict": verdict,
        "problems": rep.problems,
        "attempts": rep.attempts,
        "failed": rep.failed,
    }


def layer_metrics(tracer, counter, traced, plain):
    """Per-layer metrics of the traced reps as {name: (value, unit)}, and
    notes for the printout: each tail's percentile and sample count, and
    each busy time's share of the traced rep time."""
    times = tracer.layer_times()
    empty = (np.empty(0), 0.0)
    traced_s = sum(r.seconds for r in traced)
    metrics, notes = {}, {}

    def busy(prefix, label):
        value = float(times.get(label, empty)[0].sum())
        metrics[f"{prefix}.busy_s"] = (value, "s")
        notes[f"{prefix}.busy_s"] = f"{100.0 * value / traced_s:.1f}% of traced rep time"

    def latency(prefix, unit, tail=True):
        durations = times.get(prefix, empty)[0]
        p50, tail_value, pct, n = tr.latency_summary(durations, 1e6 if unit == "us" else 1e3)
        metrics[f"{prefix}.calls"] = (n, "count")
        busy(prefix, prefix)
        metrics[f"{prefix}.{unit}_p50"] = (p50, unit)
        if tail:
            metrics[f"{prefix}.{unit}_tail"] = (tail_value, unit)
            if n:
                notes[f"{prefix}.{unit}_tail"] = f"p{pct:g} of n={n}"

    counts, values = tracer.counts, tracer.values
    latency("rcrt.robust_crt_reconstruct", "us")
    metrics["rcrt.robust_crt_reconstruct.ambiguous"] = (counts["rcrt.ambiguous"], "count")
    cands = values["rcrt.candidates"]
    metrics["rcrt.robust_crt_reconstruct.candidates_mean"] = (
        float(np.mean(cands)) if cands else 0.0,
        "pairs",
    )
    latency("signals.simulate_phase_remainders", "us")
    self_s = sum(
        times.get(f"bench.{fn}", empty)[1]
        for fn in ("run_ranging_experiment", "run_localization_experiment")
    )
    metrics["bench.self_s"] = (self_s, "s")
    notes["bench.self_s"] = f"{100.0 * self_s / traced_s:.1f}% of traced rep time"
    metrics["bench.trials"] = (sum(r.ops for r in traced), "count")
    latency("estimators.local_wls", "ms")
    metrics["estimators.local_wls.failed"] = (counts["local_wls.failed"], "count")
    rows = counts["local_wls.rows"]
    metrics["estimators.local_wls.useful_rows_ratio"] = (
        counts["local_wls.useful_rows"] / rows if rows else 0.0,
        "ratio",
    )
    for label in (
        "estimators.global_wls",
        "estimators.crlb",
        "estimators.build_selection_weights",
        "geometry.build_grid_network",
        "signals.simulate_tdoa_measurements",
    ):
        busy(label, label)
    latency("diffusion.optimal_weights", "us")
    latency("diffusion.median_weights", "us", tail=False)
    for scheme in ("con", "wei", "opt"):
        prefix = f"diffusion.diffuse.{scheme}"
        latency(prefix, "ms")
        epochs = values[f"diffuse.{scheme}.epochs"]
        metrics[f"{prefix}.epochs_mean"] = (float(np.mean(epochs)) if epochs else 0.0, "epochs")
        metrics[f"{prefix}.unsettled"] = (counts[f"diffuse.{scheme}.unsettled"], "count")
    busy("cli.emit_csv", "cli.emit_csv")
    for name in tr.WARNING_METRICS.values():
        metrics[name] = (counter.counts[name], "count")
    plain_rate = throughput(plain)
    traced_rate = throughput(traced)
    metrics["trace.overhead_share"] = ((plain_rate - traced_rate) / plain_rate, "ratio")
    notes["trace.overhead_share"] = f"median trials_per_ref_s {plain_rate:.6g} untraced, {traced_rate:.6g} traced"
    return metrics, notes


def tracer_dump(tracer, path):
    with open(path, "w") as fh:
        fh.write("span,name,start_s,end_s,parent\n")
        for idx, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent}\n")


def run_all(args):
    """Run every workload in its own process; print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["all", *wl.WORKLOADS], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(Package(), wl.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
