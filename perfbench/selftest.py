"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py   # about two minutes

It checks that
- BENCHMARK.json has the shape the benchmark promises;
- traced call counts equal the size of a fixed small workload exactly
  (for example local_wls calls = runs x heads, reconstructions = trials x
  SNR points), and the traced diffusion epochs agree with the CSV's
  mean_epochs;
- every workload prints every named metric with its unit, traced and
  untraced, and its last line is a correct result;
- without `src/` the benchmark exits non-zero and prints no result;
- the CSVs of configs/*.cfg match their committed sha256.
Exit code 0 when everything holds.
"""

import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import run
import tracer as tr
import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
OUT = run.OUT / "selftest"


class Failures(list):
    def check(self, ok, message):
        if not ok:
            self.append(message)
            print(f"FAIL {message}", flush=True)


def check_spec(failures, spec):
    failures.check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"BENCHMARK.json keys {sorted(spec)}",
    )
    failures.check(
        [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            names.append(m["name"])
            failures.check(UNIT.match(m["unit"]) is not None, f"{m['name']}: bad unit {m['unit']!r}")
            failures.check(m["better"] in ("higher", "lower"), f"{m['name']}: better={m['better']!r}")
            if section == "end_to_end":
                failures.check(0 < m["bound"] <= 0.25, f"{m['name']}: bound {m['bound']}")
    for name in names:
        failures.check(NAME.match(name) is not None, f"bad name {name!r}")
    failures.check(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    failures.check(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s must be an end-to-end metric in s, lower better",
    )


def check_counts(failures, pkg, workload):
    """Trace one small rep and compare call counts with its size."""
    OUT.mkdir(parents=True, exist_ok=True)
    cfg_path = OUT / f"{workload.name}.cfg"
    cfg_path.write_text(workload.config)
    cfg = pkg.load(workload.kind, cfg_path)
    if workload.kind == "ranging":
        cfg = dataclasses.replace(cfg, trials_per_point=3)
    else:
        cfg = dataclasses.replace(cfg, runs=1)
    tracer, counter = tr.Tracer(), tr.WarningCounter()
    with counter.installed(), tr.installed(tracer, pkg):
        rep = run.one_rep(pkg, workload, cfg, OUT / f"{workload.name}.csv")
    failures.check(not rep.problems, f"{workload.name}: small rep failed {rep.problems}")
    if rep.problems:
        return
    m = {k: v for k, (v, _) in run.layer_metrics(tracer, counter, [rep], [rep])[0].items()}
    spans = {name: d.size for name, (d, _) in tracer.layer_times().items()}
    name = workload.name

    def expect(metric, value):
        failures.check(m[metric] == value, f"{name}: {metric} = {m[metric]}, expected {value}")

    expect("bench.trials", rep.ops)
    failures.check(
        m["trace.overhead_share"] == 0.0 and tracer.counts["trace.hook_errors"] == 0,
        f"{name}: tracer bookkeeping failed",
    )
    if workload.kind == "ranging":
        trials = cfg.trials_per_point * len(cfg.snr_grid_db)
        expect("rcrt.robust_crt_reconstruct.calls", trials)
        expect("signals.simulate_phase_remainders.calls", trials)
        expect("estimators.local_wls.calls", 0)
        return
    runs, heads = cfg.runs, cfg.n_heads
    expect("rcrt.robust_crt_reconstruct.calls", 0)
    expect("estimators.local_wls.calls", runs * heads)
    for label in (
        "geometry.build_grid_network",
        "signals.simulate_tdoa_measurements",
        "estimators.build_selection_weights",
        "estimators.global_wls",
        "estimators.crlb",
    ):
        failures.check(spans.get(label) == runs, f"{name}: {label} ran {spans.get(label)} times, expected {runs}")
    epochs = {r.scheme: r.mean_epochs for r in rep.records}
    for scheme in ("con", "wei", "opt"):
        prefix = f"diffusion.diffuse.{scheme}"
        if scheme not in cfg.schemes:
            expect(f"{prefix}.calls", 0)
            continue
        expect(f"{prefix}.calls", runs)
        failures.check(
            math.isclose(m[f"{prefix}.epochs_mean"], epochs[scheme], rel_tol=1e-12),
            f"{name}: traced {scheme} epochs {m[f'{prefix}.epochs_mean']} != CSV mean_epochs {epochs[scheme]}",
        )
    if m["estimators.local_wls.failed"] == 0:
        for scheme, rule in (("opt", "optimal_weights"), ("wei", "median_weights")):
            per_run = epochs[scheme] * heads if scheme in cfg.schemes else 0
            expect(f"diffusion.{rule}.calls", round(per_run * runs))


def check_printout(failures, spec, workload, trace):
    """Run the benchmark briefly; every metric prints by name with its unit."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload.name,
           "--seed", "5", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    label = f"{workload.name} --trace {trace}"
    failures.check(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        failures.check(False, f"{label}: last line is not JSON")
        return
    failures.check(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{label}: result keys {sorted(result)}",
    )
    failures.check(result["correct"] is True, f"{label}: correct is {result['correct']}")
    failures.check(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result['failed']} of {result['attempted']} failed")
    named = spec["per_layer" if trace else "end_to_end"]
    failures.check(
        set(result["metrics"]) == {m["name"] for m in named},
        f"{label}: metric names differ from BENCHMARK.json",
    )
    for m in named:
        entry = result["metrics"].get(m["name"])
        if entry is None:
            continue
        value = entry["value"]
        failures.check(entry["unit"] == m["unit"], f"{label}: {m['name']} unit {entry['unit']} != {m['unit']}")
        failures.check(
            isinstance(value, (int, float)) and math.isfinite(value),
            f"{label}: {m['name']} value {value!r}",
        )
        printed = [ln for ln in lines[:-1] if ln.split()[:1] == [m["name"]]]
        failures.check(
            len(printed) == 1 and printed[0].split()[2] == m["unit"],
            f"{label}: {m['name']} not printed once with its unit",
        )
    if not trace:  # end-to-end metrics are never 0
        for m in named:
            value = result["metrics"].get(m["name"], {}).get("value")
            failures.check(value is not None and value > 0, f"{label}: {m['name']} is {value}")


def check_bare(failures):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "ranging", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    failures.check(proc.returncode != 0, "bare checkout: exit code 0")
    failures.check('"correct"' not in proc.stdout, "bare checkout: printed a result")
    shutil.rmtree(bare)


def check_configs(failures):
    refs = json.loads(run.REFERENCE.read_text())
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    for kind, name in (("ranging", "ranging.cfg"), ("localize", "localize.cfg")):
        out = OUT / f"configs-{kind}.csv"
        cmd = [sys.executable, "-m", "locbench", kind, "--config", str(run.ROOT / "configs" / name), "--out", str(out)]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=600)
        failures.check(proc.returncode == 0, f"configs/{name}: exit code {proc.returncode}")
        sha = hashlib.sha256(out.read_bytes()).hexdigest() if out.is_file() else "none"
        expected = refs.get(f"configs/{name}")
        print(f"configs/{name} csv sha256 {sha}", flush=True)
        failures.check(sha == expected, f"configs/{name}: BEHAVIOUR CHANGE, committed reference is {expected}")


def main():
    failures = Failures()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(failures, spec)
    pkg = run.Package()
    for workload in wl.WORKLOADS.values():
        check_counts(failures, pkg, workload)
        for trace in (0, 1):
            check_printout(failures, spec, workload, trace)
    check_bare(failures)
    check_configs(failures)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
