"""The committed BENCH_<label>.json files: each parses, carries the label
of its file name, and holds every end-to-end metric that BENCHMARK.json
declares for every workload, and nothing else. And the benchmark tracer's
warning counters still match the package's warning texts."""

import ast
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES, "no BENCH_*.json at the repo root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_matches_the_benchmark(path):
    record = json.loads(path.read_text())
    assert record["label"] == path.stem.removeprefix("BENCH_")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        f"{workload['name']}/{metric['name']}": metric["unit"]
        for workload in spec["workloads"]
        for metric in spec["end_to_end"]
    }
    metrics = record["last_line"]["metrics"]
    assert sorted(metrics) == sorted(units)
    for name, entry in metrics.items():
        assert entry["unit"] == units[name], name
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), name


def test_every_warning_text_has_one_tracer_counter():
    # perfbench/tracer.py counts locbench warnings by the prefix of their
    # format string, so a renamed message would silently read 0; both sides
    # are read as source, without importing the tracer
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (table,) = [
        node.value for node in ast.walk(tracer)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "WARNING_METRICS" for t in node.targets)
    ]
    prefixes = ast.literal_eval(table)
    formats = [
        node.args[0]
        for path in sorted((ROOT / "src" / "locbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "warning"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "logger"
    ]
    assert formats and all(isinstance(f, ast.Constant) for f in formats)
    texts = [f.value for f in formats]
    for text in texts:
        assert sum(text.startswith(prefix) for prefix in prefixes) == 1, text
    for prefix in prefixes:
        assert any(text.startswith(prefix) for text in texts), prefix
