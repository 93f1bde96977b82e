"""The committed BENCH_<label>.json files: each parses, carries the label
of its file name, and holds every end-to-end metric that BENCHMARK.json
declares for every workload, and nothing else."""

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
