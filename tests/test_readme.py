"""The README's library examples run as written, and its config keys are
the keys the loaders read."""

import dataclasses
import re
from pathlib import Path

from locbench import bench

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
CONFIG_KEYS = re.compile(r"^Config keys: (.*?`)\.$", re.MULTILINE | re.DOTALL)
OPTIONAL_BLOCK = "# optional keys and their defaults:\n"


def test_python_blocks_run_in_order_in_one_namespace():
    # later blocks reuse names that earlier ones define, as a reader would
    blocks = PYTHON_BLOCK.findall(README.read_text())
    assert blocks, "README.md has no python examples"
    namespace = {"__name__": "readme"}
    for number, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)


def test_config_key_lists_name_the_loaded_keys():
    # each list names the required keys, then "and optional" ones
    lists = CONFIG_KEYS.findall(README.read_text())
    assert len(lists) == 2
    for text, cls in zip(lists, (bench.RangingExperiment, bench.LocalizationExperiment)):
        required, _, optional = text.partition("and optional")
        init = [f for f in dataclasses.fields(cls) if f.init]
        assert re.findall(r"`(\w+)`", required) == [
            f.name for f in init if f.default is dataclasses.MISSING
        ]
        assert re.findall(r"`(\w+)`", optional) == [
            f.name for f in init if f.default is not dataclasses.MISSING
        ]


def test_localize_config_lists_the_optional_defaults(tmp_path):
    # uncommenting the block of optional keys loads the same config
    text = (ROOT / "configs" / "localize.cfg").read_text()
    head, _, block = text.partition(OPTIONAL_BLOCK)
    lines = block.splitlines()
    assert lines and all(line.startswith("# ") for line in lines)
    defaults = {
        f.name for f in dataclasses.fields(bench.LocalizationExperiment)
        if f.default is not dataclasses.MISSING
    }
    assert {line[2:].split("=")[0].strip() for line in lines} == defaults
    uncommented = tmp_path / "localize.cfg"
    uncommented.write_text(head + "".join(line[2:] + "\n" for line in lines))
    assert bench.load_localization_experiment(
        uncommented
    ) == bench.load_localization_experiment(ROOT / "configs" / "localize.cfg")
