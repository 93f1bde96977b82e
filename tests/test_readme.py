"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_python_blocks_run_in_order_in_one_namespace():
    # later blocks reuse names that earlier ones define, as a reader would
    blocks = PYTHON_BLOCK.findall(README.read_text())
    assert blocks, "README.md has no python examples"
    namespace = {"__name__": "readme"}
    for number, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)
