"""CSV digests pinned per OpenBLAS kernel, and the kernel this process runs.

A pinned CSV is exact for one BLAS kernel only: the kernels sum the dot
products of the fits in different orders. pinned_digests.json holds the
digests recorded under each kernel. SkylakeX is the reference (its config
entries are the ones perfbench/reference.json holds); Haswell, which
OpenBLAS also runs on Zen, was recorded with OPENBLAS_CORETYPE=Haswell. A
kernel with no digest recorded is held to the SkylakeX one.

    python tests/pinned_digests.py  # prints the kernel
"""

import ctypes
import glob
import json
import os
from pathlib import Path

import numpy

DIGESTS = json.loads(Path(__file__).with_suffix(".json").read_text())
REFERENCE_KERNEL = "SkylakeX"


def openblas_core():
    """The core name numpy's bundled OpenBLAS picked at runtime, or None
    when there is no such library or it does not export the name."""
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def pinned(name, kernel):
    """The digest pinned for name under kernel, else under SkylakeX."""
    recorded = DIGESTS.get(kernel, {})
    return recorded.get(name, DIGESTS[REFERENCE_KERNEL][name])


def assert_pinned(name, digest):
    kernel = openblas_core()
    want = pinned(name, kernel)
    assert digest == want, (
        f"{name}: CSV sha256 {digest} on OpenBLAS kernel {kernel}, pinned {want}"
        + ("" if kernel in DIGESTS else f" (recorded under {REFERENCE_KERNEL})")
    )


if __name__ == "__main__":
    kernel = openblas_core()
    print(f"OpenBLAS core {kernel}" if kernel else "no bundled OpenBLAS core name")
