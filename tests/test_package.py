"""The package's public names and the allocator settings of its import."""
import importlib
import os
import platform
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import relviews


def test_every_public_name_resolves():
    modules = [relviews] + [importlib.import_module(f"relviews.{info.name}")
                            for info in pkgutil.iter_modules(relviews.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert len(modules) > 10 and missing == []


# After one warm-up, 50 arrays of 1 MiB, each filled and freed, and the
# minor page faults they took in total.
_FAULT_PROBE = """
import resource
import numpy as np
import relviews

def probe():
    a = np.empty(1 << 17)
    a.fill(1.0)

probe()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    probe()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
@pytest.mark.skipif("MALLOC_TOP_PAD_" in os.environ or "MALLOC_MMAP_THRESHOLD_" in os.environ,
                    reason="the environment sets the allocator instead")
def test_import_keeps_megabyte_arrays_from_faulting_again():
    # with only the heap-top pad set, glibc's mmap threshold stays where the
    # imports left it, and every 1 MiB array is mmapped and faults in each
    # of its 257 pages again
    src = str(Path(relviews.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) < 50
