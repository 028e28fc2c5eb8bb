import os
import tempfile
import warnings

import numpy as np
import pytest

# hypothesis keeps files under its storage directory, the working
# directory's .hypothesis by default, even with database=None; it reads the
# directory on first use, so a temporary one set here keeps every run out
# of the checkout and is removed at exit
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _hypothesis_storage = tempfile.TemporaryDirectory(prefix="relviews-hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _hypothesis_storage.name

# hypothesis's pytest plugin imports this module, and through it libcst, to
# write a patch for a failing property; libcst's import raises a
# DeprecationWarning, which the warning filters turn into an error that
# ends the run in INTERNALERROR before the failure is reported. Imported
# here once, the later import finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def central_diff(fn, x: np.ndarray, idx: tuple, step: float = 1e-5) -> float:
    """Scalar central finite difference of fn(x) at one coordinate."""
    xp = x.copy()
    xp[idx] += step
    xm = x.copy()
    xm[idx] -= step
    return (fn(xp) - fn(xm)) / (2.0 * step)


def rel_error(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-8)
    return abs(a - b) / denom


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
