"""View-graph relational classification with a learnable Hausdorff edit distance."""

import ctypes
import os
import sys

from .complementarity import ComplementarityConfig
from .encoder import EncoderConfig, GatParams
from .graphs import ExplanationSubgraph, ViewGraph, export_dot, induced_subgraph
from .hed import CostHead, HedResult, hed
from .proxies import ProxyAnchorConfig, ProxyGraph, SinkhornConfig, sinkhorn
from .synth import NoiseModel, SynthConfig, SynthDataset, SynthInstance, generate
from .training import AblationConfig, TrainConfig, TrainedModel, TrainReport, evaluate, train
from .transitivity import TransitivityConfig

__all__ = [
    "AblationConfig", "ComplementarityConfig", "CostHead", "EncoderConfig",
    "ExplanationSubgraph", "GatParams", "HedResult", "NoiseModel",
    "ProxyAnchorConfig", "ProxyGraph", "SinkhornConfig", "SynthConfig",
    "SynthDataset", "SynthInstance", "TrainConfig", "TrainReport", "TrainedModel",
    "TransitivityConfig", "ViewGraph", "evaluate",
    "export_dot", "generate", "hed", "induced_subgraph", "sinkhorn", "train",
]


def _keep_heap_top(pad: int = 16 << 20, mmap_threshold: int = 32 << 20) -> None:
    """Ask glibc to keep `pad` bytes of free heap top instead of trimming it,
    and to serve blocks below `mmap_threshold` from the heap.

    The encoder and distance tables allocate and free numpy arrays of a few
    hundred KB to a few MB per batch. glibc returns the heap's free top to
    the kernel once it exceeds its trim threshold, so, depending on where
    long-lived objects happen to sit in the heap, an `evaluate` call either
    reuses its pages or faults about 4 MB back in (~1000 minor faults,
    15-30 % slower). With the pad the pages stay mapped and every call takes
    the fast path.

    Setting the pad switches off glibc's dynamic mmap threshold, which
    otherwise rises to the size of the largest mmapped block freed. The
    threshold then stays wherever the imports left it, a few hundred KB to
    a few MB depending on import history, and every larger array is mmapped
    and faults in again, page by page, on every call. So the threshold is
    pinned next to the pad, at 32 MiB, the dynamic threshold's own maximum.
    Both settings are process-wide, as glibc's own MALLOC_TOP_PAD_ and
    MALLOC_MMAP_THRESHOLD_ would be, and each is skipped when its variable
    is set in the environment. Skipped off glibc."""
    if sys.platform != "linux":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if "MALLOC_TOP_PAD_" not in os.environ:
        mallopt(-2, pad)                               # M_TOP_PAD
    if "MALLOC_MMAP_THRESHOLD_" not in os.environ:
        mallopt(-3, mmap_threshold)                    # M_MMAP_THRESHOLD


_keep_heap_top()
