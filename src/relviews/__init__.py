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


def _keep_heap_top(pad: int = 16 << 20) -> None:
    """Ask glibc to keep `pad` bytes of free heap top instead of trimming it.

    The encoder and distance tables allocate and free numpy arrays of a few
    hundred KB per batch. glibc returns the heap's free top to the kernel
    once it exceeds its trim threshold, so, depending on where long-lived
    objects happen to sit in the heap, an `evaluate` call either reuses its
    pages or faults about 4 MB back in (~1000 minor faults, 15-30 % slower).
    With the pad the pages stay mapped and every call takes the fast path.
    The setting is process-wide, as glibc's own MALLOC_TOP_PAD_ would be.
    Skipped off glibc and when MALLOC_TOP_PAD_ is set in the environment."""
    if sys.platform != "linux" or "MALLOC_TOP_PAD_" in os.environ:
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-2, pad)                                   # M_TOP_PAD


_keep_heap_top()
