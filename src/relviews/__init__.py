"""View-graph relational classification with a learnable Hausdorff edit distance."""

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
