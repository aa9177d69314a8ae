"""Twin-network recognition: branches, triplet loss, mining, training, model IO."""

from .arch import (
    ArchKind,
    ArchSpec,
    ConvSpec,
    DenseSpec,
    PoolSpec,
    default_branch,
    fusion_arch,
    model_inputs,
    single_modality_arch,
)
from .io import load_model, save_model
from .loss import mine_triplets, pairwise_sq_dists
from .network import EmbeddingModel, forward_batch, stack_inputs
from .train import TrainConfig, make_batches, train

__all__ = [
    "ArchKind",
    "ArchSpec",
    "ConvSpec",
    "DenseSpec",
    "PoolSpec",
    "EmbeddingModel",
    "TrainConfig",
    "default_branch",
    "forward_batch",
    "fusion_arch",
    "load_model",
    "make_batches",
    "mine_triplets",
    "model_inputs",
    "pairwise_sq_dists",
    "save_model",
    "single_modality_arch",
    "stack_inputs",
    "train",
]
