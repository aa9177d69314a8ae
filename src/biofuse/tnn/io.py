"""Model file: arch descriptor, provenance and a float32 weight block."""

from __future__ import annotations

import json

import numpy as np

from ..errors import ModelFormatError, ValidationError
from ..fileio import BlockFormat, read_blocks, write_file
from .arch import arch_from_dict, arch_to_dict
from .network import EmbeddingModel

MODEL = BlockFormat("BIOFUSE-MODEL v2", "model", ModelFormatError,
                    "retrain the model with `biofuse train`")


def save_model(model: EmbeddingModel, path) -> None:
    """Write a model; round-trips bit-exactly for float32 models."""
    if model.dtype != np.dtype(np.float32):
        raise ValidationError("only float32 models are serializable")
    write_file(path, MODEL, [
        f"arch {json.dumps(arch_to_dict(model.arch), sort_keys=True)}\n".encode(),
        f"provenance {json.dumps(model.provenance, sort_keys=True)}\n".encode(),
        f"weights {model.n_weights}\n".encode(),
        np.ascontiguousarray(model.weights, dtype="<f4"),
    ])


def load_model(path) -> EmbeddingModel:
    with read_blocks(path, MODEL) as src:
        arch_at, (_, arch) = src.expect("arch", 2, maxsplit=1)
        prov_at, (_, provenance) = src.expect("provenance", 2, maxsplit=1)
        at, (_, n_weights) = src.expect("weights", 2)
        weights = src.block((src.count(at, n_weights, "weight count"),), "<f4", "weight block")
        src.checksum()
        src.finish()
        try:
            arch = arch_from_dict(json.loads(arch))
        except (ValueError, RecursionError, KeyError, TypeError, IndexError, AttributeError,
                ValidationError) as e:
            raise src.error(arch_at, f"bad arch descriptor: {e}") from None
        try:
            provenance = json.loads(provenance)
        except (ValueError, RecursionError) as e:
            raise src.error(prov_at, f"bad provenance: {e}") from None
        if not isinstance(provenance, dict):
            raise src.error(prov_at, "provenance must be a JSON object")
        try:
            return EmbeddingModel(arch, weights=weights, dtype=np.float32, provenance=provenance)
        except ValidationError as e:
            raise src.error(at, f"weights do not fit the arch: {e}") from None
