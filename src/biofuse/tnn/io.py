"""Model file: magic line, arch descriptor, float32 weight payload, provenance."""

from __future__ import annotations

import json

import numpy as np

from ..errors import ModelFormatError, ValidationError
from .arch import arch_from_dict, arch_to_dict
from .network import EmbeddingModel

MODEL_MAGIC = b"BIOFUSE-MODEL v1"


def save_model(model: EmbeddingModel, path) -> None:
    """Write a model; round-trips bit-exactly for float32 models."""
    if model.dtype != np.dtype(np.float32):
        raise ValidationError("only float32 models are serializable")
    arch_line = json.dumps(arch_to_dict(model.arch), sort_keys=True)
    prov_line = json.dumps(model.provenance, sort_keys=True)
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC + b"\n")
        f.write(b"ARCH " + arch_line.encode() + b"\n")
        f.write(f"WEIGHTS {model.n_weights}\n".encode())
        f.write(np.ascontiguousarray(model.weights, dtype="<f4").tobytes())
        f.write(b"\nPROVENANCE " + prov_line.encode() + b"\n")


def load_model(path) -> EmbeddingModel:
    with open(path, "rb") as f:
        raw = f.read()
    nl1 = raw.find(b"\n")
    if nl1 < 0 or raw[:nl1] != MODEL_MAGIC:
        if raw.startswith(b"BIOFUSE-MODEL"):
            raise ModelFormatError(f"unsupported model version {raw[:nl1]!r}")
        raise ModelFormatError("not a model file (bad magic)")
    nl2 = raw.find(b"\n", nl1 + 1)
    if nl2 < 0 or not raw[nl1 + 1:nl2].startswith(b"ARCH "):
        raise ModelFormatError("missing arch descriptor")
    try:
        arch = arch_from_dict(json.loads(raw[nl1 + 1 + 5:nl2].decode()))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ValidationError) as e:
        raise ModelFormatError(f"bad arch descriptor: {e}") from None
    nl3 = raw.find(b"\n", nl2 + 1)
    if nl3 < 0 or not raw[nl2 + 1:nl3].startswith(b"WEIGHTS "):
        raise ModelFormatError("missing weight header")
    try:
        n_weights = int(raw[nl2 + 1 + 8:nl3].decode())
    except ValueError:
        raise ModelFormatError("bad weight count") from None
    payload_start = nl3 + 1
    payload_end = payload_start + n_weights * 4
    if payload_end > len(raw):
        raise ModelFormatError(
            f"truncated weight payload ({len(raw) - payload_start} of {n_weights * 4} bytes)"
        )
    weights = np.frombuffer(raw[payload_start:payload_end], dtype="<f4").copy()
    trailer = raw[payload_end:]
    if not trailer.startswith(b"\nPROVENANCE "):
        raise ModelFormatError("missing provenance block")
    try:
        provenance = json.loads(trailer[len(b"\nPROVENANCE "):].decode())
    except ValueError as e:
        raise ModelFormatError(f"bad provenance block: {e}") from None
    if not isinstance(provenance, dict):
        raise ModelFormatError("provenance block must be a JSON object")
    try:
        return EmbeddingModel(arch, weights=weights, dtype=np.float32, provenance=provenance)
    except ValidationError as e:
        raise ModelFormatError(f"weights do not fit the arch: {e}") from None
