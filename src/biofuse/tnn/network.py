"""Differentiable engine for the embedding branches.

Weights live in one flat vector with per-layer views, so optimizers,
finite-difference checks, and serialization all act on the same buffer.
Forward/backward are pure given (weights, input); everything is plain numpy.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..corpus import Modality
from ..errors import ShapeError, ValidationError
from ..preprocess import PairedSample, Sample
from .arch import ArchSpec, ConvSpec, DenseSpec, PoolSpec, branch_output_widths

_NORM_EPS = 1e-24  # inside the sqrt of the L2 normalization
_EMBED_CHUNK = 512  # samples per forward pass in embed_batch


class ParamSpec:
    __slots__ = ("name", "shape", "offset", "size", "fan_in")

    def __init__(self, name: str, shape: tuple[int, ...], offset: int, fan_in: int):
        self.name = name
        self.shape = shape
        self.offset = offset
        self.size = int(np.prod(shape))
        self.fan_in = fan_in


def build_layout(arch: ArchSpec) -> list[ParamSpec]:
    """Flat-vector layout: branch order, then head, weights before biases."""
    specs: list[ParamSpec] = []
    offset = 0

    def add(name: str, shape: tuple[int, ...], fan_in: int) -> None:
        nonlocal offset
        specs.append(ParamSpec(name, shape, offset, fan_in))
        offset += int(np.prod(shape))

    head_in = 0
    for bi, layers in enumerate(arch.branch_layers):
        state = (arch.input_channels[bi], arch.input_points)
        for li, (spec, out) in enumerate(zip(layers, branch_output_widths(layers, *state))):
            if isinstance(spec, ConvSpec):
                fan_in = state[0] * spec.kernel
                add(f"branch{bi}/layer{li}/w", (spec.filters, state[0], spec.kernel), fan_in)
                add(f"branch{bi}/layer{li}/b", (spec.filters,), fan_in)
            elif isinstance(spec, DenseSpec):
                fan_in = int(np.prod(state))
                add(f"branch{bi}/layer{li}/w", (spec.width, fan_in), fan_in)
                add(f"branch{bi}/layer{li}/b", (spec.width,), fan_in)
            state = out
        head_in += state
    for hi, spec in enumerate(arch.head_layers):
        add(f"head/layer{hi}/w", (spec.width, head_in), head_in)
        add(f"head/layer{hi}/b", (spec.width,), head_in)
        head_in = spec.width
    return specs


class EmbeddingModel:
    """Arch descriptor plus the flat weight vector and training provenance."""

    def __init__(
        self,
        arch: ArchSpec,
        weights: np.ndarray | None = None,
        seed: int = 0,
        dtype=np.float32,
        provenance: dict | None = None,
    ):
        self.arch = arch
        self.dtype = np.dtype(dtype)
        self.layout = build_layout(arch)
        self.n_weights = sum(p.size for p in self.layout)
        if weights is None:
            self.weights = _init_weights(self.layout, seed, self.dtype)
        else:
            weights = np.asarray(weights)
            if weights.shape != (self.n_weights,):
                raise ValidationError(
                    f"weight vector must have {self.n_weights} entries, got {weights.shape}"
                )
            self.weights = np.ascontiguousarray(weights, dtype=self.dtype)
        self.views = {
            p.name: self.weights[p.offset:p.offset + p.size].reshape(p.shape)
            for p in self.layout
        }
        self.provenance = dict(provenance or {})

    def embed(self, sample) -> np.ndarray:
        """Embed one sample; unit L2 norm, float64, deterministic."""
        return self.embed_batch([sample])[0]

    def embed_batch(self, samples: Sequence) -> np.ndarray:
        out = np.empty((len(samples), self.arch.embedding_dim), dtype=np.float64)
        for lo in range(0, len(samples), _EMBED_CHUNK):
            part = samples[lo:lo + _EMBED_CHUNK]
            branches = stack_inputs(part, self)
            emb, _ = forward_batch(self, branches, with_cache=False)
            emb = emb.astype(np.float64)
            emb /= np.sqrt((emb * emb).sum(axis=1))[:, None]
            out[lo:lo + len(part)] = emb
        return out


def _init_weights(layout: list[ParamSpec], seed: int, dtype) -> np.ndarray:
    """Seeded uniform fan-in scaling for weights, zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(sum(p.size for p in layout), dtype=np.float64)
    for p in layout:
        if p.name.endswith("/w"):
            bound = 1.0 / np.sqrt(p.fan_in)
            flat[p.offset:p.offset + p.size] = rng.uniform(-bound, bound, size=p.size)
    return np.ascontiguousarray(flat, dtype=dtype)


# ---------------------------------------------------------------------------
# Input marshalling


def as_branch_inputs(sample, model: EmbeddingModel) -> tuple[np.ndarray, ...]:
    """Coerce Sample / PairedSample / raw arrays into one array per branch."""
    arch = model.arch
    if isinstance(sample, Sample):
        inputs: tuple[np.ndarray, ...] = (sample.data,)
        tags: tuple[Modality, ...] | None = (sample.modality,)
    elif isinstance(sample, PairedSample):
        inputs = (sample.brain.data, sample.eye.data)
        tags = (sample.brain.modality, sample.eye.modality)
    elif isinstance(sample, np.ndarray):
        inputs, tags = (sample,), None
    elif isinstance(sample, tuple):
        inputs, tags = sample, None
    else:
        raise ShapeError(f"cannot embed object of type {type(sample).__name__}")
    if len(inputs) != arch.n_branches:
        raise ShapeError(
            f"{arch.tag} model takes {arch.n_branches} input branch(es), got {len(inputs)}"
        )
    if tags is not None and arch.modalities is not None and tags != arch.modalities:
        raise ShapeError(
            f"sample modalities {tuple(t.value for t in tags)} do not match "
            f"model branches {tuple(m.value for m in arch.modalities)}"
        )
    for bi, x in enumerate(inputs):
        expected = (arch.input_channels[bi], arch.input_points)
        if np.asarray(x).shape != expected:
            raise ShapeError(f"branch {bi} input must be {expected}, got {np.asarray(x).shape}")
    return inputs


def stack_inputs(samples: Sequence, model: EmbeddingModel) -> tuple[np.ndarray, ...]:
    per_branch = [as_branch_inputs(s, model) for s in samples]
    return tuple(
        np.stack([row[bi] for row in per_branch]).astype(model.dtype)
        for bi in range(model.arch.n_branches)
    )


# ---------------------------------------------------------------------------
# Forward / backward


def _im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    b, c, t = x.shape
    t_out = (t - kernel) // stride + 1
    idx = np.arange(t_out)[:, None] * stride + np.arange(kernel)[None, :]
    cols = x[:, :, idx]                      # [B, C, To, k]
    return cols.transpose(0, 2, 1, 3).reshape(b, t_out, c * kernel)


def _pool_taps(x: np.ndarray, width: int) -> list[np.ndarray]:
    """The `width` strided views x[..., j::width] over the whole windows of x."""
    end = x.shape[2] // width * width
    return [x[:, :, j:end:width] for j in range(width)]


def _max_pool(x: np.ndarray, width: int) -> np.ndarray:
    return functools.reduce(np.maximum, _pool_taps(x, width))


def _max_pool_backward(x: np.ndarray, y: np.ndarray, dy: np.ndarray, width: int) -> np.ndarray:
    """Route dy to the first tap equal to the window max (argmax's tie rule); 0 elsewhere."""
    dx = np.zeros(x.shape, dtype=x.dtype)
    free = np.ones(y.shape, dtype=bool)
    for dtap, tap in zip(_pool_taps(dx, width), _pool_taps(x, width)):
        hit = free & (tap == y)
        dtap[...] = np.where(hit, dy, 0)
        free &= ~hit
    return dx


def _conv_weight_grad(dz: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum over batch and time of dz[b, t, f] * cols[b, t, k] as one GEMM: [F, C*k]."""
    return dz.reshape(-1, dz.shape[2]).T @ cols.reshape(-1, cols.shape[2])


def _forward_branch(model, bi: int, x: np.ndarray, with_cache: bool):
    layers = model.arch.branch_layers[bi]
    cache: list = []
    for li, spec in enumerate(layers):
        if isinstance(spec, ConvSpec):
            w = model.views[f"branch{bi}/layer{li}/w"]
            bias = model.views[f"branch{bi}/layer{li}/b"]
            cols = _im2col(x, spec.kernel, spec.stride)
            z = cols @ w.reshape(spec.filters, -1).T + bias
            mask = z > 0
            y = (z * mask).transpose(0, 2, 1)
            if with_cache:
                cache.append(("conv", cols, mask, x.shape))
            x = y
        elif isinstance(spec, PoolSpec):
            y = _max_pool(x, spec.width)
            if with_cache:
                cache.append(("pool", x, y))
            x = y
        else:
            flattened = x.ndim == 3
            x2 = x.reshape(x.shape[0], -1) if flattened else x
            w = model.views[f"branch{bi}/layer{li}/w"]
            bias = model.views[f"branch{bi}/layer{li}/b"]
            z = x2 @ w.T + bias
            last = li == len(layers) - 1
            if last:
                y, mask = z, None
            else:
                mask = z > 0
                y = z * mask
            if with_cache:
                cache.append(("dense", x2, mask, x.shape if flattened else None))
            x = y
    return x, cache


def forward_batch(model: EmbeddingModel, branches: tuple[np.ndarray, ...], with_cache: bool):
    """Embed a stacked batch; returns (embeddings [B x D], cache or None)."""
    branch_outs = []
    branch_caches = []
    for bi, x in enumerate(branches):
        out, cache = _forward_branch(model, bi, np.asarray(x, dtype=model.dtype), with_cache)
        branch_outs.append(out)
        branch_caches.append(cache)
    x = branch_outs[0] if len(branch_outs) == 1 else np.concatenate(branch_outs, axis=1)
    head_cache = []
    for hi in range(len(model.arch.head_layers)):
        w = model.views[f"head/layer{hi}/w"]
        bias = model.views[f"head/layer{hi}/b"]
        z = x @ w.T + bias
        if with_cache:
            head_cache.append(("dense", x, None, None))
        x = z
    s = (x * x).sum(axis=1)
    r = np.sqrt(s + model.dtype.type(_NORM_EPS))
    emb = x / r[:, None]
    cache = None
    if with_cache:
        cache = {
            "branches": branch_caches,
            "branch_widths": [o.shape[1] for o in branch_outs],
            "head": head_cache,
            "l2": (x, r),
        }
    return emb, cache


def _backward_dense(grad_views, name_w, name_b, dz, x2) -> None:
    grad_views[name_w] += dz.T @ x2
    grad_views[name_b] += dz.sum(axis=0)


def _backward_branch(model, bi: int, cache: list, dy: np.ndarray, grad_views) -> None:
    """Weight gradients of one branch; layer 0's data gradient is never formed,
    since nothing below the input consumes it."""
    layers = model.arch.branch_layers[bi]
    for li in range(len(layers) - 1, -1, -1):
        spec = layers[li]
        entry = cache[li]
        if isinstance(spec, ConvSpec):
            _, cols, mask, x_shape = entry
            dz = dy.transpose(0, 2, 1) * mask                       # [B, To, F]
            w = model.views[f"branch{bi}/layer{li}/w"]
            grad_views[f"branch{bi}/layer{li}/w"] += _conv_weight_grad(dz, cols).reshape(w.shape)
            grad_views[f"branch{bi}/layer{li}/b"] += dz.sum(axis=(0, 1))
            if li == 0:
                break
            wmat = w.reshape(spec.filters, -1)
            dcols = (dz @ wmat).reshape(dz.shape[0], dz.shape[1], x_shape[1], spec.kernel)
            dx = np.zeros(x_shape, dtype=model.dtype)
            t_out = dz.shape[1]
            for j in range(spec.kernel):
                dx[:, :, j:j + spec.stride * (t_out - 1) + 1:spec.stride] += (
                    dcols[:, :, :, j].transpose(0, 2, 1)
                )
            dy = dx
        elif isinstance(spec, PoolSpec):
            if li == 0:
                break
            _, x, y = entry
            dy = _max_pool_backward(x, y, dy, spec.width)
        else:
            _, x2, mask, pre_shape = entry
            dz = dy if mask is None else dy * mask
            name = f"branch{bi}/layer{li}"
            _backward_dense(grad_views, f"{name}/w", f"{name}/b", dz, x2)
            if li == 0:
                break
            dy = dz @ model.views[f"{name}/w"]
            if pre_shape is not None:
                dy = dy.reshape(pre_shape)


def backward_batch(model: EmbeddingModel, cache: dict, d_emb: np.ndarray) -> np.ndarray:
    """Accumulate d(loss)/d(weights) for d(loss)/d(embeddings); returns a flat vector."""
    grad = np.zeros(model.n_weights, dtype=model.dtype)
    grad_views = {
        p.name: grad[p.offset:p.offset + p.size].reshape(p.shape) for p in model.layout
    }
    z, r = cache["l2"]
    d_emb = d_emb.astype(model.dtype)
    dz = d_emb / r[:, None] - z * ((d_emb * z).sum(axis=1) / r**3)[:, None]
    for hi in range(len(model.arch.head_layers) - 1, -1, -1):
        _, x2, _, _ = cache["head"][hi]
        _backward_dense(grad_views, f"head/layer{hi}/w", f"head/layer{hi}/b", dz, x2)
        dz = dz @ model.views[f"head/layer{hi}/w"]
    if model.arch.n_branches == 1:
        _backward_branch(model, 0, cache["branches"][0], dz, grad_views)
    else:
        split = np.cumsum(cache["branch_widths"])[:-1]
        for bi, dpart in enumerate(np.split(dz, split, axis=1)):
            _backward_branch(model, bi, cache["branches"][bi], dpart, grad_views)
    return grad
