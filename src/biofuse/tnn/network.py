"""Differentiable layer-stack engine for the embedding models.

A model is an ordered list of layer stacks: one per branch, then the head
over the concatenated branch outputs.  Every stack runs through the same
forward and backward loop.  Weights live in one flat vector with per-layer
views, so optimizers, finite-difference checks, and serialization all act on
the same buffer.  Forward/backward are pure given (weights, input);
everything is plain numpy.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ..errors import ShapeError, ValidationError
from ..preprocess import PairedSample, Sample
from .arch import ArchSpec, ConvSpec, DenseSpec, PoolSpec, branch_output_widths

_NORM_EPS = 1e-24  # inside the sqrt of the L2 normalization
_EMBED_CHUNK = 512  # samples stacked at a time in embed_batch
_EMBED_BLOCK = 128  # rows per forward pass in embed_batch


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
        """Embed samples as [N, D] float64 rows of unit L2 norm.

        Samples are stacked 512 at a time and each stack runs forward in
        blocks of 128 rows; a tail shorter than 128 rows joins the block
        before it.  So a row runs in a pass of at least 128 rows or, in a
        stack of fewer than 128, in one pass over the whole stack, and gets
        the bytes of one pass per stack (README, "Determinism") while the
        forward pass's temporaries stay at 128 rows.
        """
        out = np.empty((len(samples), self.arch.embedding_dim), dtype=np.float64)
        for lo in range(0, len(samples), _EMBED_CHUNK):
            branches = stack_inputs(samples[lo:lo + _EMBED_CHUNK], self)
            n = len(branches[0])
            bounds = [0, *range(_EMBED_BLOCK, n - _EMBED_BLOCK + 1, _EMBED_BLOCK), n]
            for a, b in zip(bounds, bounds[1:]):
                emb, _ = forward_batch(self, tuple(x[a:b] for x in branches), with_cache=False)
                block = out[lo + a:lo + b]
                block[...] = emb
                block /= np.sqrt((block * block).sum(axis=1))[:, None]
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
    """One array per branch from a Sample or PairedSample."""
    arch = model.arch
    if isinstance(sample, Sample):
        inputs = (sample.data,)
        tags = (sample.modality,)
    elif isinstance(sample, PairedSample):
        inputs = (sample.brain.data, sample.eye.data)
        tags = (sample.brain.modality, sample.eye.modality)
    else:
        raise ShapeError(f"cannot embed object of type {type(sample).__name__}")
    if len(inputs) != arch.n_branches:
        raise ShapeError(
            f"{arch.tag} model takes {arch.n_branches} input branch(es), got {len(inputs)}"
        )
    if arch.modalities is not None and tags != arch.modalities:
        raise ShapeError(
            f"sample modalities {tuple(t.value for t in tags)} do not match "
            f"model branches {tuple(m.value for m in arch.modalities)}"
        )
    for bi, x in enumerate(inputs):
        expected = (arch.input_channels[bi], arch.input_points)
        if x.shape != expected:
            raise ShapeError(f"branch {bi} input must be {expected}, got {x.shape}")
    return inputs


def stack_inputs(samples: Sequence, model: EmbeddingModel) -> tuple[np.ndarray, ...]:
    per_branch = [as_branch_inputs(s, model) for s in samples]
    return tuple(
        np.stack([row[bi] for row in per_branch], dtype=model.dtype)
        for bi in range(model.arch.n_branches)
    )


# ---------------------------------------------------------------------------
# Forward / backward


def _im2col(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """[B, C, T] input as C-contiguous [B, To, C*k] columns, c-major and tap-minor.

    One strided slice copy per tap into a [B, To, C, k] buffer; _col2im is
    the adjoint tap loop."""
    b, c, t = x.shape
    t_out = (t - kernel) // stride + 1
    cols = np.empty((b, t_out, c, kernel), dtype=x.dtype)
    for j in range(kernel):
        cols[:, :, :, j] = x[:, :, j:j + stride * (t_out - 1) + 1:stride].transpose(0, 2, 1)
    return cols.reshape(b, t_out, c * kernel)


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


def _weight_grad(dz: np.ndarray, inp: np.ndarray) -> np.ndarray:
    """sum over the leading axes of dz[..., f] * inp[..., k] as one GEMM: [F, K]."""
    return dz.reshape(-1, dz.shape[-1]).T @ inp.reshape(-1, inp.shape[-1])


def _col2im(dcols: np.ndarray, x_shape: tuple[int, ...], kernel: int, stride: int) -> np.ndarray:
    """Adjoint of _im2col's tap loop: add [B, To, C*k] column gradients back
    onto [B, C, T], one strided slice per tap."""
    b, t_out = dcols.shape[:2]
    dcols = dcols.reshape(b, t_out, x_shape[1], kernel)
    dx = np.zeros(x_shape, dtype=dcols.dtype)
    for j in range(kernel):
        dx[:, :, j:j + stride * (t_out - 1) + 1:stride] += dcols[:, :, :, j].transpose(0, 2, 1)
    return dx


def _stacks(arch: ArchSpec) -> list[tuple[str, tuple]]:
    """(weight prefix, layers) per layer stack in layout order: each branch,
    then the head (empty for single-modality and fusion-a archs)."""
    branches = [(f"branch{bi}", layers) for bi, layers in enumerate(arch.branch_layers)]
    return branches + [("head", arch.head_layers)]


def _forward_stack(model, stack: tuple[str, tuple], x: np.ndarray, with_cache: bool):
    """Run one stack; ReLU follows every conv and dense layer but the last.

    Returns (output, per-layer cache): (x, y) for a pool, (layer input as
    columns or rows, ReLU mask or None, input shape) for a conv or dense."""
    prefix, layers = stack
    cache: list = []
    for li, spec in enumerate(layers):
        if isinstance(spec, PoolSpec):
            y = _max_pool(x, spec.width)
            if with_cache:
                cache.append((x, y))
            x = y
            continue
        w = model.views[f"{prefix}/layer{li}/w"]
        bias = model.views[f"{prefix}/layer{li}/b"]
        conv = isinstance(spec, ConvSpec)
        inp = _im2col(x, spec.kernel, spec.stride) if conv else x.reshape(x.shape[0], -1)
        z = inp @ w.reshape(w.shape[0], -1).T
        z += bias
        mask = z > 0 if li < len(layers) - 1 else None
        if mask is not None:
            np.multiply(z, mask, out=z)  # ReLU in place: z * mask, -0.0 and NaN kept
        if with_cache:
            cache.append((inp, mask, x.shape))
        x = z.transpose(0, 2, 1) if conv else z
    return x, cache


def forward_batch(model: EmbeddingModel, branches: tuple[np.ndarray, ...], with_cache: bool):
    """Embed a stacked batch; returns (embeddings [B x D], cache or None)."""
    *branch_stacks, head = _stacks(model.arch)
    outs, caches = [], []
    for stack, x in zip(branch_stacks, branches):
        out, cache = _forward_stack(model, stack, np.asarray(x, dtype=model.dtype), with_cache)
        outs.append(out)
        caches.append(cache)
    x, cache = _forward_stack(model, head, np.concatenate(outs, axis=1), with_cache)
    caches.append(cache)
    s = (x * x).sum(axis=1)
    r = np.sqrt(s + model.dtype.type(_NORM_EPS))
    emb = x / r[:, None]
    if not with_cache:
        return emb, None
    return emb, {"stacks": caches, "branch_widths": [o.shape[1] for o in outs], "l2": (x, r)}


def _backward_stack(model, stack: tuple[str, tuple], cache: list, dy: np.ndarray,
                    grad_views: dict, input_grad: bool):
    """Add one stack's weight gradients for d(loss)/d(output) `dy`.

    Returns d(loss)/d(input) when `input_grad`; otherwise layer 0's data
    gradient is never formed and None is returned."""
    prefix, layers = stack
    for li in range(len(layers) - 1, -1, -1):
        spec = layers[li]
        if isinstance(spec, PoolSpec):
            if li == 0 and not input_grad:
                return None
            x, y = cache[li]
            dy = _max_pool_backward(x, y, dy, spec.width)
            continue
        inp, mask, x_shape = cache[li]
        conv = isinstance(spec, ConvSpec)
        dz = dy.transpose(0, 2, 1) if conv else dy                  # [B, (To,) F]
        if mask is not None:
            dz = dz * mask
        w = model.views[f"{prefix}/layer{li}/w"]
        grad_views[f"{prefix}/layer{li}/w"] += _weight_grad(dz, inp).reshape(w.shape)
        grad_views[f"{prefix}/layer{li}/b"] += dz.sum(axis=tuple(range(dz.ndim - 1)))
        if li == 0 and not input_grad:
            return None
        dinp = dz @ w.reshape(w.shape[0], -1)
        dy = _col2im(dinp, x_shape, spec.kernel, spec.stride) if conv else dinp.reshape(x_shape)
    return dy


def backward_batch(model: EmbeddingModel, cache: dict, d_emb: np.ndarray) -> np.ndarray:
    """Accumulate d(loss)/d(weights) for d(loss)/d(embeddings); returns a flat vector.

    A `d_emb` with no non-zero entry (a step with no active triplet) returns
    zeros without a backward pass.  For finite activations that is
    bit-identical: the full pass adds sums of products with a ±0.0 factor
    onto this +0.0 buffer, and +0.0 + ±0.0 is +0.0.  A NaN entry counts as
    non-zero, so a diverging step still propagates it."""
    grad = np.zeros(model.n_weights, dtype=model.dtype)
    d_emb = d_emb.astype(model.dtype)
    if not d_emb.any():
        return grad
    grad_views = {
        p.name: grad[p.offset:p.offset + p.size].reshape(p.shape) for p in model.layout
    }
    z, r = cache["l2"]
    dz = d_emb / r[:, None] - z * ((d_emb * z).sum(axis=1) / r**3)[:, None]
    *branch_stacks, head = _stacks(model.arch)
    *branch_caches, head_cache = cache["stacks"]
    dz = _backward_stack(model, head, head_cache, dz, grad_views, input_grad=True)
    parts = np.split(dz, np.cumsum(cache["branch_widths"])[:-1], axis=1)
    for stack, stack_cache, dpart in zip(branch_stacks, branch_caches, parts):
        _backward_stack(model, stack, stack_cache, dpart, grad_views, input_grad=False)
    return grad
