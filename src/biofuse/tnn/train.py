"""Mini-batch trainer: seeded shuffling, online mining, SGD/Adam steps."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..errors import DivergenceError, ValidationError, check_field_types
from .arch import ArchSpec
from .loss import _triplet_embedding_grads, mine_triplets
from .network import EmbeddingModel, backward_batch, forward_batch, stack_inputs

OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; margin is the triplet hinge width.

    learning_rate may be zero (a no-op optimizer), which is useful for
    plumbing tests.  samples_per_subject controls batch packing so every
    batch contains anchor-positive pairs.
    """

    margin: float = 0.2
    batch_size: int = 64
    epochs: int = 12
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    samples_per_subject: int = 4

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.margin <= 0:
            raise ValidationError("margin must be positive")
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.batch_size < 4 or self.samples_per_subject < 2:
            raise ValidationError("batch_size must be >= 4 and samples_per_subject >= 2")
        if self.batch_size < 2 * self.samples_per_subject:
            raise ValidationError("batch_size must hold at least two subject blocks")
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}")


class _Adam:
    def __init__(self, n: int, dtype, beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = np.zeros(n, dtype=dtype)
        self.v = np.zeros(n, dtype=dtype)
        self._a = np.empty(n, dtype=dtype)
        self._b = np.empty(n, dtype=dtype)
        self.t = 0
        self.beta1, self.beta2, self.eps = beta1, beta2, eps

    def step(self, weights: np.ndarray, grad: np.ndarray, lr: float) -> None:
        """One Adam update of `weights` (the optimizer's dtype) in place.

        m, v and the weights are updated through two preallocated buffers
        with the operations, operand dtypes and order of the expression
            m = beta1*m + (1-beta1)*grad;  v = beta2*v + (1-beta2)*grad*grad
            weights -= lr * (m/(1-beta1**t)) / (sqrt(v/(1-beta2**t)) + eps)
        so the bytes are the expression's; no array is allocated per step.
        """
        self.t += 1
        a, b = self._a, self._b
        np.multiply(self.m, self.beta1, out=self.m)
        np.multiply(grad, 1.0 - self.beta1, out=a)
        self.m += a
        np.multiply(self.v, self.beta2, out=self.v)
        np.multiply(grad, 1.0 - self.beta2, out=a)
        a *= grad
        self.v += a
        np.divide(self.m, 1.0 - self.beta1**self.t, out=a)
        a *= lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        weights -= a


class _Sgd:
    def step(self, weights: np.ndarray, grad: np.ndarray, lr: float) -> None:
        weights -= (lr * grad).astype(weights.dtype)


def _mineable(labels: np.ndarray) -> bool:
    counts = np.unique(labels, return_counts=True)[1]
    return counts.size >= 2 and counts.max() >= 2


def make_batches(
    labels: np.ndarray, rng: np.random.Generator, batch_size: int, per_subject: int
) -> list[list[int]]:
    """Seeded shuffle packed into subject blocks so every batch is mineable;
    subjects are visited in sorted label order (names or integer codes)."""
    labels = np.asarray(labels)
    blocks: list[list[int]] = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        idx = idx[rng.permutation(idx.size)]
        for lo in range(0, idx.size, per_subject):
            blocks.append(idx[lo:lo + per_subject].tolist())
    order = rng.permutation(len(blocks))
    batches: list[list[int]] = []
    cur: list[int] = []
    for bi in order:
        block = blocks[int(bi)]
        if cur and len(cur) + len(block) > batch_size:
            batches.append(cur)
            cur = []
        cur.extend(block)
    if cur:
        batches.append(cur)
    # Merge any batch that cannot be mined into its neighbor.
    fixed: list[list[int]] = []
    for batch in batches:
        if fixed and not _mineable(labels[batch]):
            fixed[-1].extend(batch)
        else:
            fixed.append(batch)
    while len(fixed) > 1 and not _mineable(labels[fixed[0]]):
        fixed[0].extend(fixed.pop(1))
    return fixed


def train(
    samples: Sequence,
    arch: ArchSpec,
    cfg: TrainConfig,
    provenance: dict | None = None,
) -> tuple[EmbeddingModel, list[float]]:
    """Train an embedding model; returns (model, mean batch loss per epoch).

    Deterministic: identical config and dataset give bit-identical weights
    under the same BLAS thread count (a different count may reorder the
    floating-point sums in the matrix products and change the last bits).
    Any non-finite weight aborts with DivergenceError naming the step.
    A step with no active triplet has a zero gradient and still takes an
    optimizer step (Adam's momentum keeps moving the weights).  Each step's
    forward cache is freed before the next step's forward pass, so one
    step's activations are live at a time; a conv layer's entry is its
    input, and the backward pass re-forms the columns.  With two usable
    CPUs a two-branch model's branches run their forward and backward
    passes on two threads (see `forward_batch`), with the same bytes.
    """
    # integer subject codes in name order, so batching visits subjects as names sort
    subjects, codes = np.unique([s.subject_id for s in samples], return_inverse=True)
    if subjects.size < 2:  # an empty training set included
        raise ValidationError("training set must contain at least two subjects")
    if np.bincount(codes).max() < 2:
        raise ValidationError("at least one subject needs two samples to form triplets")

    model = EmbeddingModel(arch, seed=cfg.seed)
    branches_all = stack_inputs(samples, model)
    optimizer = _Adam(model.n_weights, model.dtype) if cfg.optimizer == "adam" else _Sgd()
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    step = 0
    for _ in range(cfg.epochs):
        batch_losses: list[float] = []
        for batch in make_batches(codes, rng, cfg.batch_size, cfg.samples_per_subject):
            idx = np.asarray(batch)
            branch_batch = tuple(x[idx] for x in branches_all)
            emb, cache = forward_batch(model, branch_batch, with_cache=True)
            triplets = mine_triplets(emb, codes[idx], cfg.margin)
            d_emb, mean_loss = _triplet_embedding_grads(emb, triplets, cfg.margin)
            grad = backward_batch(model, cache, d_emb)
            del branch_batch, cache  # free this step's activations before the next forward
            step += 1
            optimizer.step(model.weights, grad, cfg.learning_rate)
            if not np.all(np.isfinite(model.weights)):
                raise DivergenceError(f"non-finite weights after step {step}")
            batch_losses.append(mean_loss)
        history.append(float(np.mean(batch_losses)) if batch_losses else 0.0)

    model.provenance = {
        **asdict(cfg),
        "n_train_samples": len(samples),
        "n_train_subjects": len(subjects),
        "arch": arch.tag,
        **(provenance or {}),
    }
    return model, history
