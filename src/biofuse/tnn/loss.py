"""Triplet loss, semi-hard mining, and the analytic gradient of the batch loss."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import MiningError, ShapeError


@dataclass(frozen=True)
class Triplet:
    """Indices into a batch: anchor and positive share a subject, negative does not."""

    anchor: int
    positive: int
    negative: int


def pairwise_sq_dists(embeddings: np.ndarray) -> np.ndarray:
    e = np.asarray(embeddings, dtype=np.float64)
    sq = (e * e).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (e @ e.T)
    return np.maximum(d2, 0.0)


def mine_triplets(
    embeddings: np.ndarray, labels: Sequence[str], margin: float
) -> list[Triplet]:
    """Select one negative per anchor-positive pair, deterministically.

    Preference goes to the hardest semi-hard negative (smallest d_an within
    the band d_ap < d_an < d_ap + margin on squared distances); if the band
    is empty, the hardest negative in the batch is taken instead.  Among
    equal distances the lowest batch index wins.  Triplets come anchor-major,
    positives ascending.
    """
    labels = np.asarray(labels, dtype=object)
    n = len(labels)
    if np.asarray(embeddings).shape[0] != n:
        raise ShapeError("one label per embedding required")
    if len(set(labels.tolist())) < 2:
        raise MiningError("batch holds a single subject; no negatives exist")
    d2 = pairwise_sq_dists(embeddings)
    same = labels[:, None] == labels[None, :]
    a, p = np.nonzero(same & ~np.eye(n, dtype=bool))
    if a.size == 0:
        raise MiningError("no subject contributes two samples; no anchor-positive pairs")
    neg = ~same[a]                                    # [P, N], one row per pair
    d_an = d2[a]
    d_ap = d2[a, p][:, None]
    band = neg & (d_an > d_ap) & (d_an < d_ap + margin)
    pool = np.where(band.any(axis=1)[:, None], band, neg)
    pick = np.where(pool, d_an, np.inf).argmin(axis=1)
    # a pool of infinite distances only: argmin may land before the pool
    pick = np.where(pool[np.arange(a.size), pick], pick, pool.argmax(axis=1))
    return [Triplet(*t) for t in zip(a.tolist(), p.tolist(), pick.tolist())]


def _triplet_embedding_grads(
    emb: np.ndarray, triplets: Sequence[Triplet], margin: float
) -> tuple[np.ndarray, float]:
    """d(mean loss)/d(embeddings) and the mean loss; inactive triplets contribute zero.

    A triplet is inactive iff its hinge is <= 0 (a NaN hinge stays active).
    The loss total is summed in triplet order, and each embedding row takes
    its gradient terms in triplet order, anchor then positive then negative.
    """
    inv = 1.0 / len(triplets)
    idx = np.array([(t.anchor, t.positive, t.negative) for t in triplets])
    fa, fp, fn = emb[idx[:, 0]], emb[idx[:, 1]], emb[idx[:, 2]]
    ap = fa - fp
    an = fa - fn
    loss = ((ap * ap).sum(axis=1) - (an * an).sum(axis=1)).astype(np.float64) + margin
    active = ~(loss <= 0.0)
    total = float(np.cumsum(np.r_[0.0, loss[active]])[-1])
    terms = np.stack(
        [2.0 * inv * (fn - fp), -2.0 * inv * ap, 2.0 * inv * an], axis=1
    )[active]                                         # [T, 3, D]
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, idx[active].ravel(), terms.reshape(-1, emb.shape[1]))
    return d_emb, total * inv
