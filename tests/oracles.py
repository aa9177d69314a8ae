"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain loops (and, for the
S1 and S2/S3 trial builders, the per-subject numpy loops they replaced) so it
shares no code path with the implementations under test.  The forward and
backward oracles are the per-branch loops and separate head loop that the
layer-stack engine replaced.  They use the gather-based im2col that the
tap-loop `_im2col` replaced (`oracle_im2col`) and reuse only the library's
max-pool kernels, which have tests of their own.  `oracle_read_corpus` is
the whole-file corpus reader that the streaming `read_corpus` replaced; it
reuses only the library's token parsers and record types.
`oracle_embed_batch` is the one forward pass per 512-sample stack that
`embed_batch`'s 128-row blocks replaced, and `oracle_adam_step` the
expression form of the Adam update that the in-place `_Adam.step` replaced.
The `*_by_name` oracles are the trial-set methods that grouped trials by
comparing object arrays of subject names, before trial sets held integer
subject codes; each side of a trial set is given as (score, claimed,
verification subject) rows.
`OracleTriplet`, `oracle_mine_triplets_objects`,
`oracle_triplet_grads_objects` and `oracle_make_batches_by_name` are the
training step before it ran on integer arrays: mining returned one frozen
dataclass per triplet, the gradient rebuilt an index array from them, and
batching grouped sample indices in a dict keyed by subject name.
`triplet_step`, `triplet_records`, `corpus_equal` and `rows_trial_set` are
test helpers, not oracles: the first runs one training step's library calls
for the gradient checks, the second builds the triplet record array that
mining returns, the last builds a `TrialSet` from such rows.
"""

import bisect
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


def oracle_far_frr(genuine, impostor, theta):
    far = sum(1 for s in impostor if s >= theta) / len(impostor)
    frr = sum(1 for s in genuine if s < theta) / len(genuine)
    return far, frr


def _candidates(genuine, impostor):
    cands = sorted(set(list(genuine) + list(impostor)))
    cands.append(math.nextafter(cands[-1], math.inf))
    return cands


def oracle_eer(genuine, impostor):
    """Exhaustive threshold sweep with the same crossing conventions."""
    genuine, impostor = list(genuine), list(impostor)
    if min(genuine) > max(impostor):
        return 0.0, (min(genuine) + max(impostor)) / 2.0
    cands = _candidates(genuine, impostor)
    rates = [oracle_far_frr(genuine, impostor, th) for th in cands]
    diffs = [far - frr for far, frr in rates]
    k = next(i for i, d in enumerate(diffs) if d <= 0)
    if diffs[k] == 0.0:
        j = k
        while j + 1 < len(diffs) and diffs[j + 1] == 0.0:
            j += 1
        return rates[j][0], cands[j]
    t = diffs[k - 1] / (diffs[k - 1] - diffs[k])
    eer = rates[k - 1][0] + t * (rates[k][0] - rates[k - 1][0])
    theta = cands[k - 1] + t * (cands[k] - cands[k - 1])
    return eer, theta


def oracle_frr_at_far(genuine, impostor, far_target):
    genuine, impostor = list(genuine), list(impostor)
    for th in _candidates(genuine, impostor):
        far, frr = oracle_far_frr(genuine, impostor, th)
        if far <= far_target:
            return frr, th
    raise AssertionError("sweep sentinel must reach FAR 0")


def oracle_interp(grid, xs, ys):
    """Plain linear interpolation with end clamping, one point at a time."""
    out = []
    for g in grid:
        if g <= xs[0]:
            out.append(ys[0])
            continue
        if g >= xs[-1]:
            out.append(ys[-1])
            continue
        j = bisect.bisect_right(xs, g)
        x0, x1 = xs[j - 1], xs[j]
        y0, y1 = ys[j - 1], ys[j]
        if g == x0:
            out.append(y0)
        else:
            out.append(y0 + (y1 - y0) * (g - x0) / (x1 - x0))
    return out


def oracle_mine(embeddings, labels, margin):
    """Enumerate all (anchor, positive) pairs and apply the stated rule."""

    def d2(i, j):
        return sum((a - b) ** 2 for a, b in zip(embeddings[i], embeddings[j]))

    chosen = []
    n = len(labels)
    for a in range(n):
        for p in range(n):
            if p == a or labels[p] != labels[a]:
                continue
            d_ap = d2(a, p)
            negatives = [j for j in range(n) if labels[j] != labels[a]]
            semi = [j for j in negatives if d_ap < d2(a, j) < d_ap + margin]
            pool = semi if semi else negatives
            best = min(pool, key=lambda j: (d2(a, j), j))
            chosen.append((a, p, best))
    return chosen


def oracle_best_match(verification, templates):
    """Score templates one at a time; a later template wins only with a strictly
    higher score, or an equal score from a lower round."""
    best_score, best_tpl = None, None
    for tpl in templates:
        score = -math.sqrt(
            sum((float(a) - float(b)) ** 2 for a, b in zip(verification, tpl.vector))
        )
        if (
            best_score is None
            or score > best_score
            or (score == best_score and tpl.round_id < best_tpl.round_id)
        ):
            best_score, best_tpl = score, tpl
    return best_score, best_tpl


def oracle_fuse(s_eye, s_brain, rule):
    """Combine one pair of [0, 1] scores under a rule given by name or enum."""
    name = getattr(rule, "value", rule)
    if name == "max":
        return s_eye if s_eye >= s_brain else s_brain
    if name == "min":
        return s_eye if s_eye <= s_brain else s_brain
    if name == "mean":
        return (s_eye + s_brain) / 2.0
    if name == "product":
        return s_eye * s_brain
    raise ValueError(f"unknown fusion rule {rule!r}")


def oracle_s1_rows(labels, rounds):
    """S1 trials as (enroll, verify, claimed) rows, built subject by subject.

    Subjects with fewer than two rounds take no part.  Genuine rows pair every
    two cross-round samples of one subject once (enroll index first);
    impostor rows pair every cross-round (enroll, verify) sample of two
    different subjects, claiming the enrollment subject.
    """
    labels = np.asarray(labels, dtype=object)
    rounds = np.asarray(rounds)
    subjects = sorted(set(labels.tolist()))
    idx_by_subject = {s: np.flatnonzero(labels == s) for s in subjects}
    eligible = [s for s in subjects if np.unique(rounds[idx_by_subject[s]]).size >= 2]
    genuine = []
    for s in eligible:
        idx = idx_by_subject[s]
        r = rounds[idx]
        a, b = np.triu_indices(idx.size, k=1)
        keep = r[a] != r[b]
        genuine += [(int(e), int(v), s) for e, v in zip(idx[a[keep]], idx[b[keep]])]
    impostor = []
    for s in eligible:
        for t in eligible:
            if t == s:
                continue
            ee, vv = np.meshgrid(idx_by_subject[s], idx_by_subject[t], indexing="ij")
            ee, vv = ee.ravel(), vv.ravel()
            keep = rounds[ee] != rounds[vv]
            impostor += [(int(e), int(v), s) for e, v in zip(ee[keep], vv[keep])]
    return genuine, impostor


def oracle_best_rows(labels, rounds, embeddings):
    """S2/S3 trials as (claimed, verify, enrollment mask, score) rows, built
    subject by subject.

    Subjects with fewer than two rounds take no part.  Every sample of an
    eligible subject is a genuine row; every sample of another eligible
    subject is an impostor row.  The enrollment mask holds the claimed
    subject's rounds without the verification round, and the score is the
    best -distance to a claimed-subject sample from another round.  Squared
    distances come from direct differences, so scores equal the library's bit
    for bit wherever both are exact, as for integer embeddings.
    """
    labels = np.asarray(labels, dtype=object)
    rounds = np.asarray(rounds, dtype=np.int64)
    e = np.asarray(embeddings, dtype=np.float64)
    d2 = ((e[:, None, :] - e[None, :, :]) ** 2).sum(axis=2)
    subjects = sorted(set(labels.tolist()))
    idx_by_subject = {s: np.flatnonzero(labels == s) for s in subjects}
    rounds_by_subject = {s: np.unique(rounds[idx_by_subject[s]]) for s in subjects}
    eligible = [s for s in subjects if rounds_by_subject[s].size >= 2]
    mask_by_subject = {s: sum(1 << int(r) for r in rounds_by_subject[s]) for s in eligible}

    def best(s, v):
        enr_idx = idx_by_subject[s]
        sim = -np.sqrt(d2[enr_idx, v])
        sim[rounds[enr_idx] == rounds[v]] = -np.inf
        return float(sim.max())

    def row(s, v):
        return (s, int(v), mask_by_subject[s] & ~(1 << int(rounds[v])), best(s, v))

    genuine = [row(s, v) for s in eligible for v in idx_by_subject[s]]
    impostor = [
        row(s, v) for s in eligible for t in eligible if t != s for v in idx_by_subject[t]
    ]
    return genuine, impostor


def oracle_mine_loop(embeddings, labels, margin):
    """Semi-hard mining as (anchor, positive, negative) rows, one anchor and one
    positive at a time.

    Squared distances use the library's expression, so distances and their
    ties agree with it bit for bit.  Returns None where the library raises
    MiningError (a single subject, or no subject with two samples).
    """
    labels = np.asarray(labels, dtype=object)
    n = len(labels)
    if len(set(labels.tolist())) < 2:
        return None
    e = np.asarray(embeddings, dtype=np.float64)
    sq = (e * e).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (e @ e.T), 0.0)
    same = labels[:, None] == labels[None, :]
    triplets = []
    for a in range(n):
        positives = np.flatnonzero(same[a])
        positives = positives[positives != a]
        if positives.size == 0:
            continue
        negatives = np.flatnonzero(~same[a])
        d_neg = d2[a, negatives]
        for p in positives:
            d_ap = d2[a, p]
            band = (d_neg > d_ap) & (d_neg < d_ap + margin)
            pool = negatives[band] if band.any() else negatives
            pool_d = d2[a, pool]
            neg = int(pool[int(np.argmin(pool_d))])
            triplets.append((a, int(p), neg))
    return triplets or None


def oracle_triplet_grads(emb, triplets, margin):
    """d(mean loss)/d(embeddings) and the mean loss, one (a, p, n) triplet at a time."""
    d_emb = np.zeros_like(emb)
    total = 0.0
    inv = 1.0 / len(triplets)
    for a, p, n in triplets:
        fa, fp, fn = emb[a], emb[p], emb[n]
        ap = fa - fp
        an = fa - fn
        loss = float((ap * ap).sum() - (an * an).sum()) + margin
        if loss <= 0.0:
            continue
        total += loss
        d_emb[a] += 2.0 * inv * (fn - fp)
        d_emb[p] += -2.0 * inv * ap
        d_emb[n] += 2.0 * inv * an
    return d_emb, total * inv


@dataclass(frozen=True)
class OracleTriplet:
    """Indices into a batch: anchor and positive share a subject, negative does not."""

    anchor: int
    positive: int
    negative: int


def oracle_mine_triplets_objects(embeddings, labels, margin):
    """Semi-hard mining over an object array of labels, one `OracleTriplet`
    per row; raises the library's errors where it does."""
    from biofuse.errors import MiningError, ShapeError

    labels = np.asarray(labels, dtype=object)
    n = len(labels)
    if np.asarray(embeddings).shape[0] != n:
        raise ShapeError("one label per embedding required")
    if len(set(labels.tolist())) < 2:
        raise MiningError("batch holds a single subject; no negatives exist")
    e = np.asarray(embeddings, dtype=np.float64)
    sq = (e * e).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (e @ e.T), 0.0)
    same = labels[:, None] == labels[None, :]
    a, p = np.nonzero(same & ~np.eye(n, dtype=bool))
    if a.size == 0:
        raise MiningError("no subject contributes two samples; no anchor-positive pairs")
    neg = ~same[a]
    d_an = d2[a]
    d_ap = d2[a, p][:, None]
    band = neg & (d_an > d_ap) & (d_an < d_ap + margin)
    pool = np.where(band.any(axis=1)[:, None], band, neg)
    pick = np.where(pool, d_an, np.inf).argmin(axis=1)
    pick = np.where(pool[np.arange(a.size), pick], pick, pool.argmax(axis=1))
    return [OracleTriplet(*t) for t in zip(a.tolist(), p.tolist(), pick.tolist())]


def oracle_triplet_grads_objects(emb, triplets, margin):
    """d(mean loss)/d(embeddings) and the mean loss from a list of
    `OracleTriplet`s, through an index array rebuilt from them."""
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
    )[active]
    d_emb = np.zeros_like(emb)
    np.add.at(d_emb, idx[active].ravel(), terms.reshape(-1, emb.shape[1]))
    return d_emb, total * inv


def _oracle_mineable(labels):
    counts = Counter(labels)
    return len(counts) >= 2 and max(counts.values()) >= 2


def oracle_make_batches_by_name(labels, rng, batch_size, per_subject):
    """Subject blocks from a dict of index lists keyed by label, visited in
    `sorted` label order, packed and merged as the library packs them."""
    by_subject = {}
    for i, lab in enumerate(labels):
        by_subject.setdefault(lab, []).append(i)
    blocks = []
    for subject in sorted(by_subject):
        idx = np.asarray(by_subject[subject])
        idx = idx[rng.permutation(idx.size)]
        for lo in range(0, idx.size, per_subject):
            blocks.append(idx[lo:lo + per_subject].tolist())
    order = rng.permutation(len(blocks))
    batches = []
    cur = []
    for bi in order:
        block = blocks[int(bi)]
        if cur and len(cur) + len(block) > batch_size:
            batches.append(cur)
            cur = []
        cur.extend(block)
    if cur:
        batches.append(cur)
    fixed = []
    for batch in batches:
        if fixed and not _oracle_mineable([labels[i] for i in batch]):
            fixed[-1].extend(batch)
        else:
            fixed.append(batch)
    while len(fixed) > 1 and not _oracle_mineable([labels[i] for i in fixed[0]]):
        fixed[0].extend(fixed.pop(1))
    return fixed


def oracle_im2col(x, kernel, stride):
    """[B, C, T] -> [B, To, C*k] columns by one fancy-index gather and a
    transposing reshape copy."""
    b, c, t = x.shape
    t_out = (t - kernel) // stride + 1
    idx = np.arange(t_out)[:, None] * stride + np.arange(kernel)[None, :]
    cols = x[:, :, idx]                      # [B, C, To, k]
    return cols.transpose(0, 2, 1, 3).reshape(b, t_out, c * kernel)


def _oracle_forward_branch(model, bi, x):
    """One branch as its own loop, with the per-kind cache entries it replaced."""
    from biofuse.tnn.arch import ConvSpec, PoolSpec
    from biofuse.tnn.network import _max_pool

    layers = model.arch.branch_layers[bi]
    cache = []
    for li, spec in enumerate(layers):
        if isinstance(spec, ConvSpec):
            w = model.views[f"branch{bi}/layer{li}/w"]
            bias = model.views[f"branch{bi}/layer{li}/b"]
            # for kernel 1 the gather's reshape returns a strided view, and
            # matmul may round a strided operand differently (seen at float32
            # with one filter); the library's columns are always C-contiguous
            cols = np.ascontiguousarray(oracle_im2col(x, spec.kernel, spec.stride))
            z = cols @ w.reshape(spec.filters, -1).T + bias
            mask = z > 0
            cache.append(("conv", cols, mask, x.shape))
            x = (z * mask).transpose(0, 2, 1)
        elif isinstance(spec, PoolSpec):
            y = _max_pool(x, spec.width)
            cache.append(("pool", x, y))
            x = y
        else:
            flattened = x.ndim == 3
            x2 = x.reshape(x.shape[0], -1) if flattened else x
            w = model.views[f"branch{bi}/layer{li}/w"]
            bias = model.views[f"branch{bi}/layer{li}/b"]
            z = x2 @ w.T + bias
            if li == len(layers) - 1:
                y, mask = z, None
            else:
                mask = z > 0
                y = z * mask
            cache.append(("dense", x2, mask, x.shape if flattened else None))
            x = y
    return x, cache


def oracle_forward(model, branches):
    """Embeddings and cache from one loop per branch plus a separate head loop
    (no ReLU in the head)."""
    outs, caches = [], []
    for bi, x in enumerate(branches):
        out, cache = _oracle_forward_branch(model, bi, np.asarray(x, dtype=model.dtype))
        outs.append(out)
        caches.append(cache)
    x = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    head = []
    for hi in range(len(model.arch.head_layers)):
        head.append(x)
        x = x @ model.views[f"head/layer{hi}/w"].T + model.views[f"head/layer{hi}/b"]
    r = np.sqrt((x * x).sum(axis=1) + model.dtype.type(1e-24))
    cache = {"branches": caches, "widths": [o.shape[1] for o in outs], "head": head, "l2": (x, r)}
    return x / r[:, None], cache


def _oracle_backward_branch(model, bi, cache, dy, grad_views):
    from biofuse.tnn.arch import ConvSpec, PoolSpec
    from biofuse.tnn.network import _max_pool_backward

    layers = model.arch.branch_layers[bi]
    for li in range(len(layers) - 1, -1, -1):
        spec = layers[li]
        entry = cache[li]
        if isinstance(spec, ConvSpec):
            _, cols, mask, x_shape = entry
            dz = dy.transpose(0, 2, 1) * mask
            w = model.views[f"branch{bi}/layer{li}/w"]
            dw = dz.reshape(-1, dz.shape[2]).T @ cols.reshape(-1, cols.shape[2])
            grad_views[f"branch{bi}/layer{li}/w"] += dw.reshape(w.shape)
            grad_views[f"branch{bi}/layer{li}/b"] += dz.sum(axis=(0, 1))
            if li == 0:
                break
            dcols = (dz @ w.reshape(spec.filters, -1)).reshape(
                dz.shape[0], dz.shape[1], x_shape[1], spec.kernel
            )
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
            grad_views[f"{name}/w"] += dz.T @ x2
            grad_views[f"{name}/b"] += dz.sum(axis=0)
            if li == 0:
                break
            dy = dz @ model.views[f"{name}/w"]
            if pre_shape is not None:
                dy = dy.reshape(pre_shape)


def oracle_backward(model, cache, d_emb):
    """Flat weight gradient for `oracle_forward`'s cache: the head loop, then
    one loop per branch on its slice of the head's input gradient."""
    grad = np.zeros(model.n_weights, dtype=model.dtype)
    grad_views = {
        p.name: grad[p.offset:p.offset + p.size].reshape(p.shape) for p in model.layout
    }
    z, r = cache["l2"]
    d_emb = d_emb.astype(model.dtype)
    dz = d_emb / r[:, None] - z * ((d_emb * z).sum(axis=1) / r**3)[:, None]
    for hi in range(len(model.arch.head_layers) - 1, -1, -1):
        grad_views[f"head/layer{hi}/w"] += dz.T @ cache["head"][hi]
        grad_views[f"head/layer{hi}/b"] += dz.sum(axis=0)
        dz = dz @ model.views[f"head/layer{hi}/w"]
    if model.arch.n_branches == 1:
        _oracle_backward_branch(model, 0, cache["branches"][0], dz, grad_views)
    else:
        split = np.cumsum(cache["widths"])[:-1]
        for bi, dpart in enumerate(np.split(dz, split, axis=1)):
            _oracle_backward_branch(model, bi, cache["branches"][bi], dpart, grad_views)
    return grad


def oracle_embed_batch(model, samples):
    """[N, D] float64 unit rows: each 512-sample stack in one forward pass."""
    from biofuse.tnn.network import stack_inputs

    out = np.empty((len(samples), model.arch.embedding_dim), dtype=np.float64)
    for lo in range(0, len(samples), 512):
        part = samples[lo:lo + 512]
        emb, _ = oracle_forward(model, stack_inputs(part, model))
        emb = emb.astype(np.float64)
        emb /= np.sqrt((emb * emb).sum(axis=1))[:, None]
        out[lo:lo + len(part)] = emb
    return out


def oracle_adam_step(m, v, t, weights, grad, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (counted from 1) as array expressions; updates `weights`
    in place and returns the new (m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    weights -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(weights.dtype)
    return m, v


def _name_columns(rows):
    """(scores, claimed, ver_subject) arrays of (score, claimed, ver) rows."""
    return (
        np.array([r[0] for r in rows], dtype=np.float64),
        np.array([r[1] for r in rows], dtype=object),
        np.array([r[2] for r in rows], dtype=object),
    )


def oracle_scores_for_identity_by_name(genuine, impostor, identity):
    """(genuine, impostor) scores of the trials claiming `identity`."""
    return tuple(
        scores[claimed == identity]
        for scores, claimed, _ in map(_name_columns, (genuine, impostor))
    )


def oracle_subjects_by_name(genuine, impostor):
    """Every subject a trial claims or takes its verification sample from."""
    return {
        s for side in map(_name_columns, (genuine, impostor))
        for column in side[1:] for s in column.tolist()
    }


def oracle_per_subject_eer_by_name(genuine, impostor, eer_from_scores):
    """(by_subject, thresholds, skipped) of one boolean mask per claimed
    identity, in name order.  `eer_from_scores` is the library's, which has
    oracles of its own: only the grouping is checked here."""
    identities = sorted({r[1] for r in genuine} | {r[1] for r in impostor})
    by_subject, thresholds, skipped = {}, {}, []
    for identity in identities:
        g, i = oracle_scores_for_identity_by_name(genuine, impostor, identity)
        if g.size == 0 or i.size == 0:
            skipped.append(identity)
            continue
        by_subject[identity], thresholds[identity] = eer_from_scores(g, i)
    return by_subject, thresholds, tuple(skipped)


def oracle_tailored_rates_by_name(genuine, impostor, thresholds):
    """Pooled (FAR, FRR) with one threshold per claimed identity, looked up
    trial by trial; identities without a threshold are left out."""

    def scores_and_thresholds(rows):
        scores, claimed, _ = _name_columns(rows)
        keep = np.array([c in thresholds for c in claimed], dtype=bool)
        return scores[keep], np.array([thresholds[c] for c in claimed[keep]])

    g, g_thr = scores_and_thresholds(genuine)
    i, i_thr = scores_and_thresholds(impostor)
    return float((i >= i_thr).mean()), float((g < g_thr).mean())


def rows_trial_set(scenario, genuine, impostor):
    """A `TrialSet` of (score, claimed, ver_subject) rows per side, every
    trial at verification round 0 with enrollment round 1."""
    from biofuse.metrics import TrialBlock, TrialSet

    names = sorted({name for rows in (genuine, impostor) for r in rows for name in r[1:]})
    subjects = np.array(names, dtype=object)
    code = {name: k for k, name in enumerate(names)}

    def block(rows):
        n = len(rows)
        return TrialBlock(
            scores=np.array([r[0] for r in rows], dtype=np.float64),
            claimed_code=np.array([code[r[1]] for r in rows], dtype=np.int64),
            ver_code=np.array([code[r[2]] for r in rows], dtype=np.int64),
            ver_round=np.zeros(n, dtype=np.int64),
            enr_round_mask=np.full(n, 2, dtype=np.int64),
            subjects=subjects,
        )

    return TrialSet(scenario=scenario, genuine=block(genuine), impostor=block(impostor))


def triplet_step(model, branches, triplets, margin):
    """(flat gradient, mean loss) of the mean triplet loss over stacked branch
    inputs, through the library calls one `train` step makes: forward_batch,
    then _triplet_embedding_grads, then backward_batch."""
    from biofuse.tnn.loss import _triplet_embedding_grads
    from biofuse.tnn.network import backward_batch, forward_batch

    emb, cache = forward_batch(model, branches, with_cache=True)
    d_emb, mean_loss = _triplet_embedding_grads(emb, triplets, margin)
    return backward_batch(model, cache, d_emb), mean_loss


def triplet_records(rows):
    """The record array `mine_triplets` returns, from (anchor, positive,
    negative) index rows."""
    rows = np.asarray(rows, dtype=np.intp).reshape(-1, 3)
    return np.rec.fromarrays(rows.T, names="anchor,positive,negative")


def corpus_equal(a, b):
    """Structural equality, bit-exact on floats (NaN positions included)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if ra.subject_id != rb.subject_id or ra.events != rb.events:
            return False
        if len(ra.streams) != len(rb.streams):
            return False
        for sa, sb in zip(ra.streams, rb.streams):
            if sa.modality is not sb.modality or sa.nominal_rate_hz != sb.nominal_rate_hz:
                return False
            if sa.timestamps.tobytes() != sb.timestamps.tobytes():
                return False
            if sa.values.tobytes() != sb.values.tobytes():
                return False
    return True


def _oracle_read_text_lines(path, error):
    """The lines of a UTF-8 text file; a byte sequence that is not UTF-8
    raises `error` naming its line and byte offset."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()
    except UnicodeDecodeError as e:  # read() decodes the whole file at once
        line = e.object.count(b"\n", 0, e.start) + 1
        raise error(f"{path}: line {line}, byte {e.start}: not valid UTF-8") from None


def oracle_read_corpus(path):
    """The whole-file corpus reader the streaming `read_corpus` replaced: it
    decodes and splits the whole text, then builds one token list per row."""
    from biofuse.corpus import (
        CORPUS_MAGIC,
        EventMarker,
        Modality,
        Recording,
        Stream,
        _parse_count,
        _parse_float,
        _parse_int,
    )
    from biofuse.errors import CorpusFormatError, CorpusVersionError, ValidationError

    lines = _oracle_read_text_lines(path, CorpusFormatError)
    if not lines:
        raise CorpusFormatError("line 1: empty file")
    if lines[0] != CORPUS_MAGIC:
        if lines[0].startswith("BIOFUSE-CORPUS"):
            raise CorpusVersionError(f"line 1: unsupported corpus version {lines[0]!r}")
        raise CorpusFormatError("line 1: not a corpus file (missing header)")

    recordings = []
    i = 1
    n_lines = len(lines)
    while i < n_lines:
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        if not line.startswith("recording "):
            raise CorpusFormatError(f"line {i + 1}: expected 'recording <id>', got {line!r}")
        subject_id = line[len("recording "):]
        rec_line = i + 1
        i += 1

        if i >= n_lines or not lines[i].startswith("events "):
            raise CorpusFormatError(f"line {i + 1}: expected 'events <count>'")
        n_events = _parse_count(lines[i][len("events "):], i + 1)
        i += 1
        events = []
        for _ in range(n_events):
            if i >= n_lines:
                raise CorpusFormatError(f"line {i + 1}: truncated event block")
            parts = lines[i].split()
            if len(parts) != 4:
                raise CorpusFormatError(f"line {i + 1}: event record needs 4 fields")
            try:
                events.append(
                    EventMarker(
                        t=_parse_float(parts[0], i + 1),
                        kind=parts[1],
                        round_id=_parse_int(parts[2], i + 1),
                        dot_index=_parse_int(parts[3], i + 1),
                    )
                )
            except ValidationError as e:
                raise CorpusFormatError(f"line {i + 1}: {e}") from None
            i += 1

        streams = []
        while i < n_lines and lines[i].startswith("stream "):
            header = lines[i].split()
            if len(header) != 5:
                raise CorpusFormatError(f"line {i + 1}: stream header needs 5 fields")
            try:
                modality = Modality(header[1])
            except ValueError:
                raise CorpusFormatError(f"line {i + 1}: unknown modality {header[1]!r}") from None
            rate = _parse_float(header[2], i + 1)
            n_rows = _parse_count(header[3], i + 1)
            n_ch = _parse_count(header[4], i + 1)
            i += 1
            if i + n_rows > n_lines:
                raise CorpusFormatError(f"line {i + 1}: truncated stream block")
            block = lines[i:i + n_rows]
            rows = [ln.split() for ln in block]
            for k, row in enumerate(rows):
                if len(row) != n_ch + 1:
                    raise CorpusFormatError(
                        f"line {i + k + 1}: expected {n_ch + 1} columns, got {len(row)}"
                    )
            try:
                data = np.array(rows, dtype=np.float64) if rows else np.empty((0, n_ch + 1))
            except ValueError:
                for k, row in enumerate(rows):
                    for tok in row:
                        _parse_float(tok, i + k + 1)
                raise CorpusFormatError(f"line {i + 1}: bad numeric data in stream block") from None
            try:
                streams.append(
                    Stream(
                        modality=modality,
                        nominal_rate_hz=rate,
                        timestamps=data[:, 0],
                        values=data[:, 1:],
                    )
                )
            except ValidationError as e:
                raise CorpusFormatError(
                    f"stream starting at line {i}: {e} (recording {subject_id!r})"
                ) from None
            i += n_rows

        try:
            recordings.append(Recording(subject_id=subject_id, streams=streams, events=events))
        except ValidationError as e:
            raise CorpusFormatError(
                f"recording {subject_id!r} starting at line {rec_line}: {e}"
            ) from None

    if not recordings:
        raise CorpusFormatError("file contains no recordings")
    ids = [r.subject_id for r in recordings]
    if len(set(ids)) != len(ids):
        raise CorpusFormatError("duplicate subject ids in corpus")
    return recordings
