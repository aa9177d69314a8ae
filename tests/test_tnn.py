import importlib
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.corpus import Modality
from biofuse.errors import (
    DivergenceError,
    MiningError,
    ModelFormatError,
    ShapeError,
    ValidationError,
)
from biofuse.preprocess import GRID_POINTS, PairedSample, Sample
from biofuse.tnn import (
    ArchKind,
    EmbeddingModel,
    TrainConfig,
    forward_batch,
    fusion_arch,
    load_model,
    make_batches,
    mine_triplets,
    save_model,
    single_modality_arch,
    stack_inputs,
    train,
)
from biofuse.tnn.arch import ArchSpec, ConvSpec, DenseSpec, PoolSpec
from biofuse.tnn.loss import _triplet_embedding_grads
from biofuse.tnn.network import (
    _im2col,
    _max_pool,
    _max_pool_backward,
    _weight_grad,
    backward_batch,
)
from biofuse.tnn.train import _Adam
from oracles import (
    oracle_adam_step,
    oracle_backward,
    oracle_embed_batch,
    oracle_forward,
    oracle_im2col,
    oracle_make_batches_by_name,
    oracle_mine,
    oracle_mine_loop,
    oracle_mine_triplets_objects,
    oracle_triplet_grads,
    oracle_triplet_grads_objects,
    reseal,
    triplet_records,
    triplet_step,
)


def _brain_sample(seed=0, subject="s00", round_id=0, t0=0.0):
    data = np.random.default_rng(seed).standard_normal((14, GRID_POINTS)).astype(np.float32)
    return Sample(subject_id=subject, round_id=round_id, modality=Modality.BRAIN,
                  data=data, t0=t0)


def _eye_sample(seed=0, subject="s00", round_id=0, t0=0.0, modality=Modality.EYE_PUPIL):
    data = np.random.default_rng(100 + seed).standard_normal(
        (modality.n_channels, GRID_POINTS)
    ).astype(np.float32)
    return Sample(subject_id=subject, round_id=round_id, modality=modality,
                  data=data, t0=t0)


class TestEmbed:
    def test_unit_norm(self):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=1)
        emb = model.embed(_brain_sample())
        assert emb.shape == (32,)
        assert abs(np.linalg.norm(emb) - 1.0) < 1e-6

    def test_deterministic(self):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=1)
        a = model.embed(_brain_sample(3))
        b = model.embed(_brain_sample(3))
        assert a.tobytes() == b.tobytes()

    def test_fusion_a_concatenates_branch_outputs(self):
        model = EmbeddingModel(fusion_arch(ArchKind.FUSION_A), seed=2)
        pair = PairedSample(brain=_brain_sample(), eye=_eye_sample())
        emb, cache = forward_batch(model, stack_inputs([pair], model), with_cache=True)
        assert cache["branch_widths"] == [16, 16]
        pre_norm = cache["l2"][0]
        np.testing.assert_allclose(emb, pre_norm / np.linalg.norm(pre_norm), atol=1e-6)
        np.testing.assert_allclose(model.embed(pair), emb[0], atol=1e-6)
        # no head layers: the brain half depends on the brain branch alone
        other = PairedSample(brain=pair.brain, eye=_eye_sample(seed=1))
        _, cache2 = forward_batch(model, stack_inputs([other], model), with_cache=True)
        assert cache2["l2"][0][0, :16].tobytes() == pre_norm[0, :16].tobytes()
        assert not np.allclose(cache2["l2"][0][0, 16:], pre_norm[0, 16:])

    def test_shape_mismatch(self):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=1)
        with pytest.raises(ShapeError):
            model.embed(_eye_sample())

    def test_fusion_model_rejects_single_sample(self):
        model = EmbeddingModel(fusion_arch(ArchKind.FUSION_A), seed=1)
        with pytest.raises(ShapeError):
            model.embed(_brain_sample())

    def test_raw_arrays_rejected(self):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=1)
        data = _brain_sample().data
        for raw in (data, (data,)):
            with pytest.raises(ShapeError, match="cannot embed"):
                model.embed(raw)


EMBED_SIZES = (1, 37, 75, 127, 128, 129, 255, 511, 512, 513, 520, 640, 700, 1100)


@pytest.mark.parametrize("name", ["brain", "eye-pupil", "fusion-b"])
def test_embed_batch_blocks_match_one_pass_per_stack(name):
    """128-row blocks (a short tail joining the block before it) give the
    bytes of one forward pass per 512-sample stack.  Whether they do is a
    property of the BLAS build, so a failure names the arch and N."""
    if name == "fusion-b":
        arch = fusion_arch(ArchKind.FUSION_B)
        pool = [PairedSample(brain=_brain_sample(k), eye=_eye_sample(k)) for k in range(1100)]
    elif name == "brain":
        arch, pool = single_modality_arch(Modality.BRAIN), [_brain_sample(k) for k in range(1100)]
    else:
        arch = single_modality_arch(Modality.EYE_PUPIL)
        pool = [_eye_sample(k) for k in range(1100)]
    model = EmbeddingModel(arch, seed=3)
    differ = [n for n in EMBED_SIZES
              if model.embed_batch(pool[:n]).tobytes()
              != oracle_embed_batch(model, pool[:n]).tobytes()]
    assert not differ, f"{arch.tag}: embed_batch bytes differ from one pass per stack at N={differ}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_in_place_matches_expression_form(dtype):
    rng = np.random.default_rng(11)
    n = 257
    weights = rng.standard_normal(n).astype(dtype)
    want_w, want_m, want_v = weights.copy(), np.zeros(n, dtype), np.zeros(n, dtype)
    adam = _Adam(n, dtype)
    for t in range(1, 9):
        grad = np.zeros(n, dtype) if t in (3, 4, 7) else rng.standard_normal(n).astype(dtype)
        adam.step(weights, grad, 1e-3)
        want_m, want_v = oracle_adam_step(want_m, want_v, t, want_w, grad, 1e-3)
        for got, want, what in ((weights, want_w, "weights"), (adam.m, want_m, "m"),
                                (adam.v, want_v, "v")):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f"{what} at step {t}"


def triplet_loss(fa, fp, fn, margin):
    """Loss of one triplet: the mean loss of a three-row batch."""
    return _triplet_embedding_grads(np.stack([fa, fp, fn]), triplet_records([(0, 1, 2)]),
                                    margin)[1]


class TestTripletLoss:
    def test_hinge_boundary(self):
        alpha = 0.25  # dyadic so d_an^2 == alpha holds exactly
        fa = np.zeros(4)
        fn = np.array([0.5, 0, 0, 0])
        assert triplet_loss(fa, fa, fn, alpha) == 0.0

    def test_inactive(self):
        fa = np.zeros(2)
        fp = np.array([1.0, 0.0])        # d_ap^2 = 1
        fn = np.array([np.sqrt(2.0), 0])  # d_an^2 = 2
        assert triplet_loss(fa, fp, fn, 0.5) == 0.0

    def test_active_value(self):
        fa = np.zeros(2)
        fp = np.array([np.sqrt(2.0), 0])  # d_ap^2 = 2
        fn = np.array([1.0, 0.0])         # d_an^2 = 1
        assert triplet_loss(fa, fp, fn, 0.2) == pytest.approx(1.2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=9, max_size=9), st.floats(0.01, 2.0))
    def test_nonnegative_and_zero_iff(self, flat, alpha):
        fa, fp, fn = (np.array(flat[i:i + 3]) for i in (0, 3, 6))
        loss = triplet_loss(fa, fp, fn, alpha)
        d_ap = ((fa - fp) ** 2).sum()
        d_an = ((fa - fn) ** 2).sum()
        assert loss >= 0.0
        assert (loss == 0.0) == (d_ap + alpha <= d_an)


class TestMining:
    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        emb = rng.standard_normal((9, 8))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        labels = ["a", "a", "a", "b", "b", "b", "c", "c", "c"]
        got = [(t.anchor, t.positive, t.negative) for t in mine_triplets(emb, labels, 0.4)]
        assert got == oracle_mine(emb.tolist(), labels, 0.4)

    def test_fallback_to_hardest(self):
        # same-subject points coincide; every negative is farther than d_ap + margin
        emb = np.array([[0.0, 0], [0.0, 0], [5.0, 0], [6.0, 0]])
        labels = ["a", "a", "b", "b"]
        triplets = mine_triplets(emb, labels, 0.2)
        for t in triplets:
            if labels[t.anchor] == "a":
                assert t.negative == 2  # the nearest (hardest) negative
        assert got_all_pairs(triplets, labels)

    def test_single_subject_batch(self):
        emb = np.eye(3)
        with pytest.raises(MiningError):
            mine_triplets(emb, ["a", "a", "a"], 0.2)

    def test_no_positive_pairs(self):
        emb = np.eye(3)
        with pytest.raises(MiningError):
            mine_triplets(emb, ["a", "b", "c"], 0.2)


@st.composite
def _mining_batches(draw):
    """Embeddings, labels and margin of one batch.

    Points sit on a small integer grid and repeat, so distance ties, band-edge
    distances and zero-loss triplets occur; labels include singleton subjects
    and unmineable batches.  Some batches are nudged off the grid and
    normalized like trained embeddings.
    """
    n = draw(st.integers(2, 12))
    labels = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
    dim = draw(st.integers(1, 4))
    grid = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    points = draw(st.lists(grid, min_size=1, max_size=n))
    rows = draw(st.lists(st.integers(0, len(points) - 1), min_size=n, max_size=n))
    emb = np.array([points[r] for r in rows], dtype=np.float64)
    if draw(st.booleans()):
        emb += 0.1 * np.random.default_rng(draw(st.integers(0, 99))).standard_normal(emb.shape)
        emb /= np.sqrt((emb * emb).sum(axis=1, keepdims=True)) + 1e-12
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    margin = draw(st.sampled_from([0.2, 0.5, 1.0, 2.0, 3.0]))
    return emb.astype(dtype), labels, margin


class TestArrayStepMatchesLoop:
    """Masked mining and array triplet gradients against the per-triplet loops."""

    @settings(max_examples=300, deadline=None)
    @given(_mining_batches())
    def test_mining_selects_loop_triplets(self, batch):
        emb, labels, margin = batch
        want = oracle_mine_loop(emb, labels, margin)
        if want is None:
            with pytest.raises(MiningError):
                mine_triplets(emb, labels, margin)
            return
        got = [(t.anchor, t.positive, t.negative) for t in mine_triplets(emb, labels, margin)]
        assert got == want

    def test_mining_infinite_distances_pick_first_negative(self):
        # d_an = inf for every negative: the lowest-index negative wins, as in the loop
        emb = np.array([[0.0, 0.0], [0.0, 0.0], [1e200, 0.0], [0.0, 1e200]])
        labels = ["a", "a", "b", "b"]
        with np.errstate(over="ignore", invalid="ignore"):
            got = [(t.anchor, t.positive, t.negative) for t in mine_triplets(emb, labels, 0.2)]
            assert got == oracle_mine_loop(emb, labels, 0.2)
        assert got[0] == (0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(_mining_batches(), st.data())
    def test_gradients_bit_equal_loop(self, batch, data):
        emb, labels, margin = batch
        n = len(labels)
        mined = oracle_mine_loop(emb, labels, margin) or []
        drawn = data.draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=20))
        for rows in (mined, drawn, mined + drawn):
            if not rows:
                continue
            want_d, want_loss = oracle_triplet_grads(emb, rows, margin)
            got_d, got_loss = _triplet_embedding_grads(emb, triplet_records(rows), margin)
            assert got_d.dtype == emb.dtype
            assert got_d.tobytes() == want_d.tobytes()
            assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()


@st.composite
def _dense_batches(draw):
    """Embeddings, labels and margin of a training-sized batch: Gaussian rows,
    some of them copies of others, so pairwise distances tie exactly."""
    n = draw(st.integers(2, 48))
    dim = draw(st.sampled_from([1, 2, 8, 16]))
    names = [f"s{k}" for k in range(draw(st.integers(1, 12)))]
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    emb = rng.standard_normal((n, dim))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=n // 2))
    for dst, src in copies:
        emb[dst] = emb[src]
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    margin = draw(st.floats(0.01, 4.0))
    return emb.astype(dtype), labels, margin


def _codes(labels):
    """Integer subject codes in label-name order, as `train` derives them."""
    return np.unique(labels, return_inverse=True)[1].reshape(-1)


class TestStepMatchesObjectOracle:
    """The record-array step on names and on integer codes against the
    `Triplet`-object step and the name-keyed batching it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_mining_batches(), _dense_batches()), st.booleans())
    def test_triplets_and_gradients_bit_equal(self, batch, as_codes):
        emb, labels, margin = batch
        given_labels = _codes(labels) if as_codes else labels
        try:
            want = oracle_mine_triplets_objects(emb, labels, margin)
        except MiningError:
            with pytest.raises(MiningError):
                mine_triplets(emb, given_labels, margin)
            return
        got = mine_triplets(emb, given_labels, margin)
        for column in ("anchor", "positive", "negative"):
            assert getattr(got, column).tolist() == [getattr(t, column) for t in want]
        got_d, got_loss = _triplet_embedding_grads(emb, got, margin)
        want_d, want_loss = oracle_triplet_grads_objects(emb, want, margin)
        assert got_d.dtype == want_d.dtype
        assert got_d.tobytes() == want_d.tobytes()
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(["s0", "s1", "s2", "s10", "s11", "b", "a"]), max_size=80),
        st.integers(0, 2**32 - 1),
        st.integers(4, 64),
        st.integers(1, 8),
    )
    def test_batches_equal_name_keyed_batching(self, labels, seed, batch_size, per_subject):
        want_rng = np.random.default_rng(seed)
        want = oracle_make_batches_by_name(labels, want_rng, batch_size, per_subject)
        for given_labels in (labels, _codes(labels)):
            rng = np.random.default_rng(seed)
            assert make_batches(given_labels, rng, batch_size, per_subject) == want
            assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_rows_keep_attribute_access(self):
        # the benchmark's triplet counter reads .anchor/.positive/.negative per row
        rng = np.random.default_rng(8)
        emb = rng.standard_normal((12, 4))
        triplets = mine_triplets(emb, ["a", "b", "c"] * 4, 0.5)
        rows = [(t.anchor, t.positive, t.negative) for t in triplets]
        assert len(rows) == len(triplets) == 36
        assert np.array(rows).tolist() == np.stack(
            [triplets.anchor, triplets.positive, triplets.negative], axis=1).tolist()
        assert all(isinstance(v, (int, np.integer)) for row in rows for v in row)


def _pool_reference(x, width):
    b, c, t = x.shape
    t_p = t // width
    xr = x[:, :, : t_p * width].reshape(b, c, t_p, width)
    arg = xr.argmax(axis=3)
    return np.take_along_axis(xr, arg[..., None], axis=3)[..., 0], arg


def _pool_backward_reference(x, arg, dy, width):
    b, c, t = x.shape
    t_p = t // width
    dxr = np.zeros((b, c, t_p, width), dtype=x.dtype)
    np.put_along_axis(dxr, arg[..., None], dy[..., None], axis=3)
    dx = np.zeros(x.shape, dtype=x.dtype)
    dx[:, :, : t_p * width] = dxr.reshape(b, c, t_p * width)
    return dx


class TestLayerKernels:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("length", [9, 10, 11])
    def test_max_pool_matches_argmax_reference(self, width, length):
        rng = np.random.default_rng(10 * width + length)
        # ReLU-like input: many exact zeros, so whole windows tie
        x = np.maximum(rng.integers(-3, 3, size=(3, 4, length)), 0).astype(np.float32)
        x[0] = 0.0
        y, arg = _pool_reference(x, width)
        got = _max_pool(x, width)
        assert got.tobytes() == np.ascontiguousarray(y).tobytes()
        dy = rng.standard_normal(y.shape).astype(np.float32)
        dy[1, 0, 0] = np.nan
        dy[1, 1, 0] = np.inf
        dy[1, 2, 0] = -np.inf
        want = _pool_backward_reference(x, arg, dy, width)
        dx = _max_pool_backward(x, got, dy, width)
        # non-finite dy reaches its window's first max only; the rest stays 0
        assert dx.dtype == x.dtype
        assert dx.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(kernel=st.integers(1, 7), stride=st.integers(1, 3), channels=st.integers(1, 40),
           extra=st.integers(0, 12), batch=st.integers(1, 3),
           dtype=st.sampled_from([np.float32, np.float64]),
           layout=st.sampled_from(["contiguous", "transposed", "pooled"]),
           seed=st.integers(0, 2**16))
    def test_im2col_matches_gather_oracle(self, kernel, stride, channels, extra, batch,
                                          dtype, layout, seed):
        """The tap loop writes the gather's values in the gather's order, from
        [B, C, T] inputs stored as such or as a conv output's [B, T, C]
        (transposed, or max-pooled after the transpose)."""
        rng = np.random.default_rng(seed)
        t = kernel + extra
        if layout == "contiguous":
            x = rng.standard_normal((batch, channels, t)).astype(dtype)
        elif layout == "transposed":
            x = rng.standard_normal((batch, t, channels)).astype(dtype).transpose(0, 2, 1)
        else:
            conv_out = rng.standard_normal((batch, 2 * t + 1, channels)).astype(dtype)
            x = _max_pool(conv_out.transpose(0, 2, 1), 2)
        assert x.shape == (batch, channels, t)
        got = _im2col(x, kernel, stride)
        want = oracle_im2col(x, kernel, stride)
        assert got.dtype == x.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_weight_grad_matches_einsum(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((5, 3, 17)).astype(np.float32)
        cols = _im2col(x, 4, stride)
        dz = rng.standard_normal((5, cols.shape[1], 6)).astype(np.float32)
        got = _weight_grad(dz, cols)
        want = np.einsum("btf,btk->fk", dz, cols)
        assert got.shape == (6, 12) and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)


def got_all_pairs(triplets, labels):
    pairs = {(t.anchor, t.positive) for t in triplets}
    expected = {
        (a, p)
        for a in range(len(labels))
        for p in range(len(labels))
        if a != p and labels[a] == labels[p]
    }
    return pairs == expected


def _tiny_arch(seed):
    rng = np.random.default_rng(seed)
    layers = []
    c = int(rng.integers(2, 4))
    t = int(rng.integers(12, 20))
    if rng.random() < 0.8:
        layers.append(ConvSpec(kernel=int(rng.integers(2, 5)), filters=int(rng.integers(1, 3))))
        if rng.random() < 0.5:
            layers.append(PoolSpec(width=2))
    if rng.random() < 0.5:
        layers.append(DenseSpec(width=int(rng.integers(3, 8))))
    layers.append(DenseSpec(width=32))
    arch = ArchSpec(
        kind=ArchKind.SINGLE, input_channels=(c,),
        branch_layers=(tuple(layers),), input_points=t,
    )
    return arch, c, t


@st.composite
def _engine_cases(draw):
    """A tiny arch of any kind, with or without conv, pool and hidden dense
    layers in each branch, plus dtype, batch size and a data seed."""
    kind = draw(st.sampled_from(list(ArchKind)))
    n_branches, out = (1, 32) if kind is ArchKind.SINGLE else (2, 16)
    branches = []
    for _ in range(n_branches):
        layers = []
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                layers.append(ConvSpec(kernel=draw(st.integers(1, 3)),
                                       filters=draw(st.integers(1, 3)),
                                       stride=draw(st.integers(1, 2))))
            else:
                layers.append(PoolSpec(width=draw(st.integers(1, 2))))
        for _ in range(draw(st.integers(0, 2))):
            layers.append(DenseSpec(width=draw(st.integers(1, 5))))
        branches.append((*layers, DenseSpec(width=out)))
    arch = ArchSpec(
        kind=kind,
        input_channels=tuple(draw(st.integers(1, 3)) for _ in range(n_branches)),
        branch_layers=tuple(branches),
        head_layers=(DenseSpec(32),) if kind is ArchKind.FUSION_B else (),
        input_points=draw(st.integers(10, 16)),  # room for two stride-2 convs
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return arch, dtype, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


class TestEngineMatchesOracle:
    """The layer-stack engine against the per-branch loops and head loop it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(_engine_cases(), st.booleans())
    def test_embeddings_and_gradients_bit_equal(self, case, no_active_triplet):
        arch, dtype, batch, seed = case
        rng = np.random.default_rng(seed)
        model = EmbeddingModel(arch, seed=seed, dtype=dtype)
        model.weights[:] = rng.standard_normal(model.n_weights)  # non-zero biases too
        branches = tuple(
            rng.standard_normal((batch, c, arch.input_points)).astype(dtype)
            for c in arch.input_channels
        )
        d_emb = rng.standard_normal((batch, arch.embedding_dim))
        if no_active_triplet:  # backward_batch returns without a backward pass
            d_emb = np.zeros_like(d_emb)
            d_emb[-1, -1] = -0.0
        want_emb, want_cache = oracle_forward(model, branches)
        emb, cache = forward_batch(model, branches, with_cache=True)
        assert emb.dtype == dtype
        assert emb.tobytes() == want_emb.tobytes()
        lean, no_cache = forward_batch(model, branches, with_cache=False)
        assert no_cache is None and lean.tobytes() == want_emb.tobytes()
        assert cache["branch_widths"] == want_cache["widths"]
        want_grad = oracle_backward(model, want_cache, d_emb)
        grad = backward_batch(model, cache, d_emb)
        assert grad.tobytes() == want_grad.tobytes()
        if no_active_triplet:
            assert grad.tobytes() == np.zeros(model.n_weights, dtype=dtype).tobytes()  # +0.0

    def test_nan_d_emb_takes_the_backward_pass(self):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=4)
        samples = [_brain_sample(seed=k) for k in range(3)]
        _, cache = forward_batch(model, stack_inputs(samples, model), with_cache=True)
        d_emb = np.zeros((3, model.arch.embedding_dim))
        d_emb[1, 5] = np.nan
        assert np.isnan(backward_batch(model, cache, d_emb)).any()


class TestBackward:
    def test_inactive_triplets_zero_gradient(self):
        arch, c, t = _tiny_arch(0)
        model = EmbeddingModel(arch, seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        branches = (np.stack([rng.standard_normal((c, t)) for _ in range(4)]),)
        # anchor == positive gives d_ap = 0; with a tiny margin the hinge is
        # inactive unless the negative embedding coincides with the anchor
        emb, _ = forward_batch(model, branches, with_cache=False)
        assert ((emb[0] - emb[1]) ** 2).sum() > 1e-6
        grad, loss = triplet_step(model, branches, triplet_records([(0, 0, 1)]), margin=1e-12)
        assert loss == 0.0
        assert not grad.any()

    def test_duplicate_triplet_same_mean_gradient(self):
        arch, c, t = _tiny_arch(3)
        model = EmbeddingModel(arch, seed=3, dtype=np.float64)
        rng = np.random.default_rng(2)
        branches = (np.stack([rng.standard_normal((c, t)) for _ in range(4)]),)
        g1, l1 = triplet_step(model, branches, triplet_records([(0, 1, 2)]), margin=0.5)
        g2, l2 = triplet_step(model, branches, triplet_records([(0, 1, 2)] * 2), margin=0.5)
        np.testing.assert_allclose(g1, g2, atol=1e-12)
        assert l1 == pytest.approx(l2)

    def test_finite_difference_small_arch(self):
        arch, c, t = _tiny_arch(1)
        model = EmbeddingModel(arch, seed=1, dtype=np.float64)
        rng = np.random.default_rng(1001)
        branches = (np.stack([rng.standard_normal((c, t)) for _ in range(6)]),)
        triplets = triplet_records([(0, 1, 2), (3, 4, 5)])
        grad, _ = triplet_step(model, branches, triplets, margin=0.5)
        eps = 1e-4
        fd = np.empty_like(grad)

        def loss_at():
            emb, _ = forward_batch(model, branches, with_cache=False)
            return _triplet_embedding_grads(emb, triplets, 0.5)[1]

        for i in range(model.weights.size):
            orig = model.weights[i]
            model.weights[i] = orig + eps
            lp = loss_at()
            model.weights[i] = orig - eps
            lm = loss_at()
            model.weights[i] = orig
            fd[i] = (lp - lm) / (2 * eps)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), np.linalg.norm(fd))
        assert rel < 1e-4

    def test_permutation_invariance_of_mean_loss(self):
        arch, c, t = _tiny_arch(2)
        model = EmbeddingModel(arch, seed=2, dtype=np.float64)
        rng = np.random.default_rng(7)
        branches = (np.stack([rng.standard_normal((c, t)) for _ in range(6)]),)
        triplets = triplet_records([(0, 1, 2), (3, 4, 5), (1, 0, 3), (4, 3, 0)])
        _, l1 = triplet_step(model, branches, triplets, margin=0.5)
        _, l2 = triplet_step(model, branches, triplets[::-1], margin=0.5)
        assert abs(l1 - l2) < 1e-12


def _toy_dataset(n_subjects=4, per_subject=8, center_scale=0.5, noise=1.0):
    rng = np.random.default_rng(0)
    samples = []
    for si in range(n_subjects):
        center = rng.standard_normal((14, GRID_POINTS)) * center_scale
        for k in range(per_subject):
            data = (center + noise * rng.standard_normal((14, GRID_POINTS))).astype(np.float32)
            samples.append(
                Sample(subject_id=f"s{si:02d}", round_id=k % 2, modality=Modality.BRAIN,
                       data=data, t0=float(k))
            )
    return samples


def _toy_pairs(n_subjects=4, per_subject=4):
    """Separable paired brain / eye-pupil samples, so the loss reaches zero."""
    rng = np.random.default_rng(0)
    pairs = []
    for si in range(n_subjects):
        centers = [rng.standard_normal((m.n_channels, GRID_POINTS))
                   for m in (Modality.BRAIN, Modality.EYE_PUPIL)]
        for k in range(per_subject):
            brain, eye = (
                Sample(subject_id=f"s{si:02d}", round_id=k % 2, modality=m, t0=float(k),
                       data=(c + 0.5 * rng.standard_normal(c.shape)).astype(np.float32))
                for m, c in zip((Modality.BRAIN, Modality.EYE_PUPIL), centers)
            )
            pairs.append(PairedSample(brain=brain, eye=eye))
    return pairs


class TestTrain:
    @pytest.mark.parametrize("kind", list(ArchKind))
    def test_zero_gradient_steps_match_full_backward_pass(self, kind, monkeypatch):
        """Training with the short-circuit gives the bytes of training through
        the oracle loops, whose backward pass never short-circuits."""
        pairs = _toy_pairs()
        if kind is ArchKind.SINGLE:
            arch, samples = single_modality_arch(Modality.BRAIN), [p.brain for p in pairs]
        else:
            arch, samples = fusion_arch(kind), pairs
        cfg = TrainConfig(epochs=3, batch_size=8, samples_per_subject=2, seed=1)
        model, history = train(samples, arch, cfg)
        assert history[0] > 0.0 and 0.0 in history  # active and skipped steps
        module = importlib.import_module("biofuse.tnn.train")  # the package exports train()
        monkeypatch.setattr(module, "forward_batch",
                            lambda model, branches, with_cache: oracle_forward(model, branches))
        monkeypatch.setattr(module, "backward_batch", oracle_backward)
        want_model, want_history = train(samples, arch, cfg)
        assert model.weights.tobytes() == want_model.weights.tobytes()
        assert np.asarray(history).tobytes() == np.asarray(want_history).tobytes()

    @pytest.mark.parametrize("kind", list(ArchKind))
    def test_previous_step_cache_is_freed_before_the_next_forward(self, kind, monkeypatch):
        """One step's activations are live at a time: when a training forward
        pass starts, no earlier step's cache is referenced."""
        pairs = _toy_pairs()
        if kind is ArchKind.SINGLE:
            arch, samples = single_modality_arch(Modality.BRAIN), [p.brain for p in pairs]
        else:
            arch, samples = fusion_arch(kind), pairs
        module = importlib.import_module("biofuse.tnn.train")  # the package exports train()
        forward = module.forward_batch
        refs, live = [], []

        def forwarding(model, branches, with_cache):
            live.append(sum(ref() is not None for ref in refs))
            emb, cache = forward(model, branches, with_cache)
            refs.append(weakref.ref(cache["stacks"][0][0][0]))  # the first layer's columns
            return emb, cache

        monkeypatch.setattr(module, "forward_batch", forwarding)
        train(samples, arch, TrainConfig(epochs=2, batch_size=8, samples_per_subject=2, seed=1))
        assert len(refs) > 2 and live == [0] * len(refs)

    def test_lr_zero_is_noop(self):
        samples = _toy_dataset()
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.0, seed=5)
        model, _ = train(samples, single_modality_arch(Modality.BRAIN), cfg)
        fresh = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=5)
        assert model.weights.tobytes() == fresh.weights.tobytes()

    def test_deterministic(self):
        samples = _toy_dataset()
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=5)
        m1, h1 = train(samples, single_modality_arch(Modality.BRAIN), cfg)
        m2, h2 = train(samples, single_modality_arch(Modality.BRAIN), cfg)
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert h1 == h2

    def test_loss_decreases_on_separable_toy(self):
        samples = _toy_dataset(n_subjects=6, per_subject=8)
        cfg = TrainConfig(epochs=4, batch_size=24, learning_rate=1e-3, seed=0)
        _, history = train(samples, single_modality_arch(Modality.BRAIN), cfg)
        assert history[-1] < history[0]

    def test_divergence_guard(self):
        samples = _toy_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, learning_rate=1e38, optimizer="sgd", seed=0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergenceError, match="step"):
                train(samples, single_modality_arch(Modality.BRAIN), cfg)

    def test_single_subject_rejected(self):
        samples = [s for s in _toy_dataset() if s.subject_id == "s00"]
        with pytest.raises(ValidationError):
            train(samples, single_modality_arch(Modality.BRAIN), TrainConfig(epochs=1))
        with pytest.raises(ValidationError, match="two subjects"):
            train([], single_modality_arch(Modality.BRAIN), TrainConfig(epochs=1))

    def test_batches_partition_and_are_mineable(self):
        labels = [f"s{i % 5}" for i in range(53)]
        rng = np.random.default_rng(0)
        batches = make_batches(labels, rng, batch_size=16, per_subject=4)
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(53))
        for b in batches:
            labs = [labels[i] for i in b]
            assert len(set(labs)) >= 2
            assert max(labs.count(x) for x in set(labs)) >= 2


def _arch_edit(layer=None, channels=None):
    """An (arch, provenance) edit replacing one branch layer or the channel counts."""
    def edit(arch, prov):
        if layer is not None:
            arch["branch_layers"][0][layer[0]] = layer[1]
        if channels is not None:
            arch["input_channels"] = channels
        return arch, prov
    return edit


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        samples = _toy_dataset()
        cfg = TrainConfig(epochs=1, batch_size=16, seed=3)
        model, _ = train(samples, single_modality_arch(Modality.BRAIN), cfg)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.arch == model.arch
        assert loaded.provenance == model.provenance
        # a second save is byte-identical
        path2 = tmp_path / "m2.model"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_file(self, tmp_path):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=0)
        path = tmp_path / "m.model"
        save_model(model, path)
        raw = path.read_bytes()
        cut = raw.find(b"\nweights ")
        cut = raw.find(b"\n", cut + 1) + 64  # 64 bytes into the payload
        (tmp_path / "t.model").write_bytes(raw[:cut])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(tmp_path / "t.model")
        # cutting inside the header is also a parse error
        (tmp_path / "h.model").write_bytes(raw[:40])
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "h.model")

    def test_wrong_magic_and_version(self, tmp_path):
        p = tmp_path / "x.model"
        p.write_bytes(b"BIOFUSE-MODEL v9\nARCH {}\n")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(p)
        p.write_bytes(b"nonsense")
        with pytest.raises(ModelFormatError):
            load_model(p)

    @pytest.mark.parametrize("edit", [
        pytest.param(_arch_edit((0, ["conv"])), id="short-layer-entry"),
        pytest.param(_arch_edit((0, ["lstm", 3])), id="unknown-layer-tag"),
        pytest.param(_arch_edit((-1, ["pool", 2])), id="pool-as-last-layer"),
        pytest.param(_arch_edit(channels=[12]), id="weights-do-not-fit-arch"),
        pytest.param(_arch_edit((0, ["conv", 7, float("inf"), 1])), id="infinite-filters"),
        pytest.param(_arch_edit((1, ["pool", 2.0])), id="float-pool-width"),
        pytest.param(_arch_edit((4, ["dense", 128.0])), id="float-dense-width"),
        pytest.param(lambda arch, prov: (arch, [1, 2]), id="provenance-not-an-object"),
    ])
    def test_malformed_file_raises_model_format_error(self, tmp_path, edit):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=0)
        path = tmp_path / "m.model"
        save_model(model, path)

        def rewrite(raw):
            magic, arch, prov, rest = raw.split(b"\n", 3)
            arch, prov = edit(json.loads(arch[len(b"arch "):]),
                              json.loads(prov[len(b"provenance "):]))
            return b"\n".join([magic, b"arch " + json.dumps(arch).encode(),
                               b"provenance " + json.dumps(prov).encode(), rest])

        reseal(path, rewrite)
        with pytest.raises(ModelFormatError, match="arch|provenance") as e:
            load_model(path)
        assert "checksum" not in str(e.value)

    def test_loaded_fusion_model_rejects_single_modality_input(self, tmp_path):
        model = EmbeddingModel(fusion_arch(ArchKind.FUSION_A), seed=0)
        path = tmp_path / "f.model"
        save_model(model, path)
        loaded = load_model(path)
        with pytest.raises(ShapeError):
            loaded.embed(_brain_sample())

    def test_float64_model_not_serializable(self, tmp_path):
        model = EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=0, dtype=np.float64)
        with pytest.raises(ValidationError):
            save_model(model, tmp_path / "m.model")
