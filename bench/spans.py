"""Outside-in span and counter recorder for the biofuse benchmark.

A traced unit replaces attributes of the biofuse modules with wrappers that
record one span per call: name, start, end and parent.  Public functions are
replaced wherever a biofuse module holds a reference to them, so calls made
by the package itself (``run_experiment`` calling ``train``, the CLI calling
``read_corpus``) are caught as well as the benchmark's own calls.  The
per-step functions of training are replaced in the training module only, so
``tnn.forward_batch`` means training forwards, not inference.

Spans stay in memory until the unit has ended; ``Recorder.reduce`` then folds
them into additive totals, outside the timed region.  Nothing here imports
numpy or biofuse at module level, so the parent process stays light.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# span label -> the functions it wraps, as (module, qualified name); every
# biofuse module holding a reference to the function gets the wrapper
PUBLIC = {
    "corpus.generate": [("biofuse.corpus", "generate_synthetic")],
    "corpus.write": [("biofuse.corpus", "write_corpus")],
    "corpus.read": [("biofuse.corpus", "read_corpus")],
    "preprocess.build_dataset": [("biofuse.preprocess", "build_dataset")],
    "preprocess.standardize": [
        ("biofuse.preprocess", "fit_standardizer"),
        ("biofuse.preprocess", "apply_standardizer"),
    ],
    "preprocess.load_dataset": [("biofuse.preprocess", "load_dataset")],
    "tnn.train": [("biofuse.tnn.train", "train")],
    "tnn.embed_batch": [("biofuse.tnn.network", "EmbeddingModel.embed_batch")],
    "tnn.save_model": [("biofuse.tnn.io", "save_model")],
    "tnn.load_model": [("biofuse.tnn.io", "load_model")],
    "verify.embed": [("biofuse.tnn.network", "EmbeddingModel.embed")],
    "verify.best_match": [("biofuse.verify", "best_match")],
    "verify.save_templates": [("biofuse.verify", "save_templates")],
    "verify.load_templates": [("biofuse.verify", "load_templates")],
    "fusion.fuse": [
        ("biofuse.fusion", "fuse_arrays"),
        ("biofuse.fusion", "combine_raw"),
        ("biofuse.fusion", "ScoreNormalizer.normalize_arrays"),
    ],
    "metrics.build_trials": [("biofuse.metrics", "build_trials")],
    "metrics.normalizer_fit": [("biofuse.metrics", "fusion_calibration_normalizer")],
    "metrics.eer": [
        ("biofuse.metrics", "eer_from_scores"),
        ("biofuse.metrics", "frr_at_far_scores"),
        ("biofuse.metrics", "compute_eer"),
        ("biofuse.metrics", "frr_at_far"),
        ("biofuse.metrics", "per_subject_eer"),
    ],
    # no metric of its own: as a child span it leaves cmd_evaluate's self time
    "metrics.run_experiment": [("biofuse.metrics", "run_experiment")],
    "cli.evaluate": [("biofuse.cli", "cmd_evaluate")],
}

# training-step functions, replaced in the training module only
TRAIN_STEP = {
    "tnn.forward_batch": "forward_batch",
    "tnn.backward_batch": "backward_batch",
    "tnn.mine_triplets": "mine_triplets",
    "tnn.triplet_grads": "_triplet_embedding_grads",
}
OPTIMIZERS = ("_Adam", "_Sgd")

# per-layer metrics: (name, unit, better), in report order
LAYER_METRICS = [
    ("corpus.generate_s", "s", "lower"),
    ("corpus.write_s", "s", "lower"),
    ("corpus.read_s", "s", "lower"),
    ("corpus.bytes", "count", "lower"),
    ("preprocess.build_dataset_s", "s", "lower"),
    ("preprocess.standardize_s", "s", "lower"),
    ("preprocess.load_dataset_s", "s", "lower"),
    ("preprocess.extracted", "count", "higher"),
    ("preprocess.rejected", "count", "lower"),
    ("preprocess.skipped", "count", "lower"),
    ("tnn.train_s", "s", "lower"),
    ("tnn.train_samples_per_s", "1/s", "higher"),
    ("tnn.forward_batch_s", "s", "lower"),
    ("tnn.backward_batch_s", "s", "lower"),
    ("tnn.mine_triplets_s", "s", "lower"),
    ("tnn.triplet_grads_s", "s", "lower"),
    ("tnn.optimizer_step_s", "s", "lower"),
    ("tnn.active_triplet_frac", "ratio", "higher"),
    ("tnn.steps", "count", "lower"),
    ("tnn.zero_loss_epochs", "count", "lower"),
    ("tnn.step_flops", "flop", "lower"),
    ("tnn.embed_batch_s", "s", "lower"),
    ("tnn.save_model_s", "s", "lower"),
    ("tnn.load_model_s", "s", "lower"),
    ("verify.embed_ms", "ms", "lower"),
    ("verify.best_match_ms", "ms", "lower"),
    ("verify.templates_per_claim", "count", "lower"),
    ("verify.save_templates_s", "s", "lower"),
    ("verify.load_templates_s", "s", "lower"),
    ("verify.claims_per_s", "1/s", "higher"),
    ("verify.claim_p50_ms", "ms", "lower"),
    ("verify.claim_p99_ms", "ms", "lower"),
    ("verify.enroll_templates_per_s", "1/s", "higher"),
    ("fusion.fuse_s", "s", "lower"),
    ("metrics.build_trials_s1_s", "s", "lower"),
    ("metrics.build_trials_s2_s", "s", "lower"),
    ("metrics.build_trials_s3_s", "s", "lower"),
    ("metrics.trials_per_s", "1/s", "higher"),
    ("metrics.trials_scored", "count", "higher"),
    ("metrics.eer_s", "s", "lower"),
    ("metrics.eer", "ratio", "lower"),
    ("metrics.normalizer_fit_s", "s", "lower"),
    ("cli.evaluate_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Recorder:
    """Spans and counts of one unit; single-threaded, like biofuse itself."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [label, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn, label, after=None):
        """Wrapper recording a span per call; `label` may be a function of the
        call's arguments; `after(counts, result, *args)` runs once it returns."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(self.counts, out, *args, **kwargs)
            return out

        return wrapper

    def reduce(self) -> dict[str, float]:
        """Fold the spans into additive totals and forget them.

        For each label: `<label>.s` sums the spans with no ancestor of the
        same label (so nested calls are not counted twice), `<label>.n`
        counts those spans, and `<label>.self_s` sums every span's duration
        minus the time its child spans cover.
        """
        spans = self.spans
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for k, (name, t0, t1, parent) in enumerate(spans):
            out[f"{name}.self_s"] += (t1 - t0) - child_time[k]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += t1 - t0
                out[f"{name}.n"] += 1
        for key, value in self.counts.items():
            out[key] += value
        self.spans.clear()
        self.counts.clear()
        return dict(out)


# ---------------------------------------------------------------------------
# Counters attached to wrapped calls


def forward_flops(arch) -> int:
    """Multiply-adds x 2 of one sample's forward pass through conv and dense layers."""
    from biofuse.tnn.arch import ConvSpec, DenseSpec, branch_output_widths

    total = 0
    for layers, channels in zip(arch.branch_layers, arch.input_channels):
        state = (channels, arch.input_points)
        for spec, nxt in zip(layers, branch_output_widths(layers, channels, arch.input_points)):
            if isinstance(spec, ConvSpec):
                total += 2 * spec.filters * state[0] * spec.kernel * nxt[1]
            elif isinstance(spec, DenseSpec):
                fan_in = state if isinstance(state, int) else state[0] * state[1]
                total += 2 * spec.width * fan_in
            state = nxt
    width = sum(layers[-1].width for layers in arch.branch_layers)
    for spec in arch.head_layers:
        total += 2 * spec.width * width
        width = spec.width
    return total


def _count_dataset(counts, result, *args, **kwargs):
    report = result[1]
    for kind in ("extracted", "rejected", "skipped"):
        counts[f"preprocess.{kind}"] += report.total(kind)


def _count_train(counts, result, samples, arch, cfg, *args, **kwargs):
    _, history = result
    counts["tnn.sample_epochs"] += len(samples) * cfg.epochs
    counts["tnn.zero_loss_epochs"] += sum(1 for loss in history if loss == 0.0)


def _count_step(counts, result, model, cache, d_emb):
    # forward, data gradient and weight gradient: three passes of GEMM work
    counts["tnn.steps"] += 1
    counts["tnn.flops"] += 3 * forward_flops(model.arch) * d_emb.shape[0]


def _count_triplets(counts, result, emb, triplets, margin):
    import numpy as np

    idx = np.array([(t.anchor, t.positive, t.negative) for t in triplets])
    a, p, n = emb[idx[:, 0]], emb[idx[:, 1]], emb[idx[:, 2]]
    hinge = ((a - p) ** 2).sum(axis=1) - ((a - n) ** 2).sum(axis=1) + margin
    counts["tnn.triplets"] += len(triplets)
    counts["tnn.active_triplets"] += int((hinge > 0).sum())


def _count_trials(counts, result, *args, **kwargs):
    counts["metrics.trials_scored"] += result.genuine.n + result.impostor.n


def _count_templates(counts, result, verification, templates):
    counts["verify.templates"] += len(templates)


def _count_bytes(counts, result, recordings, path):
    counts["corpus.bytes"] += os.path.getsize(path)


AFTER = {
    "preprocess.build_dataset": _count_dataset,
    "tnn.train": _count_train,
    "tnn.backward_batch": _count_step,
    "tnn.triplet_grads": _count_triplets,
    "metrics.build_trials": _count_trials,
    "verify.best_match": _count_templates,
    "corpus.write": _count_bytes,
}


def _trials_label(samples, models, scenario, **kwargs):
    return f"metrics.build_trials_{scenario.value}"


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Installed:
    """Context manager: wrappers in place on entry, originals back on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Installed":
        rec = self.recorder
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "biofuse" or name.startswith("biofuse.")]
        for label, targets in PUBLIC.items():
            name = _trials_label if label == "metrics.build_trials" else label
            for module_name, qualname in targets:
                owner, attr = _resolve(module_name, qualname)
                fn = getattr(owner, attr)
                wrapper = rec.wrap(fn, name, AFTER.get(label))
                if "." in qualname:  # a method: the class attribute is the one reference
                    self._set(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, key, wrapper)
        train_mod = importlib.import_module("biofuse.tnn.train")
        for label, attr in TRAIN_STEP.items():
            self._set(train_mod, attr, rec.wrap(getattr(train_mod, attr), label,
                                                AFTER.get(label)))
        for cls_name in OPTIMIZERS:
            cls = getattr(train_mod, cls_name)
            self._set(cls, "step", rec.wrap(cls.step, "tnn.optimizer_step"))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Per-layer metrics from reduced totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict[str, float], extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from one set of additive totals.

    `extra` carries the values measured outside spans (claim latencies from
    untraced sessions, the tracing overhead).  A layer the workload never
    calls reads 0.
    """
    def s(label: str) -> float:
        return raw.get(f"{label}.s", 0.0)

    def n(label: str) -> float:
        return raw.get(f"{label}.n", 0.0)

    trials_s = sum(s(f"metrics.build_trials_{sc}") for sc in ("s1", "s2", "s3"))
    out = {
        "corpus.generate_s": s("corpus.generate"),
        "corpus.write_s": s("corpus.write"),
        "corpus.read_s": s("corpus.read"),
        "corpus.bytes": raw.get("corpus.bytes", 0.0),
        "preprocess.build_dataset_s": s("preprocess.build_dataset"),
        "preprocess.standardize_s": s("preprocess.standardize"),
        "preprocess.load_dataset_s": s("preprocess.load_dataset"),
        "preprocess.extracted": raw.get("preprocess.extracted", 0.0),
        "preprocess.rejected": raw.get("preprocess.rejected", 0.0),
        "preprocess.skipped": raw.get("preprocess.skipped", 0.0),
        "tnn.train_s": s("tnn.train"),
        "tnn.train_samples_per_s": _ratio(raw.get("tnn.sample_epochs", 0.0), s("tnn.train")),
        "tnn.forward_batch_s": s("tnn.forward_batch"),
        "tnn.backward_batch_s": s("tnn.backward_batch"),
        "tnn.mine_triplets_s": s("tnn.mine_triplets"),
        "tnn.triplet_grads_s": s("tnn.triplet_grads"),
        "tnn.optimizer_step_s": s("tnn.optimizer_step"),
        "tnn.active_triplet_frac": _ratio(raw.get("tnn.active_triplets", 0.0),
                                          raw.get("tnn.triplets", 0.0)),
        "tnn.steps": raw.get("tnn.steps", 0.0),
        "tnn.zero_loss_epochs": raw.get("tnn.zero_loss_epochs", 0.0),
        "tnn.step_flops": _ratio(raw.get("tnn.flops", 0.0), raw.get("tnn.steps", 0.0)),
        "tnn.embed_batch_s": s("tnn.embed_batch"),
        "tnn.save_model_s": s("tnn.save_model"),
        "tnn.load_model_s": s("tnn.load_model"),
        "verify.embed_ms": 1e3 * _ratio(s("verify.embed"), n("verify.embed")),
        "verify.best_match_ms": 1e3 * _ratio(s("verify.best_match"), n("verify.best_match")),
        "verify.templates_per_claim": _ratio(raw.get("verify.templates", 0.0),
                                             n("verify.best_match")),
        "verify.save_templates_s": s("verify.save_templates"),
        "verify.load_templates_s": s("verify.load_templates"),
        "fusion.fuse_s": s("fusion.fuse"),
        "metrics.build_trials_s1_s": s("metrics.build_trials_s1"),
        "metrics.build_trials_s2_s": s("metrics.build_trials_s2"),
        "metrics.build_trials_s3_s": s("metrics.build_trials_s3"),
        "metrics.trials_per_s": _ratio(raw.get("metrics.trials_scored", 0.0), trials_s),
        "metrics.trials_scored": raw.get("metrics.trials_scored", 0.0),
        "metrics.eer_s": s("metrics.eer"),
        "metrics.normalizer_fit_s": s("metrics.normalizer_fit"),
        "cli.evaluate_self_s": raw.get("cli.evaluate.self_s", 0.0),
    }
    for key in ("metrics.eer", "verify.claims_per_s", "verify.claim_p50_ms", "verify.claim_p99_ms",
                "verify.enroll_templates_per_s", "trace.overhead_s"):
        out[key] = extra.get(key, 0.0)
    return out
