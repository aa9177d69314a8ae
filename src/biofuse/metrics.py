"""Evaluation harness: trial generation, EER/FRR metrics, subject-disjoint CV.

Scores are similarities (higher = more alike); a trial is accepted when its
score is >= the threshold.  FAR sweeps therefore fall and FRR sweeps rise as
the threshold increases, and the EER sits where they cross (linearly
interpolated between bracketing candidate thresholds).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .corpus import Modality, Recording
from .errors import EvalError, ValidationError, check_field_types
from .fusion import FusionRule, ScoreNormalizer, fit_normalizer_arrays, fuse_arrays
from .preprocess import (
    STAGES,
    NanPolicy,
    PairedSample,
    apply_standardizer,
    build_dataset,
    fit_standardizer,
    pair_samples,
)
from .tnn import (
    ArchKind,
    ArchSpec,
    EmbeddingModel,
    TrainConfig,
    fusion_arch,
    model_inputs,
    pairwise_sq_dists,
    single_modality_arch,
    train,
)
from .verify import Scenario

FAR_TARGETS = (0.01, 0.001, 0.0)

_MAX_ROUND_BITS = 64  # enrollment rounds are tracked in at most a uint64 bitmask


# ---------------------------------------------------------------------------
# Threshold sweeps


def _sweep(genuine: np.ndarray, impostor: np.ndarray):
    """FAR/FRR at every distinct score plus one sentinel above the maximum."""
    g = np.sort(genuine)
    i = np.sort(impostor)
    thr = np.unique(np.concatenate([g, i]))
    thr = np.append(thr, np.nextafter(thr[-1], np.inf))
    far = (i.size - np.searchsorted(i, thr, side="left")) / i.size
    frr = np.searchsorted(g, thr, side="left") / g.size
    return thr, far, frr


def _score_arrays(genuine, impostor, what: str) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(genuine, dtype=np.float64)
    i = np.asarray(impostor, dtype=np.float64)
    if g.size == 0 or i.size == 0:
        raise EvalError(f"{what} needs non-empty genuine and impostor score lists")
    for side, scores in (("genuine", g), ("impostor", i)):
        if not np.isfinite(scores).all():
            raise EvalError(f"{what}: the {side} scores hold a non-finite value")
    return g, i


def _eer(g: np.ndarray, i: np.ndarray, sweep) -> tuple[float, float]:
    """`eer_from_scores` of checked score arrays and their `_sweep`."""
    if g.min() > i.max():
        return 0.0, float((g.min() + i.max()) / 2.0)
    thr, far, frr = sweep
    d = far - frr
    k = int(np.argmax(d <= 0.0))  # exists: d ends at -1
    if d[k] == 0.0:
        j = k
        while j + 1 < d.size and d[j + 1] == 0.0:
            j += 1
        return float(far[j]), float(thr[j])
    t = d[k - 1] / (d[k - 1] - d[k])
    eer = far[k - 1] + t * (far[k] - far[k - 1])
    theta = thr[k - 1] + t * (thr[k] - thr[k - 1])
    return float(eer), float(theta)


def _frr_at(sweep, far_target: float) -> tuple[float, float]:
    """`frr_at_far_scores` read off a `_sweep`."""
    thr, far, frr = sweep
    k = int(np.argmax(far <= far_target))  # far is non-increasing; far[-1] == 0
    return float(frr[k]), float(thr[k])


def _operating_points(genuine, impostor) -> tuple[float, float, tuple[float, ...]]:
    """EER, its threshold and the FRR at each of FAR_TARGETS, from one sweep."""
    g, i = _score_arrays(genuine, impostor, "EER")
    sweep = _sweep(g, i)
    eer, theta = _eer(g, i, sweep)
    return eer, theta, tuple(_frr_at(sweep, t)[0] for t in FAR_TARGETS)


def eer_from_scores(genuine, impostor) -> tuple[float, float]:
    """EER and its threshold.

    Perfectly separated score sets return EER 0 at the midpoint of the gap;
    otherwise the FAR/FRR crossing is found over the candidate sweep, with
    linear interpolation between bracketing thresholds.  Exact-zero plateaus
    resolve to the largest candidate threshold (the lower-FAR side).
    Non-finite scores raise EvalError.
    """
    g, i = _score_arrays(genuine, impostor, "EER")
    return _eer(g, i, _sweep(g, i))


def frr_at_far_scores(genuine, impostor, far_target: float) -> tuple[float, float]:
    """FRR at the smallest threshold whose FAR is <= far_target.

    For far_target 0 the threshold lands strictly above the maximum impostor
    score.  Non-finite scores raise EvalError.
    """
    if not 0.0 <= far_target <= 1.0:
        raise ValidationError("far_target must be in [0, 1]")
    g, i = _score_arrays(genuine, impostor, "FRR@FAR")
    return _frr_at(_sweep(g, i), far_target)


# ---------------------------------------------------------------------------
# Fold planning


@dataclass(frozen=True)
class FoldPlan:
    """Subject-disjoint split: per fold a (train, test) subject partition."""

    folds: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


def plan_folds(subjects, k: int = 6, seed: int = 0) -> FoldPlan:
    """Seeded shuffle, contiguous partition into k test groups; deterministic."""
    subjects = sorted(subjects)
    if len(set(subjects)) != len(subjects):
        raise ValidationError("subject list contains duplicates")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > len(subjects):
        raise ValidationError(f"k={k} exceeds the {len(subjects)} available subjects")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(subjects))
    shuffled = [subjects[j] for j in order]
    folds = []
    for chunk in np.array_split(np.arange(len(subjects)), k):
        test = tuple(sorted(shuffled[j] for j in chunk))
        train = tuple(s for s in subjects if s not in set(test))
        folds.append((train, test))
    return FoldPlan(folds=tuple(folds))


# ---------------------------------------------------------------------------
# Trial sets


def _narrow(values) -> np.ndarray:
    """Non-negative integers in the smallest unsigned dtype that holds the
    largest of them (`np.min_scalar_type`): uint8 up to 255."""
    values = np.asarray(values)
    if values.size == 0:
        return values.astype(np.uint8)
    if values.dtype.kind not in "iu" or values.min() < 0:
        raise ValidationError(
            f"trial codes, rounds and masks must be non-negative integers, got {values.dtype}")
    return values.astype(np.min_scalar_type(int(values.max())), copy=False)


@dataclass
class TrialBlock:
    """Array-backed trials: one score plus integer metadata per row.

    Subjects are integer codes into `subjects`, the sorted array of subject
    names the block's codes refer to (one array per block, shared by both
    sides of a `TrialSet`).  Each integer column is stored in the smallest
    unsigned dtype holding its largest value (`np.min_scalar_type`): at up
    to 256 subjects and rounds below 8 every one is uint8, so a trial costs
    12 bytes.  `claimed` and `ver_subject` read the names back.
    """

    scores: np.ndarray          # float64
    claimed_code: np.ndarray    # code of the claimed identity
    ver_code: np.ndarray        # code of the subject who supplied the verification sample
    ver_round: np.ndarray       # round of the verification sample
    enr_round_mask: np.ndarray  # bitmask of enrollment rounds used (bit r = round r)
    subjects: np.ndarray        # object, sorted subject names; a code indexes it

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.subjects = np.asarray(self.subjects, dtype=object)
        if self.subjects.size > 1 and not (self.subjects[1:] > self.subjects[:-1]).all():
            raise ValidationError("trial subjects must be sorted and distinct")
        for name in ("claimed_code", "ver_code", "ver_round", "enr_round_mask"):
            setattr(self, name, _narrow(getattr(self, name)))

    @property
    def n(self) -> int:
        return int(self.scores.size)

    @property
    def claimed(self) -> np.ndarray:
        """Claimed identity of each trial, as an object array of names."""
        return self.subjects[self.claimed_code]

    @property
    def ver_subject(self) -> np.ndarray:
        """Subject who supplied each verification sample, as names."""
        return self.subjects[self.ver_code]

    @staticmethod
    def concat(blocks: list["TrialBlock"]) -> "TrialBlock":
        """Rows of every block in order, their codes remapped into the sorted
        union of the blocks' subject arrays."""
        subjects = np.unique(np.concatenate([b.subjects for b in blocks]))
        code_dtype = np.min_scalar_type(max(subjects.size - 1, 0))
        lookups = [np.searchsorted(subjects, b.subjects).astype(code_dtype) for b in blocks]
        return TrialBlock(
            scores=np.concatenate([b.scores for b in blocks]),
            claimed_code=np.concatenate([lut[b.claimed_code] for lut, b in zip(lookups, blocks)]),
            ver_code=np.concatenate([lut[b.ver_code] for lut, b in zip(lookups, blocks)]),
            ver_round=np.concatenate([b.ver_round for b in blocks]),
            enr_round_mask=np.concatenate([b.enr_round_mask for b in blocks]),
            subjects=subjects,
        )


@dataclass
class TrialSet:
    """A scenario's genuine and impostor trials over one subject array: both
    blocks hold equal `subjects`, so a subject code means the same on both
    sides.  `concat` pools sets, remapping their codes into one array."""

    scenario: Scenario
    genuine: TrialBlock
    impostor: TrialBlock
    excluded_subjects: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not np.array_equal(self.genuine.subjects, self.impostor.subjects):
            raise ValidationError("genuine and impostor trials must share one subject array")

    def scores_for_identity(self, identity: str) -> tuple[np.ndarray, np.ndarray]:
        subjects = self.genuine.subjects
        code = int(np.searchsorted(subjects, identity))
        if code == subjects.size or subjects[code] != identity:
            return self.genuine.scores[:0], self.impostor.scores[:0]
        g = self.genuine.scores[self.genuine.claimed_code == code]
        i = self.impostor.scores[self.impostor.claimed_code == code]
        return g, i

    def scores_by_identity(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """`scores_for_identity` of every claimed identity, in name order,
        from one stable argsort of each side's claimed codes (so each
        identity's scores keep their trial order)."""
        subjects = self.genuine.subjects
        grouped = []
        for side in (self.genuine, self.impostor):
            order = np.argsort(side.claimed_code, kind="stable")
            counts = np.bincount(side.claimed_code, minlength=subjects.size)
            grouped.append((side.scores[order], counts, np.concatenate([[0], np.cumsum(counts)])))
        (g, g_n, g_at), (i, i_n, i_at) = grouped
        return {
            subjects[c]: (g[g_at[c]:g_at[c + 1]], i[i_at[c]:i_at[c + 1]])
            for c in np.flatnonzero(g_n + i_n).tolist()
        }

    def subjects(self) -> set[str]:
        """Every subject a trial claims or takes its verification sample from."""
        seen = np.zeros(self.genuine.subjects.size, dtype=bool)
        for side in (self.genuine, self.impostor):
            seen[side.claimed_code] = True
            seen[side.ver_code] = True
        return set(self.genuine.subjects[seen].tolist())

    def round_exclusion_violations(self) -> int:
        """Genuine trials whose enrollment rounds include the verification round."""
        mask = self.genuine.enr_round_mask.astype(np.uint64)
        shift = self.genuine.ver_round.astype(np.uint64)
        return int((((mask >> shift) & np.uint64(1)) != 0).sum())

    @staticmethod
    def concat(sets: list["TrialSet"]) -> "TrialSet":
        if not sets:
            raise EvalError("cannot pool zero trial sets")
        scenario = sets[0].scenario
        if any(ts.scenario is not scenario for ts in sets):
            raise ValidationError("pooled trial sets must share one scenario")
        excluded = tuple(sorted({s for ts in sets for s in ts.excluded_subjects}))
        return TrialSet(
            scenario=scenario,
            genuine=TrialBlock.concat([ts.genuine for ts in sets]),
            impostor=TrialBlock.concat([ts.impostor for ts in sets]),
            excluded_subjects=excluded,
        )


@dataclass
class _Rows:
    """One side's trials as sample indices into the structure's arrays."""

    claim: np.ndarray       # subject code of the claimed identity
    ver: np.ndarray         # verification sample
    enr: np.ndarray | None  # enrollment sample (S1 only)
    enr_mask: np.ndarray    # bitmask of enrollment rounds used, in the structure's mask dtype


@dataclass
class _Structure:
    """Sample-index layout of all trials; shared across modalities of a pair set."""

    scenario: Scenario
    subjects: np.ndarray  # object, sorted; a subject code indexes it
    code: np.ndarray      # subject code per sample, narrowed (`_narrow`)
    rounds: np.ndarray    # round per sample, narrowed
    cross: np.ndarray     # [N, N] bool: cross-round pair of two eligible samples
    order: np.ndarray     # samples sorted by subject code (stable)
    starts: np.ndarray    # each subject's first position in `order`
    genuine: _Rows
    impostor: _Rows
    excluded: tuple[str, ...]


def _round_bits(rounds: np.ndarray) -> np.ndarray:
    """Bit r of each round r, in the smallest unsigned dtype holding the
    largest round's bit (both operands of the shift in that dtype)."""
    dtype = np.min_scalar_type(1 << int(rounds.max()))
    return np.left_shift(dtype.type(1), rounds.astype(dtype))


def _build_structure(samples, scenario: Scenario) -> _Structure:
    labels = np.array([s.subject_id for s in samples], dtype=object)
    rounds = np.array([s.round_id for s in samples], dtype=np.int64)
    if rounds.max() >= _MAX_ROUND_BITS:
        raise EvalError(f"round ids must stay below {_MAX_ROUND_BITS}")
    rounds = _narrow(rounds)
    subjects, code = np.unique(labels, return_inverse=True)
    code = _narrow(code)
    subject_of_round = np.unique(np.stack([code, rounds], axis=1), axis=0)[:, 0]
    eligible = np.bincount(subject_of_round, minlength=subjects.size) >= 2
    if eligible.sum() < 2:
        raise EvalError("trial building needs at least two subjects with two rounds each")
    ok = eligible[code]
    cross = (rounds[:, None] != rounds[None, :]) & ok[:, None] & ok[None, :]
    order = np.argsort(code, kind="stable")
    starts = np.searchsorted(code[order], np.arange(subjects.size))

    if scenario is Scenario.S1:
        # A genuine pair once (enrollment index below verification index), an
        # impostor pair in both orders, claiming the enrollment sample's subject.
        same = code[:, None] == code[None, :]
        g_enr, g_ver = np.nonzero(np.triu(cross & same, k=1))
        i_enr, i_ver = np.nonzero(cross & ~same)
        bit = _round_bits(rounds)
        genuine = _Rows(code[g_enr], g_ver, g_enr, bit[g_enr])
        impostor = _Rows(code[i_enr], i_ver, i_enr, bit[i_enr])
    else:
        # S2/S3: every eligible sample claims its own and every other eligible
        # subject; the enrollment rounds are read off the `cross` grid that
        # `_structure_scores` maximizes over.
        g_ver = np.flatnonzero(ok)
        g_claim = code[g_ver]
        foreign = np.arange(subjects.size)[:, None] != code
        i_claim, i_ver = np.nonzero(eligible[:, None] & ok & foreign)
        bit = _round_bits(rounds[order])
        bits = np.where(cross[order], bit[:, None], bit.dtype.type(0))
        enr = np.bitwise_or.reduceat(bits, starts, axis=0)  # [S, N]
        genuine = _Rows(g_claim, g_ver, None, enr[g_claim, g_ver])
        impostor = _Rows(i_claim, i_ver, None, enr[i_claim, i_ver])
    return _Structure(
        scenario=scenario,
        subjects=subjects,
        code=code,
        rounds=rounds,
        cross=cross,
        order=order,
        starts=starts,
        genuine=genuine,
        impostor=impostor,
        excluded=tuple(subjects[~eligible].tolist()),
    )


def _structure_scores(st: _Structure, embeddings: np.ndarray):
    """(genuine, impostor) similarity scores of one embedding set.

    S1 reads each trial's enrollment sample; S2/S3 take the best match over
    the claimed subject's cross-round samples, one max per (subject, sample).
    """
    sim = -np.sqrt(pairwise_sq_dists(embeddings))
    if st.scenario is Scenario.S1:
        return sim[st.genuine.enr, st.genuine.ver], sim[st.impostor.enr, st.impostor.ver]
    sim[~st.cross] = -np.inf
    best = np.maximum.reduceat(sim[st.order], st.starts, axis=0)  # [S, N]
    return best[st.genuine.claim, st.genuine.ver], best[st.impostor.claim, st.impostor.ver]


def _paired_scores(st: _Structure, embeddings) -> tuple[np.ndarray, np.ndarray]:
    """Score both sides of a paired set from its (brain, eye) embeddings.

    Returns (genuine, impostor), each a [2, n] array with rows (brain, eye).
    """
    if not isinstance(embeddings, tuple) or len(embeddings) != 2:
        raise ValidationError("score fusion takes the (brain, eye) embedding pair")
    brain, eye = (_structure_scores(st, emb) for emb in embeddings)
    return np.stack([brain[0], eye[0]]), np.stack([brain[1], eye[1]])


def _trial_set(st: _Structure, g_scores, i_scores) -> TrialSet:
    def block(rows: _Rows, scores) -> TrialBlock:
        return TrialBlock(
            scores=scores,
            claimed_code=rows.claim,
            ver_code=st.code[rows.ver],
            ver_round=st.rounds[rows.ver],
            enr_round_mask=rows.enr_mask,
            subjects=st.subjects,
        )

    return TrialSet(
        scenario=st.scenario,
        genuine=block(st.genuine, g_scores),
        impostor=block(st.impostor, i_scores),
        excluded_subjects=st.excluded,
    )


def embed_samples(samples, models):
    """One embedding row per sample: an [N, D] array from one EmbeddingModel,
    or the (brain, eye) pair of arrays of a paired list under a model pair."""
    if isinstance(models, EmbeddingModel):
        return models.embed_batch(samples)
    if not all(isinstance(p, PairedSample) for p in samples):
        raise ValidationError("score fusion needs paired brain/eye samples")
    try:
        model_brain, model_eye = models
    except (TypeError, ValueError):
        raise ValidationError("score fusion takes a (brain_model, eye_model) pair") from None
    return (
        model_brain.embed_batch([p.brain for p in samples]),
        model_eye.embed_batch([p.eye for p in samples]),
    )


def score_trials(
    samples,
    embeddings,
    scenario: Scenario,
    *,
    fusion_rule: FusionRule | None = None,
    normalizer: ScoreNormalizer | None = None,
) -> TrialSet:
    """Score all genuine and zero-effort impostor trials of a test set.

    S1 scores every cross-round (enrollment, verification) pair once; S2/S3
    score each verification sample against the best match among the claimed
    subject's samples from other rounds.  Impostor trials present every other
    subject's verification samples against each claimed identity under the
    same rule.  Subjects with fewer than two rounds are excluded entirely and
    listed in the result.

    `embeddings` are the samples' `embed_samples` rows.  With fusion_rule set
    they are the (brain, eye) pair of a paired list; per-modality scores are
    normalized and combined.
    """
    if not samples:
        raise EvalError("no samples to build trials from")
    if fusion_rule is not None and normalizer is None:
        raise ValidationError("score fusion needs a fitted ScoreNormalizer")
    structure = _build_structure(samples, scenario)

    if fusion_rule is None:
        if not isinstance(embeddings, np.ndarray):
            raise ValidationError("single-modality trial scoring takes one embedding array")
        return _trial_set(structure, *_structure_scores(structure, embeddings))
    return _trial_set(structure, *(
        fuse_arrays(normalizer.normalize_arrays(side), fusion_rule)
        for side in _paired_scores(structure, embeddings)
    ))


def build_trials(
    samples,
    models,
    scenario: Scenario,
    *,
    fusion_rule: FusionRule | None = None,
    normalizer: ScoreNormalizer | None = None,
) -> TrialSet:
    """`score_trials` of `embed_samples(samples, models)`."""
    return score_trials(samples, embed_samples(samples, models), scenario,
                        fusion_rule=fusion_rule, normalizer=normalizer)


def fit_fusion_normalizer(pairs, embeddings, scenario: Scenario) -> ScoreNormalizer:
    """Fit the per-modality min-max normalizer on calibration (training) pairs
    from their (brain, eye) embeddings."""
    if not pairs:
        raise EvalError("normalizer calibration needs paired samples")
    scores = _paired_scores(_build_structure(pairs, scenario), embeddings)
    return fit_normalizer_arrays(np.concatenate(scores, axis=1))


def fusion_calibration_normalizer(
    pairs, model_brain: EmbeddingModel, model_eye: EmbeddingModel, scenario: Scenario
) -> ScoreNormalizer:
    """`fit_fusion_normalizer` of the pairs' embeddings under the model pair."""
    return fit_fusion_normalizer(pairs, embed_samples(pairs, (model_brain, model_eye)), scenario)


# ---------------------------------------------------------------------------
# Metrics over trial sets


def compute_eer(trials: TrialSet) -> tuple[float, float]:
    return eer_from_scores(trials.genuine.scores, trials.impostor.scores)


def frr_at_far(trials: TrialSet, far_target: float) -> tuple[float, float]:
    return frr_at_far_scores(trials.genuine.scores, trials.impostor.scores, far_target)


@dataclass
class PerSubjectEer:
    by_subject: dict
    thresholds: dict
    frr_at_far: dict  # identity -> FRR at each of FAR_TARGETS, in order
    mean: float
    variance: float
    skipped: tuple[str, ...] = ()


def per_subject_eer(trials: TrialSet) -> PerSubjectEer:
    """EER per claimed identity plus the mean/variance across subjects.

    Each identity's EER, threshold and FRR at FAR_TARGETS come from one sweep
    over its scores, grouped in one pass (`TrialSet.scores_by_identity`)."""
    by_subject: dict[str, float] = {}
    thresholds: dict[str, float] = {}
    frr_at_far: dict[str, tuple[float, ...]] = {}
    skipped = []
    for identity, (g, i) in trials.scores_by_identity().items():
        if g.size == 0 or i.size == 0:
            warnings.warn(
                f"subject {identity!r} lacks genuine or impostor trials; excluded",
                stacklevel=2,
            )
            skipped.append(identity)
            continue
        by_subject[identity], thresholds[identity], frr_at_far[identity] = (
            _operating_points(g, i))
    if not by_subject:
        raise EvalError("no subject has both genuine and impostor trials")
    values = np.asarray(list(by_subject.values()))
    return PerSubjectEer(
        by_subject=by_subject,
        thresholds=thresholds,
        frr_at_far=frr_at_far,
        mean=float(values.mean()),
        variance=float(values.var()),
        skipped=tuple(skipped),
    )


# ---------------------------------------------------------------------------
# Full experiment


# ExperimentConfig.modality vocabularies, spelled as the enums' values
SAMPLE_MODALITIES = tuple(m.value for m in Modality)
EYE_MODALITIES = tuple(m.value for m in Modality if m is not Modality.BRAIN)
FEATURE_FUSIONS = tuple(k.value for k in ArchKind if k is not ArchKind.SINGLE)
_EYE_CHOICE = " or ".join(map(repr, EYE_MODALITIES))


@dataclass(frozen=True)
class ExperimentConfig:
    """One evaluation run: scenario, modality/fusion choice, folds, seeds.

    With a score-fusion rule set, `modality` names the eye side and brain is
    the implicit partner; feature-fusion archs take their eye branch from
    `fusion_eye`.
    """

    scenario: Scenario = Scenario.S2
    modality: str = "brain"
    fusion: FusionRule | None = None
    fusion_eye: str = "eye-pupil"
    folds: int = 6
    seed: int = 0
    nan_policy: NanPolicy = NanPolicy()
    train: TrainConfig = TrainConfig()

    def __post_init__(self) -> None:
        check_field_types(self)
        known = SAMPLE_MODALITIES + FEATURE_FUSIONS
        if self.modality not in known:
            raise ValidationError(f"modality must be one of {sorted(known)}")
        if self.fusion_eye not in EYE_MODALITIES:
            raise ValidationError(f"fusion_eye must be {_EYE_CHOICE}")
        if self.fusion is not None and self.modality not in EYE_MODALITIES:
            raise ValidationError(
                f"modality must be {_EYE_CHOICE} under score fusion, which pairs it with brain"
            )
        if self.folds < 2:
            raise ValidationError("folds must be >= 2 for cross-validation")


@dataclass
class EvalReport:
    """Provenance, one plain dict per fold and the pooled dict, as written to JSON."""

    provenance: dict
    folds: list[dict]
    pooled: dict

    def to_dict(self) -> dict:
        return {"provenance": self.provenance, "folds": self.folds, "pooled": self.pooled}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def config_tag(self) -> str:
        p = self.provenance
        return (
            f"modality={p['modality']},fusion={p['fusion']},"
            f"scenario={p['scenario']},seed={p['seed']}"
        )

    def to_rows(self) -> list[tuple[str, str, str]]:
        """Flatten fold and pooled metrics into (config, metric, value) rows."""
        tag = self.config_tag()
        rows: list[tuple[str, str, str]] = []

        def walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(f"{prefix}.{key}", value[key])
            elif isinstance(value, (list, tuple)):
                rows.append((tag, prefix, ";".join(str(v) for v in value)))
            else:
                rows.append((tag, prefix, repr(value) if isinstance(value, float) else str(value)))

        for fold in self.folds:
            for key in sorted(fold):
                if key in ("train_subjects", "test_subjects", "models"):
                    continue
                walk(f"fold{fold['fold']}.{key}", fold[key])
        walk("pooled", self.pooled)
        return rows


def _far_key(target: float) -> str:
    return repr(float(target))


def _tailored_rates(trials: TrialSet, thresholds: dict) -> tuple[float, float]:
    """Pooled FAR/FRR when every claimed identity uses its own threshold.

    Trials claiming an identity without a threshold (one `per_subject_eer`
    skipped) are left out, as they are from the per-subject mean."""
    code = {name: c for c, name in enumerate(trials.genuine.subjects.tolist())}
    by_code = np.full(len(code), np.nan)  # NaN: no threshold
    by_code[[code[name] for name in thresholds]] = list(thresholds.values())

    def scores_and_thresholds(block: TrialBlock) -> tuple[np.ndarray, np.ndarray]:
        thr = by_code[block.claimed_code]
        keep = ~np.isnan(thr)
        return block.scores[keep], thr[keep]

    g, g_thr = scores_and_thresholds(trials.genuine)
    i, i_thr = scores_and_thresholds(trials.impostor)
    return float((i >= i_thr).mean()), float((g < g_thr).mean())


def _scenario_metrics(trials: TrialSet, scenario: Scenario) -> tuple[dict, dict | None]:
    """The report's metric block under the scenario's reporting convention,
    plus the per-user thresholds (S3 only, else None).

    S1/S2 pool all scores under one threshold sweep; S3 averages per-subject
    metrics (each subject operating at its own threshold).
    """
    if trials.genuine.n == 0 or trials.impostor.n == 0:
        raise EvalError("trial set has an empty genuine or impostor side")
    pse = per_subject_eer(trials)
    thresholds = None
    if scenario is Scenario.S3:
        frr_map = {
            _far_key(t): float(np.mean([frr[k] for frr in pse.frr_at_far.values()]))
            for k, t in enumerate(FAR_TARGETS)
        }
        eer, theta = pse.mean, None
        s3_far, s3_frr = _tailored_rates(trials, pse.thresholds)
        thresholds = {k: float(v) for k, v in pse.thresholds.items()}
    else:
        eer, theta, frrs = _operating_points(trials.genuine.scores, trials.impostor.scores)
        frr_map = {_far_key(t): frr for t, frr in zip(FAR_TARGETS, frrs)}
        s3_far = s3_frr = None
    if not 0.0 <= eer <= 1.0:
        raise EvalError("eer out of [0, 1]")
    if any(not 0.0 <= v <= 1.0 for v in frr_map.values()):
        raise EvalError("FRR out of [0, 1]")
    block = {
        "n_genuine": trials.genuine.n,
        "n_impostor": trials.impostor.n,
        "eer": eer,
        "eer_threshold": theta,
        "frr_at_far": frr_map,
        "per_subject_eer": {k: float(v) for k, v in pse.by_subject.items()},
        "per_subject_mean": pse.mean,
        "per_subject_variance": pse.variance,
        "s3_pooled_far": s3_far,
        "s3_pooled_frr": s3_frr,
    }
    return block, thresholds


def _experiment_arches(config: ExperimentConfig) -> list[ArchSpec]:
    """The models one fold trains: brain plus eye for score fusion, else one."""
    if config.fusion is not None:
        eye = Modality(config.modality)
        return [single_modality_arch(Modality.BRAIN), single_modality_arch(eye)]
    if config.modality in FEATURE_FUSIONS:
        return [fusion_arch(ArchKind(config.modality), Modality(config.fusion_eye))]
    return [single_modality_arch(Modality(config.modality))]


@dataclass
class TrainedFold:
    """One fold's subject split, standardized samples and trained models."""

    index: int
    train_subjects: tuple[str, ...]
    test_subjects: tuple[str, ...]
    train: dict        # Modality -> standardized training samples
    test: dict         # Modality -> standardized test samples
    models: list       # one EmbeddingModel per arch `train_folds` trains
    histories: list    # per model, the mean loss of each epoch


def train_folds(datasets: dict, subjects, config: ExperimentConfig, arches: list[ArchSpec]):
    """Yield every fold of the experiment, split, standardized and trained.

    `datasets` maps each modality the models read to its samples.  A test
    split without two subjects with samples from two rounds in each modality
    raises ValidationError before any fold trains.  Standardizers are fitted
    on each fold's training subjects only (scope `fold{i}`); arch k of the
    fold trains with seed train.seed + 1000*fold + k.  A fold's test split is
    standardized after its models are trained, so it is not live during
    training.  The generator keeps no reference to a fold it has yielded, so
    a caller that drops the fold before asking for the next one frees its
    samples before the next fold is standardized.
    """
    plan = plan_folds(subjects, config.folds, config.seed)
    for fi, (_, test_subjects) in enumerate(plan.folds):
        for m, samples in datasets.items():
            seen = {(s.subject_id, s.round_id) for s in samples if s.subject_id in test_subjects}
            if sum(len({r for sid, r in seen if sid == t}) >= 2 for t in test_subjects) < 2:
                raise ValidationError(f"fold{fi}: its test split needs at least two subjects "
                                      f"with {m.value} samples from two rounds each")
    for fi, (train_subjects, test_subjects) in enumerate(plan.folds):
        yield _train_fold(datasets, fi, train_subjects, test_subjects, arches, config)


def _train_fold(datasets: dict, fi: int, train_subjects, test_subjects,
                arches: list[ArchSpec], config: ExperimentConfig) -> TrainedFold:
    """Fold `fi` of `train_folds`: split, standardized and trained."""
    scope = f"fold{fi}"
    train_set, test_set = set(train_subjects), set(test_subjects)
    tr, te_raw, stds = {}, {}, {}
    for m, samples in datasets.items():
        tr_raw = [s for s in samples if s.subject_id in train_set]
        te_raw[m] = [s for s in samples if s.subject_id in test_set]
        if not tr_raw or not te_raw[m]:
            raise EvalError(f"{scope}: modality {m.value} has an empty split")
        stds[m] = fit_standardizer(tr_raw, scope=scope)
        tr[m] = [apply_standardizer(stds[m], s) for s in tr_raw]

    fold = TrainedFold(fi, train_subjects, test_subjects, tr, {}, [], [])
    for k, arch in enumerate(arches):
        model, history = train(
            model_inputs(arch, tr),
            arch,
            replace(config.train, seed=config.train.seed + 1000 * fi + k),
            provenance={"fold_id": scope},
        )
        fold.models.append(model)
        fold.histories.append(history)
    # the test split is read only after training, so it is standardized only now
    for m, samples in te_raw.items():
        fold.test[m] = [apply_standardizer(stds[m], s) for s in samples]
        if any(s.standardized_by != scope for s in tr[m] + fold.test[m]):
            raise EvalError(f"{scope}: standardizer provenance mismatch")
    return fold


def _fold_trials(fold: TrainedFold, arches: list[ArchSpec], ks: list[int],
                 config: ExperimentConfig, memo: dict) -> TrialSet:
    """One config's trials on a fold whose models `ks` index in `arches`.  The
    fold's configs share `memo`, so a split's samples for one model, or for
    brain paired with one eye modality, are built and embedded once."""
    fused = config.fusion is not None
    key = Modality(config.modality) if fused else ks[0]
    models = tuple(fold.models[k] for k in ks) if fused else fold.models[ks[0]]

    def embedded(split: str):
        if (split, key) not in memo:
            by_m = getattr(fold, split)
            samples = (pair_samples(by_m[Modality.BRAIN], by_m[key]) if fused
                       else model_inputs(arches[key], by_m))
            memo[split, key] = samples, embed_samples(samples, models)
        return memo[split, key]

    normalizer = fit_fusion_normalizer(*embedded("train"), config.scenario) if fused else None
    return score_trials(*embedded("test"), config.scenario, fusion_rule=config.fusion,
                        normalizer=normalizer)


def run_experiment(recordings: Iterable[Recording], config: ExperimentConfig) -> EvalReport:
    """`run_experiments` of one config."""
    return run_experiments(recordings, [config])[0]


def run_experiments(recordings: Iterable[Recording], configs) -> list[EvalReport]:
    """Full per-fold pipeline: preprocess, train (`train_folds`), score
    trials and report, once per config.

    The configs share one ingestion, fold split and training, so they must
    agree on folds, seed, nan_policy and train (else ValidationError).  A fold
    trains every arch they name once: arch k in first-use order gets seed
    train.seed + 1000*fold + k.  Each sample list is embedded once a fold.

    Deterministic given the configs.  `recordings` may be any iterable, such
    as `iter_corpus(path)`: each recording becomes its samples as it arrives,
    so with a generator only one recording is live at a time.  The samples
    are put in subject order, so the result does not depend on the order of
    the recordings; a subject that comes twice raises ValidationError.  Each
    fold is dropped before the next one is standardized.  A list of
    recordings stays alive while its caller holds it; on CPython 3.10, which
    holds call arguments until the call returns, that includes
    `run_experiment(read_corpus(path), config)`.
    """
    configs = list(configs)
    if not configs:
        raise ValidationError("run_experiments needs at least one config")
    for name in ("folds", "seed", "nan_policy", "train"):
        if any(getattr(c, name) != getattr(configs[0], name) for c in configs):
            raise ValidationError(f"every config must share one {name}")
    config_arches = [_experiment_arches(c) for c in configs]
    arches = list(dict.fromkeys(a for ca in config_arches for a in ca))
    modalities = list(dict.fromkeys(m for arch in arches for m in arch.modalities))

    by_subject: dict[str, dict] = {}  # subject -> modality -> that subject's samples
    prep_totals = {m.value: dict.fromkeys(STAGES, 0) for m in modalities}
    for rec in recordings:
        if rec.subject_id in by_subject:
            raise ValidationError(f"duplicate subject_id {rec.subject_id!r} in recordings")
        chunks = by_subject[rec.subject_id] = {}
        for m in modalities:
            chunks[m], report = build_dataset([rec], m, configs[0].nan_policy)
            for stage in STAGES:
                prep_totals[m.value][stage] += report.total(stage)
        del rec  # free this recording before the next one is parsed
    del recordings
    subjects = sorted(by_subject)
    datasets = {m: [s for sid in subjects for s in by_subject[sid][m]] for m in modalities}
    del by_subject

    reports = [EvalReport(provenance={
        **asdict(config, dict_factory=lambda kv: {
            k: v.value if isinstance(v, Enum) else v for k, v in kv  # enums as values
        }),
        "corpus": {"n_subjects": len(subjects), "subjects": list(subjects)},
        "preprocess": {m.value: dict(prep_totals[m.value])
                       for m in modalities if any(m in arch.modalities for arch in ca)},
        "models_per_fold": len(ca),
        "model_arches": [arch.tag for arch in ca],
    }, folds=[], pooled={}) for config, ca in zip(configs, config_arches)]
    config_ks = [[arches.index(a) for a in ca] for ca in config_arches]
    fold_trialsets: list[list[TrialSet]] = [[] for _ in configs]
    for fold in train_folds(datasets, subjects, configs[0], arches):
        memo: dict = {}
        for config, ks, report, sets in zip(configs, config_ks, reports, fold_trialsets):
            trials = _fold_trials(fold, arches, ks, config, memo)
            block, thresholds = _scenario_metrics(trials, config.scenario)
            report.folds.append({
                "fold": fold.index,
                "train_subjects": list(fold.train_subjects),
                "test_subjects": list(fold.test_subjects),
                **block,
                "per_user_thresholds": thresholds,
                "excluded_subjects": list(trials.excluded_subjects),
                "models": [_model_summary(fold.models[k], fold.histories[k]) for k in ks],
                "audits": {
                    "round_exclusion_violations": trials.round_exclusion_violations(),
                    "train_test_overlap": len(set(fold.train_subjects) & set(fold.test_subjects)),
                    "foreign_trial_subjects": len(trials.subjects() - set(fold.test_subjects)),
                },
            })
            sets.append(trials)
        del fold, memo  # free this fold's samples before the next one is built

    for config, report, sets in zip(configs, reports, fold_trialsets):
        pooled = report.pooled = _scenario_metrics(TrialSet.concat(sets), config.scenario)[0]
        pooled["eer_mean_of_folds"] = float(np.mean([f["eer"] for f in report.folds]))
        if config.scenario is not Scenario.S3:
            # Both pooling conventions: all scores pooled, and the fold-mean EER.
            pooled["eer_pooled_scores"] = pooled["eer"]
    return reports


def _model_summary(model: EmbeddingModel, history: list[float]) -> dict:
    return {
        "arch": model.arch.tag,
        "seed": model.provenance.get("seed"),
        "fold_id": model.provenance.get("fold_id"),
        "n_weights": int(model.n_weights),
        "first_epoch_loss": float(history[0]) if history else None,
        "final_epoch_loss": float(history[-1]) if history else None,
    }
