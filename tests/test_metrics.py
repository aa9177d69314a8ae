import json
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.corpus import Modality, SynthConfig, generate_synthetic
from biofuse.errors import EvalError, ValidationError
from biofuse.fusion import FusionRule
from biofuse.metrics import (
    ExperimentConfig,
    TrialBlock,
    TrialSet,
    build_trials,
    compute_eer,
    eer_from_scores,
    fit_fusion_normalizer,
    frr_at_far,
    frr_at_far_scores,
    fusion_calibration_normalizer,
    per_subject_eer,
    plan_folds,
    run_experiment,
    score_trials,
    train_folds,
)
from biofuse.preprocess import GRID_POINTS, NanPolicy, Sample, build_dataset
from biofuse.tnn import EmbeddingModel, TrainConfig, single_modality_arch
from biofuse.verify import Scenario, best_match, Template
from biofuse.metrics import _build_structure, _structure_scores
from oracles import oracle_best_rows, oracle_eer, oracle_frr_at_far, oracle_s1_rows

score_lists = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False), min_size=1, max_size=40
)


class TestFolds:
    def test_thirty_subjects_six_folds(self):
        subjects = [f"s{i:02d}" for i in range(30)]
        plan = plan_folds(subjects, k=6, seed=0)
        all_test = []
        for train, test in plan.folds:
            assert len(train) == 25 and len(test) == 5
            assert not set(train) & set(test)
            all_test.extend(test)
        assert sorted(all_test) == subjects

    def test_leave_one_out(self):
        subjects = ["a", "b", "c", "d"]
        plan = plan_folds(subjects, k=4, seed=1)
        assert all(len(test) == 1 for _, test in plan.folds)
        assert sorted(t for _, (t,) in plan.folds) == subjects

    def test_deterministic(self):
        subjects = [f"s{i}" for i in range(9)]
        assert plan_folds(subjects, 3, seed=5) == plan_folds(subjects, 3, seed=5)
        assert plan_folds(subjects, 3, seed=5) != plan_folds(subjects, 3, seed=6)

    def test_k_larger_than_subjects(self):
        with pytest.raises(ValidationError):
            plan_folds(["a", "b"], k=3, seed=0)


class TestEer:
    def test_perfect_separation(self):
        eer, _ = eer_from_scores([0.9, 0.8, 0.7], [0.1, 0.2, 0.3])
        assert eer == 0.0

    def test_identical_distributions(self):
        s = [0.1, 0.4, 0.9]
        eer, _ = eer_from_scores(s, s)
        assert eer == pytest.approx(0.5)

    def test_worked_example(self):
        eer, theta = eer_from_scores([0.9, 0.8, 0.4], [0.5, 0.2, 0.1])
        assert eer == pytest.approx(1 / 3)
        assert theta == pytest.approx(0.5)

    def test_empty_raises(self):
        with pytest.raises(EvalError):
            eer_from_scores([], [0.1])

    @settings(max_examples=80, deadline=None)
    @given(score_lists, score_lists)
    def test_matches_oracle(self, genuine, impostor):
        eer, theta = eer_from_scores(genuine, impostor)
        o_eer, o_theta = oracle_eer(genuine, impostor)
        assert eer == pytest.approx(o_eer, abs=1e-9)
        assert theta == pytest.approx(o_theta, abs=1e-9)
        assert 0.0 <= eer <= 1.0


class TestFrrAtFar:
    def test_worked_example(self):
        frr, theta = frr_at_far_scores([0.9, 0.8, 0.4], [0.5, 0.2, 0.1], 0.0)
        assert theta > 0.5
        assert frr == pytest.approx(1 / 3)

    def test_perfect_separation_zero_everywhere(self):
        for target in (0.01, 0.001, 0.0):
            frr, _ = frr_at_far_scores([0.9, 0.8], [0.1, 0.2], target)
            assert frr == 0.0

    @settings(max_examples=80, deadline=None)
    @given(score_lists, score_lists)
    def test_matches_oracle_and_monotone(self, genuine, impostor):
        values = []
        for target in (0.01, 0.001, 0.0):
            frr, theta = frr_at_far_scores(genuine, impostor, target)
            o_frr, o_theta = oracle_frr_at_far(genuine, impostor, target)
            assert frr == pytest.approx(o_frr, abs=1e-9)
            assert theta == pytest.approx(o_theta, abs=1e-9)
            values.append(frr)
        assert values[0] <= values[1] <= values[2]

    @settings(max_examples=40, deadline=None)
    @given(score_lists, score_lists)
    def test_sweep_rates_are_monotone_stepwise(self, genuine, impostor):
        cands = sorted(set(genuine) | set(impostor))
        g = np.asarray(genuine)
        i = np.asarray(impostor)
        fars = [(i >= th).mean() for th in cands]
        frrs = [(g < th).mean() for th in cands]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))


def _grid_samples(spec, seed=0):
    """spec: list of (subject, round, n_samples)."""
    rng = np.random.default_rng(seed)
    samples = []
    t0 = 0.0
    for subject, round_id, count in spec:
        for _ in range(count):
            data = rng.standard_normal((14, GRID_POINTS)).astype(np.float32)
            samples.append(
                Sample(subject_id=subject, round_id=round_id, modality=Modality.BRAIN,
                       data=data, t0=t0)
            )
            t0 += 1.0
    return samples


@pytest.fixture(scope="module")
def untrained_model():
    return EmbeddingModel(single_modality_arch(Modality.BRAIN), seed=0)


class TestBuildTrials:
    def test_s1_hand_enumerated_count(self, untrained_model):
        # 2 subjects x 2 rounds x 2 samples: 2 x (2*2) cross-round pairs = 8
        spec = [("a", 0, 2), ("a", 1, 2), ("b", 0, 2), ("b", 1, 2)]
        trials = build_trials(_grid_samples(spec), untrained_model, Scenario.S1)
        assert trials.genuine.n == 8

    def test_no_same_round_pairs(self, untrained_model):
        spec = [("a", 0, 3), ("a", 1, 2), ("b", 0, 2), ("b", 1, 3)]
        trials = build_trials(_grid_samples(spec), untrained_model, Scenario.S1)
        assert trials.round_exclusion_violations() == 0
        trials2 = build_trials(_grid_samples(spec), untrained_model, Scenario.S2)
        assert trials2.round_exclusion_violations() == 0

    def test_s2_is_max_over_s1_pairs(self, untrained_model):
        spec = [("a", 0, 3), ("a", 1, 3), ("b", 0, 3), ("b", 1, 3)]
        samples = _grid_samples(spec, seed=3)
        s1 = build_trials(samples, untrained_model, Scenario.S1)
        s2 = build_trials(samples, untrained_model, Scenario.S2)
        # group S1 genuine pair scores by (subject, verification sample -> both roles)
        emb = untrained_model.embed_batch(samples)
        for k, sample in enumerate(samples):
            partners = [
                j for j, other in enumerate(samples)
                if other.subject_id == sample.subject_id and other.round_id != sample.round_id
            ]
            if not partners:
                continue
            expect = max(-np.linalg.norm(emb[k] - emb[j]) for j in partners)
            sel = (s2.genuine.ver_subject == sample.subject_id) & (
                s2.genuine.ver_round == sample.round_id
            )
            scores = s2.genuine.scores[sel]
            assert any(abs(s - expect) < 1e-9 for s in scores)

    def test_s2_score_matches_best_match_op(self, untrained_model):
        spec = [("a", 0, 2), ("a", 1, 2), ("b", 0, 2), ("b", 1, 2)]
        samples = _grid_samples(spec, seed=4)
        trials = build_trials(samples, untrained_model, Scenario.S2)
        emb = untrained_model.embed_batch(samples)
        v = 0  # first sample of subject a, round 0
        templates = [
            Template(identity="a", vector=emb[j], round_id=samples[j].round_id)
            for j, s in enumerate(samples)
            if s.subject_id == "a" and s.round_id != samples[v].round_id
        ]
        score, _ = best_match(emb[v], templates)
        sel = (trials.genuine.claimed == "a") & (trials.genuine.ver_round == 0)
        assert any(abs(s - score) < 1e-9 for s in trials.genuine.scores[sel])

    def test_single_round_subject_excluded(self, untrained_model):
        spec = [("a", 0, 2), ("a", 1, 2), ("b", 0, 2), ("b", 1, 2), ("c", 0, 4)]
        trials = build_trials(_grid_samples(spec), untrained_model, Scenario.S2)
        assert trials.excluded_subjects == ("c",)
        seen = set(trials.genuine.claimed.tolist()) | set(trials.impostor.claimed.tolist())
        seen |= set(trials.genuine.ver_subject.tolist()) | set(trials.impostor.ver_subject.tolist())
        assert "c" not in seen

    def test_impostor_claims_cross_subjects(self, untrained_model):
        spec = [("a", 0, 2), ("a", 1, 2), ("b", 0, 2), ("b", 1, 2)]
        trials = build_trials(_grid_samples(spec), untrained_model, Scenario.S2)
        assert np.all(trials.impostor.claimed != trials.impostor.ver_subject)
        assert np.all(trials.genuine.claimed == trials.genuine.ver_subject)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=30))
def test_s1_selection_matches_loop_oracle(layout):
    """Masked [N, N] S1 selection gives the loop builder's rows as a multiset;
    the layouts are unsorted and include subjects with a single round."""
    samples = [SimpleNamespace(subject_id=f"s{s}", round_id=r) for s, r in layout]
    labels = [p.subject_id for p in samples]
    rounds = [p.round_id for p in samples]
    genuine, impostor = oracle_s1_rows(labels, rounds)
    eligible = {c for _, _, c in genuine}
    if len(eligible) < 2:
        with pytest.raises(EvalError):
            _build_structure(samples, Scenario.S1)
        return
    st_ = _build_structure(samples, Scenario.S1)
    got_g, got_i = (
        zip(rows.enr.tolist(), rows.ver.tolist(), st_.subjects[rows.claim].tolist())
        for rows in (st_.genuine, st_.impostor)
    )
    assert Counter(got_g) == Counter(genuine)
    assert Counter(got_i) == Counter(impostor)
    assert st_.excluded == tuple(sorted(set(labels) - eligible))


grid_point = st.lists(st.integers(0, 2), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), grid_point), min_size=1, max_size=30),
    st.sampled_from([Scenario.S2, Scenario.S3]),
)
def test_best_match_rows_match_loop_oracle(layout, scenario):
    """The masked cross-round grid gives the loop builder's S2/S3 rows as a
    multiset, scores bit for bit; layouts are unsorted, include single-round
    subjects, and integer-grid embeddings make best-match ties."""
    samples = [SimpleNamespace(subject_id=f"s{s}", round_id=r) for s, r, _ in layout]
    labels = [p.subject_id for p in samples]
    rounds = [p.round_id for p in samples]
    emb = np.array([e for _, _, e in layout], dtype=np.float64)
    genuine, impostor = oracle_best_rows(labels, rounds, emb)
    eligible = {c for c, _, _, _ in genuine}
    if len(eligible) < 2:
        with pytest.raises(EvalError):
            _build_structure(samples, scenario)
        return
    st_ = _build_structure(samples, scenario)
    scores = _structure_scores(st_, emb)

    def rows(side, side_scores):
        claimed = st_.subjects[side.claim]
        return Counter(
            (c, v, int(m), s.hex())
            for c, v, m, s in zip(claimed, side.ver.tolist(), side.enr_mask, side_scores.tolist())
        )

    def expected(oracle_rows):
        return Counter((c, v, m, s.hex()) for c, v, m, s in oracle_rows)

    assert rows(st_.genuine, scores[0]) == expected(genuine)
    assert rows(st_.impostor, scores[1]) == expected(impostor)
    assert st_.excluded == tuple(sorted(set(labels) - eligible))

def _trialset(genuine, impostor, scenario=Scenario.S2):
    def block(scores, claimed):
        n = len(scores)
        return TrialBlock(
            scores=np.asarray(scores, dtype=np.float64),
            claimed=np.asarray(claimed, dtype=object),
            ver_subject=np.asarray(claimed, dtype=object),
            ver_round=np.zeros(n, dtype=np.int64),
            enr_round_mask=np.full(n, 2, dtype=np.uint64),
        )

    g_scores, g_claimed = zip(*genuine)
    i_scores, i_claimed = zip(*impostor)
    imp = block(list(i_scores), list(i_claimed))
    imp.ver_subject = np.asarray(["other"] * len(i_scores), dtype=object)
    return TrialSet(scenario=scenario, genuine=block(list(g_scores), list(g_claimed)),
                    impostor=imp)


class TestPerSubject:
    def test_single_subject_equals_compute_eer(self):
        rng = np.random.default_rng(0)
        g = [(s, "a") for s in rng.normal(0.5, 0.2, 12)]
        i = [(s, "a") for s in rng.normal(-0.5, 0.3, 15)]
        ts = _trialset(g, i)
        pse = per_subject_eer(ts)
        assert pse.by_subject["a"] == pytest.approx(compute_eer(ts)[0])

    def test_identical_score_sets_identical_eers(self):
        g_scores = [0.9, 0.6, 0.4]
        i_scores = [0.5, 0.1]
        g = [(s, subj) for subj in ("a", "b", "c") for s in g_scores]
        i = [(s, subj) for subj in ("a", "b", "c") for s in i_scores]
        pse = per_subject_eer(_trialset(g, i))
        values = list(pse.by_subject.values())
        assert values.count(values[0]) == 3
        assert pse.variance == pytest.approx(0.0)

    def test_three_subject_toy_matches_oracle(self):
        rng = np.random.default_rng(1)
        g, i = [], []
        expected = {}
        for subj in ("a", "b", "c"):
            gg = list(rng.normal(0.6, 0.3, 10))
            ii = list(rng.normal(-0.4, 0.5, 14))
            g += [(s, subj) for s in gg]
            i += [(s, subj) for s in ii]
            expected[subj] = oracle_eer(gg, ii)[0]
        pse = per_subject_eer(_trialset(g, i))
        for subj, eer in expected.items():
            assert pse.by_subject[subj] == pytest.approx(eer, abs=1e-9)
        assert pse.mean == pytest.approx(np.mean(list(expected.values())))

    def test_missing_kind_warns_and_skips(self):
        g = [(0.5, "a"), (0.6, "b")]
        i = [(-0.5, "a")]
        with pytest.warns(UserWarning, match="'b'"):
            pse = per_subject_eer(_trialset(g, i))
        assert pse.skipped == ("b",)
        assert set(pse.by_subject) == {"a"}


@pytest.fixture(scope="module")
def mini_corpus():
    cfg = SynthConfig(
        n_subjects=6, n_rounds=2, dots_per_round=8,
        subject_separability=0.8, noise_sigma=0.5, seed=21,
    )
    return generate_synthetic(cfg)


def _mini_train():
    return TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=0)


class TestRunExperiment:
    def test_single_modality_report(self, mini_corpus):
        config = ExperimentConfig(
            scenario=Scenario.S2, modality="brain", folds=2, seed=0, train=_mini_train()
        )
        report = run_experiment(mini_corpus, config)
        d = json.loads(report.to_json())
        assert d["provenance"]["models_per_fold"] == 1
        assert d["provenance"]["nan_policy"]["max_nan_fraction"] == 0.25
        assert len(d["folds"]) == 2
        for fold in d["folds"]:
            assert fold["audits"]["round_exclusion_violations"] == 0
            assert fold["audits"]["train_test_overlap"] == 0
            assert fold["audits"]["foreign_trial_subjects"] == 0
            assert 0.0 <= fold["eer"] <= 1.0
            assert fold["n_genuine"] > 0 and fold["n_impostor"] > 0
        assert 0.0 <= d["pooled"]["eer"] <= 1.0
        assert "eer_mean_of_folds" in d["pooled"]

    def test_s3_thresholds_cover_test_subjects(self, mini_corpus):
        config = ExperimentConfig(
            scenario=Scenario.S3, modality="brain", folds=2, seed=0, train=_mini_train()
        )
        report = run_experiment(mini_corpus, config)
        for fold in report.folds:
            assert fold["per_user_thresholds"] is not None
            assert sorted(fold["per_user_thresholds"]) == sorted(fold["test_subjects"])
            assert fold["s3_pooled_far"] is not None

    def test_score_fusion_uses_two_models(self, mini_corpus):
        config = ExperimentConfig(
            scenario=Scenario.S2, modality="eye-pupil", fusion=FusionRule.MEAN,
            folds=2, seed=0, train=_mini_train(),
        )
        report = run_experiment(mini_corpus, config)
        assert report.provenance["models_per_fold"] == 2
        assert report.provenance["model_arches"] == ["single:brain", "single:eye-pupil"]
        # fused similarity scores live in [0, 1]
        assert 0.0 <= report.pooled["eer"] <= 1.0

    def test_feature_fusion_uses_one_model(self, mini_corpus):
        config = ExperimentConfig(
            scenario=Scenario.S2, modality="fusion-a", folds=2, seed=0, train=_mini_train()
        )
        report = run_experiment(mini_corpus, config)
        assert report.provenance["models_per_fold"] == 1
        assert report.provenance["model_arches"] == ["fusion-a:brain+eye-pupil"]

    def test_rows_output(self, mini_corpus):
        config = ExperimentConfig(
            scenario=Scenario.S2, modality="brain", folds=2, seed=0, train=_mini_train()
        )
        report = run_experiment(mini_corpus, config)
        rows = report.to_rows()
        assert all(len(r) == 3 for r in rows)
        metrics = {m for _, m, _ in rows}
        assert "pooled.eer" in metrics
        assert "fold0.eer" in metrics

    def test_fusion_config_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(modality="brain", fusion=FusionRule.MEAN)
        with pytest.raises(ValidationError):
            ExperimentConfig(modality="nope")
        with pytest.raises(ValidationError):
            ExperimentConfig(folds=1)

    def test_report_matches_frozen_schema(self):
        """Golden-run fixture: the report's key structure is frozen."""
        from pathlib import Path

        cfg = SynthConfig(n_subjects=8, n_rounds=2, dots_per_round=8,
                          subject_separability=0.7, noise_sigma=0.6, seed=5)
        recordings = generate_synthetic(cfg)
        report = run_experiment(recordings, ExperimentConfig(
            scenario=Scenario.S2, modality="brain", folds=2, seed=5,
            train=TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=5),
        ))
        d = report.to_dict()
        subject_maps = {"per_subject_eer", "per_user_thresholds"}

        def schema(node, under_subjects=False):
            if isinstance(node, dict):
                if under_subjects:
                    return {"<subject>": schema(next(iter(node.values())))} if node else {}
                return {k: schema(node[k], under_subjects=k in subject_maps)
                        for k in sorted(node)}
            if isinstance(node, list):
                return [schema(node[0])] if node else []
            return type(node).__name__ if node is not None else "none"

        got = {
            "provenance": schema(d["provenance"]),
            "fold": schema(d["folds"][0]),
            "pooled": schema(d["pooled"]),
        }
        frozen = json.loads(
            (Path(__file__).parent / "data" / "report_schema.json").read_text()
        )
        assert got == frozen


def test_fusion_changes_scores_only(mini_corpus, untrained_model):
    """Fused trial sets carry the identical trial structure; only scores move."""
    from biofuse.preprocess import pair_samples
    from biofuse.tnn import fusion_arch
    from biofuse.tnn.arch import ArchKind

    brain, _ = build_dataset(mini_corpus, Modality.BRAIN)
    eye, _ = build_dataset(mini_corpus, Modality.EYE_PUPIL)
    pairs = pair_samples(brain, eye)
    model_b = untrained_model
    model_e = EmbeddingModel(single_modality_arch(Modality.EYE_PUPIL), seed=1)
    norm = fusion_calibration_normalizer(pairs, model_b, model_e, Scenario.S2)
    fused = build_trials(pairs, (model_b, model_e), Scenario.S2,
                         fusion_rule=FusionRule.MEAN, normalizer=norm)
    feature_model = EmbeddingModel(fusion_arch(ArchKind.FUSION_A), seed=2)
    plain = build_trials(pairs, feature_model, Scenario.S2)
    for side in ("genuine", "impostor"):
        a, b = getattr(fused, side), getattr(plain, side)
        assert a.n == b.n
        assert a.claimed.tolist() == b.claimed.tolist()
        assert a.ver_round.tolist() == b.ver_round.tolist()
        assert a.enr_round_mask.tolist() == b.enr_round_mask.tolist()
    assert fused.genuine.scores.min() >= 0.0 and fused.genuine.scores.max() <= 1.0


def test_fusion_rows_are_brain_then_eye(mini_corpus, untrained_model):
    """Each modality is normalized by its own calibration range, and raw
    fusion combines each trial's own brain and eye scores."""
    from biofuse.preprocess import pair_samples

    brain, _ = build_dataset(mini_corpus, Modality.BRAIN)
    eye, _ = build_dataset(mini_corpus, Modality.EYE_PUPIL)
    pairs = pair_samples(brain, eye)
    model_e = EmbeddingModel(single_modality_arch(Modality.EYE_PUPIL), seed=1)
    emb = (untrained_model.embed_batch([p.brain for p in pairs]),
           model_e.embed_batch([p.eye for p in pairs]))
    for scenario in Scenario:
        single = [score_trials([getattr(p, half) for p in pairs], e, scenario)
                  for half, e in zip(("brain", "eye"), emb)]
        norm = fit_fusion_normalizer(pairs, emb, scenario)
        for row, trials in enumerate(single):
            scores = np.concatenate([trials.genuine.scores, trials.impostor.scores])
            assert (norm.lo[row], norm.hi[row]) == (scores.min(), scores.max())
        fused = score_trials(pairs, emb, scenario, fusion_rule=FusionRule.MEAN, raw_fusion=True)
        for side in ("genuine", "impostor"):
            s_brain, s_eye = (getattr(t, side).scores for t in single)
            assert getattr(fused, side).scores.tobytes() == ((s_brain + s_eye) / 2).tobytes()


def test_model_wrappers_match_embedding_path(mini_corpus):
    """build_trials and fusion_calibration_normalizer give exactly what the
    embedding-taking path gives from embed_batch outputs, on one trained fold."""
    config = ExperimentConfig(
        modality="eye-pupil", fusion=FusionRule.MEAN, folds=2, seed=0, train=_mini_train()
    )
    datasets = {
        m: build_dataset(mini_corpus, m)[0] for m in (Modality.BRAIN, Modality.EYE_PUPIL)
    }
    fold = next(train_folds(datasets, sorted({r.subject_id for r in mini_corpus}), config))
    mb, me = fold.models
    brain, pairs, calibration = fold.test[Modality.BRAIN], fold.test_pairs, fold.train_pairs

    def pair_embeddings(pairs):
        return mb.embed_batch([p.brain for p in pairs]), me.embed_batch([p.eye for p in pairs])

    for scenario in Scenario:
        norm = fusion_calibration_normalizer(calibration, mb, me, scenario)
        assert norm == fit_fusion_normalizer(calibration, pair_embeddings(calibration), scenario)
        for samples, models, embeddings, kwargs in (
            (brain, mb, mb.embed_batch(brain), {}),
            (pairs, (mb, me), pair_embeddings(pairs),
             dict(fusion_rule=FusionRule.MEAN, normalizer=norm)),
            (pairs, (mb, me), pair_embeddings(pairs),
             dict(fusion_rule=FusionRule.PRODUCT, raw_fusion=True)),
        ):
            got = build_trials(samples, models, scenario, **kwargs)
            want = score_trials(samples, embeddings, scenario, **kwargs)
            assert got.excluded_subjects == want.excluded_subjects
            for side in ("genuine", "impostor"):
                for f in fields(TrialBlock):
                    a, b = getattr(getattr(got, side), f.name), getattr(getattr(want, side), f.name)
                    assert a.dtype == b.dtype and a.shape == b.shape
                    same = (a.tolist() == b.tolist() if a.dtype == object
                            else a.tobytes() == b.tobytes())
                    assert same, f"{scenario.value} {kwargs} {side}.{f.name}"


_WRONG_TYPES = [
    ("epochs", lambda: TrainConfig(epochs=1.5)),
    ("batch_size", lambda: TrainConfig(batch_size=64.0)),
    ("margin", lambda: TrainConfig(margin=True)),
    ("n_subjects", lambda: SynthConfig(n_subjects=4.0, n_rounds=2)),
    ("noise_sigma", lambda: SynthConfig(n_subjects=2, n_rounds=2, noise_sigma=True)),
    ("max_nan_fraction", lambda: NanPolicy(max_nan_fraction=True)),
    ("scenario", lambda: ExperimentConfig(scenario="s2")),
    ("fusion", lambda: ExperimentConfig(modality="eye", fusion="mean")),
    ("folds", lambda: ExperimentConfig(folds=np.float64(3))),
    ("raw_fusion", lambda: ExperimentConfig(raw_fusion=1)),
    ("train", lambda: ExperimentConfig(train={})),
]


@pytest.mark.parametrize("field, make", _WRONG_TYPES, ids=[f for f, _ in _WRONG_TYPES])
def test_config_field_of_wrong_type_raises(field, make):
    # each of these used to construct and fail later, in the middle of a run
    with pytest.raises(ValidationError, match=f"^{field} must be "):
        make()
