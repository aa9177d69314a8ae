import json
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biofuse.metrics
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
from biofuse.preprocess import GRID_POINTS, NanPolicy, PairedSample, Sample, build_dataset
from biofuse.tnn import EmbeddingModel, TrainConfig, single_modality_arch
from biofuse.verify import Scenario, best_match, Template
from biofuse.metrics import (
    FAR_TARGETS,
    _build_structure,
    _scenario_metrics,
    _structure_scores,
    _tailored_rates,
)
from oracles import (
    oracle_best_rows,
    oracle_eer,
    oracle_frr_at_far,
    oracle_per_subject_eer_by_name,
    oracle_s1_rows,
    oracle_scores_for_identity_by_name,
    oracle_subjects_by_name,
    oracle_tailored_rates_by_name,
    rows_trial_set,
)

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


@pytest.mark.parametrize("side", ["genuine", "impostor"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("rate", [eer_from_scores, lambda g, i: frr_at_far_scores(g, i, 0.0)],
                         ids=["eer", "frr_at_far"])
def test_non_finite_score_raises_naming_its_side(rate, bad, side):
    # a NaN would drop out of the sweep silently: it moves the EER, and a NaN
    # impostor would not count against FAR 0
    scores = {"genuine": [1.0, 0.5], "impostor": [0.0, 0.6]}
    scores[side] = [bad] + scores[side]
    with pytest.raises(EvalError, match=f"{side} scores hold a non-finite value"):
        rate(scores["genuine"], scores["impostor"])


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
    """(score, claimed) pairs per side; impostor samples come from 'other'."""
    return rows_trial_set(scenario, [(s, c, c) for s, c in genuine],
                          [(s, c, "other") for s, c in impostor])


def _assert_matches_name_oracles(ts, genuine, impostor):
    """Every per-subject view of trial set `ts`, which holds these (score,
    claimed, ver_subject) rows, equals the object-array one, bit for bit."""
    for side, rows in (("genuine", genuine), ("impostor", impostor)):
        block = getattr(ts, side)
        assert block.scores.tobytes() == np.array([r[0] for r in rows]).tobytes()
        assert block.claimed.tolist() == [r[1] for r in rows]
        assert block.ver_subject.tolist() == [r[2] for r in rows]
    assert ts.subjects() == oracle_subjects_by_name(genuine, impostor)
    for name in sorted(ts.subjects()) + ["nobody"]:
        got = ts.scores_for_identity(name)
        want = oracle_scores_for_identity_by_name(genuine, impostor, name)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want], name
    by_subject, thresholds, skipped = oracle_per_subject_eer_by_name(
        genuine, impostor, eer_from_scores)
    claimed = list(ts.scores_by_identity())
    assert claimed == sorted([*by_subject, *skipped])
    assert not set(claimed) & set(ts.excluded_subjects)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # one per skipped identity
        if not by_subject:
            with pytest.raises(EvalError):
                per_subject_eer(ts)
            return
        pse = per_subject_eer(ts)
        block, _ = _scenario_metrics(ts, Scenario.S3)
    assert list(pse.by_subject.items()) == list(by_subject.items())
    assert list(pse.thresholds.items()) == list(thresholds.items())
    assert pse.skipped == skipped
    assert _tailored_rates(ts, pse.thresholds) == oracle_tailored_rates_by_name(
        genuine, impostor, thresholds)
    # one sweep per identity gives what the separate FRR calls give
    per_identity = [ts.scores_for_identity(name) for name in by_subject]
    assert block["frr_at_far"] == {
        repr(t): float(np.mean([frr_at_far_scores(g, i, t)[0] for g, i in per_identity]))
        for t in FAR_TARGETS
    }


trial_score = st.sampled_from([-1.0, 0.0, 0.5]) | st.floats(-2, 2, allow_nan=False)
trial_row = st.tuples(trial_score, st.sampled_from("abcde"), st.sampled_from("abcde"))


@settings(max_examples=80, deadline=None)
@given(st.lists(trial_row, min_size=1, max_size=40), st.lists(trial_row, min_size=1, max_size=40))
def test_code_trial_sets_match_name_oracles(genuine, impostor):
    """Random sets, with score ties and identities that lack one side (which
    `per_subject_eer` skips and `_tailored_rates` leaves out)."""
    _assert_matches_name_oracles(rows_trial_set(Scenario.S3, genuine, impostor), genuine, impostor)


def test_codes_widen_past_256_subjects():
    rng = np.random.default_rng(0)
    names = [f"s{k:03d}" for k in range(300)]
    genuine = [(float(rng.normal(1.0)), n, n) for n in names for _ in range(2)]
    impostor = [(float(rng.normal(-1.0)), n, names[k - 1]) for k, n in enumerate(names)
                for _ in range(3)]
    ts = rows_trial_set(Scenario.S3, genuine, impostor)
    for block in (ts.genuine, ts.impostor):
        assert block.claimed_code.dtype == block.ver_code.dtype == np.uint16
    _assert_matches_name_oracles(ts, genuine, impostor)


def test_concat_remaps_codes_of_disjoint_folds():
    """Two folds over disjoint subject arrays (200 and 100 names) pool to
    the same rows, names and results; the pooled codes widen to uint16."""
    rng = np.random.default_rng(1)

    def rows(names, ver_of):
        return [(float(rng.normal()), n, ver_of(k)) for k, n in enumerate(names) for _ in range(2)]

    folds = []
    for prefix, count in (("b", 200), ("a", 100)):
        names = [f"{prefix}{k:03d}" for k in range(count)]
        folds.append((rows(names, lambda k: names[k]), rows(names, lambda k: names[k - 1])))
    sets = [rows_trial_set(Scenario.S2, g, i) for g, i in folds]
    assert all(ts.genuine.claimed_code.dtype == np.uint8 for ts in sets)
    pooled = TrialSet.concat(sets)
    assert pooled.genuine.subjects.tolist() == sorted(
        {n for ts in sets for n in ts.genuine.subjects.tolist()})
    for block in (pooled.genuine, pooled.impostor):
        assert block.claimed_code.dtype == block.ver_code.dtype == np.uint16
    _assert_matches_name_oracles(pooled, *(sum(side, []) for side in zip(*folds)))


@pytest.mark.parametrize("top, mask_dtype", [(7, np.uint8), (9, np.uint16)])
def test_round_masks_widen_past_round_7(top, mask_dtype):
    """Relabeling round 3 as `top` changes only the mask bits: the same
    scores, names and metrics, masks in the wider dtype from round 8 on."""
    layout = [(s, r) for s in "abc" for r in (0, 1, 3) for _ in range(2)]
    emb = np.random.default_rng(2).normal(size=(len(layout), 4))
    low = [SimpleNamespace(subject_id=s, round_id=r) for s, r in layout]
    high = [SimpleNamespace(subject_id=s, round_id=top if r == 3 else r) for s, r in layout]
    for scenario in Scenario:
        want, got = (score_trials(samples, emb, scenario) for samples in (low, high))
        assert np.result_type(got.genuine.enr_round_mask, got.impostor.enr_round_mask) == mask_dtype
        assert got.round_exclusion_violations() == 0
        for side in ("genuine", "impostor"):
            a, b = getattr(want, side), getattr(got, side)
            assert a.scores.tobytes() == b.scores.tobytes()
            assert (a.claimed.tolist(), a.ver_subject.tolist()) == (
                b.claimed.tolist(), b.ver_subject.tolist())
            assert [top if r == 3 else r for r in a.ver_round.tolist()] == b.ver_round.tolist()
            assert [(m & ~8) | (1 << top if m & 8 else 0) for m in a.enr_round_mask.tolist()] == (
                b.enr_round_mask.tolist())
        assert _scenario_metrics(want, scenario) == _scenario_metrics(got, scenario)
        # a mask holding its own verification round is caught at either width
        g = got.genuine
        own = [m | (1 << r) for m, r in zip(g.enr_round_mask.tolist(), g.ver_round.tolist())]
        leaky = TrialSet(scenario, replace(g, enr_round_mask=np.array(own)), got.impostor)
        assert leaky.round_exclusion_violations() == g.n


def test_s1_trials_hold_at_most_13_bytes_each():
    """Under 256 subjects and rounds below 8 a trial is a float64 score and
    four uint8 columns, 12 bytes; an object column of names alone costs 8."""
    samples = [SimpleNamespace(subject_id=f"s{s}", round_id=r)
               for s in range(10) for r in range(4) for _ in range(5)]
    emb = np.random.default_rng(3).normal(size=(len(samples), 8))
    trials = score_trials(samples, emb, Scenario.S1)
    sides = (trials.genuine, trials.impostor)
    held = sum(getattr(side, f.name).nbytes for side in sides for f in fields(TrialBlock))
    assert held <= 13 * sum(side.n for side in sides)


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

    def test_s3_pooled_rates_leave_out_skipped_identities(self):
        """'b' has no impostor trial, so no threshold: its trials are left out
        of the pooled FAR/FRR as they are from the per-subject mean."""
        for g, i in [([(1.0, "a"), (1.0, "b")], [(0.0, "a")]),
                     ([(0.9, "a"), (0.1, "a"), (0.5, "b")], [(0.2, "a"), (0.95, "a")])]:
            with pytest.warns(UserWarning, match="'b'"):
                block, thresholds = _scenario_metrics(_trialset(g, i), Scenario.S3)
            want, _ = _scenario_metrics(
                _trialset([t for t in g if t[1] == "a"], i), Scenario.S3)
            assert list(thresholds) == ["a"]
            assert (block["s3_pooled_far"], block["s3_pooled_frr"]) == (
                want["s3_pooled_far"], want["s3_pooled_frr"])


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

    @pytest.mark.parametrize("modality,fusion", [("brain", None), ("fusion-b", None),
                                                 ("eye-pupil", FusionRule.MEAN)])
    def test_previous_fold_is_freed_before_the_next_trains(
            self, mini_corpus, monkeypatch, modality, fusion):
        refs = {}  # fold id -> weakrefs to the training samples its models got
        stale = []
        train = biofuse.metrics.train

        def training(samples, arch, cfg, provenance):
            fold_id = provenance["fold_id"]
            stale.append(sum(ref() is not None for fid, fold_refs in refs.items()
                             if fid != fold_id for ref in fold_refs))
            refs.setdefault(fold_id, []).extend(
                weakref.ref(leaf) for s in samples
                for leaf in ((s.brain, s.eye) if isinstance(s, PairedSample) else (s,)))
            return train(samples, arch, cfg, provenance)

        monkeypatch.setattr(biofuse.metrics, "train", training)
        config = ExperimentConfig(
            scenario=Scenario.S2, modality=modality, fusion=fusion, folds=3, seed=0,
            train=TrainConfig(epochs=1, batch_size=16, seed=0),
        )
        run_experiment(mini_corpus, config)
        assert len(refs) == 3 and stale == [0] * len(stale)

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
