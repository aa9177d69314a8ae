import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.errors import (
    IdentityError,
    ShapeError,
    TemplateFormatError,
    ValidationError,
)
from biofuse.metrics import eer_from_scores, per_subject_eer
from biofuse.verify import (
    Scenario,
    Template,
    TemplateStore,
    Threshold,
    best_match,
    decide,
    load_templates,
    save_templates,
)
from oracles import oracle_best_match, oracle_eer, oracle_far_frr, reseal, rows_trial_set


def similarity(e, v):
    """The score of `e` against one template holding `v`."""
    return best_match(e, [Template(identity="a", vector=v, round_id=0)])[0]


class TestSimilarity:
    def test_three_four_five(self):
        assert similarity(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == -5.0

    def test_identity(self):
        v = np.array([0.2, -0.3, 0.5])
        assert similarity(v, v) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            e, v = rng.standard_normal(32), rng.standard_normal(32)
            e /= np.linalg.norm(e)
            v /= np.linalg.norm(v)
            expect = -sum((a - b) ** 2 for a, b in zip(e, v)) ** 0.5
            assert similarity(e, v) == pytest.approx(expect, abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            e, v = rng.standard_normal(8), rng.standard_normal(8)
            assert similarity(e, v) == similarity(v, e)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            similarity(np.zeros(3), np.zeros(4))


def _template_at_distance(identity, d, round_id=0):
    vec = np.zeros(4)
    vec[0] = d
    return Template(identity=identity, vector=vec, round_id=round_id)


class TestBestMatch:
    def test_picks_maximum(self):
        v = np.zeros(4)
        templates = [_template_at_distance("a", d) for d in (5.0, 2.0, 7.0)]
        score, tpl = best_match(v, templates)
        assert score == -2.0
        assert tpl is templates[1]

    def test_single_template_degenerates_to_pair_score(self):
        v = np.zeros(4)
        (t,) = [_template_at_distance("a", 3.0)]
        score, tpl = best_match(v, [t])
        assert score == similarity(v, t.vector)
        assert tpl is t
        # with one enrollment template, S1 and S2 decide identically at any theta
        for theta in (-4.0, -3.0, -2.0):
            s1 = decide(similarity(v, t.vector), Threshold.fixed(theta), "a", Scenario.S1)
            s2 = decide(score, Threshold.fixed(theta), "a", Scenario.S2)
            assert s1.accept == s2.accept

    def test_tie_breaks_on_round_id(self):
        v = np.zeros(4)
        t_late = _template_at_distance("a", 3.0, round_id=5)
        t_early = _template_at_distance("a", 3.0, round_id=1)
        _, tpl = best_match(v, [t_late, t_early])
        assert tpl is t_early

    def test_tie_same_round_keeps_insertion_order(self):
        v = np.zeros(4)
        a = _template_at_distance("a", 3.0, round_id=2)
        b = _template_at_distance("a", 3.0, round_id=2)
        _, tpl = best_match(v, [a, b])
        assert tpl is a

    def test_empty_list(self):
        with pytest.raises(ValidationError):
            best_match(np.zeros(4), [])

    def test_dominates_every_pair_score(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(8)
        templates = [
            Template(identity="a", vector=rng.standard_normal(8), round_id=i)
            for i in range(6)
        ]
        score, _ = best_match(v, templates)
        assert all(score >= similarity(v, t.vector) for t in templates)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda dim: st.tuples(
                st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                    min_size=1, max_size=4,
                ),
                st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=10),
            )
        )
    )
    def test_matches_scalar_oracle(self, case):
        # integer coordinates give exact distances, so equal distances are real
        # ties; templates draw from a small pool of vectors and rounds, so
        # duplicates across rounds and within one round are common
        v, pool, picks = case
        templates = [
            Template(identity="a", vector=np.array(pool[k % len(pool)], dtype=np.float64),
                     round_id=r)
            for k, r in picks
        ]
        score, tpl = best_match(np.array(v, dtype=np.float64), templates)
        expect_score, expect_tpl = oracle_best_match(v, templates)
        assert score == expect_score
        assert tpl is expect_tpl


class TestDecide:
    def test_accepts_above(self):
        d = decide(-2.0, Threshold.fixed(-3.0), "a", Scenario.S1)
        assert d.accept and d.threshold == -3.0

    def test_equality_accepts(self):
        assert decide(-3.0, Threshold.fixed(-3.0), "a", Scenario.S2).accept

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            score = float(rng.normal())
            t1, t2 = sorted(rng.normal(size=2))
            low = decide(score, Threshold.fixed(t1), "a", Scenario.S1).accept
            high = decide(score, Threshold.fixed(t2), "a", Scenario.S1).accept
            assert not (high and not low)  # raising theta never flips reject -> accept


def _trials(genuine_by_identity, impostor_by_identity):
    """S3 trial set holding only the scores and claimed identities calibration reads."""

    def rows(by_identity):
        return [(s, ident, ident) for ident, scores in by_identity.items() for s in scores]

    return rows_trial_set(Scenario.S3, rows(genuine_by_identity), rows(impostor_by_identity))


class TestCalibrate:
    def test_perfect_separation_gap_midpoint(self):
        genuine = {"a": [-0.5, -0.3], "b": [-0.4]}
        impostor = {"a": [-2.0, -1.5], "b": [-1.8]}
        g_all = [s for v in genuine.values() for s in v]
        i_all = [s for v in impostor.values() for s in v]
        th = Threshold.fixed(eer_from_scores(g_all, i_all)[1])
        theta = th.global_value
        assert theta == pytest.approx((-1.5 + -0.5) / 2)
        far, frr = oracle_far_frr(g_all, i_all, theta)
        assert far == 0.0 and frr == 0.0

    def test_identical_distributions_eer_half(self):
        scores = [-1.0, -0.5, -0.2]
        eer, _ = eer_from_scores(scores, scores)
        assert eer == pytest.approx(0.5)

    def test_per_user_matches_sweep_oracle(self):
        rng = np.random.default_rng(4)
        genuine = {
            "a": list(rng.normal(1.0, 0.5, 9)),
            "b": list(rng.normal(0.8, 0.7, 7)),
        }
        impostor = {
            "a": list(rng.normal(-0.5, 0.6, 11)),
            "b": list(rng.normal(-0.2, 0.8, 13)),
        }
        thresholds = per_subject_eer(_trials(genuine, impostor)).thresholds
        for ident in ("a", "b"):
            _, theta = oracle_eer(genuine[ident], impostor[ident])
            assert thresholds[ident] == pytest.approx(theta, abs=1e-9)

    def test_missing_impostor_side_warns_and_lists(self):
        with pytest.warns(UserWarning, match="'b'"):
            pse = per_subject_eer(_trials({"a": [1.0], "b": [1.0]}, {"a": [0.0]}))
        assert pse.skipped == ("b",)
        assert "b" not in pse.thresholds

    def test_missing_genuine_side_warns_and_lists(self):
        with pytest.warns(UserWarning, match="'b'"):
            pse = per_subject_eer(_trials({"a": [1.0]}, {"a": [0.0], "b": [0.0]}))
        assert pse.skipped == ("b",)
        assert set(pse.thresholds) == {"a"}


class TestThreshold:
    def test_exactly_one_kind(self):
        with pytest.raises(ValidationError):
            Threshold()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError, match="finite"):
            Threshold.fixed(value)


def _write_store(path, n, dim, entries, vectors):
    """A template store file with the given header values, sealed by a valid CRC32."""
    path.write_bytes(b"BIOFUSE-TPL v2\n" + f"templates {n} {json.dumps(dim)}\n".encode()
                     + b"entries " + json.dumps(entries).encode() + b"\n"
                     + vectors.tobytes() + bytes(4))
    reseal(path, lambda raw: raw)


class TestTemplateStore:
    def test_unknown_identity(self):
        store = TemplateStore()
        store.enroll(_template_at_distance("a", 1.0))
        with pytest.raises(IdentityError):
            store.templates_for("nobody")

    def test_save_load_roundtrip(self, tmp_path):
        store = TemplateStore()
        rng = np.random.default_rng(5)
        for ident in ("a", "b"):
            for r in range(3):
                vec = rng.standard_normal(32)
                store.enroll(Template(identity=ident, vector=vec, round_id=r, tag="single:brain"))
        path = tmp_path / "t.tpl"
        save_templates(store, path)
        loaded = load_templates(path)
        assert loaded.identities() == ["a", "b"]
        for ident in ("a", "b"):
            orig = store.templates_for(ident)
            got = loaded.templates_for(ident)
            assert [t.round_id for t in got] == [t.round_id for t in orig]
            for o, g in zip(orig, got):  # stored as float64, bit for bit
                assert o.vector.tobytes() == g.vector.tobytes() and o.tag == g.tag


    @pytest.mark.parametrize("entries, fill", [
        pytest.param([{"round_id": 0, "tag": ""}], 0.0, id="no-identity"),
        pytest.param([{"identity": "a", "round_id": "r0", "tag": ""}], 0.0,
                     id="non-integer-round"),
        pytest.param([["a", 0]], 0.0, id="entry-not-an-object"),
        pytest.param([{"identity": "a", "round_id": float("inf"), "tag": ""}], 0.0,
                     id="infinite-round"),
        pytest.param([{"identity": "a", "round_id": 1.5, "tag": ""}], 0.0, id="float-round"),
        pytest.param([{"identity": "a", "round_id": True, "tag": ""}], 0.0, id="bool-round"),
        pytest.param([{"identity": "a", "round_id": "2", "tag": ""}], 0.0, id="string-round"),
        pytest.param([{"identity": "a", "round_id": 0, "tag": 7}], 0.0, id="integer-tag"),
        pytest.param([{"identity": 5, "round_id": 0, "tag": ""}], 0.0, id="integer-identity"),
        pytest.param(5, 0.0, id="entries-not-a-list"),
        pytest.param([{"identity": "a", "round_id": 0, "tag": ""}], np.nan, id="nan-vector"),
        pytest.param([{"identity": "a", "round_id": 0, "tag": ""}], np.inf, id="inf-vector"),
        pytest.param([{"identity": "a", "round_id": 0, "tag": ""}], -np.inf,
                     id="minus-inf-vector"),
    ])
    def test_malformed_entry_raises_format_error(self, tmp_path, entries, fill):
        path = tmp_path / "t.tpl"
        _write_store(path, 1, 2, entries, np.array([0.0, fill], "<f8"))
        with pytest.raises(TemplateFormatError, match="entr") as e:
            load_templates(path)
        assert "checksum" not in str(e.value)

    @pytest.mark.parametrize("dim, n_entries", [
        pytest.param(0, 1, id="zero-with-entries"),
        pytest.param(1.5, 1, id="float"),
        pytest.param(True, 1, id="bool"),
        pytest.param("2", 1, id="string"),
        pytest.param(-1, 0, id="negative-empty"),
    ])
    def test_bad_dim_raises_format_error(self, tmp_path, dim, n_entries):
        entries = [{"identity": "a", "round_id": 0, "tag": ""}] * n_entries
        path = tmp_path / "t.tpl"
        _write_store(path, n_entries, dim, entries, np.zeros(0))
        with pytest.raises(TemplateFormatError, match="dim"):
            load_templates(path)

    def test_empty_store_roundtrips_with_dim_zero(self, tmp_path):
        path = tmp_path / "t.tpl"
        save_templates(TemplateStore(), path)
        assert b"\ntemplates 0 0\n" in path.read_bytes()
        assert len(load_templates(path)) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 0), min_size=1, max_size=20),
    st.lists(st.floats(-10, 0), min_size=1, max_size=20),
    st.floats(-10, 0),
)
def test_far_frr_counts_match_oracle(genuine, impostor, theta):
    far, frr = oracle_far_frr(genuine, impostor, theta)
    g = np.asarray(genuine)
    i = np.asarray(impostor)
    assert far == (i >= theta).mean()
    assert frr == (g < theta).mean()
