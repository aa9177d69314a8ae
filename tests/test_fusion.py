import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.errors import ContractError, FitError, ValidationError
from biofuse.fusion import (
    FusionRule,
    ScoreNormalizer,
    combine_raw,
    fit_normalizer_arrays,
    fuse_arrays,
)
from oracles import oracle_fuse

unit = st.floats(0.0, 1.0)
unit_arrays = st.lists(unit, min_size=1, max_size=20).map(np.array)


def _fuse_one(s_eye, s_brain, rule):
    return float(fuse_arrays(np.array([[s_brain], [s_eye]]), rule)[0])


class TestNormalizer:
    def test_midpoint(self):
        norm = ScoreNormalizer(lo=(-10, -10), hi=(-2, -2))
        brain, eye = norm.normalize_arrays(np.array([[-6.0], [-6.0]]))
        assert eye[0] == pytest.approx(0.5)
        assert brain[0] == pytest.approx(0.5)

    def test_clamps_out_of_range(self):
        norm = ScoreNormalizer(lo=(-10, -10), hi=(-2, -2))
        brain, eye = norm.normalize_arrays(np.array([[-1.0], [-12.0]]))
        assert eye[0] == 0.0
        assert brain[0] == 1.0

    def test_fit_uses_min_max(self):
        norm = fit_normalizer_arrays(np.array([[-8.0, -6.0, -7.0], [-4.0, -1.0, -2.5]]))
        assert (norm.lo[1], norm.hi[1]) == (-4.0, -1.0)
        assert (norm.lo[0], norm.hi[0]) == (-8.0, -6.0)

    def test_constant_scores_fail(self):
        with pytest.raises(FitError, match="eye"):
            fit_normalizer_arrays(np.array([[-1.0, -2.0], [-3.0, -3.0]]))

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            fit_normalizer_arrays(np.array([[-1.0], [-3.0]]))


class TestFuse:
    def test_arithmetic(self):
        scores = np.array([[0.6], [0.8]])  # brain, eye
        assert fuse_arrays(scores, FusionRule.MAX)[0] == pytest.approx(0.8)
        assert fuse_arrays(scores, FusionRule.MIN)[0] == pytest.approx(0.6)
        assert fuse_arrays(scores, FusionRule.MEAN)[0] == pytest.approx(0.7)
        assert fuse_arrays(scores, FusionRule.PRODUCT)[0] == pytest.approx(0.48)

    @settings(max_examples=30, deadline=None)
    @given(unit_arrays)
    def test_idempotent_on_equal_scores(self, x):
        for rule in (FusionRule.MIN, FusionRule.MAX, FusionRule.MEAN):
            np.testing.assert_array_equal(fuse_arrays(np.stack([x, x]), rule), x)

    @settings(max_examples=30, deadline=None)
    @given(unit_arrays)
    def test_product_identity(self, s):
        ones_eye = np.stack([s, np.ones_like(s)])
        np.testing.assert_array_equal(fuse_arrays(ones_eye, FusionRule.PRODUCT), s)

    def test_contract_error_outside_unit_interval(self):
        with pytest.raises(ContractError):
            fuse_arrays(np.array([[0.5], [1.2]]), FusionRule.MEAN)
        with pytest.raises(ContractError):
            fuse_arrays(np.array([[-0.1], [0.5]]), FusionRule.MAX)

    @settings(max_examples=60, deadline=None)
    @given(unit, unit)
    def test_ordering_chain(self, a, b):
        product = _fuse_one(a, b, FusionRule.PRODUCT)
        low = _fuse_one(a, b, FusionRule.MIN)
        mean = _fuse_one(a, b, FusionRule.MEAN)
        high = _fuse_one(a, b, FusionRule.MAX)
        assert product <= low <= mean <= high

    @settings(max_examples=60, deadline=None)
    @given(unit, unit)
    def test_commutative(self, a, b):
        for rule in FusionRule:
            assert _fuse_one(a, b, rule) == _fuse_one(b, a, rule)

    @settings(max_examples=60, deadline=None)
    @given(unit, unit, unit)
    def test_monotone_in_each_argument(self, a, b, bump):
        hi = min(a + bump, 1.0)
        for rule in FusionRule:
            assert _fuse_one(hi, b, rule) >= _fuse_one(a, b, rule)

    def test_array_path_matches_oracle(self):
        rng = np.random.default_rng(0)
        eye = np.concatenate([rng.random(200), [0.0, 1.0, 0.5, 0.5]])
        brain = np.concatenate([rng.random(200), [1.0, 0.0, 0.5, 0.25]])
        for rule in FusionRule:
            out = fuse_arrays(np.stack([brain, eye]), rule)
            expect = [oracle_fuse(e, b, rule) for e, b in zip(eye.tolist(), brain.tolist())]
            np.testing.assert_array_equal(out, expect)

    def test_raw_combiner_skips_contract(self):
        out = combine_raw(np.array([[-5.0], [-3.0]]), FusionRule.MEAN)
        assert out[0] == pytest.approx(-4.0)
