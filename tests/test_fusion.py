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
    return float(fuse_arrays(np.array([s_eye]), np.array([s_brain]), rule)[0])


class TestNormalizer:
    def test_midpoint(self):
        norm = ScoreNormalizer(eye_min=-10, eye_max=-2, brain_min=-10, brain_max=-2)
        eye, brain = norm.normalize_arrays(np.array([-6.0]), np.array([-6.0]))
        assert eye[0] == pytest.approx(0.5)
        assert brain[0] == pytest.approx(0.5)

    def test_clamps_out_of_range(self):
        norm = ScoreNormalizer(eye_min=-10, eye_max=-2, brain_min=-10, brain_max=-2)
        eye, brain = norm.normalize_arrays(np.array([-12.0]), np.array([-1.0]))
        assert eye[0] == 0.0
        assert brain[0] == 1.0

    def test_fit_uses_min_max(self):
        norm = fit_normalizer_arrays(np.array([-4.0, -1.0, -2.5]), np.array([-8.0, -6.0, -7.0]))
        assert (norm.eye_min, norm.eye_max) == (-4.0, -1.0)
        assert (norm.brain_min, norm.brain_max) == (-8.0, -6.0)

    def test_constant_scores_fail(self):
        with pytest.raises(FitError):
            fit_normalizer_arrays(np.array([-3.0, -3.0]), np.array([-1.0, -2.0]))

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            fit_normalizer_arrays(np.array([-3.0]), np.array([-1.0]))


class TestFuse:
    def test_arithmetic(self):
        eye, brain = np.array([0.8]), np.array([0.6])
        assert fuse_arrays(eye, brain, FusionRule.MAX)[0] == pytest.approx(0.8)
        assert fuse_arrays(eye, brain, FusionRule.MIN)[0] == pytest.approx(0.6)
        assert fuse_arrays(eye, brain, FusionRule.MEAN)[0] == pytest.approx(0.7)
        assert fuse_arrays(eye, brain, FusionRule.PRODUCT)[0] == pytest.approx(0.48)

    @settings(max_examples=30, deadline=None)
    @given(unit_arrays)
    def test_idempotent_on_equal_scores(self, x):
        for rule in (FusionRule.MIN, FusionRule.MAX, FusionRule.MEAN):
            np.testing.assert_array_equal(fuse_arrays(x, x, rule), x)

    @settings(max_examples=30, deadline=None)
    @given(unit_arrays)
    def test_product_identity(self, s):
        np.testing.assert_array_equal(fuse_arrays(np.ones_like(s), s, FusionRule.PRODUCT), s)

    def test_contract_error_outside_unit_interval(self):
        with pytest.raises(ContractError):
            fuse_arrays(np.array([1.2]), np.array([0.5]), FusionRule.MEAN)
        with pytest.raises(ContractError):
            fuse_arrays(np.array([0.5]), np.array([-0.1]), FusionRule.MAX)

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
            out = fuse_arrays(eye, brain, rule)
            expect = [oracle_fuse(e, b, rule) for e, b in zip(eye.tolist(), brain.tolist())]
            np.testing.assert_array_equal(out, expect)

    def test_raw_combiner_skips_contract(self):
        out = combine_raw(np.array([-3.0]), np.array([-5.0]), FusionRule.MEAN)
        assert out[0] == pytest.approx(-4.0)
