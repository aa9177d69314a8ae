"""Score-level fusion: per-modality min-max normalization plus four combiners.

Scores travel as one [2, n] array per trial side, row 0 brain and row 1 eye,
the (brain, eye) order of paired samples, fusion archs and embeddings.  Raw
similarities are non-positive, under which a product combiner reverses
ordering (two large distances multiply into a large positive value), so each
row is always min-max mapped to [0, 1] on calibration data before fusing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, FitError, ValidationError


class FusionRule(enum.Enum):
    MAX = "max"
    MIN = "min"
    MEAN = "mean"
    PRODUCT = "product"


_COMBINERS = {FusionRule.MAX: np.max, FusionRule.MIN: np.min,
              FusionRule.MEAN: np.mean, FusionRule.PRODUCT: np.prod}


def _rows(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or len(scores) != 2:
        raise ValidationError(f"fusion takes a [2, n] (brain, eye) score array, got {scores.shape}")
    return scores


@dataclass(frozen=True)
class ScoreNormalizer:
    """Per-row (brain, eye) min/max fitted on calibration scores; maps into [0, 1]."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self) -> None:
        for name, lo, hi in zip(("brain", "eye"), self.lo, self.hi, strict=True):
            if not hi > lo:
                raise FitError(f"{name} calibration scores are constant; min-max fit is degenerate")

    def normalize_arrays(self, scores) -> np.ndarray:
        """Min-max map each row; out-of-range scores clamp to [0, 1]."""
        lo, hi = np.array(self.lo)[:, None], np.array(self.hi)[:, None]
        return np.clip((_rows(scores) - lo) / (hi - lo), 0.0, 1.0)


def fit_normalizer_arrays(scores) -> ScoreNormalizer:
    """Fit per-row min/max; a constant row is an error."""
    scores = _rows(scores)
    if scores.shape[1] < 2:
        raise ValidationError("normalizer calibration needs at least two scores per modality")
    return ScoreNormalizer(lo=tuple(scores.min(axis=1).tolist()),
                           hi=tuple(scores.max(axis=1).tolist()))


def combine_raw(scores, rule: FusionRule) -> np.ndarray:
    """Reduce the rows with a combiner, without range checks; `fuse_arrays`
    checks the range and calls it."""
    return _COMBINERS[rule](_rows(scores), axis=0)


def fuse_arrays(scores, rule: FusionRule) -> np.ndarray:
    """Combine normalized scores; every score must already lie in [0, 1]."""
    scores = _rows(scores)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ContractError("scores must lie in [0, 1] before fusion")
    return combine_raw(scores, rule)
