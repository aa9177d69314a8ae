"""Score-level fusion: per-modality min-max normalization plus four combiners.

Raw similarities are non-positive, under which a product combiner reverses
ordering (two large distances multiply into a large positive value), so
scores are min-max mapped to [0, 1] on calibration data before fusing.
Raw-score combination stays available via combine_raw for comparison runs.
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


@dataclass(frozen=True)
class ScoreNormalizer:
    """Per-modality min/max fitted on calibration scores; maps into [0, 1]."""

    eye_min: float
    eye_max: float
    brain_min: float
    brain_max: float

    def __post_init__(self) -> None:
        if not (self.eye_max > self.eye_min and self.brain_max > self.brain_min):
            raise FitError("score normalizer needs max > min per modality")

    def normalize_arrays(
        self, s_eye: np.ndarray, s_brain: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Min-max map both modalities; out-of-range scores clamp to [0, 1]."""
        eye = (np.asarray(s_eye, dtype=np.float64) - self.eye_min) / (self.eye_max - self.eye_min)
        brain = (np.asarray(s_brain, dtype=np.float64) - self.brain_min) / (
            self.brain_max - self.brain_min
        )
        return np.clip(eye, 0.0, 1.0), np.clip(brain, 0.0, 1.0)


def fit_normalizer_arrays(s_eye: np.ndarray, s_brain: np.ndarray) -> ScoreNormalizer:
    """Fit per-modality min/max; degenerate (constant) scores are an error."""
    s_eye = np.asarray(s_eye, dtype=np.float64)
    s_brain = np.asarray(s_brain, dtype=np.float64)
    if s_eye.size < 2 or s_brain.size < 2:
        raise ValidationError("normalizer calibration needs at least two scores per modality")
    if s_eye.min() == s_eye.max():
        raise FitError("eye calibration scores are constant; min-max fit is degenerate")
    if s_brain.min() == s_brain.max():
        raise FitError("brain calibration scores are constant; min-max fit is degenerate")
    return ScoreNormalizer(
        eye_min=float(s_eye.min()),
        eye_max=float(s_eye.max()),
        brain_min=float(s_brain.min()),
        brain_max=float(s_brain.max()),
    )


def combine_raw(s_eye, s_brain, rule: FusionRule):
    """Apply a combiner without range checks (raw-score fusion path)."""
    s_eye = np.asarray(s_eye, dtype=np.float64)
    s_brain = np.asarray(s_brain, dtype=np.float64)
    if rule is FusionRule.MAX:
        return np.maximum(s_eye, s_brain)
    if rule is FusionRule.MIN:
        return np.minimum(s_eye, s_brain)
    if rule is FusionRule.MEAN:
        return (s_eye + s_brain) / 2.0
    return s_eye * s_brain


def fuse_arrays(s_eye: np.ndarray, s_brain: np.ndarray, rule: FusionRule) -> np.ndarray:
    """Combine normalized scores; inputs must already lie in [0, 1]."""
    s_eye = np.asarray(s_eye, dtype=np.float64)
    s_brain = np.asarray(s_brain, dtype=np.float64)
    for name, arr in (("eye", s_eye), ("brain", s_brain)):
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ContractError(f"{name} scores must lie in [0, 1] before fusion")
    return combine_raw(s_eye, s_brain, rule)
