"""Comparison stage: best-match scores, template stores, thresholds, decisions.

Similarity is negated Euclidean distance between embeddings, so higher is
more similar and a perfect match scores 0.  A claim is accepted when its
score is greater than or equal to the threshold.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    IdentityError,
    ShapeError,
    TemplateFormatError,
    ValidationError,
    check_field_types,
)
from .fileio import BlockFormat, read_blocks, write_file


class Scenario(enum.Enum):
    """Decision scenarios: single enrollment sample, best match, tailored threshold."""

    S1 = "s1"
    S2 = "s2"
    S3 = "s3"


@dataclass
class Template:
    """One enrolled embedding with its round label for exclusion rules."""

    identity: str
    vector: np.ndarray
    round_id: int
    tag: str = ""

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=np.float64)
        check_field_types(self)
        if self.vector.ndim != 1:
            raise ValidationError("template vector must be 1-D")
        if not np.isfinite(self.vector).all():
            raise ValidationError("template vector must be finite (no NaN or inf)")


class TemplateStore:
    """Identity -> enrolled templates; unknown identities are errors, not misses."""

    def __init__(self) -> None:
        self._by_identity: dict[str, list[Template]] = {}

    def enroll(self, template: Template) -> None:
        self._by_identity.setdefault(template.identity, []).append(template)

    def templates_for(self, identity: str) -> list[Template]:
        try:
            return self._by_identity[identity]
        except KeyError:
            raise IdentityError(f"identity {identity!r} is not enrolled") from None

    def identities(self) -> list[str]:
        return sorted(self._by_identity)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_identity.values())


def best_match(verification: np.ndarray, templates: Sequence[Template]) -> tuple[float, Template]:
    """Maximum similarity over templates; ties go to the lowest round_id, then
    insertion order."""
    if not templates:
        raise ValidationError("best_match needs a non-empty template list")
    v = np.asarray(verification, dtype=np.float64)
    if v.ndim != 1 or any(t.vector.shape != v.shape for t in templates):
        raise ShapeError("verification and template embeddings must be equal-length vectors")
    stacked = np.stack([t.vector for t in templates])
    dist = np.sqrt(((stacked - v) ** 2).sum(axis=1))
    rounds = np.array([t.round_id for t in templates])
    best = int(np.lexsort((rounds, dist))[0])
    return -float(dist[best]), templates[best]


@dataclass(frozen=True)
class Threshold:
    """One global, finite acceptance threshold; `evaluate` applies per-user
    (S3) thresholds through `metrics._tailored_rates`."""

    global_value: float | None = None

    def __post_init__(self) -> None:
        if self.global_value is None or not math.isfinite(self.global_value):
            raise ValidationError(f"threshold must be a finite number, got {self.global_value}")

    @classmethod
    def fixed(cls, value: float) -> "Threshold":
        return cls(global_value=float(value))


@dataclass(frozen=True)
class Decision:
    accept: bool
    score: float
    threshold: float
    scenario: Scenario
    identity: str
    matched_round_id: int | None = None


def decide(
    score: float,
    threshold: Threshold,
    identity: str,
    scenario: Scenario,
    matched_round_id: int | None = None,
) -> Decision:
    """Accept iff score >= threshold (equality accepts)."""
    theta = threshold.global_value
    return Decision(
        accept=score >= theta,
        score=float(score),
        threshold=float(theta),
        scenario=scenario,
        identity=identity,
        matched_round_id=matched_round_id,
    )


def verify_claim(
    model,
    store: TemplateStore,
    identity: str,
    sample,
    threshold: Threshold,
    scenario: Scenario = Scenario.S2,
) -> Decision:
    """Embed a sample, best-match it against the claimed identity, decide."""
    emb = model.embed(sample)
    score, tpl = best_match(emb, store.templates_for(identity))
    return decide(score, threshold, identity, scenario, matched_round_id=tpl.round_id)


# ---------------------------------------------------------------------------
# Template store file


TEMPLATES = BlockFormat("BIOFUSE-TPL v2", "template store", TemplateFormatError,
                        "enroll the templates again with `biofuse enroll`")


def save_templates(store: TemplateStore, path) -> None:
    """Write a store: its entries as one JSON line and its vectors as one float64 block."""
    entries = []
    vectors = []
    for identity in store.identities():
        for tpl in store._by_identity[identity]:
            if vectors and tpl.vector.size != vectors[0].size:
                raise ValidationError("all templates must share one embedding width")
            entries.append({"identity": tpl.identity, "round_id": tpl.round_id, "tag": tpl.tag})
            vectors.append(tpl.vector)
    dim = vectors[0].size if vectors else 0
    write_file(path, TEMPLATES, [
        f"templates {len(entries)} {dim}\n".encode(),
        f"entries {json.dumps(entries, sort_keys=True)}\n".encode(),
        np.array(vectors, dtype="<f8"),
    ])


def load_templates(path) -> TemplateStore:
    with read_blocks(path, TEMPLATES) as src:
        at, (_, n, dim) = src.expect("templates", 3)
        n, dim = src.count(at, n, "template count"), src.count(at, dim, "dim")
        if (dim == 0) != (n == 0):
            want = "at least 1 with" if n else "0 without"
            raise src.error(at, f"template store dim must be {want} entries, got {dim}")
        entries_at, (_, entries) = src.expect("entries", 2, maxsplit=1)
        vectors = src.block((n, dim), "<f8", "template block")
        src.checksum()
        src.finish()
        try:
            entries = json.loads(entries)
        except (ValueError, RecursionError) as e:
            raise src.error(entries_at, f"bad template entries: {e}") from None
        if not isinstance(entries, list) or len(entries) != n:
            raise src.error(entries_at, f"template store entries must be a list of {n}")
        store = TemplateStore()
        for k, (entry, vec) in enumerate(zip(entries, vectors)):
            try:
                store.enroll(Template(identity=entry["identity"], vector=vec,
                                      round_id=entry["round_id"], tag=entry.get("tag", "")))
            except (ValidationError, KeyError, TypeError) as e:
                raise src.error(entries_at, f"bad template entry {k}: {e!r}") from None
    return store
