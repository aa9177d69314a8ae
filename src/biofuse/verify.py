"""Comparison stage: similarity scores, template stores, thresholds, decisions.

Similarity is negated Euclidean distance between embeddings, so higher is
more similar and a perfect match scores 0.  A claim is accepted when its
score is greater than or equal to the threshold.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import atomic_write
from .errors import (
    IdentityError,
    ShapeError,
    TemplateFormatError,
    ValidationError,
    check_field_types,
)

TEMPLATE_MAGIC = b"BIOFUSE-TPL v1"


class Scenario(enum.Enum):
    """Decision scenarios: single enrollment sample, best match, tailored threshold."""

    S1 = "s1"
    S2 = "s2"
    S3 = "s3"


def similarity(e: np.ndarray, v: np.ndarray) -> float:
    """Negated Euclidean distance; symmetric, <= 0, and 0 iff e == v."""
    e = np.asarray(e, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if e.shape != v.shape or e.ndim != 1:
        raise ShapeError(f"embeddings must be equal-length vectors, got {e.shape} vs {v.shape}")
    return -float(np.sqrt(((e - v) ** 2).sum()))


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
    """Global or per-user acceptance threshold."""

    global_value: float | None = None
    per_user: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if (self.global_value is None) == (self.per_user is None):
            raise ValidationError("exactly one of global_value / per_user must be set")

    @classmethod
    def fixed(cls, value: float) -> "Threshold":
        return cls(global_value=float(value))

    @classmethod
    def tailored(cls, per_user: Mapping[str, float]) -> "Threshold":
        if not per_user:
            raise ValidationError("per-user threshold map must not be empty")
        return cls(per_user=dict(per_user))

    @property
    def kind(self) -> str:
        return "global" if self.global_value is not None else "per-user"

    def resolve(self, identity: str) -> float:
        if self.global_value is not None:
            return self.global_value
        try:
            return self.per_user[identity]
        except KeyError:
            raise IdentityError(f"no threshold calibrated for identity {identity!r}") from None


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
    theta = threshold.resolve(identity)
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


def save_templates(store: TemplateStore, path) -> None:
    entries = []
    vectors = []
    dim = None
    for identity in store.identities():
        for tpl in store._by_identity[identity]:
            if dim is None:
                dim = tpl.vector.size
            elif tpl.vector.size != dim:
                raise ValidationError("all templates must share one embedding width")
            entries.append({"identity": tpl.identity, "round_id": tpl.round_id, "tag": tpl.tag})
            vectors.append(tpl.vector)
    meta = json.dumps({"dim": dim or 0, "entries": entries}, sort_keys=True)
    with atomic_write(path, "wb") as f:
        f.write(TEMPLATE_MAGIC + b"\n")
        f.write(meta.encode() + b"\n")
        if vectors:
            f.write(np.ascontiguousarray(np.stack(vectors), dtype="<f4").tobytes())


def load_templates(path) -> TemplateStore:
    with open(path, "rb") as f:
        raw = f.read()
    nl1 = raw.find(b"\n")
    if nl1 < 0 or raw[:nl1] != TEMPLATE_MAGIC:
        if raw.startswith(b"BIOFUSE-TPL"):
            raise TemplateFormatError(f"unsupported template store version {raw[:nl1]!r}")
        raise TemplateFormatError("not a template store file (bad magic)")
    nl2 = raw.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise TemplateFormatError("truncated template store header")
    try:
        meta = json.loads(raw[nl1 + 1:nl2].decode())
        dim = meta["dim"]
        entries = meta["entries"]
    except (ValueError, KeyError, TypeError) as e:
        raise TemplateFormatError(f"bad template store meta: {e}") from None
    if not isinstance(entries, list):
        raise TemplateFormatError("template store entries must be a list")
    min_dim = 1 if entries else 0
    if type(dim) is not int or dim < min_dim:
        raise TemplateFormatError(
            f"template store dim must be an integer >= {min_dim}, got {dim!r}"
        )
    payload = raw[nl2 + 1:]
    if len(payload) != len(entries) * dim * 4:
        raise TemplateFormatError("template payload size does not match entry count")
    store = TemplateStore()
    if entries:
        vectors = np.frombuffer(payload, dtype="<f4").reshape(len(entries), dim)
        for k, (entry, vec) in enumerate(zip(entries, vectors)):
            try:
                template = Template(
                    identity=entry["identity"],
                    vector=vec.astype(np.float64),
                    round_id=entry["round_id"],
                    tag=entry.get("tag", ""),
                )
            except (ValidationError, KeyError, TypeError) as e:
                raise TemplateFormatError(f"bad template entry {k}: {e!r}") from None
            store.enroll(template)
    return store
