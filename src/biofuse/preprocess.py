"""Event-locked windowing, resampling, NaN screening, and standardization.

Samples are extracted around each dot hit (0.1 s before to 0.3 s after),
resampled onto a fixed 102-point grid, screened for NaN content, and
z-scored per channel with statistics fitted on training data only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import (
    WINDOW_AFTER_S,
    WINDOW_BEFORE_S,
    EventMarker,
    Modality,
    Recording,
    atomic_write,
    read_text_lines,
)
from .errors import (
    DatasetFormatError,
    DegenerateWindow,
    FitError,
    ValidationError,
    WindowOutOfRange,
    check_field_types,
)

GRID_RATE_HZ = 256.0
GRID_POINTS = 102  # floor(0.4 s * 256 /s); fixed static sample length
GRID_STEP_S = 1.0 / GRID_RATE_HZ

DATASET_MAGIC = b"BIOFUSE-DS v1"


@dataclass(frozen=True)
class NanPolicy:
    """Per-channel NaN budget for sample screening."""

    max_nan_fraction: float = 0.25

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 <= self.max_nan_fraction <= 1.0:
            raise ValidationError("max_nan_fraction must be in [0, 1]")


@dataclass
class Sample:
    """One event-locked, fixed-shape, finite multi-channel window."""

    subject_id: str
    round_id: int
    modality: Modality
    data: np.ndarray  # [n_channels x GRID_POINTS]
    t0: float         # window start (event time - 0.1 s)
    standardized_by: str | None = None  # scope tag of the applied standardizer

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        expected = (self.modality.n_channels, GRID_POINTS)
        if self.data.shape != expected:
            raise ValidationError(f"sample data must be {expected}, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValidationError("sample data must be finite (no NaN or inf)")


@dataclass
class PairedSample:
    """Brain and eye samples for the same dot-hit event of one subject."""

    brain: Sample
    eye: Sample

    def __post_init__(self) -> None:
        if self.brain.modality is not Modality.BRAIN:
            raise ValidationError("first element of a pair must be a brain sample")
        if self.eye.modality is Modality.BRAIN:
            raise ValidationError("second element of a pair must be an eye sample")
        key = (self.brain.subject_id, self.brain.round_id, self.brain.t0)
        if key != (self.eye.subject_id, self.eye.round_id, self.eye.t0):
            raise ValidationError("paired samples must share subject, round and window start")

    @property
    def subject_id(self) -> str:
        return self.brain.subject_id

    @property
    def round_id(self) -> int:
        return self.brain.round_id

    @property
    def t0(self) -> float:
        return self.brain.t0


@dataclass
class RawWindow:
    """Rows of one stream inside an event window, before resampling."""

    subject_id: str
    round_id: int
    modality: Modality
    t0: float
    timestamps: np.ndarray
    values: np.ndarray


def extract_window(rec: Recording, ev: EventMarker, modality: Modality) -> RawWindow:
    """Return all stream rows with timestamp in [ev.t - 0.1, ev.t + 0.3)."""
    stream = rec.stream_for(modality)
    return _extract_from_stream(stream, rec.subject_id, ev)


def _extract_from_stream(stream, subject_id: str, ev: EventMarker) -> RawWindow:
    ts = stream.timestamps
    lo_t = ev.t - WINDOW_BEFORE_S
    hi_t = ev.t + WINDOW_AFTER_S
    if lo_t < ts[0] or hi_t > ts[-1]:
        raise WindowOutOfRange(
            f"window [{lo_t:.4f}, {hi_t:.4f}) exceeds stream span "
            f"[{ts[0]:.4f}, {ts[-1]:.4f}] (subject {subject_id}, event t={ev.t:.4f})"
        )
    lo = int(np.searchsorted(ts, lo_t, side="left"))
    hi = int(np.searchsorted(ts, hi_t, side="left"))
    return RawWindow(
        subject_id=subject_id,
        round_id=ev.round_id,
        modality=stream.modality,
        t0=lo_t,
        timestamps=ts[lo:hi],
        values=stream.values[lo:hi],
    )


def resample_to_grid(window: RawWindow) -> np.ndarray:
    """Linearly interpolate each channel onto the fixed 102-point / 256 Hz grid.

    Grid points start at the window start with 1/256 s spacing, staying inside
    the half-open window.  Grid points outside the raw timestamp span clamp to
    the nearest raw value; NaNs in the raw rows propagate to the grid points
    they touch (screened later).
    """
    if window.timestamps.size < 2:
        raise DegenerateWindow(
            f"window at t0={window.t0:.4f} has {window.timestamps.size} row(s)"
        )
    grid = window.t0 + np.arange(GRID_POINTS) * GRID_STEP_S
    n_channels = window.values.shape[1]
    out = np.empty((n_channels, GRID_POINTS), dtype=np.float64)
    for ch in range(n_channels):
        out[ch] = np.interp(grid, window.timestamps, window.values[:, ch])
    return out


@dataclass(frozen=True)
class Rejected:
    """Screening verdict for a sample whose NaN content exceeds the policy."""

    channel: int
    nan_fraction: float


def screen_and_interpolate(data: np.ndarray, policy: NanPolicy) -> np.ndarray | Rejected:
    """Reject NaN-heavy samples, else fill NaNs by within-sample interpolation.

    Interior NaN runs are filled linearly between the nearest finite
    neighbors; leading/trailing runs extend the nearest value.  Only data
    inside the sample is used.
    """
    data = np.asarray(data, dtype=np.float64)
    n_points = data.shape[1]
    out = data.copy()
    for ch in range(data.shape[0]):
        nan_mask = np.isnan(data[ch])
        if not nan_mask.any():
            continue
        frac = float(nan_mask.mean())
        if nan_mask.all() or frac > policy.max_nan_fraction:
            return Rejected(channel=ch, nan_fraction=frac)
        valid = np.flatnonzero(~nan_mask)
        out[ch] = np.interp(np.arange(n_points), valid, data[ch, valid])
    return out


@dataclass
class Standardizer:
    """Per-channel z-scoring transform fitted on one scope (e.g. a fold)."""

    modality: Modality
    mean: np.ndarray
    std: np.ndarray
    scope: str = ""


def fit_standardizer(samples: list[Sample], scope: str = "") -> Standardizer:
    """Fit per-channel mean/std over all training samples and time points."""
    if not samples:
        raise ValidationError("cannot fit a standardizer on an empty sample set")
    modality = samples[0].modality
    if any(s.modality is not modality for s in samples):
        raise ValidationError("all samples must share one modality")
    stacked = np.stack([s.data for s in samples]).astype(np.float64)
    flat = stacked.transpose(1, 0, 2).reshape(modality.n_channels, -1)
    mean = flat.mean(axis=1)
    std = flat.std(axis=1)
    for ch in range(modality.n_channels):
        if std[ch] <= 0.0:
            raise FitError(f"channel {ch} has zero variance; cannot standardize")
    return Standardizer(modality=modality, mean=mean, std=std, scope=scope)


def apply_standardizer(std: Standardizer, sample: Sample) -> Sample:
    """Z-score one sample; never refits, so test data is transformed only."""
    if sample.modality is not std.modality:
        raise ValidationError(
            f"standardizer for {std.modality.value} applied to {sample.modality.value} sample"
        )
    if sample.standardized_by is not None:
        raise ValidationError("sample is already standardized")
    data = (sample.data.astype(np.float64) - std.mean[:, None]) / std.std[:, None]
    return replace(sample, data=data, standardized_by=std.scope)


STAGES = ("extracted", "rejected", "skipped")  # the fates of one dot-hit event


@dataclass
class PreprocessReport:
    """Extraction bookkeeping: one count per (subject, round, stage)."""

    modality: Modality
    max_nan_fraction: float
    counts: Counter = field(default_factory=Counter)  # (subject_id, round_id, stage) -> n

    def total(self, stage: str) -> int:
        if stage not in STAGES:
            raise ValidationError(f"unknown preprocess stage {stage!r}; expected one of {STAGES}")
        return sum(n for (_, _, s), n in self.counts.items() if s == stage)

    def to_text(self) -> str:
        def tally(count) -> str:
            return " ".join(f"{stage}={count(stage)}" for stage in STAGES)

        lines = [
            f"preprocess report: modality={self.modality.value} "
            f"max_nan_fraction={self.max_nan_fraction}",
            f"totals: {tally(self.total)}",
        ]
        for subject, round_id in sorted({key[:2] for key in self.counts}):
            lines.append(
                f"{subject} round={round_id}: "
                + tally(lambda stage: self.counts[subject, round_id, stage])
            )
        return "\n".join(lines) + "\n"


def build_dataset(
    recordings: list[Recording],
    modality: Modality,
    policy: NanPolicy | None = None,
) -> tuple[list[Sample], PreprocessReport]:
    """Extract one Sample per accepted dot-hit event, in canonical order.

    Canonical order is (subject, round, event time).  Events whose window
    exceeds the stream or degenerates are skipped; NaN-heavy samples are
    rejected; both are tallied in the report.  Accepted sample data is stored
    as float32 (the on-disk dtype) so file and in-memory paths agree bit for
    bit.
    """
    policy = policy or NanPolicy()
    report = PreprocessReport(modality=modality, max_nan_fraction=policy.max_nan_fraction)
    samples: list[Sample] = []
    for rec in sorted(recordings, key=lambda r: r.subject_id):
        stream = rec.stream_for(modality)
        for ev in sorted(rec.events, key=lambda e: (e.round_id, e.t)):
            try:
                window = _extract_from_stream(stream, rec.subject_id, ev)
                grid = resample_to_grid(window)
            except (WindowOutOfRange, DegenerateWindow):
                report.counts[rec.subject_id, ev.round_id, "skipped"] += 1
                continue
            screened = screen_and_interpolate(grid, policy)
            if isinstance(screened, Rejected):
                report.counts[rec.subject_id, ev.round_id, "rejected"] += 1
                continue
            samples.append(
                Sample(
                    subject_id=rec.subject_id,
                    round_id=ev.round_id,
                    modality=modality,
                    data=screened.astype(np.float32),
                    t0=window.t0,
                )
            )
            report.counts[rec.subject_id, ev.round_id, "extracted"] += 1
    return samples, report


def pair_samples(brain: list[Sample], eye: list[Sample]) -> list[PairedSample]:
    """Inner-join brain and eye samples on (subject, round, window start)."""
    eye_by_key = {(s.subject_id, s.round_id, s.t0): s for s in eye}
    pairs = []
    for b in brain:
        e = eye_by_key.get((b.subject_id, b.round_id, b.t0))
        if e is not None:
            pairs.append(PairedSample(brain=b, eye=e))
    return pairs


# ---------------------------------------------------------------------------
# Dataset file (binary table + text sidecar index)


def save_dataset(samples: list[Sample], path, modality: Modality | None = None) -> None:
    """Write samples as little-endian float32 rows plus a `<path>.idx` sidecar."""
    if samples:
        modality = samples[0].modality
        if any(s.modality is not modality for s in samples):
            raise ValidationError("all samples in a dataset must share one modality")
    elif modality is None:
        raise ValidationError("empty dataset needs an explicit modality")
    n_channels = modality.n_channels
    header = (
        DATASET_MAGIC
        + b"\n"
        + f"{modality.value} {len(samples)} {n_channels} {GRID_POINTS}\n".encode()
    )
    block = n_channels * GRID_POINTS * 4
    # neither file is replaced unless both are written; the payload is replaced first
    with (
        atomic_write(f"{path}.idx", "w", encoding="utf-8", newline="\n") as idx,
        atomic_write(path, "wb") as f,
    ):
        f.write(header)
        for s in samples:
            f.write(np.ascontiguousarray(s.data, dtype="<f4").tobytes())
        for k, s in enumerate(samples):
            offset = len(header) + k * block
            idx.write(f"{s.subject_id} {s.round_id} {repr(float(s.t0))} {offset}\n")


def load_dataset(path) -> tuple[list[Sample], Modality]:
    """Read a dataset file and its sidecar; errors name what is malformed."""
    with open(path, "rb") as f:
        raw = f.read()
    nl1 = raw.find(b"\n")
    if nl1 < 0 or raw[:nl1] != DATASET_MAGIC:
        if raw.startswith(b"BIOFUSE-DS"):
            raise DatasetFormatError(f"unsupported dataset version {raw[:nl1]!r}")
        raise DatasetFormatError("not a dataset file (missing header)")
    nl2 = raw.find(b"\n", nl1 + 1)
    if nl2 < 0:
        raise DatasetFormatError("truncated dataset header")
    try:
        mod_tok, n_str, c_str, p_str = raw[nl1 + 1:nl2].decode().split()
        modality = Modality(mod_tok)
        n, c, p = int(n_str), int(c_str), int(p_str)
    except (ValueError, UnicodeDecodeError):
        raise DatasetFormatError("bad dataset meta line") from None
    if c != modality.n_channels or p != GRID_POINTS:
        raise DatasetFormatError(f"meta line inconsistent with modality {modality.value}")
    payload = raw[nl2 + 1:]
    if len(payload) != n * c * p * 4:
        raise DatasetFormatError(
            f"payload holds {len(payload)} bytes, expected {n * c * p * 4}"
        )
    data = np.frombuffer(payload, dtype="<f4").reshape(n, c, p)

    try:
        index_lines = read_text_lines(f"{path}.idx", DatasetFormatError)
    except FileNotFoundError:
        raise DatasetFormatError(f"missing sidecar index {path}.idx") from None
    if len(index_lines) != n:
        raise DatasetFormatError("sidecar index length does not match dataset")
    samples = []
    for k, line in enumerate(index_lines):
        parts = line.split()
        if len(parts) != 4:
            raise DatasetFormatError(f"index line {k + 1}: expected 4 fields")
        try:
            round_id, t0 = int(parts[1]), float(parts[2])
        except ValueError:
            raise DatasetFormatError(f"index line {k + 1}: bad round or t0") from None
        offset = nl2 + 1 + k * c * p * 4
        if parts[3] != str(offset):
            raise DatasetFormatError(
                f"index line {k + 1}: byte offset {parts[3]!r}, expected {offset}"
            )
        try:
            samples.append(
                Sample(subject_id=parts[0], round_id=round_id, modality=modality,
                       data=data[k].copy(), t0=t0)
            )
        except ValidationError as e:
            raise DatasetFormatError(f"sample {k}: {e}") from None
    return samples, modality
