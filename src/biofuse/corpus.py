"""Recording data model, deterministic synthetic corpora, and the on-disk corpus format.

The corpus file is binary (layout in ``docs/formats.md``): short UTF-8 header
lines, little-endian event and stream blocks, and a CRC32 per recording, so
the round trip is bit-exact and any changed or missing byte is caught.  NaN
may occur in eye streams only.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CorpusFormatError, CorpusVersionError, ValidationError, check_field_types
from .fileio import BlockFormat, BlockReader, atomic_write, read_blocks, write_blocks

CORPUS_MAGIC = "BIOFUSE-CORPUS v2"
MAX_DOTS_PER_ROUND = 25  # dot_index is bounded to [0, 24]


class Modality(enum.Enum):
    """Stream families, keyed by the channel layout they carry.

    EYE is the 12 gaze/pupil coordinate series; EYE_PUPIL extends it with the
    4 pupil-diameter series (strict channel superset, channels 0-11 shared).
    """

    BRAIN = "brain"
    EYE = "eye"
    EYE_PUPIL = "eye-pupil"

    @property
    def n_channels(self) -> int:
        return _CHANNELS[self]


_CHANNELS = {Modality.BRAIN: 14, Modality.EYE: 12, Modality.EYE_PUPIL: 16}


@dataclass(frozen=True)
class EventMarker:
    """One dot-hit timestamp with its round/dot bookkeeping."""

    t: float
    round_id: int
    dot_index: int

    def __post_init__(self) -> None:
        if self.round_id < 0:
            raise ValidationError("round_id must be >= 0")
        if not 0 <= self.dot_index < MAX_DOTS_PER_ROUND:
            raise ValidationError(
                f"dot_index must be in [0, {MAX_DOTS_PER_ROUND - 1}], got {self.dot_index}"
            )
        if not math.isfinite(self.t):
            raise ValidationError("event timestamp must be finite")


@dataclass
class Stream:
    """One timestamped multi-channel series.

    values is [n_timestamps x n_channels]; NaN is legal only for eye streams
    (blink gaps).  Timestamps are strictly increasing seconds.
    """

    modality: Modality
    nominal_rate_hz: float
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not 0 < self.nominal_rate_hz < math.inf:
            raise ValidationError("nominal_rate_hz must be positive and finite")
        if self.timestamps.ndim != 1:
            raise ValidationError("timestamps must be 1-D")
        if self.values.shape != (self.timestamps.size, self.modality.n_channels):
            raise ValidationError(
                f"{self.modality.value} stream must be [n x {self.modality.n_channels}], "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.timestamps)):
            raise ValidationError("timestamps must be finite")
        if self.timestamps.size > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValidationError("timestamps must be strictly increasing")
        if np.isinf(self.values).any():
            raise ValidationError("stream values must not be infinite")
        if self.modality is Modality.BRAIN and np.isnan(self.values).any():
            raise ValidationError("NaN values are allowed in eye streams only")


@dataclass
class Recording:
    """All streams and event markers captured for one subject."""

    subject_id: str
    streams: list[Stream]
    events: list[EventMarker]

    def __post_init__(self) -> None:
        if not self.subject_id or any(c.isspace() for c in self.subject_id):
            raise ValidationError("subject_id must be a non-empty token without whitespace")
        if not self.streams:
            raise ValidationError("recording has no streams")
        by_round: dict[int, float] = {}
        for ev in self.events:
            prev = by_round.get(ev.round_id)
            if prev is not None and ev.t <= prev:
                raise ValidationError(
                    f"markers within round {ev.round_id} must be strictly increasing"
                )
            by_round[ev.round_id] = ev.t

    def stream_for(self, modality: Modality) -> Stream:
        """Return the stream carrying `modality`, deriving EYE from EYE_PUPIL.

        EYE_PUPIL is a strict channel superset of EYE, so a recording that
        only stores the 16-channel stream still serves 12-channel requests.
        """
        for s in self.streams:
            if s.modality is modality:
                return s
        if modality is Modality.EYE:
            for s in self.streams:
                if s.modality is Modality.EYE_PUPIL:
                    return Stream(
                        modality=Modality.EYE,
                        nominal_rate_hz=s.nominal_rate_hz,
                        timestamps=s.timestamps,
                        values=s.values[:, : Modality.EYE.n_channels],
                    )
        raise ValidationError(
            f"recording {self.subject_id!r} has no stream for modality {modality.value!r}"
        )


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the deterministic synthetic corpus generator.

    subject_separability in [0, 1] scales how much of each event response is
    subject-specific versus shared across subjects; 1.0 means fully
    subject-specific responses.
    """

    n_subjects: int
    n_rounds: int
    dots_per_round: int = 25
    eeg_rate_hz: float = 256.0
    eye_rate_hz: float = 200.0
    subject_separability: float = 0.5
    blink_rate_per_min: float = 4.0
    noise_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.n_subjects < 1 or self.n_rounds < 1 or self.dots_per_round < 1:
            raise ValidationError("n_subjects, n_rounds and dots_per_round must be >= 1")
        if self.dots_per_round > MAX_DOTS_PER_ROUND:
            raise ValidationError(f"dots_per_round must be <= {MAX_DOTS_PER_ROUND}")
        if not (0 < self.eeg_rate_hz < math.inf and 0 < self.eye_rate_hz < math.inf):
            raise ValidationError("eeg_rate_hz and eye_rate_hz must be positive and finite")
        if not 0.0 <= self.subject_separability <= 1.0:
            raise ValidationError("subject_separability must be in [0, 1]")
        if not 0 <= self.blink_rate_per_min < math.inf:
            raise ValidationError("blink_rate_per_min must be finite and >= 0")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValidationError("noise_sigma must be finite and >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")


# Task timeline constants (desk-scale stand-ins for the dot task geometry).
_LEAD_IN_S = 1.0
_REST_S = 2.0
_DOT_GAP_RANGE_S = (0.6, 0.9)
_TAIL_S = 0.6

# Event window: the response support around each dot hit, and the window
# preprocessing extracts.
WINDOW_BEFORE_S = 0.1
WINDOW_AFTER_S = 0.3

# Event-response model: 3 damped sinusoids per channel, unit RMS over the
# 0.4 s response support, mixed subject/common by separability.
_N_KERNEL_COMPONENTS = 3
_KERNEL_DECAY_S = 0.2
_RESPONSE_SPAN_S = WINDOW_BEFORE_S + WINDOW_AFTER_S
_KERNEL_BANDS_HZ = {Modality.BRAIN: (4.0, 18.0), Modality.EYE_PUPIL: (1.5, 8.0)}
_AMP_JITTER = 0.15
_BLINK_LEN_RANGE_S = (0.05, 0.2)
# Eye channels carry a small subject-specific DC offset (gaze geometry /
# pupil size identity information); coordinates get less than diameters.
_EYE_DC_SCALE = np.array([0.25] * 12 + [0.5] * 4)
_PUPIL_BASELINE = 3.0


@dataclass(frozen=True)
class _Kernel:
    freqs: np.ndarray    # (k,)
    phases: np.ndarray   # (channels, k)
    amps: np.ndarray     # (channels, k)
    scale: np.ndarray    # (channels,) unit-RMS normalization

    def wave(self, tau: np.ndarray) -> np.ndarray:
        """Evaluate the response at offsets tau in [0, 0.4) -> [len(tau) x channels]."""
        arg = 2.0 * np.pi * tau[:, None] * self.freqs[None, :]
        comp = np.sin(arg[:, None, :] + self.phases[None, :, :])
        damp = np.exp(-tau / _KERNEL_DECAY_S)[:, None]
        return (comp * self.amps[None, :, :]).sum(axis=2) * damp * self.scale[None, :]


def _draw_kernel(rng: np.random.Generator, n_channels: int, band: tuple[float, float]) -> _Kernel:
    freqs = rng.uniform(band[0], band[1], size=_N_KERNEL_COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_channels, _N_KERNEL_COMPONENTS))
    amps = rng.standard_normal((n_channels, _N_KERNEL_COMPONENTS))
    k = _Kernel(freqs, phases, amps, np.ones(n_channels))
    ref = np.linspace(0.0, _RESPONSE_SPAN_S, 512, endpoint=False)
    rms = np.sqrt(np.mean(k.wave(ref) ** 2, axis=0))
    rms[rms == 0] = 1.0
    return _Kernel(freqs, phases, amps, 1.0 / rms)


def _pink_noise(rng: np.random.Generator, n: int, n_channels: int) -> np.ndarray:
    """Unit-variance noise with a 1/sqrt(f)-shaped spectrum (pink-like).

    Scaled in place: a worker thread's malloc arena keeps its largest
    temporaries resident, so each stream allocates as few as it can.
    """
    white = rng.standard_normal((n, n_channels))
    if n < 8:
        return white
    spec = np.fft.rfft(white, axis=0)
    del white
    f = np.fft.rfftfreq(n)
    weight = np.zeros_like(f)
    weight[1:] = 1.0 / np.sqrt(f[1:])
    spec *= weight[:, None]
    x = np.fft.irfft(spec, n=n, axis=0)
    del spec
    std = x.std(axis=0)
    std[std == 0] = 1.0
    x /= std
    return x


def _synth_events(cfg: SynthConfig, rng: np.random.Generator) -> list[EventMarker]:
    events = []
    t = _LEAD_IN_S
    for r in range(cfg.n_rounds):
        for d in range(cfg.dots_per_round):
            events.append(EventMarker(t=float(t), round_id=r, dot_index=d))
            t += rng.uniform(*_DOT_GAP_RANGE_S)
        t += _REST_S
    return events


def _synth_stream(
    cfg: SynthConfig,
    rng: np.random.Generator,
    modality: Modality,
    rate_hz: float,
    duration: float,
    events: list[EventMarker],
    amps: np.ndarray,
    kernel_subject: _Kernel,
    kernel_common: _Kernel,
) -> Stream:
    n = int(duration * rate_hz) + 1
    ts = np.arange(n) / rate_hz
    vals = _pink_noise(rng, n, modality.n_channels)
    vals *= cfg.noise_sigma
    w_subj = math.sqrt(cfg.subject_separability)
    w_comm = math.sqrt(1.0 - cfg.subject_separability)
    for ev, amp in zip(events, amps):
        lo = int(np.searchsorted(ts, ev.t - WINDOW_BEFORE_S, side="left"))
        hi = int(np.searchsorted(ts, ev.t + WINDOW_AFTER_S, side="left"))
        tau = ts[lo:hi] - (ev.t - WINDOW_BEFORE_S)
        vals[lo:hi] += amp * (w_subj * kernel_subject.wave(tau) + w_comm * kernel_common.wave(tau))
    return Stream(modality=modality, nominal_rate_hz=rate_hz, timestamps=ts, values=vals)


def _apply_blinks(
    stream: Stream, rng: np.random.Generator, cfg: SynthConfig, duration: float
) -> None:
    count = int(rng.poisson(cfg.blink_rate_per_min * duration / 60.0))
    starts = rng.uniform(0.0, duration, size=count)
    lengths = rng.uniform(*_BLINK_LEN_RANGE_S, size=count)
    ts = stream.timestamps
    for s, length in zip(starts, lengths):
        lo = int(np.searchsorted(ts, s, side="left"))
        hi = int(np.searchsorted(ts, s + length, side="left"))
        stream.values[lo:hi, :] = np.nan


# Fewest events a generator thread is given: smaller corpora (the benchmark's
# 96-event warm-up, most test corpora) stay on the calling thread.
_MIN_SHARE_EVENTS = 300


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _shares(cfg: SynthConfig) -> list[range]:
    """Contiguous subject ranges, one per usable CPU but none under
    `_MIN_SHARE_EVENTS` events."""
    events = cfg.n_subjects * cfg.n_rounds * cfg.dots_per_round
    n = max(1, min(_usable_cpus(), cfg.n_subjects, events // _MIN_SHARE_EVENTS))
    q, r = divmod(cfg.n_subjects, n)
    cuts = [0] + list(itertools.accumulate(q + (k < r) for k in range(n)))
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def generate_synthetic(cfg: SynthConfig) -> list[Recording]:
    """Generate one Recording per subject, a pure function of the config.

    Each subject draws a latent signature (per-channel damped-sinusoid
    response kernels plus small eye-channel DC offsets); event-locked
    responses mix the subject kernel with a corpus-wide common kernel
    according to subject_separability.  Eye streams carry NaN blink bursts
    at the configured rate.

    Every subject draws from its own child of the config's `SeedSequence`,
    so its bytes do not depend on which thread generates it.  The subjects
    are cut into `_shares`; the calling thread generates the first share and
    one pool thread each of the others, and every pool thread has exited
    when this returns or raises.
    """
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_subjects + 1)
    common_rng = np.random.default_rng(children[0])
    common = {
        Modality.BRAIN: _draw_kernel(common_rng, 14, _KERNEL_BANDS_HZ[Modality.BRAIN]),
        Modality.EYE_PUPIL: _draw_kernel(common_rng, 16, _KERNEL_BANDS_HZ[Modality.EYE_PUPIL]),
    }

    def share(subjects: range) -> list[Recording]:
        return [_synth_recording(cfg, i, children[i + 1], common) for i in subjects]

    first, *rest = _shares(cfg)
    if not rest:
        return share(first)
    # here, not at the top: a process that never starts a pool thread does
    # not load the executor (about 0.8 MB resident)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(rest)) as pool:
        futures = [pool.submit(share, subjects) for subjects in rest]
        recordings = share(first)
        for fut in futures:
            recordings += fut.result()
    return recordings


def _synth_recording(
    cfg: SynthConfig, i: int, seed: np.random.SeedSequence, common: dict[Modality, _Kernel]
) -> Recording:
    """Subject `i`'s recording, drawn from its own seed."""
    rng = np.random.default_rng(seed)
    subj = {
        Modality.BRAIN: _draw_kernel(rng, 14, _KERNEL_BANDS_HZ[Modality.BRAIN]),
        Modality.EYE_PUPIL: _draw_kernel(rng, 16, _KERNEL_BANDS_HZ[Modality.EYE_PUPIL]),
    }
    eye_dc = rng.standard_normal(16) * _EYE_DC_SCALE * math.sqrt(cfg.subject_separability)
    events = _synth_events(cfg, rng)
    duration = events[-1].t + _REST_S + _TAIL_S
    amps = np.clip(1.0 + _AMP_JITTER * rng.standard_normal(len(events)), 0.2, None)
    brain = _synth_stream(
        cfg, rng, Modality.BRAIN, cfg.eeg_rate_hz, duration, events, amps,
        subj[Modality.BRAIN], common[Modality.BRAIN],
    )
    eye = _synth_stream(
        cfg, rng, Modality.EYE_PUPIL, cfg.eye_rate_hz, duration, events, amps,
        subj[Modality.EYE_PUPIL], common[Modality.EYE_PUPIL],
    )
    eye.values += eye_dc[None, :]
    eye.values[:, 12:] += _PUPIL_BASELINE
    _apply_blinks(eye, rng, cfg, duration)
    return Recording(subject_id=f"s{i:02d}", streams=[brain, eye], events=events)


# ---------------------------------------------------------------------------
# On-disk format

CORPUS = BlockFormat(CORPUS_MAGIC, "corpus", CorpusFormatError,
                     "regenerate the corpus with `biofuse gen`", CorpusVersionError)
# one event record: t, round_id, dot_index (the kind is always DotHit)
_EVENT = np.dtype([("t", "<f8"), ("round_id", "<i8"), ("dot_index", "<i8")])


def write_corpus(recordings: Iterable[Recording], path) -> None:
    """Write recordings in the binary corpus format; lossless including NaN and float bits.

    Each recording is written as it is drawn from `recordings`, so a
    generator is never held whole.
    """
    seen: set[str] = set()
    with atomic_write(path, "wb") as f:
        f.write(f"{CORPUS_MAGIC}\n".encode())
        for rec in recordings:
            if rec.subject_id in seen:
                raise ValidationError(f"duplicate subject_id {rec.subject_id!r}")
            seen.add(rec.subject_id)
            write_blocks(f, _recording_parts(rec))
        if not seen:
            raise ValidationError("cannot write an empty corpus")
        f.write(f"end {len(seen)}\n".encode())


def _recording_parts(rec: Recording) -> Iterator[bytes | np.ndarray]:
    """The header lines and binary blocks of one recording, in file order."""
    yield f"recording {rec.subject_id} {len(rec.events)} {len(rec.streams)}\n".encode()
    yield np.array([(ev.t, ev.round_id, ev.dot_index) for ev in rec.events], dtype=_EVENT)
    for s in rec.streams:
        n, c = s.values.shape
        yield f"stream {s.modality.value} {float(s.nominal_rate_hz)!r} {n} {c}\n".encode()
        block = np.empty((n, 1 + c), dtype="<f8")
        block[:, 0] = s.timestamps
        block[:, 1:] = s.values
        yield block


def iter_corpus(path) -> Iterator[Recording]:
    """Read a corpus file one recording at a time; errors name the byte offset
    and the recording.

    Each recording is checked against its CRC32 and yielded as soon as it is
    read, so a caller that drops each recording before asking for the next
    holds one recording.  The end line's recording count is checked after the
    last recording is yielded, so a caller that consumes recordings as they
    arrive must finish the generator to see a truncated file.
    """
    with read_blocks(path, CORPUS) as src:
        ids: set[str] = set()
        while True:
            src.restart()
            src.scope = None
            at, fields = src.line()
            if fields[0] != "recording" or len(fields) != 4:
                break
            # yielded without a local name, so this frame does not keep it alive
            yield _read_recording(src, at, fields, ids)
        if fields[0] != "end" or len(fields) != 2:
            raise src.error(at, "expected a 'recording' or 'end' line")
        if src.count(at, fields[1], "recording count") != len(ids):
            raise src.error(at, f"end line counts {fields[1]} recordings, the file holds "
                                f"{len(ids)}")
        src.finish("the end line")
        if not ids:
            raise src.error(at, "file contains no recordings")


def read_corpus(path) -> list[Recording]:
    """Every recording of a corpus file, with the errors of `iter_corpus`."""
    return list(iter_corpus(path))


def _read_recording(src: BlockReader, at: int, fields: list[str], ids: set[str]) -> Recording:
    """The recording whose header line at byte `at` has just been read; its id
    is added to `ids`, the ids read before it."""
    src.scope = f"recording {fields[1]!r}"
    n_events = src.count(at, fields[2], "event count")
    n_streams = src.count(at, fields[3], "stream count")
    events = src.block((n_events,), _EVENT, "event block")
    blocks = []
    for _ in range(n_streams):
        s_at, header = src.expect("stream", 5)
        try:
            modality = Modality(header[1])
        except ValueError:
            raise src.error(s_at, f"unknown modality {header[1]!r}") from None
        try:
            rate = float(header[2])
        except ValueError:
            raise src.error(s_at, f"bad rate {header[2]!r}") from None
        n_rows = src.count(s_at, header[3], "row count")
        if src.count(s_at, header[4], "channel count") != modality.n_channels:
            raise src.error(s_at, f"a {modality.value} stream has {modality.n_channels} channels")
        blocks.append((s_at, modality, rate, src.block((n_rows, 1 + modality.n_channels), "<f8",
                                                      "stream block")))
    src.checksum("recording checksum")
    try:
        events = [EventMarker(t=t, round_id=r, dot_index=d) for t, r, d in events.tolist()]
    except ValidationError as e:
        raise src.error(at, str(e)) from None
    streams = []
    for s_at, modality, rate, block in blocks:
        try:
            streams.append(Stream(modality, rate, timestamps=block[:, 0], values=block[:, 1:]))
        except ValidationError as e:
            raise src.error(s_at, str(e)) from None
    try:
        rec = Recording(subject_id=fields[1], streams=streams, events=events)
    except ValidationError as e:
        raise src.error(at, str(e)) from None
    if rec.subject_id in ids:
        raise src.error(at, "duplicate subject id")
    ids.add(rec.subject_id)
    return rec
