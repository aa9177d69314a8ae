"""Recording data model, deterministic synthetic corpora, and the on-disk corpus format.

The corpus file is UTF-8, line-delimited, diffable text (grammar in
``docs/formats.md``).  Floats are written with ``repr`` so the round trip is
bit-exact; NaN is spelled ``nan`` and may occur in eye streams only.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CorpusFormatError, CorpusVersionError, ValidationError, check_field_types

CORPUS_MAGIC = "BIOFUSE-CORPUS v1"
EVENT_KIND_DOT_HIT = "DotHit"
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
    kind: str = EVENT_KIND_DOT_HIT

    def __post_init__(self) -> None:
        if self.kind != EVENT_KIND_DOT_HIT:
            raise ValidationError(f"unknown event kind {self.kind!r}")
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
        if self.nominal_rate_hz <= 0:
            raise ValidationError("nominal_rate_hz must be positive")
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
        if self.eeg_rate_hz <= 0 or self.eye_rate_hz <= 0:
            raise ValidationError("eeg_rate_hz and eye_rate_hz must be positive")
        if not 0.0 <= self.subject_separability <= 1.0:
            raise ValidationError("subject_separability must be in [0, 1]")
        if self.blink_rate_per_min < 0:
            raise ValidationError("blink_rate_per_min must be >= 0")
        if self.noise_sigma < 0:
            raise ValidationError("noise_sigma must be >= 0")
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
    """Unit-variance noise with a 1/sqrt(f)-shaped spectrum (pink-like)."""
    white = rng.standard_normal((n, n_channels))
    if n < 8:
        return white
    spec = np.fft.rfft(white, axis=0)
    f = np.fft.rfftfreq(n)
    weight = np.zeros_like(f)
    weight[1:] = 1.0 / np.sqrt(f[1:])
    x = np.fft.irfft(spec * weight[:, None], n=n, axis=0)
    std = x.std(axis=0)
    std[std == 0] = 1.0
    return x / std


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
    vals = cfg.noise_sigma * _pink_noise(rng, n, modality.n_channels)
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


def generate_synthetic(cfg: SynthConfig) -> list[Recording]:
    """Generate one Recording per subject, a pure function of the config.

    Each subject draws a latent signature (per-channel damped-sinusoid
    response kernels plus small eye-channel DC offsets); event-locked
    responses mix the subject kernel with a corpus-wide common kernel
    according to subject_separability.  Eye streams carry NaN blink bursts
    at the configured rate.
    """
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_subjects + 1)
    common_rng = np.random.default_rng(children[0])
    common = {
        Modality.BRAIN: _draw_kernel(common_rng, 14, _KERNEL_BANDS_HZ[Modality.BRAIN]),
        Modality.EYE_PUPIL: _draw_kernel(common_rng, 16, _KERNEL_BANDS_HZ[Modality.EYE_PUPIL]),
    }
    recordings = []
    for i in range(cfg.n_subjects):
        rng = np.random.default_rng(children[i + 1])
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
        recordings.append(
            Recording(subject_id=f"s{i:02d}", streams=[brain, eye], events=events)
        )
    return recordings


# ---------------------------------------------------------------------------
# On-disk format


def _fmt(x: float) -> str:
    return repr(float(x))


def write_corpus(recordings: Iterable[Recording], path) -> None:
    """Write recordings as line-delimited text; lossless including NaN and float bits.

    The recordings are formatted in shares over the usable CPUs
    (`_formatted`); the bytes do not depend on the CPU count.
    """
    recordings = list(recordings)
    if not recordings:
        raise ValidationError("cannot write an empty corpus")
    seen = set()
    for rec in recordings:
        if rec.subject_id in seen:
            raise ValidationError(f"duplicate subject_id {rec.subject_id!r}")
        seen.add(rec.subject_id)
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as f, contextlib.closing(
        _formatted(recordings)
    ) as texts:
        f.write(CORPUS_MAGIC + "\n")
        for text in texts:
            f.write(text)


def _format_recording(rec: Recording) -> str:
    """The corpus text of one recording."""
    parts = [f"recording {rec.subject_id}\n", f"events {len(rec.events)}\n"]
    for ev in rec.events:
        parts.append(f"{_fmt(ev.t)} {ev.kind} {ev.round_id} {ev.dot_index}\n")
    for s in rec.streams:
        n, c = s.values.shape
        parts.append(f"stream {s.modality.value} {_fmt(s.nominal_rate_hz)} {n} {c}\n")
        ts = s.timestamps.tolist()
        rows = s.values.tolist()
        parts.append("\n".join(
            _fmt(t) + " " + " ".join(map(repr, row)) for t, row in zip(ts, rows)
        ))
        if n:
            parts.append("\n")
    return "".join(parts)


# A helper is started only for a share of at least this many events.  On a
# 2-vCPU VM starting one (interpreter, numpy, biofuse) took 0.24-0.30 s and
# formatting took about 5 ms an event, so such a share is about five times
# its helper's start.
_MIN_SHARE_EVENTS = 300


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _formatted(recordings: list[Recording]) -> Iterator[str]:
    """`_format_recording` of each recording, yielded in order.

    The recordings are cut into contiguous shares, one per usable CPU but
    none under `_MIN_SHARE_EVENTS` events.  The calling process formats the
    first share as the texts are drawn; each other share goes to a helper
    process (`_serve`) started from `sys.executable` with this process's
    `sys.path`, so no caller's `__main__` is run again.  A helper reads its
    whole share, formats it, then sends one text at a time.  A share whose
    helper fails, for any reason, is formatted here, so an error is raised
    as it is in one process.  When the generator ends or is closed, every
    helper has exited or is killed.
    """
    n_events = sum(len(rec.events) for rec in recordings)
    n = min(_usable_cpus(), len(recordings), n_events // _MIN_SHARE_EVENTS)
    if n < 2 or not sys.executable:
        yield from map(_format_recording, recordings)
        return
    # here, not at the top: a process that starts no helper does not load
    # subprocess and its dependencies (about 0.7 MB resident)
    import subprocess
    import threading

    q, r = divmod(len(recordings), n)
    cuts = [0] + list(itertools.accumulate(q + (k < r) for k in range(n)))
    shares = [recordings[a:b] for a, b in zip(cuts, cuts[1:])]
    helpers: list[subprocess.Popen] = []
    feeders: list[threading.Thread] = []
    path = [p for p in sys.path if isinstance(p, str)]  # what the import system reads
    boot = f"import sys; sys.path[:] = {path!r}; from biofuse.corpus import _serve; _serve()"
    try:
        for share in shares[1:]:
            payload = pickle.dumps(share, protocol=pickle.HIGHEST_PROTOCOL)
            proc = subprocess.Popen(
                [sys.executable, "-c", boot],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            helpers.append(proc)
            # sent from a thread, so this process starts its own share while
            # the helper is still starting up
            feeders.append(threading.Thread(target=_send, args=(proc.stdin, payload), daemon=True))
            feeders[-1].start()
            del payload  # the feeder holds it until it is sent
        for rec in shares[0]:
            yield _format_recording(rec)
        for proc, share in zip(helpers, shares[1:]):
            done = 0
            for text in _received(proc, len(share)):
                yield text
                done += 1
            if done < len(share):  # the helper failed: its error, or one starting it
                proc.kill()
                yield from map(_format_recording, share[done:])
            proc.wait()
    finally:
        for proc in helpers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        for feeder in feeders:
            feeder.join()
        for proc in helpers:
            proc.stdout.close()


def _received(proc, count: int) -> Iterator[str]:
    """Up to `count` texts sent by a helper; fewer once it has failed."""
    for _ in range(count):
        try:
            text = pickle.load(proc.stdout)
        except Exception:  # the stream ended early or holds no pickle
            return
        yield text


def _send(pipe, data: bytes) -> None:
    # a helper that exits before it has read its share closes the pipe; its
    # share is then formatted in the caller
    with contextlib.suppress(BrokenPipeError), pipe:
        pipe.write(data)


def _serve() -> None:
    """Format one share sent by `_formatted` on stdin; send the texts on stdout.

    An error ends the helper before it sends anything.
    """
    texts = [_format_recording(rec) for rec in pickle.load(sys.stdin.buffer)]
    out = sys.stdout.buffer
    for text in texts:
        pickle.dump(text, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise CorpusFormatError(f"line {lineno}: bad float {token!r}") from None


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise CorpusFormatError(f"line {lineno}: bad integer {token!r}") from None


def _parse_count(token: str, lineno: int) -> int:
    n = _parse_int(token, lineno)
    if n < 0:
        raise CorpusFormatError(f"line {lineno}: negative count {token!r}")
    return n


@contextlib.contextmanager
def atomic_write(path, mode: str, **open_kwargs):
    """Open a temp file beside `path` for writing and move it onto `path` when
    the block ends; if the block raises, the temp file is removed and any
    previous file at `path` is left as it was.  A new file gets the mode bits
    a plain `open` gives under the umask."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with open(fd, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _utf8_error(path, error: type[Exception]) -> Exception:
    """`error` naming the line and byte offset of the first byte sequence in
    `path` that is not UTF-8.  No UTF-8 sequence contains a newline byte, so
    each line decodes on its own."""
    offset = 0
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return error(f"{path}: line {lineno}, byte {offset + e.start}: not valid UTF-8")
            offset += len(raw)
    return error(f"{path}: not valid UTF-8")  # the file changed while it was read


def read_text_lines(path, error: type[Exception]) -> list[str]:
    """The lines of a UTF-8 text file; a byte sequence that is not UTF-8
    raises `error` naming its line and byte offset."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().splitlines()
    except UnicodeDecodeError:
        raise _utf8_error(path, error) from None


class _LineReader:
    r"""The lines of a text file opened with ``newline=""``, split where
    ``str.splitlines`` splits them, read from the file as they are taken.

    Iterating the file breaks lines only after ``\n``, ``\r`` and ``\r\n``;
    splitlines also breaks at ``\v \f \x1c \x1d \x1e \x85 \u2028
    \u2029``.  `lineno` is the 1-based number of the last line taken.
    """

    def __init__(self, f) -> None:
        self._f = f
        self._ahead: list[str] = []  # lines split off past the last one taken
        self.lineno = 0

    def take(self, n: int) -> list[str]:
        """The next `n` lines without their terminators, fewer at end of file."""
        lines = self._ahead[:n]
        del self._ahead[:n]
        need = n - len(lines)
        if need:
            # each file line ends in a break (the last may end the file
            # instead), so splitting their join splits each one in turn
            split = "".join(itertools.islice(self._f, min(need, sys.maxsize))).splitlines()
            lines += split[:need]
            self._ahead = split[need:]
        self.lineno += len(lines)
        return lines

    def next(self) -> str | None:
        """The next line, or None at end of file."""
        lines = self.take(1)
        return lines[0] if lines else None

    def unread(self, line: str) -> None:
        """Give back the line last taken."""
        self._ahead.insert(0, line)
        self.lineno -= 1


def iter_corpus(path) -> Iterator[Recording]:
    """Parse a corpus file one recording at a time; errors name the offending
    line or record.

    The text is read one stream block at a time and each recording is yielded
    as soon as it is parsed, so a caller that drops each recording before
    asking for the next holds one recording plus one block of text.  A byte
    that is not UTF-8 anywhere in the file is reported before any parse
    error, as when the whole text was decoded first.  The checks
    that need the whole file (no recordings, a duplicate subject id) raise
    after the last recording is yielded, so a caller that consumes
    recordings as they arrive must finish the generator to see them.
    """
    try:
        with open(path, encoding="utf-8", newline="") as f:
            try:
                yield from _parse_corpus(_LineReader(f))
            except CorpusFormatError:
                for _ in f:  # decode the rest
                    pass
                raise
    except UnicodeDecodeError:
        raise _utf8_error(path, CorpusFormatError) from None


def read_corpus(path) -> list[Recording]:
    """Every recording of a corpus file, with the errors of `iter_corpus`."""
    return list(iter_corpus(path))


def _parse_corpus(src: _LineReader) -> Iterator[Recording]:
    first = src.next()
    if first is None:
        raise CorpusFormatError("line 1: empty file")
    if first != CORPUS_MAGIC:
        if first.startswith("BIOFUSE-CORPUS"):
            raise CorpusVersionError(f"line 1: unsupported corpus version {first!r}")
        raise CorpusFormatError("line 1: not a corpus file (missing header)")

    ids: list[str] = []
    while (line := src.next()) is not None:
        if not line.strip():
            continue
        if not line.startswith("recording "):
            raise CorpusFormatError(f"line {src.lineno}: expected 'recording <id>', got {line!r}")
        subject_id = line[len("recording "):]
        ids.append(subject_id)
        # yielded without a local name, so this frame does not keep it alive
        yield _parse_recording(src, subject_id)

    if not ids:
        raise CorpusFormatError("file contains no recordings")
    if len(set(ids)) != len(ids):
        raise CorpusFormatError("duplicate subject ids in corpus")


def _parse_recording(src: _LineReader, subject_id: str) -> Recording:
    """The recording whose `recording <id>` line was the last one taken."""
    rec_line = src.lineno
    line = src.next()
    if line is None or not line.startswith("events "):
        raise CorpusFormatError(f"line {rec_line + 1}: expected 'events <count>'")
    n_events = _parse_count(line[len("events "):], src.lineno)
    events = _parse_events(src, n_events)

    streams = []
    while (line := src.next()) is not None and line.startswith("stream "):
        streams.append(_parse_stream(src, line, subject_id))
    if line is not None:
        src.unread(line)

    try:
        return Recording(subject_id=subject_id, streams=streams, events=events)
    except ValidationError as e:
        raise CorpusFormatError(
            f"recording {subject_id!r} starting at line {rec_line}: {e}"
        ) from None


def _parse_events(src: _LineReader, n_events: int) -> list[EventMarker]:
    first = src.lineno + 1
    lines = src.take(n_events)
    events = []
    for lineno, line in enumerate(lines, first):
        parts = line.split()
        if len(parts) != 4:
            raise CorpusFormatError(f"line {lineno}: event record needs 4 fields")
        try:
            events.append(
                EventMarker(
                    t=_parse_float(parts[0], lineno),
                    kind=parts[1],
                    round_id=_parse_int(parts[2], lineno),
                    dot_index=_parse_int(parts[3], lineno),
                )
            )
        except ValidationError as e:
            raise CorpusFormatError(f"line {lineno}: {e}") from None
    if len(lines) < n_events:
        raise CorpusFormatError(f"line {first + len(lines)}: truncated event block")
    return events


def _parse_stream(src: _LineReader, header_line: str, subject_id: str) -> Stream:
    at = src.lineno
    header = header_line.split()
    if len(header) != 5:
        raise CorpusFormatError(f"line {at}: stream header needs 5 fields")
    try:
        modality = Modality(header[1])
    except ValueError:
        raise CorpusFormatError(f"line {at}: unknown modality {header[1]!r}") from None
    rate = _parse_float(header[2], at)
    n_rows = _parse_count(header[3], at)
    n_ch = _parse_count(header[4], at)
    block = src.take(n_rows)
    if len(block) < n_rows:
        raise CorpusFormatError(f"line {at + 1}: truncated stream block")
    data = _parse_block(block, at + 1, n_ch + 1)
    try:
        return Stream(
            modality=modality, nominal_rate_hz=rate, timestamps=data[:, 0], values=data[:, 1:]
        )
    except ValidationError as e:
        raise CorpusFormatError(
            f"stream starting at line {at}: {e} (recording {subject_id!r})"
        ) from None


def _parse_block(lines: list[str], first: int, n_cols: int) -> np.ndarray:
    """A stream block as one [len(lines) x n_cols] array; `first` is the line
    number of lines[0].

    One `np.loadtxt` call parses a well-formed block.  It splits on the same
    whitespace as `str.split` but skips blank lines and rejects tokens that
    `float` takes (``1_000``), so a block it cannot parse to the full shape
    goes row by row: a column check, then one `np.array` of the tokens, then
    the per-token search that names the bad line.
    """
    if not lines:
        return np.empty((0, n_cols))
    if lines[0].strip():  # loadtxt warns on a block with no data rows
        try:
            data = np.loadtxt(lines, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            if data.shape == (len(lines), n_cols):
                return data
    rows = [line.split() for line in lines]
    for lineno, row in enumerate(rows, first):
        if len(row) != n_cols:
            raise CorpusFormatError(f"line {lineno}: expected {n_cols} columns, got {len(row)}")
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError:
        for lineno, row in enumerate(rows, first):
            for tok in row:
                _parse_float(tok, lineno)
        raise CorpusFormatError(f"line {first}: bad numeric data in stream block") from None
