import gc
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biofuse
from biofuse import corpus
from biofuse.corpus import (
    EventMarker,
    Modality,
    Recording,
    Stream,
    SynthConfig,
    generate_synthetic,
    iter_corpus,
    read_corpus,
    write_corpus,
)
from biofuse.errors import CorpusFormatError, CorpusVersionError, ValidationError
from oracles import corpus_equal, oracle_generate_synthetic


def test_generate_counts():
    cfg = SynthConfig(n_subjects=3, n_rounds=2, dots_per_round=25, seed=7)
    recs = generate_synthetic(cfg)
    assert len(recs) == 3
    assert all(len(r.events) == 50 for r in recs)


def test_generate_rejects_zero_counts():
    with pytest.raises(ValidationError):
        SynthConfig(n_subjects=0, n_rounds=2)
    with pytest.raises(ValidationError):
        SynthConfig(n_subjects=2, n_rounds=0)


def test_marker_bookkeeping(small_corpus):
    cfg, recs = small_corpus
    for rec in recs:
        last_by_round = {}
        for ev in rec.events:
            assert 0 <= ev.round_id < cfg.n_rounds
            assert 0 <= ev.dot_index < cfg.dots_per_round
            if ev.round_id in last_by_round:
                assert ev.t > last_by_round[ev.round_id]
            last_by_round[ev.round_id] = ev.t


def test_stream_layout(small_corpus):
    _, recs = small_corpus
    for rec in recs:
        brain = rec.stream_for(Modality.BRAIN)
        eye = rec.stream_for(Modality.EYE_PUPIL)
        assert brain.values.shape[1] == 14
        assert eye.values.shape[1] == 16
        assert not np.isnan(brain.values).any()
        # EYE is served as the first 12 channels of the EYE_PUPIL stream
        derived = rec.stream_for(Modality.EYE)
        assert derived.values.shape[1] == 12
        np.testing.assert_array_equal(derived.values, eye.values[:, :12])


def test_generate_deterministic_bytes(tmp_path):
    cfg = SynthConfig(n_subjects=2, n_rounds=2, dots_per_round=5, seed=123)
    p1, p2 = tmp_path / "a.corpus", tmp_path / "b.corpus"
    write_corpus(generate_synthetic(cfg), p1)
    write_corpus(generate_synthetic(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


_BATTERY_SHAPE = dict(n_subjects=12, n_rounds=4, dots_per_round=25, subject_separability=0.5,
                     noise_sigma=0.9, blink_rate_per_min=4.0)


@pytest.mark.parametrize("cfg", [
    SynthConfig(n_subjects=1, n_rounds=4, seed=5),
    SynthConfig(n_subjects=3, n_rounds=8, seed=29),
    SynthConfig(seed=5, **_BATTERY_SHAPE),
    # 3-7 points per stream: the noise is white, most events miss every sample
    SynthConfig(n_subjects=12, n_rounds=2, eeg_rate_hz=0.1, eye_rate_hz=0.15, seed=2),
    SynthConfig(n_subjects=3, n_rounds=8, eeg_rate_hz=64.0, eye_rate_hz=60.0,
                blink_rate_per_min=600.0, seed=1),
], ids=["1-subject", "3-subjects", "12-subjects", "under-8-points", "blink-heavy"])
def test_generate_matches_serial_oracle(monkeypatch, cfg):
    """Bit-equal to the serial loop whether the subjects are generated on one
    thread or cut into up to three shares, whatever this machine's CPUs."""
    want = oracle_generate_synthetic(cfg)
    for cpus in (1, 3):
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: cpus)
        assert corpus_equal(generate_synthetic(cfg), want), f"{cpus} CPUs"


def test_shares_cover_subjects_in_order_with_enough_events(monkeypatch):
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 4)
    # the benchmark's 96-event warm-up stays on the calling thread
    assert corpus._shares(SynthConfig(n_subjects=4, n_rounds=4, dots_per_round=6)) == [range(4)]
    assert corpus._shares(SynthConfig(n_subjects=3, n_rounds=8)) == [range(2), range(2, 3)]
    assert corpus._shares(SynthConfig(n_subjects=2, n_rounds=100)) == [range(1), range(1, 2)]
    assert corpus._shares(SynthConfig(**_BATTERY_SHAPE)) == [
        range(0, 3), range(3, 6), range(6, 9), range(9, 12)]
    # 1000 events make three shares of at least 300, not four
    assert corpus._shares(SynthConfig(n_subjects=10, n_rounds=4)) == [
        range(0, 4), range(4, 7), range(7, 10)]


_ONE_CPU = """
import os, sys
from biofuse import corpus
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
cfg = corpus.SynthConfig(n_subjects=3, n_rounds=8, seed=29)
assert corpus._shares(cfg) == [range(3)]
corpus.write_corpus(corpus.generate_synthetic(cfg), sys.argv[1])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks here")
def test_generate_bytes_do_not_depend_on_the_affinity_mask(tmp_path):
    cfg = SynthConfig(n_subjects=3, n_rounds=8, seed=29)
    if len(corpus._shares(cfg)) < 2:
        pytest.skip("one usable CPU: every run is a one-thread run")
    src = str(Path(biofuse.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", _ONE_CPU, str(tmp_path / "one.corpus")], env=env,
                   check=True, capture_output=True, timeout=120)
    write_corpus(generate_synthetic(cfg), tmp_path / "all.corpus")
    assert (tmp_path / "one.corpus").read_bytes() == (tmp_path / "all.corpus").read_bytes()


@pytest.mark.parametrize("failing", [0, 7])
def test_share_error_reaches_the_caller_and_no_thread_outlives_it(monkeypatch, failing):
    """Subject 0 is in the calling thread's share, subject 7 in a pool thread's."""
    cfg = SynthConfig(n_subjects=12, n_rounds=2, dots_per_round=25, seed=3)
    real = corpus._synth_recording
    threads = {}

    def synth_recording(cfg, i, seed, common):
        threads[i] = threading.get_ident()
        if i == failing:
            raise ValidationError(f"subject {i} refused")
        return real(cfg, i, seed, common)

    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(corpus, "_synth_recording", synth_recording)
    before = threading.active_count()
    with pytest.raises(ValidationError, match=f"^subject {failing} refused$"):
        generate_synthetic(cfg)
    assert threading.active_count() == before
    assert threads[0] == threading.get_ident() != threads[7]

    monkeypatch.setattr(corpus, "_synth_recording", real)
    recordings = generate_synthetic(cfg)
    assert threading.active_count() == before
    assert [r.subject_id for r in recordings] == [f"s{i:02d}" for i in range(12)]


def test_separability_correlations():
    """With separability 1 and no noise, same-subject samples correlate
    more strongly than cross-subject ones, for every pair.

    Windows are sliced directly off the raw streams here, independent of the
    preprocess module.
    """
    cfg = SynthConfig(
        n_subjects=3, n_rounds=2, dots_per_round=8,
        subject_separability=1.0, noise_sigma=0.0, blink_rate_per_min=0.0, seed=11,
    )
    recs = generate_synthetic(cfg)
    samples = []
    for rec in recs:
        stream = rec.stream_for(Modality.BRAIN)
        ts = stream.timestamps
        n_rows = None
        for ev in rec.events:
            lo = int(np.searchsorted(ts, ev.t - 0.1))
            hi = int(np.searchsorted(ts, ev.t + 0.3))
            if n_rows is None:
                n_rows = hi - lo
            samples.append((rec.subject_id, stream.values[lo:lo + n_rows].ravel()))
    within, cross = [], []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            r = np.corrcoef(samples[i][1], samples[j][1])[0, 1]
            (within if samples[i][0] == samples[j][0] else cross).append(r)
    assert min(within) > max(cross)


def test_roundtrip_small_corpus(tmp_path, small_corpus):
    _, recs = small_corpus
    path = tmp_path / "c.corpus"
    write_corpus(recs, path)
    assert corpus_equal(recs, read_corpus(path))


@settings(max_examples=6, deadline=None)
@given(
    n_subjects=st.integers(1, 3),
    n_rounds=st.integers(1, 2),
    dots=st.integers(1, 4),
    blink=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(tmp_path_factory, n_subjects, n_rounds, dots, blink, seed):
    cfg = SynthConfig(
        n_subjects=n_subjects, n_rounds=n_rounds, dots_per_round=dots,
        blink_rate_per_min=blink, seed=seed,
    )
    recs = generate_synthetic(cfg)
    path = tmp_path_factory.mktemp("rt") / "c.corpus"
    write_corpus(recs, path)
    assert corpus_equal(recs, read_corpus(path))


def _recording(header: bytes, events: bytes, streams: list[tuple[bytes, bytes]]) -> bytes:
    """The bytes of one recording: header line, event block, stream header lines
    and blocks, then the little-endian CRC32 of all of them."""
    body = header + events + b"".join(h + block for h, block in streams)
    return body + struct.pack("<I", zlib.crc32(body))


def _corpus(*recordings: bytes) -> bytes:
    return b"BIOFUSE-CORPUS v2\n" + b"".join(recordings) + f"end {len(recordings)}\n".encode()


def _rows(*rows) -> bytes:
    return b"".join(struct.pack(f"<{len(row)}d", *row) for row in rows)


def test_write_corpus_emits_the_documented_layout(tmp_path):
    """One recording with two events and two streams, byte for byte as
    `docs/formats.md` lays it out, so byte order and layout hold on any host."""
    brain = np.arange(2 * 14, dtype=np.float64).reshape(2, 14) / 7.0
    eye = np.full((3, 16), 0.1)
    eye[1, 2] = np.nan
    rec = Recording("s07", [
        Stream(Modality.BRAIN, 256.0, np.array([0.0, 1 / 256]), brain),
        Stream(Modality.EYE_PUPIL, 200.0, np.array([0.0, 0.005, 0.01]), eye),
    ], [EventMarker(t=1.25, round_id=0, dot_index=3), EventMarker(t=0.5, round_id=1, dot_index=0)])
    path = tmp_path / "c.corpus"
    write_corpus([rec], path)
    body = (
        b"recording s07 2 2\n"
        + struct.pack("<dqq", 1.25, 0, 3) + struct.pack("<dqq", 0.5, 1, 0)
        + b"stream brain 256.0 2 14\n"
        + _rows(*([t, *row] for t, row in zip([0.0, 1 / 256], brain)))
        + b"stream eye-pupil 200.0 3 16\n"
        + _rows(*([t, *row] for t, row in zip([0.0, 0.005, 0.01], eye)))
    )
    want = b"BIOFUSE-CORPUS v2\n" + body + struct.pack("<I", zlib.crc32(body)) + b"end 1\n"
    assert path.read_bytes() == want
    assert corpus_equal(read_corpus(path), [rec])


def test_read_version_mismatch(tmp_path):
    """The text format v1 and an unknown v3 are rejected naming v2 and `biofuse gen`."""
    path = tmp_path / "bad.corpus"
    for version in ("v1", "v3"):
        path.write_text(f"BIOFUSE-CORPUS {version}\nrecording s00\n", encoding="utf-8")
        with pytest.raises(CorpusVersionError, match=f"'BIOFUSE-CORPUS {version}'") as e:
            read_corpus(path)
        assert "'BIOFUSE-CORPUS v2'" in str(e.value) and "biofuse gen" in str(e.value)


def test_read_not_a_corpus(tmp_path):
    path = tmp_path / "bad.corpus"
    path.write_text("hello\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="^byte 0: not a corpus file"):
        read_corpus(path)


def test_read_rejects_negative_timestamp_gap(tmp_path):
    path = tmp_path / "bad.corpus"
    block = _rows([0.5] + [0.0] * 14, [0.25] + [0.0] * 14)  # goes backwards
    path.write_bytes(_corpus(_recording(b"recording s00 0 1\n", b"",
                                        [(b"stream brain 256.0 2 14\n", block)])))
    with pytest.raises(CorpusFormatError, match="^byte 36: .*increasing"):
        read_corpus(path)


def test_read_rejects_empty_stream_list(tmp_path):
    path = tmp_path / "bad.corpus"
    path.write_bytes(_corpus(_recording(b"recording s00 0 0\n", b"", [])))
    with pytest.raises(CorpusFormatError, match="^byte 18: recording has no streams"):
        read_corpus(path)


def test_read_names_bad_line(tmp_path):
    """A header line that is not UTF-8 is named by the offset of its first bad byte."""
    path = tmp_path / "bad.corpus"
    ok = _recording(b"recording s00 0 1\n", b"", [(b"stream brain 256.0 0 14\n", b"")])
    bad = _recording(b"recording s\xff1 0 1\n", b"", [(b"stream brain 256.0 0 14\n", b"")])
    path.write_bytes(_corpus(ok, bad))
    at = len(b"BIOFUSE-CORPUS v2\n") + len(ok) + len(b"recording s")
    with pytest.raises(CorpusFormatError, match=f"^byte {at}: header line is not valid UTF-8$"):
        read_corpus(path)


@pytest.mark.parametrize("header, stream, what", [
    pytest.param(b"recording s00 -3 1\n", b"stream brain 256.0 0 14\n", "event count", id="events"),
    pytest.param(b"recording s00 0 1\n", b"stream brain 256.0 -1 14\n", "row count", id="rows"),
    pytest.param(b"recording s00 0 1\n", b"stream brain 256.0 0 -1\n", "channel count",
                 id="channels"),
])
def test_read_rejects_negative_counts(tmp_path, header, stream, what):
    path = tmp_path / "bad.corpus"
    path.write_bytes(_corpus(_recording(header, b"", [(stream, b"")])))
    at = 18 if what == "event count" else 36
    with pytest.raises(CorpusFormatError,
                       match=f"^byte {at}: {what} must be a non-negative integer, got '-"):
        read_corpus(path)


def test_brain_stream_rejects_nan():
    vals = np.zeros((4, 14))
    vals[1, 3] = np.nan
    with pytest.raises(ValidationError, match="eye streams only"):
        Stream(Modality.BRAIN, 256.0, np.arange(4) / 256.0, vals)


@pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
def test_stream_rate_must_be_positive_and_finite(rate):
    with pytest.raises(ValidationError, match="^nominal_rate_hz must be positive and finite$"):
        Stream(Modality.BRAIN, rate, np.arange(4) / 256.0, np.zeros((4, 14)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["eeg_rate_hz", "eye_rate_hz", "blink_rate_per_min",
                                   "noise_sigma"])
def test_synth_config_rejects_non_finite_values(field, value):
    # each of these used to construct and fail inside generate_synthetic
    with pytest.raises(ValidationError, match=f"{field}.* finite"):
        SynthConfig(n_subjects=2, n_rounds=1, **{field: value})


@pytest.mark.parametrize("rate", [b"nan", b"inf"])
def test_read_rejects_non_finite_rate(tmp_path, rate):
    path = tmp_path / "bad.corpus"
    stream = b"stream brain " + rate + b" 0 14\n"
    path.write_bytes(_corpus(_recording(b"recording s00 0 1\n", b"", [(stream, b"")])))
    with pytest.raises(CorpusFormatError, match="^byte 36: nominal_rate_hz must be positive"):
        read_corpus(path)


def test_stream_channel_count_enforced():
    with pytest.raises(ValidationError):
        Stream(Modality.BRAIN, 256.0, np.arange(4) / 256.0, np.zeros((4, 12)))


def test_event_marker_bounds():
    with pytest.raises(ValidationError):
        EventMarker(t=1.0, round_id=-1, dot_index=0)
    with pytest.raises(ValidationError):
        EventMarker(t=1.0, round_id=0, dot_index=25)


def test_recording_requires_streams():
    with pytest.raises(ValidationError, match="no streams"):
        Recording(subject_id="s00", streams=[], events=[])


def test_read_holds_little_more_than_the_returned_arrays(tmp_path):
    """The reader's peak traced memory stays near the arrays it returns: each
    block is read straight into the array that holds it.  The text reader
    this replaced peaked at about 1.65x them."""
    cfg = SynthConfig(n_subjects=3, n_rounds=2, dots_per_round=10, seed=7)
    path = tmp_path / "c.corpus"
    write_corpus(generate_synthetic(cfg), path)
    tracemalloc.start()
    try:
        recs = read_corpus(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    parsed = sum(s.timestamps.nbytes + s.values.nbytes for r in recs for s in r.streams)
    assert peak <= 1.25 * parsed, f"peak {peak} B for {parsed} B of arrays"


def test_iter_corpus_yields_each_recording_as_it_is_parsed(tmp_path):
    """The first recording arrives before the rest of the file is parsed, and
    a generator dropped mid-file closes its file (a file left open fails the
    suite with a ResourceWarning)."""
    cfg = SynthConfig(n_subjects=3, n_rounds=1, dots_per_round=2,
                      eeg_rate_hz=16.0, eye_rate_hz=12.0, seed=7)
    recs = generate_synthetic(cfg)
    path = tmp_path / "c.corpus"
    write_corpus(recs, path)
    path.write_bytes(path.read_bytes() + b"x")  # an error only the end reveals
    recordings = iter_corpus(path)
    assert corpus_equal([next(recordings)], recs[:1])
    del recordings
    gc.collect()
    with pytest.raises(CorpusFormatError, match="data after the end line"):
        list(iter_corpus(path))


def test_write_corpus_takes_a_one_shot_iterable(tmp_path, small_corpus):
    _, recs = small_corpus
    a, b = tmp_path / "a.corpus", tmp_path / "b.corpus"
    write_corpus(recs, a)
    write_corpus(iter_corpus(a), b)
    assert b.read_bytes() == a.read_bytes()
