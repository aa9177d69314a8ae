import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.corpus import (
    EventMarker,
    Modality,
    Recording,
    Stream,
    SynthConfig,
    generate_synthetic,
    read_corpus,
    write_corpus,
)
from biofuse.errors import CorpusFormatError, CorpusVersionError, ValidationError
from oracles import corpus_equal


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


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_version_mismatch(tmp_path):
    path = tmp_path / "bad.corpus"
    _write_lines(path, ["BIOFUSE-CORPUS v2", "recording s00"])
    with pytest.raises(CorpusVersionError):
        read_corpus(path)


def test_read_not_a_corpus(tmp_path):
    path = tmp_path / "bad.corpus"
    _write_lines(path, ["hello"])
    with pytest.raises(CorpusFormatError):
        read_corpus(path)


def test_read_rejects_negative_timestamp_gap(tmp_path):
    path = tmp_path / "bad.corpus"
    row = " ".join(["0.0"] * 14)
    _write_lines(path, [
        "BIOFUSE-CORPUS v1",
        "recording s00",
        "events 0",
        "stream brain 256.0 2 14",
        "0.5 " + row,
        "0.25 " + row,  # goes backwards
    ])
    with pytest.raises(CorpusFormatError, match="increasing"):
        read_corpus(path)


def test_read_rejects_empty_stream_list(tmp_path):
    path = tmp_path / "bad.corpus"
    _write_lines(path, ["BIOFUSE-CORPUS v1", "recording s00", "events 0"])
    with pytest.raises(CorpusFormatError, match="no streams"):
        read_corpus(path)


def test_read_names_bad_line(tmp_path):
    path = tmp_path / "bad.corpus"
    row = " ".join(["0.0"] * 14)
    _write_lines(path, [
        "BIOFUSE-CORPUS v1",
        "recording s00",
        "events 0",
        "stream brain 256.0 1 14",
        "0.0 " + " ".join(["0.0"] * 13) + " oops",
    ])
    with pytest.raises(CorpusFormatError, match="line 5"):
        read_corpus(path)


@pytest.mark.parametrize("events, header", [
    pytest.param("events -3", "stream brain 256.0 1 14", id="events"),
    pytest.param("events 0", "stream brain 256.0 -1 14", id="rows"),
    pytest.param("events 0", "stream brain 256.0 1 -1", id="channels"),
])
def test_read_rejects_negative_counts(tmp_path, events, header):
    path = tmp_path / "bad.corpus"
    bad_line = 3 if events.startswith("events -") else 4
    _write_lines(path, [
        "BIOFUSE-CORPUS v1", "recording s00", events, header, " ".join(["0.0"] * 15),
    ])
    with pytest.raises(CorpusFormatError, match=f"line {bad_line}: negative count"):
        read_corpus(path)


def test_brain_stream_rejects_nan():
    vals = np.zeros((4, 14))
    vals[1, 3] = np.nan
    with pytest.raises(ValidationError, match="eye streams only"):
        Stream(Modality.BRAIN, 256.0, np.arange(4) / 256.0, vals)


def test_stream_channel_count_enforced():
    with pytest.raises(ValidationError):
        Stream(Modality.BRAIN, 256.0, np.arange(4) / 256.0, np.zeros((4, 12)))


def test_event_marker_bounds():
    with pytest.raises(ValidationError):
        EventMarker(t=1.0, round_id=-1, dot_index=0)
    with pytest.raises(ValidationError):
        EventMarker(t=1.0, round_id=0, dot_index=25)
    with pytest.raises(ValidationError):
        EventMarker(t=1.0, round_id=0, dot_index=0, kind="Blink")


def test_recording_requires_streams():
    with pytest.raises(ValidationError, match="no streams"):
        Recording(subject_id="s00", streams=[], events=[])


def test_read_holds_one_stream_block_of_text(tmp_path):
    """The reader's peak traced memory stays near the arrays it returns.
    The whole-file reader peaked at about 7x them (the full text plus one
    token list per row); one block of text at a time stays well under 3x."""
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
    assert peak <= 3 * parsed, f"peak {peak} B for {parsed} B of arrays"
