import gc
import os
import subprocess
import sys
import textwrap
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_iter_corpus_yields_each_recording_as_it_is_parsed(tmp_path):
    """The first recording arrives before the rest of the file is parsed, and
    a generator dropped mid-file closes its file (a file left open fails the
    suite with a ResourceWarning)."""
    cfg = SynthConfig(n_subjects=3, n_rounds=1, dots_per_round=2,
                      eeg_rate_hz=16.0, eye_rate_hz=12.0, seed=7)
    recs = generate_synthetic(cfg)
    path = tmp_path / "c.corpus"
    write_corpus(recs, path)
    path.write_text(path.read_text() + "not a recording line\n")  # an error only the end reveals
    recordings = iter_corpus(path)
    assert corpus_equal([next(recordings)], recs[:1])
    del recordings
    gc.collect()
    with pytest.raises(CorpusFormatError, match="expected 'recording <id>'"):
        list(iter_corpus(path))


# ---------------------------------------------------------------------------
# Writing shared over helper processes


@pytest.fixture
def helpers(monkeypatch):
    """A helper for every recording; returns (set the CPU count, the helpers started)."""
    monkeypatch.setattr(corpus, "_MIN_SHARE_EVENTS", 1)
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)

    def set_cpus(n):
        monkeypatch.setattr(corpus, "_usable_cpus", lambda: n)

    return set_cpus, started


_SHARED_CFG = SynthConfig(n_subjects=4, n_rounds=1, dots_per_round=3, blink_rate_per_min=30.0,
                          seed=5)


def test_shared_writing_is_bit_identical(tmp_path, helpers):
    set_cpus, started = helpers
    recs = generate_synthetic(_SHARED_CFG)
    set_cpus(1)
    write_corpus(recs, tmp_path / "1.corpus")
    assert not started
    text = (tmp_path / "1.corpus").read_bytes()
    assert b"nan" in text
    for n in (2, 3):
        set_cpus(n)
        write_corpus(recs, tmp_path / f"{n}.corpus")
        assert len(started) == n - 1
        assert all(p.returncode == 0 for p in started)
        assert (tmp_path / f"{n}.corpus").read_bytes() == text
        started.clear()


def test_helper_count_is_bounded_by_share_size(tmp_path, helpers, monkeypatch):
    set_cpus, started = helpers
    recs = generate_synthetic(_SHARED_CFG)  # 4 recordings of 3 events
    set_cpus(8)
    monkeypatch.setattr(corpus, "_MIN_SHARE_EVENTS", 6)
    write_corpus(recs, tmp_path / "c.corpus")
    assert len(started) == 1  # two shares of 6 events
    started.clear()
    monkeypatch.setattr(corpus, "_MIN_SHARE_EVENTS", 7)
    write_corpus(recs, tmp_path / "c.corpus")
    assert not started


def _raises_in_a_helper(tmp_path, recs, bad, set_cpus, started, error):
    """Write `recs` then `bad` in one process and with one helper, which
    formats `bad`; return both errors."""
    corpus_path = tmp_path / "c.corpus"
    corpus_path.write_text("old")
    set_cpus(1)
    with pytest.raises(error) as in_process:
        write_corpus([*recs, bad], corpus_path)
    assert not started
    set_cpus(2)
    with pytest.raises(error) as shared:
        write_corpus([*recs, bad], corpus_path)
    assert len(started) == 1
    assert started[0].returncode not in (None, 0)  # the helper failed too
    assert sorted(os.listdir(tmp_path)) == ["c.corpus"]
    assert corpus_path.read_text() == "old"
    return in_process.value, shared.value


def test_helper_error_reaches_the_caller(tmp_path, small_corpus, helpers):
    set_cpus, started = helpers
    _, recs = small_corpus
    bad = Recording("bad", [Stream(Modality.BRAIN, 256.0, np.arange(2.0), np.zeros((2, 14)))], [])
    bad.streams[0].values = np.zeros(3)  # formatting it fails: not [n x c]
    in_process, shared = _raises_in_a_helper(tmp_path, recs, bad, set_cpus, started, ValueError)
    assert str(shared) == str(in_process)
    # raised by this process's own formatting: one traceback, to the line
    assert shared.__traceback__ is not None
    frames = [f.name for f in traceback.extract_tb(shared.__traceback__)]
    assert frames[-1] == "_format_recording"
    assert shared.__cause__ is None and shared.__context__ is None


class KeywordOnlyError(Exception):
    """An exception that cannot be rebuilt from its `args`."""

    def __init__(self, *, code):
        super().__init__(f"code {code}")
        self.code = code


class _UnformattableId(str):
    def __format__(self, spec):
        raise KeywordOnlyError(code=7)


def test_helper_error_of_any_signature_reaches_the_caller(tmp_path, small_corpus, helpers):
    set_cpus, started = helpers
    _, recs = small_corpus
    bad = Recording("bad", [Stream(Modality.BRAIN, 256.0, np.arange(2.0), np.zeros((2, 14)))], [])
    bad.subject_id = _UnformattableId("bad")
    in_process, shared = _raises_in_a_helper(
        tmp_path, recs, bad, set_cpus, started, KeywordOnlyError
    )
    assert shared.code == in_process.code == 7
    assert str(shared) == "code 7"


def test_helper_that_cannot_start_leaves_its_share_to_the_caller(tmp_path, helpers,
                                                                 monkeypatch):
    set_cpus, started = helpers
    recs = generate_synthetic(_SHARED_CFG)
    set_cpus(1)
    write_corpus(recs, tmp_path / "a.corpus")
    failing = tmp_path / "fail.sh"
    failing.write_text("#!/bin/sh\nexit 3\n")
    failing.chmod(0o755)
    monkeypatch.setattr(sys, "executable", str(failing))
    set_cpus(2)
    write_corpus(recs, tmp_path / "b.corpus")
    assert [p.returncode for p in started] == [3]
    assert (tmp_path / "b.corpus").read_bytes() == (tmp_path / "a.corpus").read_bytes()


def test_no_helper_outlives_a_call(tmp_path, helpers):
    set_cpus, started = helpers
    set_cpus(3)
    recs = generate_synthetic(_SHARED_CFG)
    write_corpus(recs, tmp_path / "c.corpus")
    assert len(started) == 2
    assert all(p.returncode == 0 for p in started)

    # the caller stops drawing texts while the helpers still run
    started.clear()
    texts = corpus._formatted(recs)
    next(texts)
    texts.close()
    assert len(started) == 2
    assert all(p.returncode is not None for p in started)


def test_write_corpus_takes_a_one_shot_iterable(tmp_path, small_corpus):
    _, recs = small_corpus
    a, b = tmp_path / "a.corpus", tmp_path / "b.corpus"
    write_corpus(recs, a)
    write_corpus(iter_corpus(a), b)
    assert b.read_bytes() == a.read_bytes()


def test_script_without_main_guard_uses_helpers(tmp_path):
    """Helpers start a fresh interpreter on `biofuse.corpus` alone, so a
    caller's unguarded top level is not run again in them (multiprocessing's
    spawn and forkserver would re-run it)."""
    script = tmp_path / "make.py"
    script.write_text(textwrap.dedent(f"""
        import sys
        from biofuse import corpus
        from biofuse.corpus import SynthConfig
        corpus._MIN_SHARE_EVENTS = 1
        corpus._usable_cpus = lambda: 2
        cfg = {_SHARED_CFG!r}
        corpus.write_corpus(corpus.generate_synthetic(cfg), sys.argv[1])
        print("top level ran")
    """))
    env = dict(os.environ, PYTHONPATH=str(Path(corpus.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(script), str(tmp_path / "s.corpus")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "top level ran\n"
    write_corpus(generate_synthetic(_SHARED_CFG), tmp_path / "p.corpus")
    assert (tmp_path / "s.corpus").read_bytes() == (tmp_path / "p.corpus").read_bytes()
