"""Artifact writers replace their files atomically: a writer that fails midway
leaves every previous file byte-identical and no temp file behind."""

import json
import os
import stat

import pytest

from biofuse import cli, corpus
from biofuse.corpus import Modality, atomic_write, write_corpus
from biofuse.preprocess import build_dataset, save_dataset


class _Boom(Exception):
    pass


def _raise_on_call(fn, n):
    """`fn`, except that its n-th call raises."""
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] == n:
            raise _Boom(f"call {n}")
        return fn(*args, **kwargs)

    return wrapper


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_failed_block_keeps_old_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(_Boom):
        with atomic_write(path, "w", encoding="utf-8") as f:
            f.write("new\n")
            raise _Boom
    assert _snapshot(tmp_path) == {"a.txt": b"old\n"}
    with atomic_write(path, "w", encoding="utf-8") as f:
        f.write("new\n")
    assert _snapshot(tmp_path) == {"a.txt": b"new\n"}


def test_new_file_mode_matches_plain_open(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    with atomic_write(tmp_path / "atomic", "w"):
        pass
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain", "atomic")]
    assert modes[0] == modes[1]


def test_corpus_writer_failing_midway(tmp_path, small_corpus, monkeypatch):
    _, recordings = small_corpus
    path = tmp_path / "c.corpus"
    write_corpus(recordings, path)
    before = _snapshot(tmp_path)
    monkeypatch.setattr(corpus, "_fmt", _raise_on_call(corpus._fmt, 50))
    with pytest.raises(_Boom):
        write_corpus(recordings[::-1], path)
    assert _snapshot(tmp_path) == before


def test_dataset_writer_failing_midway(tmp_path, small_corpus):
    _, recordings = small_corpus
    samples, _ = build_dataset(recordings, Modality.BRAIN)
    path = tmp_path / "d.ds"
    save_dataset(samples, path)
    before = _snapshot(tmp_path)
    assert sorted(before) == ["d.ds", "d.ds.idx"]

    class BadFloat:
        def __float__(self):
            raise _Boom

    samples = samples[::-1]
    samples[3].t0 = BadFloat()  # the sidecar's fourth row fails
    with pytest.raises(_Boom):
        save_dataset(samples, path)
    assert _snapshot(tmp_path) == before


def test_evaluate_report_failing_midway(tmp_path, monkeypatch):
    class Report:
        pooled = {"eer": 0.0}

        def to_json(self):
            return json.dumps({"new": True})

        def to_rows(self):
            yield ("config", "eer", "0.0")
            raise _Boom

    config = tmp_path / "run.json"
    paths = {"corpus": "unused", "report": str(tmp_path / "r.json")}
    config.write_text(json.dumps({"paths": paths}))
    (tmp_path / "r.json").write_text("old json")
    (tmp_path / "r.csv").write_text("old csv")
    before = _snapshot(tmp_path)
    monkeypatch.setattr(cli, "read_corpus", lambda path: [])
    monkeypatch.setattr(cli, "run_experiment", lambda recordings, config: Report())
    with pytest.raises(_Boom):
        cli.main(["evaluate", "--config", str(config)])
    assert _snapshot(tmp_path) == before
