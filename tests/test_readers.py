"""Fuzz the four file readers with truncations and single-byte overwrites.

Every damaged file must either load or raise that reader's own *FormatError;
any other exception (a UnicodeDecodeError, a bare numpy or JSON error) is a
reader bug.  The formats carry no checksum, so a flip inside a float payload
may load silently, which is allowed here.

The streaming corpus reader is also checked against the whole-file reader it
replaced (`oracles.oracle_read_corpus`): on every damaged or oddly formatted
corpus both load the same recordings or raise the same error.
"""

import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.corpus import Modality, SynthConfig, generate_synthetic, read_corpus, write_corpus
from biofuse.errors import (
    CorpusFormatError,
    DatasetFormatError,
    ModelFormatError,
    TemplateFormatError,
)
from biofuse.preprocess import GRID_POINTS, Sample, load_dataset, save_dataset
from biofuse.tnn import ArchKind, EmbeddingModel, load_model, save_model
from biofuse.tnn.arch import ArchSpec, ConvSpec, DenseSpec, PoolSpec
from biofuse.verify import Template, TemplateStore, load_templates, save_templates
from oracles import corpus_equal, oracle_read_corpus

# target -> (file the damage goes into, reader called on the main file, its error)
_TARGETS = {
    "corpus": ("c.corpus", read_corpus, CorpusFormatError),
    "dataset": ("d.ds", load_dataset, DatasetFormatError),
    "sidecar": ("d.ds.idx", load_dataset, DatasetFormatError),
    "model": ("m.model", load_model, ModelFormatError),
    "templates": ("t.tpl", load_templates, TemplateFormatError),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per reader, all in one directory."""
    root = tmp_path_factory.mktemp("readers")
    cfg = SynthConfig(n_subjects=2, n_rounds=1, dots_per_round=1,
                      eeg_rate_hz=16.0, eye_rate_hz=12.0, seed=3)
    write_corpus(generate_synthetic(cfg), root / "c.corpus")
    rng = np.random.default_rng(0)
    samples = [
        Sample(subject_id=f"s{k}", round_id=k, modality=Modality.EYE,
               data=rng.standard_normal((12, GRID_POINTS)).astype(np.float32), t0=0.25 * k)
        for k in range(3)
    ]
    save_dataset(samples, root / "d.ds")
    arch = ArchSpec(kind=ArchKind.SINGLE, input_channels=(2,), input_points=8,
                    branch_layers=((ConvSpec(kernel=3, filters=2), PoolSpec(width=2),
                                    DenseSpec(width=32)),))
    save_model(EmbeddingModel(arch, seed=1, provenance={"fold_id": "f0"}), root / "m.model")
    store = TemplateStore()
    for k in range(3):
        store.enroll(Template(identity=f"s{k % 2}", vector=rng.standard_normal(4),
                              round_id=k, tag="single"))
    save_templates(store, root / "t.tpl")
    return root


@settings(max_examples=300, deadline=None)
@given(
    target=st.sampled_from(sorted(_TARGETS)),
    truncate=st.booleans(),
    where=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.integers(0, 255),
)
def test_damaged_file_loads_or_raises_format_error(valid_files, target, truncate, where, byte):
    name, reader, error = _TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        for f in valid_files.iterdir():
            shutil.copy(f, tmp)
        path = Path(tmp) / name
        raw = bytearray(path.read_bytes())
        at = int(where * len(raw))
        if truncate:
            del raw[at:]
        else:
            raw[at] = byte
        path.write_bytes(bytes(raw))
        try:
            reader(Path(tmp) / name.removesuffix(".idx"))
        except error:
            pass


def _outcome(reader, path):
    try:
        return reader(path)
    except Exception as e:  # noqa: BLE001 - the outcome under test
        return type(e), str(e)


def _assert_readers_agree(path):
    got, want = _outcome(read_corpus, path), _outcome(oracle_read_corpus, path)
    if isinstance(want, list) and isinstance(got, list):
        assert corpus_equal(got, want)
    else:
        assert got == want
    return got


@pytest.fixture(scope="module")
def corpus_bytes(valid_files):
    return (valid_files / "c.corpus").read_bytes()


@settings(max_examples=300, deadline=None)
@given(
    damage=st.sampled_from(["truncate", "overwrite", "insert"]),
    line=st.floats(0.0, 1.0, exclude_max=True),
    col=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.sampled_from(b" \t\n\r\x0b\x0c_-+.0159eEnN\xff") | st.integers(0, 255),
    inserted=st.binary(min_size=1, max_size=4)
    | st.text("0123456789 \t\n\r\x0c_-.e", min_size=1, max_size=4).map(str.encode),
)
def test_streaming_reader_matches_whole_file_reader(
    corpus_bytes, tmp_path_factory, damage, line, col, byte, inserted
):
    # the damage lands on a uniformly drawn line, so header lines are hit too
    lines = corpus_bytes.splitlines(keepends=True)
    k = int(line * len(lines))
    at = sum(map(len, lines[:k])) + int(col * len(lines[k]))
    raw = bytearray(corpus_bytes)
    if damage == "truncate":
        del raw[at:]
    elif damage == "overwrite":
        raw[at] = byte
    else:
        raw[at:at] = inserted
    path = tmp_path_factory.mktemp("diff") / "c.corpus"
    path.write_bytes(bytes(raw))
    _assert_readers_agree(path)


def _edit_row(edit):
    """An edit of corpus bytes that applies `edit` to the second row of the
    first stream block, which is file line 7."""
    def apply(raw):
        lines = raw.split(b"\n")
        k = next(i for i, ln in enumerate(lines) if ln.startswith(b"stream ")) + 2
        lines[k] = edit(lines[k])
        return b"\n".join(lines)
    return apply


def _with_byte(raw, at, value):
    return raw[:at] + bytes([value]) + raw[at + 1:]


def _first_value(token):
    """A row edit that replaces the row's first value (its second column) with `token`."""
    def edit(row):
        t, _, *rest = row.split(b" ")
        return b" ".join([t, token, *rest])
    return edit


# name -> (edit of the valid corpus bytes, None if the result loads, else a
# pattern of the error message)
_FIXED = {
    "crlf": (lambda raw: raw.replace(b"\n", b"\r\n"), None),
    "cr": (lambda raw: raw.replace(b"\n", b"\r"), None),
    "no-final-newline": (lambda raw: raw[:-1], None),
    "crlf-no-final-newline": (lambda raw: raw.replace(b"\n", b"\r\n")[:-2], None),
    "underscore-token": (_edit_row(_first_value(b"1_000")), None),
    "blank-line-in-block": (_edit_row(lambda row: b"\n" + row),
                            "^line 7: expected 15 columns, got 0$"),
    "formfeed-in-row": (_edit_row(lambda row: row.replace(b" ", b"\x0c", 1)),
                        "^line 7: expected 15 columns, got 1$"),
    "line-separator-in-row": (_edit_row(lambda row: row.replace(b" ", "\u2028".encode(), 1)),
                              "^line 7: expected 15 columns, got 1$"),
    "next-line-in-row": (_edit_row(lambda row: row.replace(b" ", "\x85".encode(), 1)),
                         "^line 7: expected 15 columns, got 1$"),
    "column-too-few": (_edit_row(lambda row: row.rsplit(b" ", 1)[0]),
                       "^line 7: expected 15 columns, got 14$"),
    "column-too-many": (_edit_row(lambda row: row + b" 0.5"),
                        "^line 7: expected 15 columns, got 16$"),
    "bad-float": (_edit_row(_first_value(b"0.5x")), "^line 7: bad float '0.5x'$"),
    "invalid-utf8-mid-file": (lambda raw: _with_byte(raw, len(raw) // 2, 0xFF),
                              r": line \d+, byte \d+: not valid UTF-8$"),
    # the whole-file reader decoded everything before parsing anything
    "bad-float-then-invalid-utf8": (
        lambda raw: _with_byte(_edit_row(_first_value(b"x"))(raw), len(raw) - 2, 0xFF),
        r": line \d+, byte \d+: not valid UTF-8$"),
}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_streaming_reader_fixed_cases(corpus_bytes, tmp_path, name):
    edit, error = _FIXED[name]
    path = tmp_path / "c.corpus"
    path.write_bytes(edit(corpus_bytes))
    got = _assert_readers_agree(path)
    if error is None:
        assert isinstance(got, list), got
    else:
        assert got[0] is CorpusFormatError
        assert re.search(error, got[1]), got[1]
