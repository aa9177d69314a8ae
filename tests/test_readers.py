"""Fuzz the four file readers with truncations and single-byte overwrites.

Every file kind carries CRC32 checksums over all bytes after its magic line,
so every changed or missing byte must raise that reader's own *FormatError;
any other exception (a UnicodeDecodeError, a bare numpy or JSON error) is a
reader bug, and an unchanged file must load.

The streaming corpus readers, `read_corpus` and `list(iter_corpus(path))`,
are also checked against an independent whole-file reader of the same layout
(`oracles.oracle_read_corpus`): on every damaged corpus all three load the
same recordings or raise the same error.
"""

import math
import re
import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biofuse.corpus import (
    Modality,
    SynthConfig,
    generate_synthetic,
    iter_corpus,
    read_corpus,
    write_corpus,
)
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
from oracles import corpus_equal, oracle_read_corpus, reseal

# target -> (file name, its reader, the error the reader raises)
_TARGETS = {
    "corpus": ("c.corpus", read_corpus, CorpusFormatError),
    "dataset": ("d.ds", load_dataset, DatasetFormatError),
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
        changed = bytes(raw) != path.read_bytes()
        path.write_bytes(bytes(raw))
        if changed:
            with pytest.raises(error):
                reader(path)
        else:
            reader(path)


def _deeply_nested(keyword):
    """An edit replacing the JSON of the `keyword` header line by 100 000
    nested arrays, deeper than the JSON decoder's recursion limit."""
    def edit(raw):
        at = raw.index(b"\n" + keyword + b" ") + len(keyword) + 2
        return raw[:at] + b"[" * 100_000 + raw[raw.index(b"\n", at):]
    return edit


@pytest.mark.parametrize("target, keyword, error", [
    ("model", b"arch", "bad arch descriptor"),
    ("model", b"provenance", "bad provenance"),
    ("templates", b"entries", "bad template entries"),
], ids=["model-arch", "model-provenance", "templates"])
def test_deeply_nested_json_raises_format_error(valid_files, tmp_path, target, keyword, error):
    name, reader, format_error = _TARGETS[target]
    path = tmp_path / name
    shutil.copy(valid_files / name, path)
    reseal(path, _deeply_nested(keyword))
    with pytest.raises(format_error, match=error):
        reader(path)


@pytest.mark.parametrize("target, v1, rebuild", [
    ("dataset", b"BIOFUSE-DS v1\nbrain 0 14 102\n", "biofuse preprocess"),
    ("model", b"BIOFUSE-MODEL v1\nARCH {}\nWEIGHTS 0\n\nPROVENANCE {}\n", "biofuse train"),
    ("templates", b'BIOFUSE-TPL v1\n{"dim": 0, "entries": []}\n', "biofuse enroll"),
], ids=["dataset", "model", "templates"])
def test_v1_file_names_v2_and_the_command_that_rebuilds_it(tmp_path, target, v1, rebuild):
    name, reader, error = _TARGETS[target]
    path = tmp_path / name
    path.write_bytes(v1)
    magic = v1[:v1.index(b"\n")].decode()
    with pytest.raises(error, match=f"^byte 0: unsupported .* version '{magic}'") as e:
        reader(path)
    assert f"'{magic[:-1]}2'" in str(e.value) and f"`{rebuild}`" in str(e.value)


def _outcome(reader, path):
    try:
        return reader(path)
    except Exception as e:  # noqa: BLE001 - the outcome under test
        return type(e), str(e)


def _assert_readers_agree(path):
    want = _outcome(oracle_read_corpus, path)
    got = _outcome(read_corpus, path)
    for other in (got, _outcome(lambda p: list(iter_corpus(p)), path)):
        if isinstance(want, list) and isinstance(other, list):
            assert corpus_equal(other, want)
        else:
            assert other == want
    return got


@pytest.fixture(scope="module")
def corpus_bytes(valid_files):
    return (valid_files / "c.corpus").read_bytes()


# header lines of a valid corpus; a corpus this small holds no such bytes by chance
_HEADER_LINE = re.compile(rb"(BIOFUSE-CORPUS v2|recording [^\n]*|stream [^\n]*|end [0-9]+)\n")


@settings(max_examples=300, deadline=None)
@given(
    damage=st.sampled_from(["truncate", "overwrite", "insert"]),
    in_header=st.booleans(),
    where=st.floats(0.0, 1.0, exclude_max=True),
    col=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.sampled_from(b" \t\n\r-0159\x00\xff") | st.integers(0, 255),
    inserted=st.binary(min_size=1, max_size=4),
)
def test_streaming_reader_matches_whole_file_reader(
    corpus_bytes, tmp_path_factory, damage, in_header, where, col, byte, inserted
):
    if in_header:  # a uniformly drawn header line, so header parsing is hit often
        lines = [m.span() for m in _HEADER_LINE.finditer(corpus_bytes)]
        a, b = lines[int(where * len(lines))]
        at = a + int(col * (b - a))
    else:
        at = int(where * len(corpus_bytes))
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


def _recording_spans(raw):
    """(start, end) of each recording's checksummed bytes in a valid corpus."""
    starts = [m.start() for m in re.finditer(rb"recording [^\n]*\n", raw)]
    ends = starts[1:] + [raw.rindex(b"end ")]
    return [(a, b - 4) for a, b in zip(starts, ends)]


def _in_recording(k, *edits):
    """An edit of valid corpus bytes that applies `edits` to recording k's
    bytes and then writes their new checksum, so that the reader meets what
    the edits broke and not a checksum mismatch."""
    def apply(raw):
        a, b = _recording_spans(raw)[k]
        body = raw[a:b]
        for edit in edits:
            body = edit(body)
        return raw[:a] + body + struct.pack("<I", zlib.crc32(body)) + raw[b + 4:]
    return apply


def _sub(old, new):
    return lambda body: body.replace(old, new, 1)


def _with_byte(raw, at, value):
    return raw[:at] + bytes([value]) + raw[at + 1:]


def _block_value(modality, row, col, value):
    """An edit that sets one value of the `modality` block; column 0 is the
    timestamp."""
    def edit(body):
        header = re.search(rb"stream " + modality + rb" [^\n]*\n", body)
        n_cols = 1 + int(header.group().split()[4])
        at = header.end() + 8 * (row * n_cols + col)
        return body[:at] + struct.pack("<d", value) + body[at + 8:]
    return edit


def _in_block(offset, data):
    """An edit that overwrites bytes of the first brain block from `offset` on."""
    def edit(raw):
        at = raw.index(b"stream brain ")
        at = raw.index(b"\n", at) + 1 + offset
        return raw[:at] + data + raw[at + len(data):]
    return edit


# The valid corpus: s00's recording line at byte 18, its brain stream line at
# 60 (block at 84) and eye-pupil line at 7044; s01's recording line at 13060;
# the end line at 26102, 6 bytes before the end of the file.
# name -> (edit of the valid corpus bytes, a pattern of the error message).
# The first names are those of the text format's cases, each given a v2 edit
# of the same kind of damage.
_FIXED = {
    "crlf": (lambda raw: raw.replace(b"\n", b"\r\n"), r"^byte 0: not a corpus file"),
    "cr": (lambda raw: raw.replace(b"\n", b"\r"), r"^byte 0: not a corpus file"),
    "no-final-newline": (lambda raw: raw[:-1],
                         r"^byte 26102: truncated file: expected a header line$"),
    "crlf-no-final-newline": (lambda raw: raw.replace(b"\n", b"\r\n")[:-2],
                              r"^byte 0: not a corpus file"),
    "underscore-token": (_in_recording(0, _sub(b"recording s00 1 ", b"recording s00 0_1 ")),
                         r"^byte 18: event count must be a non-negative integer, got '0_1' "
                         r"\(recording 's00'\)$"),
    # a byte inserted into a block shifts the stream line after it
    "blank-line-in-block": (_in_recording(0, _sub(b" 58 14\n", b" 58 14\n\n")),
                            r"^byte 7044: .*\(recording 's00'\)$"),
    # changed block bytes are caught by the checksum
    "formfeed-in-row": (_in_block(8, b"\x0c"),
                        r"^byte 18: checksum mismatch over bytes 18-13055 \(recording 's00'\)$"),
    "line-separator-in-row": (_in_block(16, "\u2028".encode()),
                              r"^byte 18: checksum mismatch over bytes 18-13055"),
    "next-line-in-row": (_in_block(24, "\x85".encode()),
                         r"^byte 18: checksum mismatch over bytes 18-13055"),
    "column-too-few": (_in_recording(0, _sub(b"16.0 58 14\n", b"16.0 58 13\n")),
                       r"^byte 60: a brain stream has 14 channels \(recording 's00'\)$"),
    "column-too-many": (_in_recording(0, _sub(b"16.0 58 14\n", b"16.0 58 15\n")),
                        r"^byte 60: a brain stream has 14 channels \(recording 's00'\)$"),
    "bad-float": (_in_recording(0, _sub(b"brain 16.0 ", b"brain 16.0x ")),
                  r"^byte 60: bad rate '16.0x' \(recording 's00'\)$"),
    "invalid-utf8-mid-file": (_in_recording(1, _sub(b"recording s01", b"recording s\xff1")),
                              r"^byte 13071: header line is not valid UTF-8$"),
    # the first damage in file order is the one reported
    "bad-float-then-invalid-utf8": (
        lambda raw: _FIXED["invalid-utf8-mid-file"][0](_FIXED["bad-float"][0](raw)),
        r"^byte 60: bad rate '16.0x'"),
    "bad-count": (_in_recording(0, _sub(b"recording s00 1 2", b"recording s00 1 x")),
                  r"^byte 18: stream count must be a non-negative integer, got 'x' "
                  r"\(recording 's00'\)$"),
    "negative-count": (_in_recording(0, _sub(b"brain 16.0 58 ", b"brain 16.0 -58 ")),
                       r"^byte 60: row count must be a non-negative integer, got '-58'"),
    # a damaged count fails before anything is allocated
    "huge-count": (_in_recording(0, _sub(b"brain 16.0 58 ", b"brain 16.0 99999999999999999 ")),
                   r"^byte 99: truncated stream block: 11999999999999999880 bytes declared, "
                   r"26024 left \(recording 's00'\)$"),
    "unknown-modality": (_in_recording(0, _sub(b"stream brain ", b"stream brainz ")),
                         r"^byte 60: unknown modality 'brainz' \(recording 's00'\)$"),
    "truncated-block": (lambda raw: raw[:100],
                        r"^byte 84: truncated stream block: 6960 bytes declared, 16 left"),
    "truncated-checksum": (lambda raw: raw[:26100],
                           r"^byte 26098: truncated file: expected the recording checksum "
                           r"\(recording 's01'\)$"),
    "checksum-mismatch": (lambda raw: _with_byte(raw, 24000, raw[24000] ^ 1),
                          r"^byte 13060: checksum mismatch over bytes 13060-26097 "
                          r"\(recording 's01'\)$"),
    "backwards-timestamps": (_in_recording(0, _block_value(b"brain", 1, 0, -1.0)),
                             r"^byte 60: timestamps must be strictly increasing "
                             r"\(recording 's00'\)$"),
    "nan-in-brain": (_in_recording(0, _block_value(b"brain", 2, 3, math.nan)),
                     r"^byte 60: NaN values are allowed in eye streams only"),
    "nan-rate": (_in_recording(0, _sub(b"brain 16.0 ", b"brain nan ")),
                 r"^byte 60: nominal_rate_hz must be positive and finite \(recording 's00'\)$"),
    "inf-rate": (_in_recording(0, _sub(b"brain 16.0 ", b"brain inf ")),
                 r"^byte 60: nominal_rate_hz must be positive and finite \(recording 's00'\)$"),
    "no-streams": (_in_recording(0, lambda body: b"recording s00 1 0\n" + body[18:42]),
                   r"^byte 18: recording has no streams \(recording 's00'\)$"),
    "duplicate-id": (_in_recording(1, _sub(b"recording s01", b"recording s00")),
                     r"^byte 13060: duplicate subject id \(recording 's00'\)$"),
    "end-count": (lambda raw: raw.replace(b"end 2\n", b"end 3\n"),
                  r"^byte 26102: end line counts 3 recordings, the file holds 2$"),
    "data-after-end": (lambda raw: raw + b"\n",
                       r"^byte 26108: data after the end line$"),
}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_streaming_reader_fixed_cases(corpus_bytes, tmp_path, name):
    edit, error = _FIXED[name]
    path = tmp_path / "c.corpus"
    path.write_bytes(edit(corpus_bytes))
    got = _assert_readers_agree(path)
    assert not isinstance(got, list), "the damaged corpus loaded"
    assert issubclass(got[0], CorpusFormatError)
    assert re.search(error, got[1]), got[1]
