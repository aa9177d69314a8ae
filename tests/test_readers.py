"""Fuzz the four file readers with truncations and single-byte overwrites.

Every damaged file must either load or raise that reader's own *FormatError;
any other exception (a UnicodeDecodeError, a bare numpy or JSON error) is a
reader bug.  The formats carry no checksum, so a flip inside a float payload
may load silently, which is allowed here.
"""

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
