import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import biofuse
import biofuse.cli
import biofuse.metrics
from biofuse.cli import main
from biofuse.preprocess import load_dataset
from biofuse.tnn import load_model, save_model


def _write_config(tmp_path, n_subjects=4, epochs=2, folds=2, extra_eval=None, seed=0):
    paths = {
        "corpus": str(tmp_path / "c.corpus"),
        "dataset": str(tmp_path / "d.ds"),
        "model": str(tmp_path / "m.model"),
        "templates": str(tmp_path / "t.tpl"),
        "report": str(tmp_path / "report.json"),
    }
    cfg = {
        "paths": paths,
        "synth": {
            "n_subjects": n_subjects,
            "n_rounds": 2,
            "dots_per_round": 8,
            "subject_separability": 0.8,
            "noise_sigma": 0.5,
            "seed": seed,
        },
        "nan_policy": {"max_nan_fraction": 0.25},
        "train": {"epochs": epochs, "batch_size": 16, "learning_rate": 0.001, "seed": seed},
        "eval": {"scenario": "s2", "modality": "brain", "fusion": "none",
                 "folds": folds, "seed": seed, **(extra_eval or {})},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path, paths


def test_gen_preprocess_evaluate_smoke(tmp_path, capsys):
    config, paths = _write_config(tmp_path, n_subjects=8)
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["preprocess", "--config", str(config), "--modality", "brain"]) == 0
    assert main(["evaluate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "evaluate: wrote" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert "pooled" in report and "folds" in report
    assert (tmp_path / "report.csv").exists()


def test_verify_accept_and_reject(tmp_path, capsys):
    config, paths = _write_config(tmp_path)
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["preprocess", "--config", str(config), "--modality", "brain"]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["enroll", "--config", str(config)]) == 0

    rc = main([
        "verify", "--config", str(config), "--claim", "s00",
        "--sample", paths["dataset"], "--threshold", "-0.5",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ACCEPT" in out  # the sample is enrolled, so its best match scores 0

    rc = main([
        "verify", "--config", str(config), "--claim", "s00",
        "--sample", paths["dataset"], "--threshold", "0.5",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "REJECT" in out  # similarity scores never exceed 0


@pytest.fixture(scope="module")
def enrolled(tmp_path_factory):
    """A trained brain model with every dataset sample enrolled."""
    tmp_path = tmp_path_factory.mktemp("enrolled")
    config, paths = _write_config(tmp_path)
    for command in ("gen", "preprocess", "train", "enroll"):
        assert main([command, "--config", str(config)]) == 0
    argv = ["verify", "--config", str(config), "--claim", "s00",
            "--sample", paths["dataset"], "--threshold", "-0.5"]
    return argv, len(load_dataset(paths["dataset"])[0])


def test_verify_decides_under_s2_and_rejects_scenario_flag(enrolled, capsys):
    argv, _ = enrolled
    assert main(argv) == 0
    assert "scenario=s2" in capsys.readouterr().out
    assert main(argv + ["--scenario", "s1"]) == 1
    assert "--scenario" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["negative", "past-end"])
def test_verify_rejects_index_out_of_range(enrolled, capsys, where):
    argv, n = enrolled
    index = -1 if where == "negative" else n
    assert main(argv + ["--index", str(index)]) == 1
    assert "--index" in capsys.readouterr().err
    assert main(argv + ["--index", str(n - 1)]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_threshold(enrolled, capsys, value):
    argv, _ = enrolled
    assert main(argv + [f"--threshold={value}"]) == 1
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "ACCEPT" not in captured.out and "REJECT" not in captured.out


def test_enroll_rejects_unknown_subjects(enrolled, tmp_path, capsys):
    argv, _ = enrolled
    config = argv[argv.index("--config") + 1]
    out = tmp_path / "t.tpl"
    assert main(["enroll", "--config", config, "--out", str(out),
                 "--subjects", "s00,s99,s98"]) == 1
    assert "s98, s99" in capsys.readouterr().err
    assert not out.exists()
    assert main(["enroll", "--config", config, "--out", str(out), "--subjects", "s00"]) == 0
    assert "1 identities" in capsys.readouterr().out


def _break_standardizer(stds, case):
    if case == "missing-mean":
        del stds["brain"]["mean"]
    elif case == "unknown-modality":
        stds["ecg"] = stds.pop("brain")
    elif case == "one-element-mean":
        stds["brain"]["mean"] = stds["brain"]["mean"][:1]
    else:
        stds["brain"]["std"][3] = 0.0


@pytest.mark.parametrize("case, names", [
    ("missing-mean", ("brain", "'mean'")),
    ("unknown-modality", ("'ecg'",)),
    ("one-element-mean", ("brain", "'mean'")),
    ("non-positive-std", ("brain", "'std'")),
])
def test_malformed_standardizer_exits_2(enrolled, tmp_path, capsys, case, names):
    argv, _ = enrolled
    config = argv[argv.index("--config") + 1]
    model = load_model(json.loads(Path(config).read_text())["paths"]["model"])
    _break_standardizer(model.provenance["standardizers"], case)
    bad = tmp_path / "bad.model"
    save_model(model, bad)
    out = tmp_path / "bad.tpl"
    sample = argv[argv.index("--sample") + 1]
    assert main(["enroll", "--config", config, "--model", str(bad), "--dataset", sample,
                 "--out", str(out)]) == 2
    assert main(argv + ["--model", str(bad)]) == 2
    for err in capsys.readouterr().err.strip().split("\n"):
        assert err.startswith("biofuse: runtime error: model standardizer")
        assert all(name in err for name in names)
    assert not out.exists()

def test_missing_config_exits_1(tmp_path, capsys):
    rc = main(["gen", "--config", str(tmp_path / "missing.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "missing.json" in err


def test_unknown_flag_exits_1(capsys):
    rc = main(["gen", "--config", "x.json", "--frobnicate"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "usage" in err.lower()


def test_unknown_command_exits_1(capsys):
    rc = main(["explode"])
    assert rc == 1


def test_bad_config_schema_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"paths": {}, "mystery": {}}))
    rc = main(["gen", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "mystery" in err


@pytest.mark.parametrize("section, key, value", [
    ("train", "epochs", 1.5),
    ("train", "batch_size", 16.0),
    ("synth", "n_subjects", 4.0),
    ("synth", "seed", False),
    ("nan_policy", "max_nan_fraction", True),
    ("eval", "raw_fusion", "false"),
    ("eval", "folds", "2"),
    ("eval", "seed", True),
])
def test_config_value_of_wrong_json_type_exits_1(tmp_path, capsys, section, key, value):
    config, _ = _write_config(tmp_path, n_subjects=2)
    cfg = json.loads(config.read_text())
    cfg[section][key] = value
    config.write_text(json.dumps(cfg))
    assert main(["gen", "--config", str(config)]) == 1
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "c.corpus").exists()


def test_config_takes_json_integer_for_float_key(tmp_path):
    config, _ = _write_config(tmp_path, n_subjects=2)
    cfg = json.loads(config.read_text())
    cfg["synth"]["noise_sigma"] = 1
    config.write_text(json.dumps(cfg))
    assert main(["gen", "--config", str(config)]) == 0


def test_duplicate_paths_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "paths": {"corpus": "same", "dataset": "same"},
        "synth": {"n_subjects": 2, "n_rounds": 1},
    }))
    rc = main(["gen", "--config", str(path)])
    assert rc == 1
    assert "distinct" in capsys.readouterr().err


def test_stage_reruns_are_idempotent(tmp_path):
    config, paths = _write_config(tmp_path, n_subjects=4)
    assert main(["gen", "--config", str(config)]) == 0
    corpus = (tmp_path / "c.corpus").read_bytes()
    assert main(["gen", "--config", str(config)]) == 0
    assert (tmp_path / "c.corpus").read_bytes() == corpus

    assert main(["preprocess", "--config", str(config), "--modality", "brain"]) == 0
    dataset = (tmp_path / "d.ds").read_bytes()
    assert main(["train", "--config", str(config)]) == 0
    model = (tmp_path / "m.model").read_bytes()
    assert main(["preprocess", "--config", str(config), "--modality", "brain"]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert (tmp_path / "d.ds").read_bytes() == dataset
    assert (tmp_path / "m.model").read_bytes() == model


def test_seed_flag_changes_artifacts(tmp_path):
    config, paths = _write_config(tmp_path, n_subjects=2)
    assert main(["gen", "--config", str(config)]) == 0
    base = (tmp_path / "c.corpus").read_bytes()
    assert main(["gen", "--config", str(config), "--seed", "99"]) == 0
    assert (tmp_path / "c.corpus").read_bytes() != base
    assert main(["gen", "--config", str(config)]) == 0
    assert (tmp_path / "c.corpus").read_bytes() == base


def test_deterministic_knob_is_rejected(tmp_path, capsys):
    config, paths = _write_config(tmp_path, n_subjects=2)
    assert main(["gen", "--config", str(config), "--deterministic"]) == 1
    config, paths = _write_config(tmp_path, n_subjects=2, extra_eval={"deterministic": True})
    assert main(["gen", "--config", str(config)]) == 1
    assert "deterministic" in capsys.readouterr().err


def test_preprocess_modality_flag_ignores_fusion_config(tmp_path):
    config, paths = _write_config(
        tmp_path, n_subjects=4,
        extra_eval={"modality": "eye-pupil", "fusion": "mean"},
    )
    assert main(["gen", "--config", str(config)]) == 0
    # brain dataset extraction must not collide with the score-fusion eval config
    assert main(["preprocess", "--config", str(config), "--modality", "brain"]) == 0


def test_feature_fusion_train_enroll_verify(tmp_path, capsys):
    config, paths = _write_config(tmp_path, extra_eval={"modality": "fusion-a"})
    brain_ds = str(tmp_path / "brain.ds")
    eye_ds = str(tmp_path / "eye.ds")
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["preprocess", "--config", str(config), "--modality", "brain",
                 "--out", brain_ds]) == 0
    assert main(["preprocess", "--config", str(config), "--modality", "eye-pupil",
                 "--out", eye_ds]) == 0
    assert main(["train", "--config", str(config),
                 "--dataset", brain_ds, "--dataset", eye_ds]) == 0
    assert main(["enroll", "--config", str(config),
                 "--dataset", brain_ds, "--dataset", eye_ds]) == 0
    capsys.readouterr()

    # sample 0 belongs to s00: genuine claim accepts, impostor claim rejects
    argv = ["verify", "--config", str(config), "--sample", brain_ds,
            "--sample", eye_ds, "--threshold", "-0.5"]
    assert main(argv + ["--claim", "s00"]) == 0
    assert "ACCEPT" in capsys.readouterr().out
    assert main(argv + ["--claim", "s01"]) == 0
    assert "REJECT" in capsys.readouterr().out


def test_evaluate_score_fusion(tmp_path):
    config, paths = _write_config(
        tmp_path, n_subjects=6,
        extra_eval={"modality": "eye-pupil", "fusion": "mean", "scenario": "s3"},
    )
    assert main(["gen", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["provenance"]["models_per_fold"] == 2
    assert report["provenance"]["fusion"] == "mean"


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps call arguments on the caller's stack until the call "
           "returns, so the corpus passed to run_experiment lives through training",
)
def test_evaluate_frees_the_corpus_before_training(tmp_path, monkeypatch):
    config, _ = _write_config(tmp_path, epochs=1)
    assert main(["gen", "--config", str(config)]) == 0
    refs = []
    read_corpus, train = biofuse.cli.read_corpus, biofuse.metrics.train

    def reading(path):
        recordings = read_corpus(path)
        refs.extend(weakref.ref(r) for r in recordings)
        return recordings

    live = []

    def training(*args, **kwargs):
        live.append(sum(ref() is not None for ref in refs))
        return train(*args, **kwargs)

    monkeypatch.setattr(biofuse.cli, "read_corpus", reading)
    monkeypatch.setattr(biofuse.metrics, "train", training)
    assert main(["evaluate", "--config", str(config)]) == 0
    assert refs and live == [0, 0]  # no Recording survives to either fold's training


@pytest.mark.parametrize("out,report", [
    ("r.csv", None),
    ("r.json.csv", None),
    (None, "report.csv"),
])
def test_evaluate_report_path_ending_in_csv_exits_1(tmp_path, capsys, out, report):
    """The CSV rows go to the report path with a .csv suffix; a report path
    that already ends in .csv would be overwritten by them.  The clash is
    caught before the (here missing) corpus is read."""
    config, paths = _write_config(tmp_path)
    cfg = json.loads(config.read_text())
    if report is not None:
        cfg["paths"]["report"] = str(tmp_path / report)
        config.write_text(json.dumps(cfg))
    argv = ["evaluate", "--config", str(config)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / (out or report)) in err and "ends in .csv" in err
    assert not Path(paths["corpus"]).exists()
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("argv,copies,clash", [
    (["gen", "--out", "run.json"], {}, "run.json"),
    (["preprocess", "--modality", "brain", "--out", "c.corpus"], {}, "c.corpus"),
    (["preprocess", "--modality", "brain", "--corpus", "x.idx", "--out", "x"],
     {"c.corpus": "x.idx"}, "x.idx"),
    (["preprocess", "--modality", "brain", "--report", "c.corpus"], {}, "c.corpus"),
    (["preprocess", "--modality", "brain", "--report", "run.json"], {}, "run.json"),
    (["train", "--out", "d.ds"], {}, "d.ds"),
    (["train", "--out", "d.ds.idx"], {}, "d.ds.idx"),
    (["enroll", "--out", "m.model"], {}, "m.model"),
    (["enroll", "--out", "d.ds.idx"], {}, "d.ds.idx"),
    (["evaluate", "--out", "c.corpus"], {}, "c.corpus"),
    (["evaluate", "--corpus", "c.csv", "--out", "c.json"], {"c.corpus": "c.csv"}, "c.csv"),
], ids=["gen-config", "preprocess-out", "preprocess-out-index", "preprocess-report",
        "preprocess-report-config", "train-dataset", "train-dataset-index",
        "enroll-model", "enroll-dataset-index", "evaluate-json", "evaluate-csv"])
def test_outputs_never_replace_inputs(enrolled, tmp_path, monkeypatch, capsys, argv, copies,
                                      clash):
    """Each output path, flag or derived (a dataset's .idx, evaluate's .csv),
    is compared with --config, the inputs and the other outputs after
    resolving; a clash exits 1, naming both paths, before any file is read
    or written.  Flag paths are relative here and the config's absolute."""
    config, _ = _write_config(tmp_path)
    source = Path(enrolled[0][2]).parent
    for name in ("c.corpus", "d.ds", "d.ds.idx", "m.model"):
        (tmp_path / name).write_bytes((source / name).read_bytes())
    for src, dst in copies.items():
        (tmp_path / dst).write_bytes((tmp_path / src).read_bytes())
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], "--config", str(config), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "name one file" in err and err.count(clash) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_config_paths_compared_after_resolving(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    cfg = json.loads(config.read_text())
    cfg["paths"]["dataset"] = str(tmp_path / "sub" / ".." / "c.corpus")
    config.write_text(json.dumps(cfg))
    assert main(["gen", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "c.corpus") in err and cfg["paths"]["dataset"] in err
    assert "distinct" in err
    assert list(tmp_path.iterdir()) == [config]


_PIPELINE = """
import sys
from biofuse.cli import main
for argv in (
    ["gen"],
    ["preprocess", "--modality", "brain"],
    ["train"],
    ["enroll"],
    ["evaluate", "--modality", "eye-pupil", "--fusion", "mean", "--scenario", "s3"],
):
    if main(argv[:1] + ["--config", "run.json"] + argv[1:]) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_pipeline_bytes_identical_across_processes(tmp_path):
    """Two fresh interpreters with different hash seeds and one BLAS thread
    write the same bytes at every stage (criterion 7 compares in-process runs)."""
    names = ("c.corpus", "d.ds", "d.ds.idx", "m.model", "t.tpl", "report.json", "report.csv")
    config = json.loads(_write_config(tmp_path, n_subjects=6)[0].read_text())
    config["paths"] = {key: Path(p).name for key, p in config["paths"].items()}
    src = str(Path(biofuse.__file__).parents[1])
    outputs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"hashseed{hash_seed}"
        run_dir.mkdir()
        (run_dir / "run.json").write_text(json.dumps(config))
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        subprocess.run([sys.executable, "-c", _PIPELINE], cwd=run_dir, env=env, check=True,
                       capture_output=True, timeout=300)
        outputs.append({name: (run_dir / name).read_bytes() for name in names})
    for name in names:
        assert outputs[0][name] == outputs[1][name], name
