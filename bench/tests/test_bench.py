"""Tests of the benchmark itself: output schema, checks and the span recorder.

    python3 -m pytest bench/tests -q

The workload runs use --smoke (4 subjects, one epoch), so the whole file
takes well under a minute.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_prints_checked_result(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if trace == "0":
            assert value["value"] > 0
    assert "environment " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    proc = run_bench(tmp_path, "--workload", "battery", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_declared_names_match_the_code():
    run = importlib.import_module("run")
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == \
        spans.LAYER_METRICS


def test_reduce_takes_self_time_and_skips_nested_same_label():
    rec = spans.Recorder()
    rec.spans.extend([
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 2.0, 3.0, 1],   # nested call of the same label
        ["other", 5.0, 7.0, 0],
    ])
    raw = rec.reduce()
    assert raw["outer.s"] == 10.0 and raw["outer.self_s"] == 5.0
    assert raw["inner.s"] == 3.0 and raw["inner.n"] == 1
    assert raw["inner.self_s"] == 3.0
    assert raw["other.n"] == 1 and not rec.spans


def test_installed_wraps_every_reference_and_restores_it():
    import biofuse.cli
    import biofuse.metrics
    import biofuse.tnn

    train_mod = importlib.import_module("biofuse.tnn.train")
    original = train_mod.train
    rec = spans.Recorder()
    with spans.Installed(rec):
        assert biofuse.metrics.train is biofuse.cli.train is biofuse.tnn.train
        assert biofuse.metrics.train is not original
        assert train_mod.forward_batch.__wrapped__ is not None
    assert biofuse.metrics.train is original and biofuse.tnn.train is original
    assert not hasattr(train_mod.forward_batch, "__wrapped__")


def test_expected_trial_counts_match_the_declared_s1_fold():
    workloads = importlib.import_module("workloads")
    from biofuse.corpus import Modality
    from biofuse.preprocess import Sample
    from biofuse.verify import Scenario

    import numpy as np

    data = np.zeros((Modality.BRAIN.n_channels, 102), dtype=np.float32)
    samples = [Sample(f"s{s}", r, Modality.BRAIN, data, float(d))
               for s in range(6) for r in range(4) for d in range(25)]
    assert workloads.expected_trial_counts(samples, Scenario.S1) == (22_500, 225_000)
    assert workloads.expected_trial_counts(samples, Scenario.S2) == (600, 3_000)
