"""`tools/bench_pairs.py` records which tree each side of a benchmark ran, and
refuses a run it could not summarize."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, capture_output=True, text=True, check=True).stdout.strip()


def test_checkout_state_names_the_commit_and_uncommitted_changes(tmp_path):
    state = _bench_pairs().checkout_state
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "a.txt").write_text("one\n")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "one")
    head = _git(repo, "rev-parse", "HEAD")
    assert state(repo) == {"commit": head, "dirty": False}
    (repo / "a.txt").write_text("two\n")
    assert state(repo) == {"commit": head, "dirty": True}
    exported = tmp_path / "exported"  # a tree without .git, as `git archive` leaves it
    exported.mkdir()
    (exported / "a.txt").write_text("one\n")
    assert state(exported) is None


def test_a_checkout_git_cannot_read_is_refused_before_any_run(tmp_path, monkeypatch):
    module = _bench_pairs()
    monkeypatch.setattr(module, "run_bench", lambda *a: pytest.fail("a run was started"))
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")  # no commit, so HEAD names nothing
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        module.main(["--parent", str(repo), "--change", str(ROOT), "--workload", "evaluate",
                     "--seed", "5", "--pairs", "2", "--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith(f"git rev-parse HEAD in {repo} exited 128:\n")
    assert "fatal: " in message
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_are_refused_before_any_run(tmp_path, monkeypatch, capsys, pairs):
    module = _bench_pairs()
    monkeypatch.setattr(module, "run_bench", lambda *a: pytest.fail("a run was started"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        module.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "evaluate",
                     "--seed", "5", "--pairs", pairs, "--out", str(out)])
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_workload_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    module = _bench_pairs()
    monkeypatch.setattr(module, "run_bench", lambda *a: pytest.fail("a run was started"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        module.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "evaluat",
                     "--seed", "5", "--out", str(out)])
    assert exc.value.code == 2
    assert "--workload must be one of ['battery', 'evaluate', 'verify']" in capsys.readouterr().err
    assert not out.exists()


def test_a_failed_run_exits_with_the_end_of_its_stderr(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "bench").mkdir(parents=True)
    (checkout / "bench" / "run.py").write_text(
        "import sys\nsys.exit('\\n'.join(f'line {k}' for k in range(30)))\n")
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().run_bench(checkout, "evaluate", 5, 1.0)
    message = str(exc.value.code)
    assert message.startswith(f"bench/run.py in {checkout} exited 1:")
    assert message.endswith("line 29") and "line 10" in message and "line 9\n" not in message


def _fake_checkout(path, correct):
    """A checkout whose bench/run.py prints what the real one prints for a
    run whose checks pass, or fail twice."""
    (path / "bench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    failed = [] if correct else ["wall_s check: unit 0 report differs", "unit 2 missing"]
    lines = ["bench evaluate seed=29", 'environment {"nproc": 2}',
             f"error_rate {len(failed) / 4:.6g} ({len(failed)} of 4 checks failed)",
             *(f"FAILED {f}" for f in failed),
             json.dumps({"correct": correct, "attempted": 4, "failed": len(failed),
                         "metrics": {"wall_s": {"value": 1.0}}})]
    (path / "bench" / "run.py").write_text(f"print({chr(10).join(lines)!r})\n")
    return path


def test_failed_checks_exit_naming_the_checkout_seed_and_pair_with_their_lines(tmp_path):
    parent = _fake_checkout(tmp_path / "parent", correct=True)
    change = _fake_checkout(tmp_path / "change", correct=False)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        _bench_pairs().main(["--parent", str(parent), "--change", str(change),
                             "--workload", "evaluate", "--seed", "29", "--pairs", "2",
                             "--seconds", "1", "--out", str(out)])
    assert str(exc.value.code) == (
        f"change run in {change} failed its checks at seed 29, pair 0:\n"
        "FAILED wall_s check: unit 0 report differs\nFAILED unit 2 missing")
    assert not out.exists()
