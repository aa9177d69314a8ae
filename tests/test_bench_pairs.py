"""`tools/bench_pairs.py` records which tree each side of a benchmark ran."""

import importlib.util
import subprocess
from pathlib import Path

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
