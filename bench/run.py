"""Benchmark of biofuse: one workload per invocation, checked and timed.

    python3 bench/run.py --workload battery|evaluate|verify --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root.  Each invocation sets the workload up
SETUP_REPEATS times, each time in a fresh process, then measures it in one
more fresh process for about S seconds.  All of them run with the BLAS and
OpenMP threads pinned in their own environment.  Human-readable lines go
first; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from spans recorded around calls into each layer.
`bench/README.md` describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

WORKLOADS = ("battery", "evaluate", "verify")
SETUP_REPEATS = 3
# (name, unit, better); BENCHMARK.json at the root declares the same list
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
TIME_LIMIT_S = 170.0  # a run must end within 180 s; keep a margin for the parent


def child_env() -> dict:
    env = dict(os.environ)
    # one thread: at batch 48 a second BLAS thread does not speed biofuse up,
    # and a single thread is less sensitive to other load on the machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, role: str, work: Path, out: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--out", str(out), "--t-spawn", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    # the children's own output goes to stderr; stdout ends with the result
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with status {proc.returncode}")
    return json.loads(out.read_text())


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def median_by_key(rows: list[dict]) -> dict:
    keys = sorted({k for row in rows for k in row})
    return {k: statistics.median(row.get(k, 0.0) for row in rows) for k in keys}


def summarize(args, setups: list[dict], measured: dict) -> tuple[dict, list[str]]:
    """Metric values for the JSON line, and the human-readable lines."""
    lines = []
    setup_s = [s["setup_s"] for s in setups]
    plain = measured["plain_s"]
    lines.append(f"wall_s {statistics.median(plain):.4f} s "
                 f"(median of {len(plain)} units; all: {', '.join(f'{w:.3f}' for w in plain)})")
    lines.append(f"setup_s {statistics.median(setup_s):.4f} s "
                 f"(median of {len(setup_s)} set-ups; all: {', '.join(f'{s:.3f}' for s in setup_s)})")
    lines.append(f"peak_rss_mb {measured['peak_rss_mb']:.1f} MB (measuring process)")
    lines.append(f"eer {measured['eer']:.6f} (deterministic for the seed)")
    serving = measured.get("serving", {})
    if serving:
        n = serving["claims"]
        lines.append(f"claims_per_s {serving['verify.claims_per_s']:.1f} 1/s (n={n} claims)")
        lines.append(f"claim_p50_ms {serving['verify.claim_p50_ms']:.4f} ms (n={n})")
        lines.append(f"claim_p99_ms {serving['verify.claim_p99_ms']:.4f} ms (n={n})")
        lines.append(f"enroll_templates_per_s {serving['verify.enroll_templates_per_s']:.1f} 1/s "
                     f"(median of {len(plain)} sessions)")

    if not args.trace:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}, lines

    # one set-up plus one measured unit; each key is a median over repeats
    setup_raw = median_by_key([s["layers"] for s in setups])
    unit_raw = median_by_key(measured["layers"])
    raw = {k: setup_raw.get(k, 0.0) + unit_raw.get(k, 0.0) for k in set(setup_raw) | set(unit_raw)}
    extra = dict(serving, **{"metrics.eer": measured["eer"]})
    extra["trace.overhead_s"] = statistics.median(measured["traced_s"]) - statistics.median(plain)
    values = spans.layer_metrics(raw, extra)
    lines.append(f"traced units: {len(measured['traced_s'])}, plain units: {len(plain)}")
    for name, unit, _ in spans.LAYER_METRICS:
        lines.append(f"{name} {values[name]:.6g} {unit}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in spans.LAYER_METRICS}, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one epoch, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "biofuse" / "__init__.py").is_file():
        print(f"bench: no biofuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        # each set-up writes into a new directory (see EvaluateRun.unit for
        # why); the measuring process uses the inputs of the last one
        setups = []
        for k in range(SETUP_REPEATS):
            shutil.rmtree(work / f"setup{k - 1}", ignore_errors=True)
            (work / f"setup{k}").mkdir(parents=True)
            setups.append(run_child(args, "setup", work / f"setup{k}",
                                    work / f"setup{k}.json", deadline))
        measured = run_child(args, "measure", work / f"setup{SETUP_REPEATS - 1}",
                             work / "measure.json", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench: {args.workload}: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = [s["checks"] for s in setups] + [measured["checks"]]
    attempted = sum(c["attempted"] for c in checks)
    failed = sum(c["failed"] for c in checks)
    metrics, lines = summarize(args, setups, measured)
    env = dict(measured["environment"], commit=git_commit())
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    for c in checks:
        for failure in c["failures"]:
            print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
