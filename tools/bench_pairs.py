"""Run one benchmark workload in alternating pairs on two checkouts and record
the medians, quartiles and pair wins of every end-to-end metric as JSON.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload evaluate --seed 5 --seed 29 --pairs 10 --claim setup_s \
        --out BENCH_20.json

Each pair runs `bench/run.py --trace 0` once in each checkout; the order
alternates from pair to pair, so a drift of the machine's load does not
favour one side.  A pair is won when the change's value is better than the
parent's in the direction the benchmark declares.  Runs go one at a time,
and a workload that `BENCHMARK.json` does not list is refused before any.
Each side's checkout is recorded as its commit and whether its tree has
uncommitted changes (`null` for a tree outside git), so a run of a working
tree is not labelled with its parent commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The JSON line and the environment line of one `bench/run.py` run; a
    failed run exits naming the checkout and showing the end of its stderr."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise SystemExit(f"bench/run.py in {checkout} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("environment "):]) for line in lines
               if line.startswith("environment "))
    return json.loads(lines[-1]), env


def checkout_state(checkout: Path) -> dict | None:
    """The commit `checkout` is at and whether its tree differs from it;
    None for a tree without `.git`."""
    if not (checkout / ".git").exists():
        return None

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout

    return {"commit": git("rev-parse", "HEAD").strip(),
            "dirty": bool(git("status", "--porcelain"))}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def measure(args, seed: int, better: dict) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    envs = {}
    for k in range(args.pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            result, envs[side] = run_bench(sides[side], args.workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{side} run {k} failed its checks")
            runs[side].append({m: v["value"] for m, v in result["metrics"].items()})
            print(f"seed {seed} pair {k} {side}: {runs[side][-1]}", file=sys.stderr)
    out = {"seed": seed, "pairs": args.pairs, "metrics": {}}
    for m, direction in better.items():
        p = [r[m] for r in runs["parent"]]
        c = [r[m] for r in runs["change"]]
        wins = sum((b < a) if direction == "lower" else (b > a) for a, b in zip(p, c))
        out["metrics"][m] = {"parent": summary(p), "change": summary(c), "change_wins": wins}
    out["environment"] = envs
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--pairs", type=int, default=10,
                   help="alternating pairs per seed, at least 2 (quartiles need two runs)")
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--claim", help="the end-to-end metric the change claims, if any")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        p.error(f"--workload must be one of {workloads}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        p.error(f"--claim must be one of {sorted(better)}")
    record = {"workload": args.workload, "claim": args.claim, "seconds": args.seconds,
              "checkouts": {side: checkout_state(getattr(args, side))
                            for side in ("parent", "change")},
              "sets": [measure(args, seed, better) for seed in args.seed]}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
