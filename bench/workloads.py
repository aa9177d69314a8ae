"""Child process of the biofuse benchmark: set up inputs, or measure a workload.

    python3 bench/workloads.py setup   --workload W --seed N --work DIR --out FILE ...
    python3 bench/workloads.py measure --workload W --seed N --work DIR --out FILE ...

`bench/run.py` starts each role in a fresh process with the BLAS threads
pinned and `src` on the import path, and reads the JSON written to --out.
The program sees only inputs generated here from the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from biofuse import cli, corpus, metrics, preprocess, tnn, verify
from biofuse.corpus import Modality
from biofuse.fusion import FusionRule
from biofuse.verify import Scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402

SCENARIOS = (Scenario.S1, Scenario.S2, Scenario.S3)
FAR_TARGETS = (0.01, 0.001, 0.0)
BATTERY_MODALITIES = (Modality.BRAIN, Modality.EYE_PUPIL)
VERIFY_THRESHOLD = -0.5  # fixed global S2 threshold; latency does not depend on it


@dataclass(frozen=True)
class Shape:
    """Input sizes of a workload; FULL is the acceptance-battery configuration."""

    synth: dict
    folds: int
    train: dict
    claims_per_session: int


FULL = Shape(
    synth=dict(n_subjects=12, n_rounds=4, dots_per_round=25,
               subject_separability=0.5, noise_sigma=0.9, blink_rate_per_min=4.0),
    folds=2,
    train=dict(epochs=8, batch_size=48, learning_rate=1e-3, margin=0.2),
    claims_per_session=1000,
)
SMOKE = Shape(
    synth=dict(n_subjects=4, n_rounds=4, dots_per_round=6,
               subject_separability=0.5, noise_sigma=0.9, blink_rate_per_min=4.0),
    folds=2,
    train=dict(epochs=1, batch_size=16, learning_rate=1e-3, margin=0.2),
    claims_per_session=50,
)


class Checks:
    """Output checks of a run; every failure is counted, the first few kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got!r}, want {want!r}")

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.failures}


def synth_config(shape: Shape, seed: int) -> corpus.SynthConfig:
    return corpus.SynthConfig(seed=seed, **shape.synth)


def train_config(shape: Shape, seed: int) -> tnn.TrainConfig:
    return tnn.TrainConfig(seed=seed, **shape.train)


# ---------------------------------------------------------------------------
# Independent expectations


def expected_trial_counts(samples, scenario: Scenario) -> tuple[int, int]:
    """(genuine, impostor) trial counts from the (subject, round) layout alone."""
    per_round = Counter((s.subject_id, s.round_id) for s in samples)
    rounds: dict[str, dict[int, int]] = {}
    for (subject, round_id), n in per_round.items():
        rounds.setdefault(subject, {})[round_id] = n
    eligible = {s: r for s, r in rounds.items() if len(r) >= 2}
    totals = {s: sum(r.values()) for s, r in eligible.items()}
    if scenario is Scenario.S1:
        genuine = sum((totals[s] ** 2 - sum(n * n for n in r.values())) // 2
                      for s, r in eligible.items())
        impostor = sum(
            totals[s] * totals[t] - sum(n * eligible[t].get(k, 0) for k, n in rs.items())
            for s, rs in eligible.items() for t in eligible if t != s
        )
        return genuine, impostor
    everyone = sum(totals.values())
    return everyone, sum(everyone - n for n in totals.values())


def check_rates(checks: Checks, eer: float, frr: dict, n_min: int, what: str) -> None:
    checks.expect(0.0 <= eer <= 1.0, f"{what}: EER {eer} outside [0, 1]")
    # similarity orientation guard of the acceptance suite
    checks.expect(eer <= 0.5 + 1.0 / n_min, f"{what}: EER {eer} above chance")
    values = [frr[t] for t in FAR_TARGETS]
    checks.expect(all(0.0 <= v <= 1.0 for v in values), f"{what}: FRR {values} outside [0, 1]")
    checks.expect(values[0] <= values[1] <= values[2],
                  f"{what}: FRR {values} rises as the FAR target loosens")


def trial_subjects(trials) -> set:
    return (set(trials.genuine.claimed.tolist()) | set(trials.genuine.ver_subject.tolist())
            | set(trials.impostor.claimed.tolist()) | set(trials.impostor.ver_subject.tolist()))


# ---------------------------------------------------------------------------
# battery: one acceptance-battery seed through library calls


def battery_unit(shape: Shape, seed: int, checks: Checks) -> dict:
    recordings = corpus.generate_synthetic(synth_config(shape, seed))
    subjects = sorted(r.subject_id for r in recordings)
    checks.equal(len(subjects), shape.synth["n_subjects"], "battery subjects")
    datasets = {m: preprocess.build_dataset(recordings, m)[0] for m in BATTERY_MODALITIES}
    plan = metrics.plan_folds(subjects, k=shape.folds, seed=seed)
    base = train_config(shape, seed)
    pooled: dict = {(c, s): [] for c in ("brain", "eye", "fusion") for s in SCENARIOS}
    for fi, (train_subjects, test_subjects) in enumerate(plan.folds):
        train_set, test_set = set(train_subjects), set(test_subjects)
        checks.equal(len(train_set & test_set), 0, f"fold {fi} train_test_overlap")
        tr, te, models = {}, {}, {}
        for k, m in enumerate(BATTERY_MODALITIES):
            tr_raw = [s for s in datasets[m] if s.subject_id in train_set]
            te_raw = [s for s in datasets[m] if s.subject_id in test_set]
            std = preprocess.fit_standardizer(tr_raw, scope=f"fold{fi}")
            tr[m] = [preprocess.apply_standardizer(std, s) for s in tr_raw]
            te[m] = [preprocess.apply_standardizer(std, s) for s in te_raw]
            models[m], history = tnn.train(
                tr[m], tnn.single_modality_arch(m),
                replace(base, seed=base.seed + 1000 * fi + k),
            )
            checks.equal(len(history), shape.train["epochs"], f"fold {fi} {m.value} epochs")
            checks.expect(all(np.isfinite(history)), f"fold {fi} {m.value} loss not finite")
        pairs_tr = preprocess.pair_samples(tr[Modality.BRAIN], tr[Modality.EYE_PUPIL])
        pairs_te = preprocess.pair_samples(te[Modality.BRAIN], te[Modality.EYE_PUPIL])
        mb, me = models[Modality.BRAIN], models[Modality.EYE_PUPIL]
        for scenario in SCENARIOS:
            sets = {
                "brain": (te[Modality.BRAIN], metrics.build_trials(te[Modality.BRAIN], mb, scenario)),
                "eye": (te[Modality.EYE_PUPIL],
                        metrics.build_trials(te[Modality.EYE_PUPIL], me, scenario)),
                "fusion": (pairs_te, metrics.build_trials(
                    pairs_te, (mb, me), scenario, fusion_rule=FusionRule.MEAN,
                    normalizer=metrics.fusion_calibration_normalizer(pairs_tr, mb, me, scenario),
                )),
            }
            for config, (samples, trials) in sets.items():
                what = f"fold {fi} {config} {scenario.value}"
                checks.equal(trials.round_exclusion_violations(), 0,
                             f"{what} round_exclusion_violations")
                checks.equal(len(trial_subjects(trials) - test_set), 0,
                             f"{what} foreign_trial_subjects")
                checks.equal((trials.genuine.n, trials.impostor.n),
                             expected_trial_counts(samples, scenario), f"{what} trial counts")
                pooled[(config, scenario)].append(trials)

    eers = {}
    for (config, scenario), sets in pooled.items():
        trials = metrics.TrialSet.concat(sets)
        if scenario is Scenario.S3:
            pse = metrics.per_subject_eer(trials)
            eer = pse.mean
            frr = {t: float(np.mean([
                metrics.frr_at_far_scores(*trials.scores_for_identity(i), t)[0]
                for i in pse.by_subject])) for t in FAR_TARGETS}
        else:
            eer, _ = metrics.compute_eer(trials)
            frr = {t: metrics.frr_at_far(trials, t)[0] for t in FAR_TARGETS}
        n_min = min(trials.genuine.n, trials.impostor.n)
        check_rates(checks, eer, frr, n_min, f"pooled {config} {scenario.value}")
        eers[f"{config}/{scenario.value}"] = eer
    return {"eer": eers["fusion/s2"]}


# ---------------------------------------------------------------------------
# evaluate: the CLI evaluate command on a corpus file written at set-up


def evaluate_config(shape: Shape, seed: int, work: Path) -> dict:
    return {
        "paths": {"corpus": str(work / "c.corpus"), "report": str(work / "report.json")},
        "synth": {**shape.synth, "seed": seed},
        "train": {**shape.train, "seed": seed},
        "eval": {"scenario": "s3", "modality": "fusion-b", "folds": shape.folds, "seed": seed},
    }


def evaluate_setup(shape: Shape, seed: int, work: Path) -> dict:
    recordings = corpus.generate_synthetic(synth_config(shape, seed))
    corpus.write_corpus(recordings, work / "c.corpus")
    (work / "evaluate.json").write_text(json.dumps(evaluate_config(shape, seed, work)))
    return {"ready": time.monotonic(), "recordings": recordings}


def evaluate_expectations(recordings, shape: Shape, seed: int) -> dict:
    """Per-fold S3 trial counts and preprocessing totals the report must show."""
    datasets = {}
    totals = {}
    for m in (Modality.BRAIN, Modality.EYE_PUPIL):
        datasets[m], report = preprocess.build_dataset(recordings, m)
        totals[m.value] = {k: report.total(k) for k in ("extracted", "rejected", "skipped")}
    subjects = sorted(r.subject_id for r in recordings)
    folds = []
    for _, test_subjects in metrics.plan_folds(subjects, shape.folds, seed).folds:
        test = set(test_subjects)
        pairs = preprocess.pair_samples(
            *[[s for s in datasets[m] if s.subject_id in test]
              for m in (Modality.BRAIN, Modality.EYE_PUPIL)])
        folds.append(expected_trial_counts(pairs, Scenario.S3))
    return {"folds": folds, "preprocess": totals,
            "events": len(subjects) * shape.synth["n_rounds"] * shape.synth["dots_per_round"]}


class EvaluateRun:
    def __init__(self, shape: Shape, seed: int, work: Path, checks: Checks) -> None:
        self.shape, self.seed, self.work, self.checks = shape, seed, work, checks
        self.config = work / "evaluate.json"
        self.expect = json.loads((work / "expect.json").read_text())
        self.first_report: bytes | None = None
        self.units = 0

    def unit(self) -> tuple[float, dict]:
        # a fresh report path per unit: rewriting a file in place can make the
        # filesystem flush it to disk, which would time the disk, not biofuse
        self.units += 1
        report = self.work / f"report{self.units}.json"
        t0 = time.perf_counter()
        rc = cli.main(["evaluate", "--config", str(self.config), "--out", str(report)])
        wall = time.perf_counter() - t0
        self.checks.equal(rc, 0, "evaluate exit code")
        return wall, self.check_report(report)

    def check_report(self, path: Path) -> dict:
        checks = self.checks
        raw = path.read_bytes()
        if self.first_report is None:
            self.first_report = raw
        checks.expect(raw == self.first_report, "report.json differs between identical runs")
        report = json.loads(raw)
        prov = report["provenance"]
        checks.equal(prov["models_per_fold"], 1, "models per fold")
        checks.equal(prov["model_arches"], ["fusion-b:brain+eye-pupil"], "model arch")
        checks.equal(prov["corpus"]["n_subjects"], self.shape.synth["n_subjects"], "subjects")
        for modality, totals in self.expect["preprocess"].items():
            checks.equal(prov["preprocess"][modality], totals, f"{modality} preprocess totals")
            checks.equal(sum(totals.values()), self.expect["events"], f"{modality} events")
        checks.equal(len(report["folds"]), self.shape.folds, "fold count")
        for fold, want in zip(report["folds"], self.expect["folds"]):
            what = f"fold {fold['fold']}"
            for audit, value in fold["audits"].items():
                checks.equal(value, 0, f"{what} {audit}")
            checks.equal([fold["n_genuine"], fold["n_impostor"]], list(want), f"{what} trial counts")
            frr = {float(k): v for k, v in fold["frr_at_far"].items()}
            check_rates(checks, fold["eer"], frr, min(want), what)
        pooled = report["pooled"]
        frr = {float(k): v for k, v in pooled["frr_at_far"].items()}
        check_rates(checks, pooled["eer"], frr,
                    min(pooled["n_genuine"], pooled["n_impostor"]), "pooled")
        return {"eer": pooled["eer"]}


# ---------------------------------------------------------------------------
# verify: CLI enroll, then a closed loop of in-memory claims


def verify_setup(shape: Shape, seed: int, work: Path) -> dict:
    """Eye-pupil model trained by the CLI on rounds 0-2; round 3 is held out."""
    recordings = corpus.generate_synthetic(synth_config(shape, seed))
    samples, _ = preprocess.build_dataset(recordings, Modality.EYE_PUPIL)
    preprocess.save_dataset([s for s in samples if s.round_id < 3], work / "enroll.ds")
    preprocess.save_dataset([s for s in samples if s.round_id == 3], work / "claims.ds")
    config = {
        "paths": {"dataset": str(work / "enroll.ds"), "model": str(work / "eye.model")},
        "train": {**shape.train, "seed": seed},
    }
    (work / "verify.json").write_text(json.dumps(config))
    rc = cli.main(["train", "--config", str(work / "verify.json")])
    return {"ready": time.monotonic(), "rc": rc}


def verify_references(work: Path) -> None:
    """embed_batch of every enrollment and claim sample, for the checks.

    Computed in set-up so that the measuring process's peak memory is the
    serving sessions', not the checks'."""
    model = tnn.load_model(work / "eye.model")
    np.savez(work / "reference.npz",
             enroll=model.embed_batch(_standardized(work / "enroll.ds", model)),
             claims=model.embed_batch(_standardized(work / "claims.ds", model)))


def _standardized(path: Path, model) -> list:
    samples, modality = preprocess.load_dataset(path)
    entry = model.provenance["standardizers"][modality.value]
    std = preprocess.Standardizer(
        modality=modality, mean=np.asarray(entry["mean"], dtype=np.float64),
        std=np.asarray(entry["std"], dtype=np.float64), scope=entry["scope"],
    )
    return [preprocess.apply_standardizer(std, s) for s in samples]


class VerifyRun:
    """Claims: held-out round-3 samples, alternately genuine and impostor."""

    def __init__(self, shape: Shape, seed: int, work: Path, checks: Checks) -> None:
        self.work, self.checks = work, checks
        self.config = str(work / "verify.json")
        model = tnn.load_model(work / "eye.model")
        self.samples = _standardized(work / "claims.ds", model)
        self.enrolled = _standardized(work / "enroll.ds", model)
        with np.load(work / "reference.npz") as ref:
            self.enroll_embeddings, self.claim_embeddings = ref["enroll"], ref["claims"]
        identities = sorted({s.subject_id for s in self.enrolled})
        rng = np.random.default_rng([seed, 3])
        picks = rng.integers(0, len(self.samples), size=shape.claims_per_session)
        others = rng.integers(0, len(identities) - 1, size=shape.claims_per_session)
        self.claims = []
        for k, (i, j) in enumerate(zip(picks.tolist(), others.tolist())):
            sample = self.samples[i]
            if k % 2 == 0:
                claimed = sample.subject_id
            else:
                rest = [x for x in identities if x != sample.subject_id]
                claimed = rest[j % len(rest)]
            self.claims.append((claimed, sample, i))
        self.reference = None
        self.units = 0

    def unit(self) -> tuple[float, dict]:
        """One session: CLI enroll, load model and store, then every claim in turn."""
        self.units += 1
        templates = self.work / f"eye{self.units}.tpl"  # fresh path, as in EvaluateRun
        t0 = time.perf_counter()
        rc = cli.main(["enroll", "--config", self.config, "--out", str(templates)])
        t_enroll = time.perf_counter()
        model = tnn.load_model(self.work / "eye.model")
        store = verify.load_templates(templates)
        threshold = verify.Threshold.fixed(VERIFY_THRESHOLD)
        latencies = []
        decisions = []
        t_claims = time.perf_counter()
        for claimed, sample, _ in self.claims:
            c0 = time.perf_counter()
            decision = verify.verify_claim(model, store, claimed, sample, threshold, Scenario.S2)
            latencies.append(time.perf_counter() - c0)
            decisions.append(decision)
        t1 = time.perf_counter()
        self.checks.equal(rc, 0, "enroll exit code")
        self.check(store, decisions)
        return t1 - t0, {
            "claim_s": np.array(latencies),
            "claims_s": t1 - t_claims,
            "enroll_s": t_enroll - t0,
            "templates": len(store),
            "eer": self.eer(),
        }

    def check(self, store, decisions) -> None:
        checks = self.checks
        by_identity = {i: np.stack([t.vector for t in store.templates_for(i)])
                       for i in store.identities()}
        checks.equal(len(store), len(self.enrolled), "templates enrolled")
        stored = np.concatenate([by_identity[i] for i in store.identities()])
        order = sorted(range(len(self.enrolled)), key=lambda k: self.enrolled[k].subject_id)
        checks.expect(np.abs(stored - self.enroll_embeddings[order]).max() <= 1e-6,
                      "stored templates differ from embed_batch of the enrollment samples")
        if self.reference is None:
            emb = self.claim_embeddings
            self.reference = np.array([
                -np.sqrt(((by_identity[claimed] - emb[i]) ** 2).sum(axis=1).min())
                for claimed, _, i in self.claims
            ])
        scores = np.array([d.score for d in decisions])
        worst = float(np.abs(scores - self.reference).max())
        for (claimed, _, _), d, ref in zip(self.claims, decisions, self.reference):
            checks.expect(abs(d.score - ref) <= 1e-6 and d.identity == claimed
                          and d.accept == (d.score >= VERIFY_THRESHOLD),
                          f"claim {claimed}: score {d.score} vs best match {ref} "
                          f"(worst gap {worst:.2e}), accept={d.accept}")

    def eer(self) -> float:
        genuine = [r for k, r in enumerate(self.reference) if k % 2 == 0]
        impostor = [r for k, r in enumerate(self.reference) if k % 2 == 1]
        return metrics.eer_from_scores(genuine, impostor)[0]


# ---------------------------------------------------------------------------
# Roles


def warm_up(seed: int) -> None:
    """One smoke-sized battery seed, so first-call costs land before timing."""
    battery_unit(SMOKE, seed, Checks())


def run_setup(workload: str, shape: Shape, seed: int, work: Path, t_spawn: float,
              traced: bool) -> dict:
    recorder = spans.Recorder()
    checks = Checks()
    warm_up(seed)
    with spans.Installed(recorder) if traced else contextlib.nullcontext():
        if workload == "evaluate":
            result = evaluate_setup(shape, seed, work)
        elif workload == "verify":
            result = verify_setup(shape, seed, work)
            checks.equal(result["rc"], 0, "train exit code")
        else:
            result = {"ready": time.monotonic()}
    out = {"setup_s": result["ready"] - t_spawn, "checks": checks.to_dict()}
    if traced:
        out["layers"] = recorder.reduce()
    # after the clock stopped: what the checks compare against
    if workload == "evaluate":
        expect = evaluate_expectations(result["recordings"], shape, seed)
        (work / "expect.json").write_text(json.dumps(expect))
    elif workload == "verify":
        verify_references(work)
    return out


def release_memory() -> None:
    """Start every unit from the same heap, as a fresh process would.

    Without this, what earlier units leave on the heap decides whether a
    later unit raises the peak resident set, so `peak_rss_mb` would depend
    on how many units fit into the run."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def percentile(values: np.ndarray, q: float) -> float:
    """The sample at rank floor(q * n): at least n - floor(q * n) - 1 lie beyond it."""
    ordered = np.sort(values)
    return float(ordered[min(ordered.size - 1, int(q * ordered.size))])


def run_measure(workload: str, shape: Shape, seed: int, work: Path, seconds: float,
                traced: bool) -> dict:
    checks = Checks()
    warm_up(seed)
    if workload == "battery":
        def unit():
            t0 = time.perf_counter()
            info = battery_unit(shape, seed, checks)
            return time.perf_counter() - t0, info
    else:
        unit = (EvaluateRun if workload == "evaluate" else VerifyRun)(shape, seed, work, checks).unit

    plain: list[float] = []
    timed: list[float] = []
    layers: list[dict] = []
    infos: list[dict] = []
    recorder = spans.Recorder()
    deadline = time.perf_counter() + seconds
    k = 0
    # trace runs alternate plain and traced units, plain first
    while True:
        release_memory()
        if traced and k % 2 == 1:
            with spans.Installed(recorder):
                wall, info = unit()
            timed.append(wall)
            layers.append(recorder.reduce())
        else:
            wall, info = unit()
            plain.append(wall)
            infos.append(info)
        k += 1
        if time.perf_counter() >= deadline and (timed or not traced):
            break

    out = {
        "plain_s": plain,
        "traced_s": timed,
        "layers": layers,
        "eer": infos[0]["eer"],
        "checks": checks.to_dict(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if workload == "verify":
        claims = np.concatenate([info["claim_s"] for info in infos])
        out["serving"] = {
            "verify.claims_per_s": claims.size / sum(i["claims_s"] for i in infos),
            "verify.claim_p50_ms": 1e3 * float(np.median(claims)),
            "verify.claim_p99_ms": 1e3 * percentile(claims, 0.99),
            "verify.enroll_templates_per_s": statistics.median(
                i["templates"] / i["enroll_s"] for i in infos),
            "claims": int(claims.size),
        }
    return out


def environment() -> dict:
    import os
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("role", choices=["setup", "measure"])
    p.add_argument("--workload", required=True, choices=["battery", "evaluate", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t-spawn", type=float, default=None)
    args = p.parse_args(argv)
    shape = SMOKE if args.smoke else FULL
    work = Path(args.work)
    if args.role == "setup":
        t_spawn = args.t_spawn if args.t_spawn is not None else time.monotonic()
        result = run_setup(args.workload, shape, args.seed, work, t_spawn, bool(args.trace))
    else:
        result = run_measure(args.workload, shape, args.seed, work, args.seconds,
                             bool(args.trace))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
