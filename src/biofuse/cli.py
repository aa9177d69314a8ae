"""Command-line surface: gen, preprocess, train, enroll, verify, evaluate.

Every run is driven by one JSON config file; flags override config values.
Exit codes: 0 success, 1 validation/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .corpus import (
    Modality,
    SynthConfig,
    atomic_write,
    generate_synthetic,
    read_corpus,
    write_corpus,
)
from .errors import BiofuseError, ConfigError, IdentityError, ModelFormatError, ValidationError
from .fusion import FusionRule
from .metrics import FEATURE_FUSIONS, SAMPLE_MODALITIES, ExperimentConfig, run_experiment
from .preprocess import (
    NanPolicy,
    Standardizer,
    apply_standardizer,
    build_dataset,
    fit_standardizer,
    load_dataset,
    save_dataset,
)
from .tnn import (
    ArchKind,
    EmbeddingModel,
    TrainConfig,
    fusion_arch,
    load_model,
    model_inputs,
    save_model,
    single_modality_arch,
    train,
)
from .verify import (
    Scenario,
    Template,
    TemplateStore,
    Threshold,
    load_templates,
    save_templates,
    verify_claim,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@dataclass
class RunConfig:
    paths: dict
    synth: SynthConfig | None
    eval: ExperimentConfig


_SECTIONS = ("paths", "synth", "nan_policy", "train", "eval")


def _section(cfg: dict, name: str, cls, ctx: str, fixed: tuple[str, ...] = ()) -> dict:
    """Section `name` of the config: an object whose keys are fields of `cls`
    other than `fixed`."""
    raw = cfg.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{ctx}: section {name!r} must be an object")
    unknown = set(raw) - ({f.name for f in fields(cls)} - set(fixed))
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys in {name!r}: {sorted(unknown)}")
    return raw


def _build(cls, name: str, ctx: str, values: dict):
    """`cls(**values)`; its type and range errors name `name.field`."""
    try:
        return cls(**values)
    except TypeError as e:  # a required field is missing
        raise ConfigError(f"{ctx}: {name}: {e}") from None
    except ValidationError as e:
        raise ConfigError(f"{ctx}: {name}.{e}") from None


def _check_distinct(reads: list, writes: list) -> None:
    """Refuse a path in `writes` that resolves to the file of any other path."""
    seen: dict[Path, object] = {}
    for k, path in enumerate(reads + writes):
        where = Path(path).resolve()
        if k >= len(reads) and where in seen:
            raise ConfigError(f"{path} and {seen[where]} name one file; they must be distinct")
        seen.setdefault(where, path)


def load_config(path) -> RunConfig:
    """Parse and schema-validate the run config before any work starts."""
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: invalid JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"config {path}: unknown sections {sorted(unknown)}")
    ctx = f"config {path}"

    paths = cfg.get("paths", {})
    if not isinstance(paths, dict) or not all(isinstance(v, str) for v in paths.values()):
        raise ConfigError(f"{ctx}: 'paths' must map names to strings")
    _check_distinct([], list(paths.values()))

    synth_raw = _section(cfg, "synth", SynthConfig, ctx)
    nan_raw = _section(cfg, "nan_policy", NanPolicy, ctx)
    train_raw = _section(cfg, "train", TrainConfig, ctx)
    eval_raw = dict(_section(cfg, "eval", ExperimentConfig, ctx, fixed=("nan_policy", "train")))
    if "scenario" in eval_raw:
        try:
            eval_raw["scenario"] = Scenario(eval_raw["scenario"])
        except ValueError:
            raise ConfigError(
                f"{ctx}: eval.scenario: unknown scenario {eval_raw['scenario']!r}"
            ) from None
    if "fusion" in eval_raw:
        eval_raw["fusion"] = _parse_fusion(eval_raw["fusion"])

    synth = _build(SynthConfig, "synth", ctx, synth_raw) if synth_raw else None
    eval_cfg = _build(ExperimentConfig, "eval", ctx, {
        **eval_raw,
        "nan_policy": _build(NanPolicy, "nan_policy", ctx, nan_raw),
        "train": _build(TrainConfig, "train", ctx, train_raw),
    })
    return RunConfig(paths=paths, synth=synth, eval=eval_cfg)


def _parse_fusion(token: str) -> FusionRule | None:
    if token in (None, "none", ""):
        return None
    try:
        return FusionRule(token)
    except ValueError:
        raise ConfigError(f"unknown fusion rule {token!r}") from None


def _open_config(args) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    run = load_config(path)
    eval_updates = {}
    if getattr(args, "scenario", None):
        eval_updates["scenario"] = Scenario(args.scenario)
    # --modality on preprocess selects a dataset, not the evaluation config
    if args.command in ("train", "evaluate") and getattr(args, "modality", None):
        eval_updates["modality"] = args.modality
    if getattr(args, "fusion", None):
        eval_updates["fusion"] = _parse_fusion(args.fusion)
    if getattr(args, "seed", None) is not None:
        eval_updates["seed"] = args.seed
        eval_updates["train"] = replace(run.eval.train, seed=args.seed)
        if run.synth is not None:
            run = replace(run, synth=replace(run.synth, seed=args.seed))
    return replace(run, eval=replace(run.eval, **eval_updates))


def _path_from(args, attr: str, run: RunConfig, key: str, what: str) -> Path:
    override = getattr(args, attr, None)
    if override:
        return Path(override)
    if key in run.paths:
        return Path(run.paths[key])
    raise ConfigError(f"no {what} path: pass --{attr.replace('_', '-')} or set paths.{key}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    run = _open_config(args)
    if run.synth is None:
        raise ConfigError("config has no 'synth' section; nothing to generate")
    out = _path_from(args, "out", run, "corpus", "corpus output")
    _check_distinct([args.config], [out])
    recordings = generate_synthetic(run.synth)
    write_corpus(recordings, out)
    n_events = sum(len(r.events) for r in recordings)
    print(f"gen: wrote {out} ({len(recordings)} subjects, {n_events} events)")
    return 0


def cmd_preprocess(args) -> int:
    run = _open_config(args)
    corpus_path = _path_from(args, "corpus", run, "corpus", "corpus input")
    out = _path_from(args, "out", run, "dataset", "dataset output")
    modality_name = args.modality or (
        run.eval.modality if run.eval.modality in SAMPLE_MODALITIES else None
    )
    if modality_name is None:
        raise ConfigError(
            f"preprocess needs a concrete --modality ({', '.join(SAMPLE_MODALITIES)})"
        )
    modality = Modality(modality_name)
    # a dataset goes with its `<path>.idx` sidecar
    _check_distinct([args.config, corpus_path],
                    [out, f"{out}.idx", *([args.report] if args.report else [])])
    recordings = read_corpus(corpus_path)
    samples, report = build_dataset(recordings, modality, run.eval.nan_policy)
    save_dataset(samples, out, modality=modality)
    if args.report:
        with atomic_write(args.report, "w", encoding="utf-8") as f:
            f.write(report.to_text())
    print(
        f"preprocess: wrote {out} ({len(samples)} samples, modality={modality.value}, "
        f"rejected={report.total('rejected')}, skipped={report.total('skipped')})"
    )
    return 0


def _dataset_paths(args, run: RunConfig) -> list[str]:
    """--dataset (repeatable), else paths.dataset."""
    paths = args.dataset or ([run.paths["dataset"]] if "dataset" in run.paths else [])
    if not paths:
        raise ConfigError(f"{args.command} needs --dataset (repeatable) or paths.dataset")
    return paths


def _load_datasets(paths: list[str]):
    loaded = [load_dataset(p) for p in paths]
    by_modality = {modality: samples for samples, modality in loaded}
    if len(by_modality) != len(loaded):
        raise ValidationError("datasets must cover distinct modalities")
    return by_modality


def _std_provenance(stds) -> dict:
    return {
        modality.value: {"mean": std.mean.tolist(), "std": std.std.tolist(), "scope": std.scope}
        for modality, std in stds.items()
    }


def _stds_from_provenance(model: EmbeddingModel) -> dict:
    """The model's stored standardizers; a malformed entry is a ModelFormatError."""
    raw = model.provenance.get("standardizers")
    if not raw:
        raise ValidationError("model provenance carries no standardizers; retrain via the CLI")
    if not isinstance(raw, dict):
        raise ModelFormatError("model standardizers must be an object keyed by modality")
    out = {}
    for name, entry in raw.items():
        if name not in {m.value for m in Modality}:
            raise ModelFormatError(f"model standardizer for unknown modality {name!r}")
        modality = Modality(name)
        entry = entry if isinstance(entry, dict) else {}
        arrays = {}
        for key, low in (("mean", -math.inf), ("std", 0.0)):
            values = entry.get(key)
            if not (
                isinstance(values, list)
                and len(values) == modality.n_channels
                and all(type(x) in (int, float) and low < x < math.inf for x in values)
            ):
                raise ModelFormatError(
                    f"model standardizer {name}: {key!r} must list {modality.n_channels} "
                    f"finite numbers{' above 0' if key == 'std' else ''}"
                )
            arrays[key] = np.asarray(values, dtype=np.float64)
        out[modality] = Standardizer(modality=modality, scope=entry.get("scope", ""), **arrays)
    return out


def _prepare_model_inputs(by_modality, model: EmbeddingModel):
    """Standardize raw samples with the model's stored transforms and pair if needed."""
    stds = _stds_from_provenance(model)
    standardized = {}
    for modality, samples in by_modality.items():
        if modality not in stds:
            raise ValidationError(f"model has no standardizer for modality {modality.value}")
        standardized[modality] = [apply_standardizer(stds[modality], s) for s in samples]
    return model_inputs(model.arch, standardized)


def cmd_train(args) -> int:
    run = _open_config(args)
    dataset_paths = _dataset_paths(args, run)
    out = _path_from(args, "out", run, "model", "model output")
    _check_distinct([args.config, *dataset_paths, *(f"{p}.idx" for p in dataset_paths)], [out])
    by_modality = _load_datasets(dataset_paths)

    stds = {}
    standardized = {}
    for modality, samples in by_modality.items():
        std = fit_standardizer(samples, scope="cli-train")
        stds[modality] = std
        standardized[modality] = [apply_standardizer(std, s) for s in samples]

    if len(by_modality) == 1:
        (modality,) = by_modality
        arch = single_modality_arch(modality)
    else:
        if Modality.BRAIN not in by_modality or len(by_modality) != 2:
            raise ValidationError("fusion training needs exactly brain + eye datasets")
        if run.eval.modality not in FEATURE_FUSIONS:
            raise ConfigError(
                "two datasets given: set eval.modality (or --modality) to "
                + "/".join(FEATURE_FUSIONS)
            )
        eye_m = next(m for m in by_modality if m is not Modality.BRAIN)
        arch = fusion_arch(ArchKind(run.eval.modality), eye_m)

    model, history = train(
        model_inputs(arch, standardized),
        arch,
        run.eval.train,
        provenance={"standardizers": _std_provenance(stds), "fold_id": "cli-train"},
    )
    save_model(model, out)
    final = history[-1] if history else float("nan")
    print(
        f"train: wrote {out} (arch={arch.tag}, {model.n_weights} weights, "
        f"final epoch loss={final:.4f})"
    )
    return 0


def cmd_enroll(args) -> int:
    run = _open_config(args)
    model_path = _path_from(args, "model", run, "model", "model input")
    dataset_paths = _dataset_paths(args, run)
    out = _path_from(args, "out", run, "templates", "template store output")
    _check_distinct(
        [args.config, model_path, *dataset_paths, *(f"{p}.idx" for p in dataset_paths)], [out]
    )
    model = load_model(model_path)
    samples = _prepare_model_inputs(_load_datasets(dataset_paths), model)
    wanted = set(args.subjects.split(",")) if args.subjects else None
    unknown = sorted((wanted or set()) - {s.subject_id for s in samples})
    if unknown:
        raise ValidationError(f"--subjects names identities with no sample: {', '.join(unknown)}")
    store = TemplateStore()
    for sample in samples:
        if wanted is not None and sample.subject_id not in wanted:
            continue
        store.enroll(
            Template(
                identity=sample.subject_id,
                vector=model.embed(sample),
                round_id=sample.round_id,
                tag=model.arch.tag,
            )
        )
    if len(store) == 0:
        raise ValidationError("no samples matched the enrollment filter")
    save_templates(store, out)
    print(f"enroll: wrote {out} ({len(store)} templates, {len(store.identities())} identities)")
    return 0


def cmd_verify(args) -> int:
    run = _open_config(args)
    model = load_model(_path_from(args, "model", run, "model", "model input"))
    store = load_templates(_path_from(args, "templates", run, "templates", "template store"))
    samples = _prepare_model_inputs(_load_datasets(args.sample), model)
    if not 0 <= args.index < len(samples):
        raise ValidationError(
            f"--index {args.index} is outside the {len(samples)} verification samples"
        )
    # best match against one global threshold: scenario S2 only
    decision = verify_claim(
        model, store, args.claim, samples[args.index], Threshold.fixed(args.threshold)
    )
    verdict = "ACCEPT" if decision.accept else "REJECT"
    print(
        f"{verdict} claim={args.claim} score={decision.score:.6f} "
        f"threshold={decision.threshold:.6f} scenario={decision.scenario.value} "
        f"matched_round={decision.matched_round_id}"
    )
    return 0


def cmd_evaluate(args) -> int:
    run = _open_config(args)
    corpus_path = _path_from(args, "corpus", run, "corpus", "corpus input")
    report_path = _path_from(args, "out", run, "report", "report output")
    rows_path = Path(report_path).with_suffix(".csv")
    if rows_path == Path(report_path):
        raise ConfigError(
            f"report path {report_path} ends in .csv, so the CSV rows would replace it; "
            "pick a report path with another suffix"
        )
    _check_distinct([args.config, corpus_path], [report_path, rows_path])
    # passed straight in, so run_experiment can free the corpus before training
    report = run_experiment(read_corpus(corpus_path), run.eval)
    # neither file is replaced unless both are written; the JSON is replaced first
    with (
        atomic_write(rows_path, "w", encoding="utf-8", newline="") as rows,
        atomic_write(report_path, "w", encoding="utf-8") as f,
    ):
        f.write(report.to_json())
        writer = csv.writer(rows)
        writer.writerow(["config", "metric", "value"])
        writer.writerows(report.to_rows())
    print(
        f"evaluate: wrote {report_path} and {rows_path} "
        f"(scenario={run.eval.scenario.value}, modality={run.eval.modality}, "
        f"fusion={run.eval.fusion.value if run.eval.fusion else 'none'}, "
        f"pooled EER={report.pooled['eer']:.4f})"
    )
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="biofuse", description="Eye+brain verification testbed")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--seed", type=int, help="override all seeds")

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out", help="corpus output path (default: paths.corpus)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("preprocess", help="extract samples from a corpus")
    common(p)
    p.add_argument("--corpus", help="corpus input (default: paths.corpus)")
    p.add_argument("--out", help="dataset output (default: paths.dataset)")
    p.add_argument("--modality", choices=SAMPLE_MODALITIES)
    p.add_argument("--report", help="write the preprocess report here")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train an embedding model")
    common(p)
    p.add_argument("--dataset", action="append", help="dataset path (repeat for fusion)")
    p.add_argument("--out", help="model output (default: paths.model)")
    p.add_argument("--modality", choices=SAMPLE_MODALITIES + FEATURE_FUSIONS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enroll", help="build a template store from a dataset")
    common(p)
    p.add_argument("--model", help="model path (default: paths.model)")
    p.add_argument("--dataset", action="append", help="dataset path (repeat for fusion)")
    p.add_argument("--out", help="template store output (default: paths.templates)")
    p.add_argument("--subjects", help="comma-separated identities to enroll (default: all)")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("verify", help="verify one sample against a claimed identity")
    common(p)
    p.add_argument("--model", help="model path (default: paths.model)")
    p.add_argument("--templates", help="template store (default: paths.templates)")
    p.add_argument("--claim", required=True, help="claimed identity")
    p.add_argument("--sample", action="append", required=True,
                   help="dataset holding the verification sample (repeat for fusion)")
    p.add_argument("--index", type=int, default=0, help="sample index in the dataset")
    p.add_argument("--threshold", type=float, required=True, help="acceptance threshold")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("evaluate", help="run the full cross-validated evaluation")
    common(p)
    p.add_argument("--corpus", help="corpus input (default: paths.corpus)")
    p.add_argument("--out", help="report output (default: paths.report)")
    p.add_argument("--modality", choices=SAMPLE_MODALITIES + FEATURE_FUSIONS)
    p.add_argument("--fusion", choices=["none"] + [r.value for r in FusionRule])
    p.add_argument("--scenario", choices=[s.value for s in Scenario])
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"biofuse: error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, ValidationError, IdentityError) as e:
        print(f"biofuse: error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"biofuse: error: file not found: {e.filename}", file=sys.stderr)
        return 1
    except BiofuseError as e:
        print(f"biofuse: runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
