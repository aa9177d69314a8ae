"""Acceptance gate: one test per criterion, each printing a PASS line.

The ordinal criteria (3, 4) share one 10-seed battery of synthetic
experiments, built once per session.  Criterion 5 and 6 additionally audit
every report the battery emits.
"""

import json
import time

import numpy as np
import pytest

from biofuse.cli import main as cli_main
from biofuse.corpus import Modality, SynthConfig, generate_synthetic
from biofuse.fusion import FusionRule
from biofuse.metrics import (
    FAR_TARGETS,
    ExperimentConfig,
    build_trials,
    compute_eer,
    eer_from_scores,
    frr_at_far_scores,
    run_experiments,
)
from biofuse.preprocess import (
    GRID_POINTS,
    GRID_STEP_S,
    NanPolicy,
    RawWindow,
    Rejected,
    Sample,
    apply_standardizer,
    build_dataset,
    fit_standardizer,
    resample_to_grid,
    screen_and_interpolate,
)
from biofuse.tnn import TrainConfig, single_modality_arch, train
from biofuse.tnn.arch import ArchKind, ArchSpec, ConvSpec, DenseSpec, PoolSpec
from biofuse.tnn.loss import _triplet_embedding_grads
from biofuse.tnn.network import EmbeddingModel, forward_batch
from biofuse.verify import Scenario
from oracles import oracle_eer, oracle_frr_at_far, triplet_records, triplet_step

SEEDS = range(10)
SCENARIOS = (Scenario.S1, Scenario.S2, Scenario.S3)
CONFIGS = ("brain", "eye", "fusion")
CELLS = [(name, scenario) for name in CONFIGS for scenario in SCENARIOS]

BATTERY_SYNTH = dict(
    n_subjects=12, n_rounds=4, dots_per_round=25,
    subject_separability=0.5, noise_sigma=0.9, blink_rate_per_min=4.0,
)
BATTERY_FOLDS = 2
BATTERY_TRAIN = dict(epochs=8, batch_size=48, learning_rate=1e-3, margin=0.2)


def _ok(capsys, criterion: str, detail: str) -> None:
    # bypass pytest capture so the per-criterion line always reaches the log
    with capsys.disabled():
        print(f"PASS {criterion}: {detail}")


def _run_seed(seed: int) -> dict:
    """Brain, eye and mean fusion under S1-S3: nine reports, keyed by (config,
    scenario), from one `run_experiments` call that trains each fold's two
    models once."""
    train_config = TrainConfig(seed=seed, **BATTERY_TRAIN)
    reports = run_experiments(generate_synthetic(SynthConfig(seed=seed, **BATTERY_SYNTH)), [
        ExperimentConfig(
            scenario=scenario, modality="brain" if name == "brain" else "eye-pupil",
            fusion=FusionRule.MEAN if name == "fusion" else None,
            folds=BATTERY_FOLDS, seed=seed, train=train_config,
        )
        for name, scenario in CELLS
    ])
    return dict(zip(CELLS, reports))


def _eer(reports: dict, name: str, scenario: Scenario) -> float:
    return reports[name, scenario].pooled["eer"]


@pytest.fixture(scope="session")
def battery():
    t0 = time.time()
    outcomes = {seed: _run_seed(seed) for seed in SEEDS}
    return outcomes, time.time() - t0


@pytest.fixture(scope="session")
def smoke_reports():
    """run_experiments reports on seed-0 data for report-level audits."""
    cfg = SynthConfig(seed=0, n_subjects=8, n_rounds=3, dots_per_round=10,
                      subject_separability=0.6, noise_sigma=0.7)
    train_cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3, seed=0)
    return run_experiments(generate_synthetic(cfg), [
        ExperimentConfig(scenario=scenario, modality=modality, fusion=fusion,
                         folds=2, seed=0, train=train_cfg)
        for scenario, modality, fusion in (
            (Scenario.S2, "brain", None),
            (Scenario.S3, "eye-pupil", FusionRule.PRODUCT),
            (Scenario.S1, "fusion-a", None),
        )
    ])


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness


def _random_tiny_arch(rng) -> ArchSpec:
    kind = [ArchKind.SINGLE, ArchKind.SINGLE, ArchKind.FUSION_A, ArchKind.FUSION_B][
        int(rng.integers(0, 4))
    ]
    points = int(rng.integers(12, 20))

    def branch(out_dim):
        layers = []
        if rng.random() < 0.8:
            layers.append(ConvSpec(kernel=int(rng.integers(2, 5)),
                                   filters=int(rng.integers(1, 3))))
            if rng.random() < 0.5:
                layers.append(PoolSpec(width=2))
        if rng.random() < 0.5:
            layers.append(DenseSpec(width=int(rng.integers(3, 8))))
        layers.append(DenseSpec(width=out_dim))
        return tuple(layers)

    if kind is ArchKind.SINGLE:
        return ArchSpec(
            kind=kind,
            input_channels=(int(rng.integers(2, 4)),),
            branch_layers=(branch(32),),
            input_points=points,
        )
    return ArchSpec(
        kind=kind,
        input_channels=(int(rng.integers(2, 4)), int(rng.integers(2, 4))),
        branch_layers=(branch(16), branch(16)),
        head_layers=(DenseSpec(32),) if kind is ArchKind.FUSION_B else (),
        input_points=points,
    )


def _kink_margins(model: EmbeddingModel, branches) -> float:
    """Smallest distance to a ReLU/pool nondifferentiability, via a standalone forward."""
    smallest = np.inf
    for bi, xb in enumerate(branches):
        x = np.asarray(xb, dtype=np.float64)
        for li, spec in enumerate(model.arch.branch_layers[bi]):
            layers = model.arch.branch_layers[bi]
            if isinstance(spec, ConvSpec):
                w = model.views[f"branch{bi}/layer{li}/w"]
                b = model.views[f"branch{bi}/layer{li}/b"]
                t_out = (x.shape[2] - spec.kernel) // spec.stride + 1
                z = np.zeros((x.shape[0], spec.filters, t_out))
                for t in range(t_out):
                    patch = x[:, :, t * spec.stride:t * spec.stride + spec.kernel]
                    z[:, :, t] = np.tensordot(patch, w, axes=([1, 2], [1, 2])) + b
                smallest = min(smallest, float(np.abs(z).min()))
                x = np.maximum(z, 0.0)
            elif isinstance(spec, PoolSpec):
                t_p = x.shape[2] // spec.width
                xr = x[:, :, : t_p * spec.width].reshape(
                    x.shape[0], x.shape[1], t_p, spec.width
                )
                top2 = np.sort(xr, axis=3)[..., -2:]
                # windows whose max is a clamped zero carry no gradient either
                # way; only an active max with a close runner-up is a kink
                active = top2[..., 1] > 0
                if active.any():
                    gap = (top2[..., 1] - top2[..., 0])[active]
                    smallest = min(smallest, float(gap.min()))
                x = xr.max(axis=3)
            else:
                w = model.views[f"branch{bi}/layer{li}/w"]
                b = model.views[f"branch{bi}/layer{li}/b"]
                x2 = x.reshape(x.shape[0], -1)
                z = x2 @ w.T + b
                if li != len(layers) - 1:
                    smallest = min(smallest, float(np.abs(z).min()))
                    x = np.maximum(z, 0.0)
                else:
                    x = z
    return smallest


def _gradcheck_case(arch_seed: int):
    """Deterministically pick inputs with safe kink and hinge margins."""
    rng = np.random.default_rng(arch_seed)
    arch = _random_tiny_arch(rng)
    model = EmbeddingModel(arch, seed=arch_seed, dtype=np.float64)
    margin = 0.5
    triplets = triplet_records([(0, 1, 2), (3, 4, 5), (1, 0, 4)])
    for attempt in range(50):
        data_rng = np.random.default_rng(10_000 * arch_seed + attempt)
        feats = [
            tuple(
                data_rng.standard_normal((c, arch.input_points))
                for c in arch.input_channels
            )
            for _ in range(6)
        ]
        branches = tuple(np.stack(rows) for rows in zip(*feats))
        if _kink_margins(model, branches) < 1e-3:
            continue
        emb, _ = forward_batch(model, branches, with_cache=False)
        hinge_ok = True
        active = 0
        for t in triplets:
            d_ap = ((emb[t.anchor] - emb[t.positive]) ** 2).sum()
            d_an = ((emb[t.anchor] - emb[t.negative]) ** 2).sum()
            h = d_ap - d_an + margin
            if abs(h) < 1e-2:
                hinge_ok = False
                break
            active += h > 0
        if hinge_ok and active >= 1:
            return model, branches, triplets, margin
    raise AssertionError(f"no safe gradcheck inputs found for arch seed {arch_seed}")


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    worst = 0.0
    n_checked = 0
    for arch_seed in range(20):
        model, branches, triplets, margin = _gradcheck_case(arch_seed)
        grad, _ = triplet_step(model, branches, triplets, margin)

        def mean_loss():
            emb, _ = forward_batch(model, branches, with_cache=False)
            return _triplet_embedding_grads(emb, triplets, margin)[1]

        eps = 1e-4
        fd = np.empty_like(grad)
        for i in range(model.weights.size):
            orig = model.weights[i]
            model.weights[i] = orig + eps
            up = mean_loss()
            model.weights[i] = orig - eps
            down = mean_loss()
            model.weights[i] = orig
            fd[i] = (up - down) / (2 * eps)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-30)
        assert rel < 1e-4, f"arch seed {arch_seed}: relative error {rel:.2e}"
        worst = max(worst, rel)
        n_checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _ok(capsys, "criterion 1 (gradient correctness)",
        f"{n_checked} architectures, worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: EER / FRR oracle equivalence


def _random_trialset(rng) -> tuple[np.ndarray, np.ndarray]:
    n_g = int(rng.integers(1, 501))
    n_i = int(rng.integers(1, 501))
    mode = rng.random()
    if mode < 0.3:  # overlapping gaussians
        g = rng.normal(0.5, 0.5, n_g)
        i = rng.normal(-0.5, 0.5, n_i)
    elif mode < 0.6:  # heavy ties from a coarse grid
        g = rng.integers(-5, 6, n_g) / 5.0
        i = rng.integers(-5, 6, n_i) / 5.0
    elif mode < 0.8:  # separable
        g = rng.uniform(1.0, 2.0, n_g)
        i = rng.uniform(-2.0, -1.0, n_i)
    else:  # identical distributions
        g = rng.uniform(-1, 1, n_g)
        i = rng.uniform(-1, 1, n_i)
    return g, i


def test_criterion_2_eer_frr_oracle(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        g, i = _random_trialset(rng)
        eer, theta = eer_from_scores(g, i)
        o_eer, o_theta = oracle_eer(g.tolist(), i.tolist())
        assert abs(eer - o_eer) <= 1e-9
        assert abs(theta - o_theta) <= 1e-9
        worst = max(worst, abs(eer - o_eer))
        for target in FAR_TARGETS:
            frr, theta = frr_at_far_scores(g, i, target)
            o_frr, o_theta = oracle_frr_at_far(g.tolist(), i.tolist(), target)
            assert abs(frr - o_frr) <= 1e-9
            assert abs(theta - o_theta) <= 1e-9
            worst = max(worst, abs(frr - o_frr))
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _ok(capsys, "criterion 2 (EER/FRR oracle)",
        f"100 trial sets, worst deviation {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 3 & 4: ordinal reproduction on the synthetic battery


def _reduction(fused: float, single: float) -> str:
    return f"{1.0 - fused / single:.1%}" if single > 0 else "n/a"


def _print_effect_sizes(outcomes, capsys) -> None:
    """Per seed: S3 EERs and the fused reduction against each single (1 - fused/single)."""
    with capsys.disabled():
        for seed, o in outcomes.items():
            brain, eye, fused = (_eer(o, c, Scenario.S3) for c in CONFIGS)
            print(f"  seed {seed}: S3 EER brain {brain:.4f} eye {eye:.4f} fusion {fused:.4f}; "
                  f"fused reduction vs eye {_reduction(fused, eye)}, "
                  f"vs brain {_reduction(fused, brain)}")


def test_criterion_3_fusion_beats_singles(battery, capsys):
    outcomes, elapsed = battery
    _print_effect_sizes(outcomes, capsys)
    wins = sum(
        _eer(o, "fusion", Scenario.S3) <= min(_eer(o, c, Scenario.S3) for c in ("brain", "eye"))
        for o in outcomes.values()
    )
    assert elapsed < 15 * 60, f"battery took {elapsed:.0f}s"
    assert wins >= 8, f"mean fusion beat both singles in only {wins}/10 seeds"
    _ok(capsys, "criterion 3 (fusion beats singles)",
        f"{wins}/10 seeds, battery {elapsed:.0f}s")


def test_criterion_4_scenario_ordering(battery, capsys):
    outcomes, _ = battery
    s2_wins, s3_wins = (
        sum(_eer(o, "fusion", better) <= _eer(o, "fusion", worse) for o in outcomes.values())
        for better, worse in ((Scenario.S2, Scenario.S1), (Scenario.S3, Scenario.S2))
    )
    assert s2_wins >= 9, f"S2 <= S1 in only {s2_wins}/10 seeds"
    assert s3_wins >= 7, f"S3 <= S2 in only {s3_wins}/10 seeds"
    _ok(capsys, "criterion 4 (scenario ordering)",
        f"S2<=S1 in {s2_wins}/10, S3<=S2 in {s3_wins}/10 seeds")


# ---------------------------------------------------------------------------
# Criterion 5: FRR@FAR monotonicity in every emitted report


def _battery_reports(battery) -> list:
    outcomes, _ = battery
    return [r for reports in outcomes.values() for r in reports.values()]


def test_criterion_5_frr_far_monotonicity(battery, smoke_reports, capsys):
    checked = 0
    for report in _battery_reports(battery) + smoke_reports:
        for m in [f["frr_at_far"] for f in report.folds] + [report.pooled["frr_at_far"]]:
            assert m["0.01"] <= m["0.001"] <= m["0.0"]
            checked += 1
    _ok(capsys, "criterion 5 (FRR@FAR monotonicity)", f"{checked} FRR triples, zero violations")


# ---------------------------------------------------------------------------
# Criterion 6: round-exclusion and subject-disjointness audits


def test_criterion_6_audits(battery, smoke_reports, capsys):
    battery_reports = _battery_reports(battery)
    for report in battery_reports + smoke_reports:
        for fold in report.folds:
            assert fold["audits"] == {"round_exclusion_violations": 0, "train_test_overlap": 0,
                                      "foreign_trial_subjects": 0}, report.config_tag()
    for report in battery_reports:
        # orientation guard: scores are similarities, so EER stays below
        # 0.5 + 1/min(n_genuine, n_impostor) on the synthetic suite
        pooled = report.pooled
        n_min = min(pooled["n_genuine"], pooled["n_impostor"])
        assert pooled["eer"] <= 0.5 + 1.0 / n_min, f"{report.config_tag()}: EER orientation"
    _ok(capsys, "criterion 6 (audits)",
        f"{len(battery_reports)} battery reports + {len(smoke_reports)} reports, zero violations")


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end determinism


def test_criterion_7_determinism(tmp_path, capsys):
    artifacts = {}
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        cfg = {
            "paths": {
                "corpus": str(d / "c.corpus"),
                "dataset": str(d / "d.ds"),
                "model": str(d / "m.model"),
                "report": str(d / "report.json"),
            },
            "synth": {"n_subjects": 6, "n_rounds": 2, "dots_per_round": 10,
                      "subject_separability": 0.7, "noise_sigma": 0.6, "seed": 3},
            "train": {"epochs": 2, "batch_size": 16, "learning_rate": 0.001,
                      "seed": 3},
            "eval": {"scenario": "s2", "modality": "brain", "folds": 2,
                     "seed": 3},
        }
        config = d / "run.json"
        config.write_text(json.dumps(cfg))
        assert cli_main(["gen", "--config", str(config)]) == 0
        assert cli_main(["preprocess", "--config", str(config), "--modality", "brain"]) == 0
        assert cli_main(["train", "--config", str(config)]) == 0
        assert cli_main(["evaluate", "--config", str(config)]) == 0
        artifacts[run] = {
            name: (d / name).read_bytes()
            for name in ("c.corpus", "d.ds", "m.model", "report.json", "report.csv")
        }
    for name in artifacts["one"]:
        assert artifacts["one"][name] == artifacts["two"][name], f"{name} differs across runs"
    _ok(capsys, "criterion 7 (determinism)",
        "byte-identical corpus, dataset, model and report across two runs")


# ---------------------------------------------------------------------------
# Criterion 8: preprocessing contracts


def test_criterion_8_preprocessing_contracts(capsys):
    # resampling exact on affine signals
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(10):
        slope, intercept = rng.normal(size=2)
        ts = np.arange(-2, 84) / 200.0  # brackets the grid so no end clamping
        w = RawWindow(
            subject_id="s", round_id=0, modality=Modality.EYE, t0=0.0,
            timestamps=ts, values=(slope * ts + intercept)[:, None],
        )
        grid = np.arange(GRID_POINTS) * GRID_STEP_S
        err = np.abs(resample_to_grid(w)[0] - (slope * grid + intercept)).max()
        worst = max(worst, float(err))
    assert worst <= 1e-12

    # standardized training channels: mean ~ 0, variance ~ 1
    samples = []
    for i in range(30):
        data = rng.normal(3.0, 2.5, size=(14, GRID_POINTS)).astype(np.float32)
        samples.append(Sample(subject_id=f"s{i % 3}", round_id=0,
                              modality=Modality.BRAIN, data=data, t0=float(i)))
    std = fit_standardizer(samples, scope="acc")
    stacked = np.stack([apply_standardizer(std, s).data for s in samples])
    per_channel = stacked.transpose(1, 0, 2).reshape(14, -1)
    mean_err = float(np.abs(per_channel.mean(axis=1)).max())
    var_err = float(np.abs(per_channel.var(axis=1) - 1.0).max())
    assert mean_err < 1e-9
    assert var_err < 1e-6

    # no NaN survives screening
    survived = 0
    for k in range(200):
        data = rng.standard_normal((4, GRID_POINTS))
        mask = rng.random((4, GRID_POINTS)) < rng.uniform(0.0, 0.6)
        data[mask] = np.nan
        out = screen_and_interpolate(data, NanPolicy())
        if not isinstance(out, Rejected):
            survived += 1
            assert not np.isnan(out).any()
    assert survived > 0
    _ok(capsys, "criterion 8 (preprocessing contracts)",
        f"affine error {worst:.1e}, mean {mean_err:.1e}, var {var_err:.1e}, "
        f"{survived} screened samples NaN-free")


# ---------------------------------------------------------------------------
# Criterion 9: training sanity on a separable toy


def test_criterion_9_training_sanity(capsys):
    cfg = SynthConfig(n_subjects=8, n_rounds=2, dots_per_round=12,
                      subject_separability=1.0, noise_sigma=0.6, seed=1)
    recordings = generate_synthetic(cfg)
    samples, _ = build_dataset(recordings, Modality.BRAIN)
    train_subjects = {f"s{i:02d}" for i in range(4)}
    tr_raw = [s for s in samples if s.subject_id in train_subjects]
    te_raw = [s for s in samples if s.subject_id not in train_subjects]
    std = fit_standardizer(tr_raw, scope="toy")
    tr = [apply_standardizer(std, s) for s in tr_raw]
    te = [apply_standardizer(std, s) for s in te_raw]
    model, history = train(
        tr, single_modality_arch(Modality.BRAIN),
        TrainConfig(epochs=6, batch_size=32, learning_rate=1e-3, seed=1),
    )
    assert history[-1] < history[0], f"loss did not decrease: {history}"
    trials = build_trials(te, model, Scenario.S2)
    eer, _ = compute_eer(trials)
    assert eer < 0.5
    _ok(capsys, "criterion 9 (training sanity)",
        f"loss {history[0]:.4f} -> {history[-1]:.4f}, held-out S2 EER {eer:.4f}")
