"""Multimodal eye-movement + brainwave verification testbed on synthetic data."""

from .corpus import (
    EventMarker,
    Modality,
    Recording,
    Stream,
    SynthConfig,
    generate_synthetic,
    iter_corpus,
    read_corpus,
    write_corpus,
)
from .fusion import (
    FusionRule,
    ScoreNormalizer,
    combine_raw,
    fit_normalizer_arrays,
    fuse_arrays,
)
from .metrics import (
    EvalReport,
    ExperimentConfig,
    FoldPlan,
    TrialSet,
    build_trials,
    compute_eer,
    eer_from_scores,
    frr_at_far,
    frr_at_far_scores,
    per_subject_eer,
    plan_folds,
    run_experiment,
    run_experiments,
)
from .preprocess import (
    GRID_POINTS,
    NanPolicy,
    PairedSample,
    PreprocessReport,
    Rejected,
    Sample,
    Standardizer,
    apply_standardizer,
    build_dataset,
    extract_window,
    fit_standardizer,
    load_dataset,
    pair_samples,
    resample_to_grid,
    save_dataset,
    screen_and_interpolate,
)
from .tnn import (
    ArchKind,
    ArchSpec,
    EmbeddingModel,
    TrainConfig,
    fusion_arch,
    load_model,
    mine_triplets,
    save_model,
    single_modality_arch,
    train,
)
from .verify import (
    Decision,
    Scenario,
    Template,
    TemplateStore,
    Threshold,
    best_match,
    decide,
    load_templates,
    save_templates,
    verify_claim,
)

__version__ = "0.1.0"
