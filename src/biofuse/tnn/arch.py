"""Architecture descriptors for the twin-network branches.

A branch is a 1-D conv stack over [channels x time] ending in a dense
projection.  ReLU follows every conv and every dense except the branch's
final one; fusion variants run one branch per modality, concatenate the two
16-wide projections into the 32-value representation, and (variant B only)
pass it through one more 32-wide dense layer.  Embeddings are always
L2-normalized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..corpus import Modality
from ..errors import ValidationError, check_field_types
from ..preprocess import GRID_POINTS, pair_samples

EMBEDDING_DIM = 32
FUSION_BRANCH_DIM = 16


class ArchKind(enum.Enum):
    SINGLE = "single"
    FUSION_A = "fusion-a"
    FUSION_B = "fusion-b"


@dataclass(frozen=True)
class ConvSpec:
    kernel: int
    filters: int
    stride: int = 1

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.kernel < 1 or self.filters < 1 or self.stride < 1:
            raise ValidationError("conv kernel, filters and stride must be >= 1")


@dataclass(frozen=True)
class PoolSpec:
    width: int

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.width < 1:
            raise ValidationError("pool width must be >= 1")


@dataclass(frozen=True)
class DenseSpec:
    width: int

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.width < 1:
            raise ValidationError("dense width must be >= 1")


BranchLayer = ConvSpec | PoolSpec | DenseSpec


def branch_output_widths(
    layers: tuple[BranchLayer, ...], n_channels: int, n_points: int
) -> list[tuple[int, int] | int]:
    """Trace the shape through a branch; conv/pool states are (channels, points)."""
    state: tuple[int, int] | int = (n_channels, n_points)
    trace: list[tuple[int, int] | int] = []
    for spec in layers:
        if isinstance(spec, ConvSpec):
            if isinstance(state, int):
                raise ValidationError("conv layer after a dense layer")
            c, t = state
            t_out = (t - spec.kernel) // spec.stride + 1
            if t_out < 1:
                raise ValidationError(f"conv kernel {spec.kernel} exceeds {t} time points")
            state = (spec.filters, t_out)
        elif isinstance(spec, PoolSpec):
            if isinstance(state, int):
                raise ValidationError("pool layer after a dense layer")
            c, t = state
            t_out = t // spec.width
            if t_out < 1:
                raise ValidationError(f"pool width {spec.width} exceeds {t} time points")
            state = (c, t_out)
        else:
            state = spec.width
        trace.append(state)
    return trace


@dataclass(frozen=True)
class ArchSpec:
    """One twin-network branch layout (or a two-branch fusion layout)."""

    kind: ArchKind
    input_channels: tuple[int, ...]
    branch_layers: tuple[tuple[BranchLayer, ...], ...]
    head_layers: tuple[DenseSpec, ...] = ()
    embedding_dim: int = EMBEDDING_DIM
    input_points: int = GRID_POINTS
    modalities: tuple[Modality, ...] | None = None

    def __post_init__(self) -> None:
        n_branches = len(self.branch_layers)
        if len(self.input_channels) != n_branches:
            raise ValidationError("one input channel count per branch required")
        if self.modalities is not None and len(self.modalities) != n_branches:
            raise ValidationError("one modality tag per branch required")
        for layers in self.branch_layers:
            if not layers or not isinstance(layers[-1], DenseSpec):
                raise ValidationError("every branch must end in a dense layer")
        widths = [
            branch_output_widths(layers, c, self.input_points)[-1]
            for layers, c in zip(self.branch_layers, self.input_channels)
        ]
        if self.kind is ArchKind.SINGLE:
            if n_branches != 1 or self.head_layers:
                raise ValidationError("single-modality arch has one branch and no head")
            if self.embedding_dim != EMBEDDING_DIM or widths[0] != EMBEDDING_DIM:
                raise ValidationError(
                    f"single-modality branch must project to {EMBEDDING_DIM} features"
                )
        else:
            if n_branches != 2:
                raise ValidationError("fusion archs take exactly two branches")
            if any(w != FUSION_BRANCH_DIM for w in widths):
                raise ValidationError(
                    f"fusion branches must project to {FUSION_BRANCH_DIM} features each"
                )
            if self.embedding_dim != EMBEDDING_DIM:
                raise ValidationError(f"fusion embedding width must be {EMBEDDING_DIM}")
            if self.kind is ArchKind.FUSION_A and self.head_layers:
                raise ValidationError("fusion variant A concatenates without a head layer")
            if self.kind is ArchKind.FUSION_B and self.head_layers != (DenseSpec(EMBEDDING_DIM),):
                raise ValidationError(
                    f"fusion variant B requires one {EMBEDDING_DIM}-wide head layer"
                )

    @property
    def n_branches(self) -> int:
        return len(self.branch_layers)

    @property
    def tag(self) -> str:
        if self.modalities is None:
            return self.kind.value
        return f"{self.kind.value}:{'+'.join(m.value for m in self.modalities)}"


def default_branch(out_dim: int) -> tuple[BranchLayer, ...]:
    """The stand-in conv stack used for every production branch."""
    return (
        ConvSpec(kernel=7, filters=32),
        PoolSpec(width=2),
        ConvSpec(kernel=5, filters=64),
        PoolSpec(width=2),
        DenseSpec(width=128),
        DenseSpec(width=out_dim),
    )


def single_modality_arch(modality: Modality) -> ArchSpec:
    return ArchSpec(
        kind=ArchKind.SINGLE,
        input_channels=(modality.n_channels,),
        branch_layers=(default_branch(EMBEDDING_DIM),),
        modalities=(modality,),
    )


def fusion_arch(kind: ArchKind, eye_modality: Modality = Modality.EYE_PUPIL) -> ArchSpec:
    if kind is ArchKind.SINGLE:
        raise ValidationError("fusion_arch builds fusion variants only")
    if eye_modality is Modality.BRAIN:
        raise ValidationError("the second fusion branch must be an eye modality")
    return ArchSpec(
        kind=kind,
        input_channels=(Modality.BRAIN.n_channels, eye_modality.n_channels),
        branch_layers=(default_branch(FUSION_BRANCH_DIM), default_branch(FUSION_BRANCH_DIM)),
        head_layers=(DenseSpec(EMBEDDING_DIM),) if kind is ArchKind.FUSION_B else (),
        modalities=(Modality.BRAIN, eye_modality),
    )


def model_inputs(arch: ArchSpec, by_modality: dict) -> list:
    """The samples an arch consumes, from standardized samples per modality:
    one modality's list, or the paired brain/eye list for a two-branch model."""
    if arch.modalities is None:
        raise ValidationError(f"arch {arch.tag} names no input modalities")
    missing = [m.value for m in arch.modalities if m not in by_modality]
    if missing:
        raise ValidationError(f"arch {arch.tag} needs samples for {', '.join(missing)}")
    if arch.n_branches == 1:
        return by_modality[arch.modalities[0]]
    return pair_samples(*(by_modality[m] for m in arch.modalities))


# ---------------------------------------------------------------------------
# (De)serialization of arch descriptors for the model file


def arch_to_dict(arch: ArchSpec) -> dict:
    def layer(sp: BranchLayer) -> list:
        if isinstance(sp, ConvSpec):
            return ["conv", sp.kernel, sp.filters, sp.stride]
        if isinstance(sp, PoolSpec):
            return ["pool", sp.width]
        return ["dense", sp.width]

    return {
        "kind": arch.kind.value,
        "input_channels": list(arch.input_channels),
        "branch_layers": [[layer(sp) for sp in layers] for layers in arch.branch_layers],
        "head_layers": [layer(sp) for sp in arch.head_layers],
        "embedding_dim": arch.embedding_dim,
        "input_points": arch.input_points,
        "modalities": None if arch.modalities is None else [m.value for m in arch.modalities],
    }


def arch_from_dict(d: dict) -> ArchSpec:
    def layer(entry: list) -> BranchLayer:
        tag = entry[0]
        if tag == "conv":
            return ConvSpec(kernel=entry[1], filters=entry[2], stride=entry[3])
        if tag == "pool":
            return PoolSpec(width=entry[1])
        if tag == "dense":
            return DenseSpec(width=entry[1])
        raise ValidationError(f"unknown layer tag {tag!r}")

    mods = d.get("modalities")
    return ArchSpec(
        kind=ArchKind(d["kind"]),
        input_channels=tuple(d["input_channels"]),
        branch_layers=tuple(tuple(layer(e) for e in layers) for layers in d["branch_layers"]),
        head_layers=tuple(layer(e) for e in d["head_layers"]),
        embedding_dim=d["embedding_dim"],
        input_points=d["input_points"],
        modalities=None if mods is None else tuple(Modality(m) for m in mods),
    )
