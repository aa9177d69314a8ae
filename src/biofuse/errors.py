"""Exception types shared across the package, and the field-type check that
every config dataclass runs before its range checks."""

import functools
import numbers
import typing


class BiofuseError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BiofuseError):
    """Input data or configuration violates a documented invariant."""


class ConfigError(ValidationError):
    """Run configuration file is malformed or inconsistent."""


class CorpusFormatError(BiofuseError):
    """Corpus file could not be parsed; the message names the line or record."""


class CorpusVersionError(CorpusFormatError):
    """Corpus file carries an unsupported format version."""


class DatasetFormatError(BiofuseError):
    """Preprocessed dataset file is malformed or truncated."""


class ModelFormatError(BiofuseError):
    """Model file is malformed, truncated, or has the wrong version."""


class TemplateFormatError(BiofuseError):
    """Template store file is malformed or has the wrong version."""


class WindowOutOfRange(BiofuseError):
    """Requested event window extends beyond the recorded stream."""


class DegenerateWindow(BiofuseError):
    """Window holds fewer than two rows and cannot be resampled."""


class FitError(BiofuseError):
    """A fitted transform (standardizer, score normalizer) is degenerate."""


class ShapeError(BiofuseError):
    """Input shape does not match the model architecture."""


class MiningError(BiofuseError):
    """Batch composition admits no valid triplets."""


class DivergenceError(BiofuseError):
    """Training produced non-finite weights; the message names the step."""


class IdentityError(BiofuseError):
    """Lookup of an identity that is not enrolled / not covered by a threshold."""


class ContractError(BiofuseError):
    """A value passed between stages violates its range contract."""


class EvalError(BiofuseError):
    """Evaluation cannot proceed (empty trial sets, bad fold plan, ...)."""


_field_types = functools.cache(typing.get_type_hints)
_NUMBER_KINDS = {int: numbers.Integral, float: numbers.Real}  # numpy scalars pass
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def check_field_types(config) -> None:
    """Raise ValidationError naming the first dataclass field whose value does
    not match its annotation: a bool only for bool (and only a bool there),
    any Integral for int, any Real for float, and an isinstance test for the
    rest (enums, nested configs, `X | None`)."""
    for name, kind in _field_types(type(config)).items():
        value = getattr(config, name)
        if isinstance(value, bool) or kind is bool:
            ok = isinstance(value, bool) and kind is bool
        else:
            ok = isinstance(value, _NUMBER_KINDS.get(kind, kind))
        if not ok:
            what = _KIND_NAMES.get(kind, f"of type {getattr(kind, '__name__', kind)}")
            raise ValidationError(f"{name} must be {what}, got {value!r}")
