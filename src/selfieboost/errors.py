"""Exception types shared across the package, and the allocation wrapper ``_sized_by``."""


class SelfieBoostError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(SelfieBoostError, ValueError):
    """An array argument has the wrong dimensions."""


class NumericError(SelfieBoostError, ValueError):
    """A computation produced or received a non-finite value."""


class EmptyDatasetError(SelfieBoostError, ValueError):
    """A dataset with zero examples where at least one is required."""


class UnsupportedArchitectureError(SelfieBoostError, ValueError):
    """The operation needs an architecture feature the network lacks."""


class ModelFormatError(SelfieBoostError, ValueError):
    """A model file could not be parsed."""


class ModelVersionError(ModelFormatError):
    """A model file declares an unknown format version."""


class DatasetParseError(SelfieBoostError, ValueError):
    """A dataset or metrics CSV file could not be parsed."""


class DegenerateTeacherError(SelfieBoostError, RuntimeError):
    """Rejection sampling against the teacher exceeded its attempt cap."""


class NoWeakLearnerError(SelfieBoostError, RuntimeError):
    """Every weak learner was discarded; the ensemble would be empty."""


class DomainError(SelfieBoostError, ValueError):
    """Arguments lie outside the region where the operation is defined."""


class ConfigError(SelfieBoostError, ValueError):
    """A configuration value or key is invalid."""


class ValidationError(SelfieBoostError, ValueError):
    """A record structure failed consistency validation."""


def _sized_by(options: str, f, *args):
    """``f(*args)``, where an array too large to exist keeps numpy's text and names ``options``."""
    try:
        return f(*args)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than one array can address
        raise MemoryError(f"{options}: {exc}") from exc
