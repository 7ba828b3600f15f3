"""Exception types shared across the package, and the integer check of model fields."""

import numpy as np


class LgsqeError(Exception):
    """Base class for errors raised by this package."""


class FormatError(LgsqeError):
    """A file's magic number or structure is not what the parser expects."""


class LengthError(LgsqeError):
    """A file's payload size disagrees with its header or record size."""


class GeometryError(LgsqeError):
    """Tensor or feature shapes are inconsistent with a fitted model."""


class VersionError(LgsqeError):
    """A serialized artifact declares an unsupported format version."""


def integer_array(values, name: str) -> np.ndarray:
    """A JSON list of integers as an int64 array. Floats, strings and booleans
    are refused: numpy would read ``39.5``, ``"39"`` and ``true`` as integers."""
    if isinstance(values, list) and all(type(v) is int for v in values):
        return np.asarray(values, dtype=np.int64)
    bad = next(v for v in values if type(v) is not int) if isinstance(values, list) else values
    raise FormatError(f"{name} must be a list of integers, got {bad!r}")
