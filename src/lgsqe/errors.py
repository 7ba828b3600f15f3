"""Exception types shared across the package, and the type check of model arrays."""

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


def json_array(values, name: str, ndim: int = 1, dtype=np.int64) -> np.ndarray:
    """A JSON list of numbers (``ndim`` 1) or of equal-length lists of them (``ndim`` 2) as a ``dtype`` array; an empty
    list is an empty array of that depth. An integer dtype takes integers only: numpy would read ``39.5``, ``"39"``
    and ``true`` as integers. Anything else raises a FormatError naming ``name``."""
    if values == []:
        return np.empty((0,) * ndim, dtype)
    kinds = (int,) if np.issubdtype(dtype, np.integer) else (int, float)
    array = np.array(values, dtype=object)  # a ragged list keeps its rows as objects
    bad = next((v for v in array.flat if type(v) not in kinds), None)
    if bad is None and array.ndim == ndim:
        return array.astype(dtype)
    what = ("a list of", "a list of equal-length lists of")[ndim - 1] + (" integers" if kinds == (int,) else " numbers")
    raise FormatError(f"{name} must be {what}" + ("" if bad is None or isinstance(bad, list) else f", got {bad!r}"))
