"""Dense real vectors with construction-time finiteness checks, and the
scalar coercions that configuration values go through.

Primal points x and dual vectors w share one representation: everything lives
in R^d with the inner-product norm, so a point is a 1-D float64 array and the
dual norm coincides with the primal one.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import InputError

Point = np.ndarray


def as_point(x, dim: int | None = None) -> Point:
    """Coerce to a finite 1-D float64 array (scalars become length-1 vectors).

    Always copies, so callers may mutate their input afterwards. Raises
    InputError on NaN/Inf coordinates, empty input, or a dimension mismatch.
    A finite squared norm means finite coordinates; the elementwise test
    runs only when the square is not finite (it may overflow).
    """
    arr = np.array(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError(f"expected a 1-D vector, got shape {arr.shape}")
    if not math.isfinite(arr.dot(arr)) and not np.all(np.isfinite(arr)):
        raise InputError("point has non-finite coordinates")
    if dim is not None and arr.size != dim:
        raise InputError(f"expected dimension {dim}, got {arr.size}")
    return arr


def check_same_dim(*points: Point) -> int:
    """Return the common dimension of the given vectors or raise InputError."""
    dims = {int(p.shape[0]) for p in points}
    if len(dims) != 1:
        raise InputError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def as_real(key: str, value) -> float:
    """A real parameter named key, as float(value): an int or a float (numpy
    scalars included). Booleans, strings, anything else and an int beyond
    the float range raise InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{key} is out of the float range, got {value!r}") from None


def as_integer(key: str, value) -> int:
    """An integer parameter named key; integral floats (1e4 from JSON) are
    admitted, booleans and anything else raise InputError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{key} must be an integer, got {value!r}")
    return int(value)
