"""Small pure numeric helpers: the Euclidean norm, row dot products, rising
factorials, Taylor models, differences.

``norm(v)`` is the one Euclidean norm on the per-iteration paths. For a
float64 array it returns, bit for bit, ``float(np.linalg.norm(v))``: numpy
computes exactly ``sqrt(ravel(v).dot(ravel(v)))`` and both square roots are
correctly rounded, so only numpy's argument dispatch is skipped. The ravel
matters: it makes a strided view contiguous, and BLAS may sum a strided
``dot`` in another order. NaN, +-inf and a finite vector whose square
overflows all give a norm that is not ``<=`` any finite threshold.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CapabilityError, InputError

# the largest x whose e^x is a finite float
LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a float64 array, bitwise float(np.linalg.norm(v))."""
    v = v.ravel("K")
    return math.sqrt(v.dot(v))


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<A[i], B[i]> per row (B may be one vector for every row), bit for bit
    float(A[i] @ B[i]): the stacked matmul takes each row as one 1-d dot, as
    the @ of two vectors does, where einsum and (A * B).sum(1) do not."""
    return (A[:, None, :] @ B[..., :, None])[:, 0, 0]


def rising_factorial(k: int, m: int) -> int:
    """k^(m) = k (k+1) ... (k+m-1), the product of m consecutive integers.

    Computed in exact Python integer arithmetic, so there is no overflow and
    no precision loss at any scale; callers convert to float where needed
    (the conversion rounds to the nearest double, exact below 2^53).
    k = 0 gives 0 since the first factor vanishes.
    """
    if k < 0 or m < 1:
        raise InputError(f"rising_factorial needs k >= 0 and m >= 1, got ({k}, {m})")
    return math.prod(range(k, k + m))


def taylor_model(f, x, order: int, y) -> float:
    """Taylor approximation of f centered at x, evaluated at y.

    Returns sum_{i=0}^{order} (1/i!) nabla^i f(x) (y-x)^i for order in {1,2,3}.
    """
    if order not in (1, 2, 3):
        raise CapabilityError(f"taylor_model supports orders 1..3, got {order}")
    if order > f.derivative_order:
        raise CapabilityError(
            f"{f.name} provides derivatives to order {f.derivative_order}, "
            f"model order {order} requested"
        )
    d = y - x
    val = f.value(x) + float(f.gradient(x) @ d)
    if order >= 2:
        val += 0.5 * float(d @ (f.hessian_dense(x) @ d))
    if order >= 3:
        val += float(f.third_apply(x, d, d) @ d) / 6.0
    return val


def central_diff_gradient(func, x, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        g[i] = (func(x + step) - func(x - step)) / (2.0 * eps)
    return g


def central_diff_directional(func, x, v, eps: float = 1e-5) -> float:
    """Central finite-difference directional derivative (f(x+ev)-f(x-ev))/2e."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(func(x + eps * v) - func(x - eps * v)) / (2.0 * eps)


def central_diff_scalar(func, t: float, eps: float = 1e-6) -> float:
    """Central finite difference of a scalar function of one variable."""
    return (func(t + eps) - func(t - eps)) / (2.0 * eps)
