"""Distance-generating functions (mirror maps) and the Bregman divergence.

A mirror map h is a differentiable convex function whose gradient and
conjugate gradient (the inverse map, grad h* = (grad h)^{-1}) transport
between primal and dual space. Every map here has a closed-form dual
gradient, which keeps mirror-descent style updates exact.

The p-th power family (scale/p) ||x - w||^p is one class, PthPowerMap;
ScaledPthPowerMap only fixes scale = 2^{p-2}, and PowerNorm forwards to it.

All catalog maps are essentially smooth on R^d (the gradient norm grows
without bound along every unbounded ray). That property is required for the
conjugate gradient to be a bijection but is NOT verified at runtime;
user-supplied maps must guarantee it themselves.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import CapabilityError, InputError
from .points import Point, as_point, check_same_dim


class MirrorMap:
    """Base class. Subclasses provide value/gradient/dual_gradient.

    uniform_convexity, when declared, is a pair (p, sigma) certifying
    D_h(y, x) >= (sigma/p) ||y - x||^p for all y, x.
    dimension is None for maps defined on R^d for every d, otherwise the
    fixed dimension the map was constructed with.
    """

    name = "mirror"
    uniform_convexity: tuple[float, float] | None = None
    dimension: int | None = None

    def value(self, x: Point) -> float:
        raise NotImplementedError

    def gradient(self, x: Point) -> Point:
        raise NotImplementedError

    def dual_gradient(self, w: Point) -> Point:
        raise NotImplementedError

    def hessian_dense(self, x: Point) -> np.ndarray:
        raise CapabilityError(f"{self.name} does not provide a dense Hessian")

    def bregman(self, y: Point, x: Point) -> float:
        return bregman_divergence(self, y, x)


def bregman_divergence(h: MirrorMap, y: Point, x: Point) -> float:
    """D_h(y, x) = h(y) - h(x) - <grad h(x), y - x>.

    Nonnegative for convex h, up to rounding of order -1e-12; not symmetric.
    """
    check_same_dim(np.asarray(y), np.asarray(x))
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return h.value(y) - h.value(x) - float(h.gradient(x) @ (y - x))


class EuclideanMap(MirrorMap):
    """h(x) = 1/2 ||x||^2; gradient and dual gradient are the identity."""

    name = "euclidean"
    uniform_convexity = (2.0, 1.0)

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        return np.array(x, dtype=np.float64)

    def dual_gradient(self, w):
        return np.array(w, dtype=np.float64)

    def hessian_dense(self, x):
        return np.eye(len(x))


class DiagonalMap(MirrorMap):
    """h(x) = 1/2 sum_i q_i x_i^2 with q_i > 0, a non-isotropic quadratic.

    The simplest map whose Hessian metric differs from the identity; used to
    exercise natural-gradient and massless flows beyond the Euclidean case.
    """

    def __init__(self, q):
        q = as_point(q)
        if np.any(q <= 0):
            raise InputError("diagonal mirror weights must be positive")
        self.q = q
        self.dimension = q.size
        self.name = "diagonal"
        self.uniform_convexity = (2.0, float(np.min(q)))

    def value(self, x):
        return 0.5 * float(self.q @ (np.asarray(x) ** 2))

    def gradient(self, x):
        return self.q * np.asarray(x, dtype=np.float64)

    def dual_gradient(self, w):
        return np.asarray(w, dtype=np.float64) / self.q

    def hessian_dense(self, x):
        return np.diag(self.q)


class PthPowerMap(MirrorMap):
    """h(x) = (scale/p) ||x - w||^p for p >= 2, anchored at w (default origin).

    gradient(x) = scale ||x-w||^{p-2} (x-w); the dual gradient inverts it in
    closed form. With the default scale 1 the map is uniformly convex of order
    p with constant 2^{-p+2}. Every formula of the p-th power family lives
    here; ScaledPthPowerMap only fixes the scale.
    """

    scale = 1.0

    def __init__(self, p: float, anchor=None):
        if p < 2:
            raise InputError(f"pth-power mirror needs p >= 2, got {p}")
        self.p = float(p)
        self.anchor = None if anchor is None else as_point(anchor)
        self.dimension = None if self.anchor is None else self.anchor.size
        self.name = f"pth_power({p:g})"
        self.uniform_convexity = (self.p, 2.0 ** (2.0 - self.p))
        # grad h*(w) = w_anchor + c ||w||^{(2-p)/(p-1)} w with c =
        # scale^{-1/(p-1)}; c is exactly 1.0 at scale 1
        self._dual_power = (2.0 - self.p) / (self.p - 1.0)
        self._dual_factor = self.scale ** (-1.0 / (self.p - 1.0))

    def _shift(self, x):
        x = np.asarray(x, dtype=np.float64)
        return x if self.anchor is None else x - self.anchor

    def value(self, x):
        d = self._shift(x)
        return self.scale * float(np.linalg.norm(d)) ** self.p / self.p

    def gradient(self, x):
        d = self._shift(x)
        r = float(np.linalg.norm(d))
        if r == 0.0:
            return np.zeros_like(d)
        return (self.scale * r ** (self.p - 2.0)) * d

    def dual_gradient(self, w):
        # math.sqrt(w @ w) is bitwise what np.linalg.norm computes for a
        # 1-D float vector, without its dispatch; the scalar base 0.0 turns
        # -0.0 into 0.0, as adding a zero vector does
        w = np.asarray(w, dtype=np.float64)
        u = math.sqrt(w.dot(w))
        if u == 0.0:
            return np.zeros_like(w) if self.anchor is None else self.anchor.copy()
        base = 0.0 if self.anchor is None else self.anchor
        return base + (self._dual_factor * u ** self._dual_power) * w

    def hessian_dense(self, x):
        d = self._shift(x)
        n = d.size
        if self.p == 2.0:
            # the d d^T term has coefficient p - 2 = 0; its r^{p-4} factor
            # would overflow at tiny r
            return self.scale * np.eye(n)
        r = float(np.linalg.norm(d))
        if r == 0.0:
            # limit of r^{p-2} I + (p-2) r^{p-4} d d^T as d -> 0 (p > 2)
            return np.zeros((n, n))
        return self.scale * (
            r ** (self.p - 2.0) * np.eye(n)
            + (self.p - 2.0) * r ** (self.p - 4.0) * np.outer(d, d)
        )


class ScaledPthPowerMap(PthPowerMap):
    """d_p(z) = (2^{p-2}/p) ||z - w||^p, 1-uniformly convex of order p.

    The 2^{p-2} factor upgrades the pth-power map's convexity constant to 1,
    which is what the accelerated method's rate statement assumes of h.
    """

    def __init__(self, p: float, anchor=None):
        self.scale = 2.0 ** (float(p) - 2.0)  # before the base precomputes c
        super().__init__(p, anchor)
        self.name = f"scaled_power({p:g})"
        self.uniform_convexity = (self.p, 1.0)


def builtin_mirror_maps() -> dict[str, MirrorMap]:
    """Catalog of ready-made mirror maps keyed by stable identifiers."""
    return {
        "euclidean": EuclideanMap(),
        "pth_power_2": PthPowerMap(2),
        "pth_power_3": PthPowerMap(3),
        "pth_power_4": PthPowerMap(4),
        "scaled_power_3": ScaledPthPowerMap(3),
        "scaled_power_4": ScaledPthPowerMap(4),
        "diagonal_2_5": DiagonalMap((2.0, 5.0)),
    }
