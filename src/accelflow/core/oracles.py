"""Objective oracles: convex benchmark functions with analytic derivatives.

Each oracle exposes derivatives up to derivative_order (at most 3), declared
smoothness constants L_s (Lipschitz constants of nabla^s f, possibly
conservative: a larger declared constant is always valid), optional uniform
convexity (p, sigma) certifying D_f(y,x) >= (sigma/p)||y-x||^p, and the exact
minimizer when one is known in closed form.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapabilityError, InputError
from .mirrors import PthPowerMap
from .numerics import norm
from .points import Point, as_point

CATALOG_SEED = 1723

class ObjectiveOracle:
    """Base class for objectives. Subclasses fill in values and derivatives."""

    name = "objective"
    derivative_order = 1
    smoothness: dict[int, float] = {}
    uniform_convexity: tuple[float, float] | None = None
    minimizer: Point | None = None
    min_value: float | None = None
    dimension: int | None = None

    def value(self, x: Point) -> float:
        raise NotImplementedError

    def gradient(self, x: Point) -> Point:
        raise NotImplementedError

    def hessian_apply(self, x: Point, v: Point) -> Point:
        raise CapabilityError(f"{self.name} has no second derivatives")

    def hessian_dense(self, x: Point) -> np.ndarray:
        raise CapabilityError(f"{self.name} has no second derivatives")

    def third_apply(self, x: Point, u: Point, v: Point) -> Point:
        """The vector nabla^3 f(x)[u, v, .]."""
        raise CapabilityError(f"{self.name} has no third derivatives")

    def gap(self, x: Point) -> float:
        """f(x) - f(x*), available when the minimizer is known."""
        if self.min_value is None:
            raise CapabilityError(f"{self.name} has no known minimum value")
        return self.value(x) - self.min_value

    def smoothness_constant(self, order: int) -> float:
        try:
            return self.smoothness[order]
        except KeyError:
            raise CapabilityError(
                f"{self.name} declares no order-{order} smoothness constant"
            ) from None

    def level_set_radius(self, x: Point) -> float | None:
        """Radius of {y : f(y) <= f(x)} around the minimizer, when derivable.

        Uniform convexity of order (q, sigma) gives (sigma/q)||y - x*||^q
        <= f(y) - f*, so the sublevel set at f(x) sits inside the ball of
        radius (q (f(x) - f*) / sigma)^{1/q}. Returns None when nothing is
        declared; the discrete-method bounds then fall back to an empirical
        estimate.
        """
        if self.min_value is None or self.uniform_convexity is None:
            return None
        q, sigma = self.uniform_convexity
        if sigma <= 0:
            return None
        gap = self.value(x) - self.min_value
        return (q * max(gap, 0.0) / sigma) ** (1.0 / q)


class DiagonalQuadratic(ObjectiveOracle):
    """f(x) = 1/2 sum_i lam_i x_i^2 with lam_i > 0; minimizer at the origin.

    Higher-order derivatives vanish, so the declared order-2 and order-3
    smoothness constants 4 and 6 are conservative stand-ins: any positive
    value is a valid Lipschitz constant for a zero tensor, and these choices
    give round step sizes. Uniform convexity is the exact (2, min lam).
    """

    derivative_order = 3

    def __init__(self, lam, name="quadratic"):
        lam = as_point(lam)
        if np.any(lam <= 0):
            raise InputError("quadratic needs positive curvatures")
        self.lam = lam
        self.name = name
        self.dimension = lam.size
        self.smoothness = {1: float(np.max(lam)), 2: 4.0, 3: 6.0}
        self.uniform_convexity = (2.0, float(np.min(lam)))
        self.minimizer = np.zeros(lam.size)
        self.min_value = 0.0

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * float(self.lam @ (x * x))

    def gradient(self, x):
        return self.lam * np.asarray(x, dtype=np.float64)

    def hessian_apply(self, x, v):
        return self.lam * np.asarray(v, dtype=np.float64)

    def hessian_dense(self, x):
        return np.diag(self.lam)

    def third_apply(self, x, u, v):
        return np.zeros(self.lam.size)


class LeastSquares(ObjectiveOracle):
    """f(x) = 1/2 ||A x - b||^2 with the minimizer computed by direct solve.

    Higher-order derivatives vanish; the declared order-2 and order-3
    constants 2 and 6 are conservative stand-ins, as for DiagonalQuadratic.
    """

    derivative_order = 3

    def __init__(self, A, b, name="least_squares"):
        A = np.array(A, dtype=np.float64)
        b = np.array(b, dtype=np.float64)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise InputError("least squares needs A (m,d) and b (m,)")
        self.A = A
        self.b = b
        self.name = name
        self.dimension = A.shape[1]
        self.gram = A.T @ A
        eigs = np.linalg.eigvalsh(self.gram)
        self.smoothness = {1: float(eigs[-1]), 2: 2.0, 3: 6.0}
        if eigs[0] > 1e-12:
            self.uniform_convexity = (2.0, float(eigs[0]))
        self.minimizer = np.linalg.lstsq(A, b, rcond=None)[0]
        r = A @ self.minimizer - b
        self.min_value = 0.5 * float(r @ r)

    def value(self, x):
        r = self.A @ np.asarray(x, dtype=np.float64) - self.b
        return 0.5 * float(r @ r)

    def gradient(self, x):
        return self.A.T @ (self.A @ np.asarray(x, dtype=np.float64) - self.b)

    def hessian_apply(self, x, v):
        return self.gram @ np.asarray(v, dtype=np.float64)

    def hessian_dense(self, x):
        return self.gram.copy()

    def third_apply(self, x, u, v):
        return np.zeros(self.dimension)


class LogSumExp(ObjectiveOracle):
    """f(x) = log sum_i exp(<a_i, x> + b_i), derivatives analytic to order 3.

    When the rows of A come in +/- pairs and b = 0, f is even, so the origin
    is the exact minimizer with value log(rows); the seeded catalog instance
    is built that way.
    """

    derivative_order = 3

    def __init__(self, A, b, name="log_sum_exp", minimizer=None):
        A = np.array(A, dtype=np.float64)
        b = np.array(b, dtype=np.float64)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise InputError("log-sum-exp needs A (m,d) and b (m,)")
        self.A = A
        self.b = b
        self.name = name
        self.dimension = A.shape[1]
        row_norms = np.linalg.norm(A, axis=1)
        # hessian of logsumexp in logit space is diag(pi) - pi pi^T <= I, and
        # the third central moment |E (u - Eu)^3| <= 2 max|u|^3, so both
        # constants compose through the affine map by row-norm powers
        self.smoothness = {
            1: float(np.linalg.eigvalsh(A.T @ A)[-1]),
            2: 2.0 * float(np.max(row_norms)) ** 3,
        }
        if minimizer is not None:
            self.minimizer = as_point(minimizer, dim=self.dimension)
            self.min_value = self.value(self.minimizer)

    def _weights(self, x):
        theta = self.A @ np.asarray(x, dtype=np.float64) + self.b
        m = float(np.max(theta))
        e = np.exp(theta - m)
        s = float(np.sum(e))
        return theta, m, e / s, np.log(s) + m

    def value(self, x):
        return self._weights(x)[3]

    def gradient(self, x):
        pi = self._weights(x)[2]
        return self.A.T @ pi

    def hessian_apply(self, x, v):
        pi = self._weights(x)[2]
        s = self.A @ np.asarray(v, dtype=np.float64)
        return self.A.T @ (pi * s) - float(pi @ s) * (self.A.T @ pi)

    def hessian_dense(self, x):
        pi = self._weights(x)[2]
        ap = self.A.T @ pi
        return self.A.T @ (pi[:, None] * self.A) - np.outer(ap, ap)

    def third_apply(self, x, u, v):
        pi = self._weights(x)[2]
        s = self.A @ np.asarray(u, dtype=np.float64)
        t = self.A @ np.asarray(v, dtype=np.float64)
        es, et, est = float(pi @ s), float(pi @ t), float(pi @ (s * t))
        core = pi * (s * t - es * t - et * s + 2.0 * es * et - est)
        return self.A.T @ core


class PowerNorm(ObjectiveOracle):
    """f(x) = (1/p) ||x||^p for p >= 2; uniformly convex of order p.

    The convexity constant is 2^{2-p} (equal to 1 only at p = 2). Third
    derivatives exist away from the origin for p = 3 and are taken as zero
    there by convention; for p in {2, 4} they are polynomial, hence global.
    Value, gradient and Hessian forward to the unanchored PthPowerMap(p),
    the same function.
    """

    derivative_order = 3

    def __init__(self, p: float, dimension=None, name=None):
        if p < 2:
            raise InputError(f"power-norm objective needs p >= 2, got {p}")
        self.p = float(p)
        self.dimension = dimension
        self.name = name or f"power_norm({p:g})"
        # exact Lipschitz constant of nabla^{p-1} f for integer p in {2,3,4}
        exact = {2.0: {1: 1.0}, 3.0: {2: 2.0}, 4.0: {3: 6.0}}
        self.smoothness = exact.get(self.p, {})
        self.uniform_convexity = (self.p, 2.0 ** (2.0 - self.p))
        d = dimension or 1
        self.minimizer = np.zeros(d) if dimension else None
        self.min_value = 0.0
        self._power = PthPowerMap(self.p)

    def value(self, x):
        return self._power.value(x)

    def gradient(self, x):
        return self._power.gradient(x)

    def hessian_apply(self, x, v):
        return self.hessian_dense(x) @ np.asarray(v, dtype=np.float64)

    def hessian_dense(self, x):
        return self._power.hessian_dense(x)

    def level_set_radius(self, x):
        # the sublevel set through x is exactly the ball of radius ||x||
        d = np.asarray(x, dtype=np.float64)
        return norm(d if self.minimizer is None else d - self.minimizer)

    def third_apply(self, x, u, v):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        r = norm(x)
        if self.p == 2.0 or r == 0.0:
            return np.zeros_like(x)
        a, b = self.p - 2.0, self.p - 4.0
        xu, xv, uv = float(x @ u), float(x @ v), float(u @ v)
        out = r ** b * (xu * v + xv * u + uv * x)
        if b != 0.0:
            # r^(b-2) xu xv as r^b (xu/r)(xv/r): the power alone overflows
            # at tiny r, and at p = 4 the term is absent
            out += b * r ** b * (xu / r) * (xv / r) * x
        return a * out


class ZeroObjective(ObjectiveOracle):
    """f identically zero: the force-free case for natural-motion checks."""

    name = "zero"
    derivative_order = 3
    smoothness = {1: 1.0, 2: 1.0, 3: 1.0}

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.zeros(len(x))

    def hessian_apply(self, x, v):
        return np.zeros(len(x))

    def hessian_dense(self, x):
        return np.zeros((len(x), len(x)))

    def third_apply(self, x, u, v):
        return np.zeros(len(x))


def builtin_problems() -> dict[str, ObjectiveOracle]:
    """Catalog of benchmark objectives keyed by stable identifiers.

    The random instances (least squares, log-sum-exp) are generated from
    CATALOG_SEED, so every catalog holds the same problems.
    """
    rng = np.random.default_rng(CATALOG_SEED)
    A = rng.normal(size=(8, 5))
    b = rng.normal(size=8)
    half = rng.normal(size=(6, 4))
    half /= np.maximum(np.linalg.norm(half, axis=1, keepdims=True), 1.0)
    sym = np.vstack([half, -half])
    return {
        "quadratic": DiagonalQuadratic((1.0, 10.0)),
        "quadratic_10d": DiagonalQuadratic(
            np.logspace(0.0, 1.0, 10), name="quadratic_10d"
        ),
        "least_squares": LeastSquares(A, b),
        "log_sum_exp": LogSumExp(sym, np.zeros(12), minimizer=np.zeros(4)),
        "power_2": PowerNorm(2, dimension=3, name="power_2"),
        "power_3": PowerNorm(3, dimension=3, name="power_3"),
        "power_4": PowerNorm(4, dimension=3, name="power_4"),
        "zero": ZeroObjective(),
    }
