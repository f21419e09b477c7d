"""Property and reference tests for the p-th power family and the loops
built on it.

Oracles, each the code as first written, kept here as references:

* the closed-form dual gradient of the p-th power mirror,
  base + ||w||^{(2-p)/(p-1)} w with base the anchor or a zero vector and the
  norm from np.linalg.norm. The faster form must agree with it bit for bit
  (the certified trajectories are compared byte for byte between versions),
  and both must invert the gradient;
* the PowerNorm objective's own value, gradient and Hessian formulas, which
  the shared PthPowerMap must reproduce bit for bit;
* the two separate forward-discretization loops (naive and exponential),
  whose records the shared loop must reproduce bit for bit.

The scaled map d_p only has to invert its gradient: its dual gradient
rounds differently from the formula it replaced.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accelflow.accel import (  # noqa: E402
    exponential_discretization,
    naive_discretization,
)
from accelflow.core import (  # noqa: E402
    DiagonalQuadratic,
    EuclideanMap,
    PowerNorm,
    PthPowerMap,
    ScaledPthPowerMap,
    builtin_mirror_maps,
    builtin_problems,
)
from accelflow.flows.integrate import DIVERGENCE_THRESHOLD  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None,
                             derandomize=True, database=None)


def _dual_gradient_formula(p, anchor, w):
    w = np.asarray(w, dtype=np.float64)
    base = np.zeros_like(w) if anchor is None else anchor
    u = float(np.linalg.norm(w))
    if u == 0.0:
        return base.copy()
    return base + u ** ((2.0 - p) / (p - 1.0)) * w


def _vectors(d, bound):
    coord = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    return st.lists(coord, min_size=d, max_size=d).map(np.array)


@st.composite
def _cases(draw, bound):
    p = draw(st.sampled_from((2, 3, 4)))
    d = draw(st.integers(1, 5))
    anchor = draw(st.none() | _vectors(d, 10.0))
    w = draw(st.just(np.zeros(d)) | st.just(-np.zeros(d)) | _vectors(d, bound))
    return p, anchor, w


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@PROPERTY_SETTINGS
@given(_cases(1e100))
@example((4, None, np.zeros(3)))
@example((3, np.array([1.0, -2.0]), np.zeros(2)))
@example((2, None, np.array([-0.0, 1.5])))
def test_pth_power_dual_gradient_is_bit_equal_to_formula(case):
    p, anchor, w = case
    h = PthPowerMap(p, anchor=anchor)
    got = h.dual_gradient(w)
    assert got.dtype == np.float64 and got.shape == w.shape
    assert _bits(got) == _bits(_dual_gradient_formula(float(p), anchor, w))


@PROPERTY_SETTINGS
@given(_cases(1e3))
def test_pth_power_dual_gradient_inverts_gradient(case):
    _assert_round_trip(PthPowerMap, *case)


@PROPERTY_SETTINGS
@given(_cases(1e3))
def test_scaled_power_dual_gradient_inverts_gradient(case):
    _assert_round_trip(ScaledPthPowerMap, *case)


def _assert_round_trip(cls, p, anchor, x):
    h = cls(p, anchor=anchor)
    back = h.dual_gradient(h.gradient(x))
    scale = 1.0 + np.linalg.norm(x) + (0.0 if anchor is None else np.linalg.norm(anchor))
    assert np.linalg.norm(back - x) <= 1e-12 * scale


@st.composite
def _catalog_pairs(draw):
    # the tolerance is absolute, so points stay in the unit box where every
    # catalog map is O(10) and rounding stays near 1e-15
    name, h = draw(st.sampled_from(sorted(builtin_mirror_maps().items())))
    d = h.dimension or draw(st.integers(1, 5))
    return name, h, draw(_vectors(d, 1.0)), draw(_vectors(d, 1.0))


@PROPERTY_SETTINGS
@given(_catalog_pairs())
def test_catalog_bregman_divergence_is_nonnegative(case):
    name, h, y, x = case
    assert h.bregman(y, x) >= -1e-12, name


# ---------------------------------------------------------------------------
# PowerNorm against its own formulas as first written


def _power_norm_value(p, x):
    return float(np.linalg.norm(x)) ** p / p


def _power_norm_gradient(p, x):
    x = np.asarray(x, dtype=np.float64)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return np.zeros_like(x)
    return r ** (p - 2.0) * x


def _power_norm_hessian(p, x):
    x = np.asarray(x, dtype=np.float64)
    r = float(np.linalg.norm(x))
    n = x.size
    if r == 0.0:
        return np.eye(n) if p == 2.0 else np.zeros((n, n))
    return r ** (p - 2.0) * np.eye(n) + (p - 2.0) * r ** (p - 4.0) * np.outer(x, x)


@PROPERTY_SETTINGS
@given(_cases(1e30))
@example((3, None, np.zeros(3)))
@example((2, None, -np.zeros(2)))
def test_power_norm_is_bit_equal_to_its_formulas(case):
    p, _, x = case
    f = PowerNorm(p)
    p = float(p)

    def outcome(fn):
        # r^{p-4} overflows for tiny r; the error must be the same one
        try:
            return _bits(fn(x))
        except OverflowError:
            return OverflowError

    assert outcome(f.value) == outcome(lambda v: _power_norm_value(p, v))
    assert outcome(f.gradient) == outcome(lambda v: _power_norm_gradient(p, v))
    assert outcome(f.hessian_dense) == outcome(lambda v: _power_norm_hessian(p, v))


# ---------------------------------------------------------------------------
# the two forward discretizations against their loops as first written


def _blown(v):
    return not np.all(np.isfinite(v)) or float(np.linalg.norm(v)) > DIVERGENCE_THRESHOLD


def _naive_reference(f, h, p, C, epsilon, x0, K):
    k0 = p + 1
    xs = np.empty((K + 1, x0.size))
    f_xs = np.empty(K + 1)
    termination = {"status": "completed", "k": None}
    xs[0] = x0
    f_xs[0] = f.value(x0)
    n = 1
    x = x0.copy()
    w = h.gradient(x0)
    for j in range(K):
        k = k0 + j
        w = w - (epsilon * C * p * float(k) ** (p - 1)) * f.gradient(x)
        z = h.dual_gradient(w)
        if _blown(z):
            termination = {"status": "diverged", "k": k}
            break
        x_next = (p / k) * z + ((k - p) / k) * x
        if _blown(x_next):
            termination = {"status": "diverged", "k": k + 1}
            break
        xs[n] = x_next
        f_xs[n] = f.value(x_next)
        n += 1
        x = x_next
    return np.arange(k0, k0 + n), xs[:n], f_xs[:n], termination


def _exponential_reference(f, h, c, delta, x0, K):
    xs = np.empty((K + 1, x0.size))
    f_xs = np.empty(K + 1)
    ratios = np.full(K, np.nan)
    termination = {"status": "completed", "k": None}
    xs[0] = x0
    f_xs[0] = f.value(x0)
    n = 1
    x = x0.copy()
    w = h.gradient(x0)
    for k in range(K):
        g = f.gradient(x)
        w = w - (delta * c * math.exp(c * delta * k)) * g
        z = h.dual_gradient(w)
        if _blown(z):
            termination = {"status": "diverged", "k": k}
            break
        x_next = (c * delta) * z + (1.0 - c * delta) * x
        if _blown(x_next):
            termination = {"status": "diverged", "k": k + 1}
            break
        gnorm = float(np.linalg.norm(g))
        if gnorm > 0:
            ratios[k] = float(g @ (x - x_next)) / gnorm
        xs[n] = x_next
        f_xs[n] = f.value(x_next)
        n += 1
        x = x_next
    return np.arange(n), xs[:n], f_xs[:n], termination, ratios[: n - 1]


@pytest.mark.parametrize("p, h, status", [
    (3, EuclideanMap(), "diverged"),
    (4, EuclideanMap(), "diverged"),
    (2, EuclideanMap(), "completed"),
    (3, ScaledPthPowerMap(3, anchor=[1.0, 1.0]), None),
], ids=["p3", "p4", "p2", "p3_scaled_mirror"])
def test_naive_discretization_is_bit_equal_to_reference(p, h, status):
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    K = 2000
    rec = naive_discretization(f, h, p, 0.25, 0.01, x0, K)
    ks, xs, f_xs, termination = _naive_reference(f, h, p, 0.25, 0.01, x0, K)
    if status is not None:
        assert rec.termination["status"] == status
    assert rec.termination == termination
    assert np.array_equal(rec.ks, ks)
    assert _bits(rec.xs) == _bits(xs) and _bits(rec.f_xs) == _bits(f_xs)
    assert "progress_ratios" not in rec.extras


@pytest.mark.parametrize("f, c, delta, K, status", [
    (builtin_problems()["quadratic"], 1.0, 0.05, 60, "completed"),
    (DiagonalQuadratic([50.0, 50.0], name="stiff"), 4.0, 0.25, 500, "diverged"),
], ids=["quadratic", "stiff_diverges"])
def test_exponential_discretization_is_bit_equal_to_reference(f, c, delta, K, status):
    x0 = np.array([1.0, 1.0])
    rec = exponential_discretization(f, EuclideanMap(), c, delta, x0, K)
    ks, xs, f_xs, termination, ratios = _exponential_reference(
        f, EuclideanMap(), c, delta, x0, K
    )
    assert rec.termination["status"] == status
    assert rec.termination == termination
    assert np.array_equal(rec.ks, ks)
    assert _bits(rec.xs) == _bits(xs) and _bits(rec.f_xs) == _bits(f_xs)
    assert _bits(rec.extras["progress_ratios"]) == _bits(ratios)
