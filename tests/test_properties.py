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
  whose records the shared loop must reproduce bit for bit;
* the Euler-Lagrange field with alpha(t) and beta(t) evaluated separately,
  which the field sharing one log t per call must reproduce bit for bit;
* np.linalg.norm, which the package's scalar norm must reproduce bit for
  bit on every 1-D float64 vector, strided views and non-finite entries
  included, and the divergence test written with it and np.isfinite.

Every invalid integrator control must raise InputError, never integrate,
and a NaN method parameter must raise InputError, never run. A Taylor step
at the certified epsilon must certify itself.

The secular solve brackets its root with one rule: where the root lies below
1e-16 r_hi and the regularizer is negligible against every eigenvalue, it
returns the Newton step -H^{-1} g; on every input it returns a finite step
or raises SolverError.

The scaled map d_p only has to invert its gradient: its dual gradient
rounds differently from the formula it replaced. Each catalog oracle's
gradient, Hessian and third derivative must match central differences to
within a bound stated from its declared smoothness constants.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from accelflow import accel  # noqa: E402
from accelflow.accel import (  # noqa: E402
    AccelConfig,
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
    polynomial_triple,
)
from accelflow.core.numerics import (  # noqa: E402
    central_diff_directional,
    central_diff_gradient,
    norm,
)
from accelflow.core.points import as_real  # noqa: E402
from accelflow.errors import InputError, SolverError  # noqa: E402
from accelflow.flows import build_el_system, integrate  # noqa: E402
from accelflow.flows.integrate import DIVERGENCE_THRESHOLD  # noqa: E402
from accelflow.taylorstep import (  # noqa: E402
    RESIDUAL_LIMIT_P4,
    RESIDUAL_TARGET,
    StepConfig,
    _secular_displacement,
    g_step,
    smoothness_epsilon,
)

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
@example((2, None, np.array([2.5e-156])))
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
    expected = outcome(lambda v: _power_norm_hessian(p, v))
    if expected is OverflowError and p == 2.0:
        # the map drops the d d^T term, whose coefficient p - 2 is 0, at p = 2
        expected = _bits(np.eye(x.size))
    assert outcome(f.hessian_dense) == expected


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


# ---------------------------------------------------------------------------
# the scalar norm and the divergence test against their numpy formulas

_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                   1e154, -1.5e154, 1e300, -1.7976931348623157e308,
                   math.nan, math.inf, -math.inf)


@st.composite
def _norm_vectors(draw):
    """A 1-D float64 vector: contiguous, or a strided or reversed view.

    Moderate coordinates are drawn often: a sum of comparable squares is
    where a strided BLAS dot rounds differently from a contiguous one.
    """
    n = draw(st.integers(1, 40))
    step = draw(st.sampled_from((1, 2, 3, -1, -2)))
    coord = st.floats(-10.0, 10.0) | st.floats() | st.sampled_from(_SPECIAL_FLOATS)
    base = np.array(draw(st.lists(coord, min_size=n * abs(step),
                                  max_size=n * abs(step))), dtype=np.float64)
    return base[::step]


@PROPERTY_SETTINGS
@given(_norm_vectors())
@example(np.array([-0.0]))
@example(np.array([5e-324, -5e-324]))
@example(np.array([1e200, 1.0]))
@example(np.array([math.nan, math.inf]))
@example(np.arange(20.0)[::2])
def test_norm_is_bit_equal_to_linalg_norm(v):
    assert v.ndim == 1 and v.dtype == np.float64
    with np.errstate(over="ignore"):  # squares past the float range are drawn
        assert _bits(norm(v)) == _bits(float(np.linalg.norm(v)))
        assert accel._blown(v) == _blown(v)


# ---------------------------------------------------------------------------
# oracle derivatives against central differences
#
# With unit directions, the central difference with step e of
# psi(t) = D^{k-1} f(x + t v)[u, ...] misses psi'(0) = D^k f(x)[v, u, ...] by
# at most e^2 L_{k+1} / 6 (|psi^(3)| <= L_{k+1}, the declared Lipschitz
# constant of the order-(k+1) derivative), or else by e L_k / 2 (psi' is
# L_k-Lipschitz), plus the rounding of the two evaluations over 2e. Where an
# oracle declares neither constant there is no stated tolerance and the
# order is not compared here: log_sum_exp and power_3 at order 3, power_2 at
# orders 2 and 3, power_4 at order 1 (test_core compares them with fixed
# tolerances).

PROBLEMS = builtin_problems()
DIFFERENCE_STEP = {1: 1e-6, 2: 1e-5, 3: 1e-5}  # the helpers' defaults
ROUNDING_ULPS = 64  # per evaluation, of 1 + |psi|: catalog terms are O(10) in the unit box


def _truncation_bound(f, k, e):
    if k + 1 in f.smoothness:
        return e * e * f.smoothness[k + 1] / 6.0
    if k in f.smoothness:
        return e * f.smoothness[k] / 2.0
    return None


def _difference_tolerance(f, k, e, *values):
    rounding = sum(1.0 + abs(v) for v in values) * ROUNDING_ULPS * np.finfo(np.float64).eps
    return _truncation_bound(f, k, e) + rounding / (2.0 * e)


DERIVATIVE_CASES = [
    (name, k) for name, f in sorted(PROBLEMS.items()) for k in (1, 2, 3)
    if k <= f.derivative_order and _truncation_bound(f, k, 1.0) is not None
]


@st.composite
def _derivative_cases(draw):
    name, k = draw(st.sampled_from(DERIVATIVE_CASES))
    f = PROBLEMS[name]
    d = f.dimension or draw(st.integers(1, 5))
    unit = (_vectors(d, 1.0).filter(lambda v: np.linalg.norm(v) > 1e-3)
            .map(lambda v: v / np.linalg.norm(v)))
    return name, k, draw(_vectors(d, 1.0)), draw(unit), draw(unit), draw(unit)


@PROPERTY_SETTINGS
@given(_derivative_cases())
def test_oracle_derivatives_match_central_differences(case):
    name, k, x, u, v, w = case
    f, e = PROBLEMS[name], DIFFERENCE_STEP[k]
    if k == 1:
        probes = [f.value(x + s * e * basis) for basis in np.eye(x.size) for s in (1, -1)]
        error = np.max(np.abs(f.gradient(x) - central_diff_gradient(f.value, x, e)))
        tolerance = _difference_tolerance(f, 1, e, *(2 * [max(map(abs, probes))]))
    else:
        if k == 2:
            psi = lambda y: float(f.gradient(y) @ u)  # noqa: E731
            exact = float(f.hessian_apply(x, v) @ u)
        else:
            psi = lambda y: float(f.hessian_apply(y, u) @ w)  # noqa: E731
            exact = float(f.third_apply(x, u, v) @ w)
        error = abs(exact - central_diff_directional(psi, x, v, e))
        tolerance = _difference_tolerance(f, k, e, psi(x + e * v), psi(x - e * v))
    assert error <= tolerance, (name, k, error, tolerance)


# ---------------------------------------------------------------------------
# Taylor steps at the certified epsilon
#
# smoothness_epsilon(f, p) = (p-1)!/L_{p-1} is where the progress inequality
# and the move-norm sandwich are guaranteed; orders whose constant the oracle
# does not declare have no such epsilon and are left out.

STEP_CASES = [
    (name, p) for name, f in sorted(PROBLEMS.items()) for p in (2, 3, 4)
    if p - 1 <= f.derivative_order and p - 1 in f.smoothness
]


@st.composite
def _step_cases(draw):
    name, p = draw(st.sampled_from(STEP_CASES))
    d = PROBLEMS[name].dimension or draw(st.integers(1, 5))
    return name, p, draw(st.sampled_from((1.5, 2.0, 4.0))), draw(_vectors(d, 1.0))


@PROPERTY_SETTINGS
@given(_step_cases())
@example(("power_4", 4, 1.5, np.array([0.0, 0.0, 7.42762023987522e-158])))
@example(("power_3", 3, 1.5, np.array([0.0, 0.0, 7.42762023987522e-158])))
def test_step_at_certified_epsilon_is_certified(case):
    name, p, N, x = case
    f = PROBLEMS[name]
    _, cert = g_step(f, x, StepConfig(p, smoothness_epsilon(f, p), N))
    assert cert.ok, (name, p, N, cert)
    if p == 3:
        assert cert.residual <= RESIDUAL_TARGET * (1.0 + norm(f.gradient(x)))
    elif p == 4:
        assert cert.residual <= RESIDUAL_LIMIT_P4


# ---------------------------------------------------------------------------
# the Euler-Lagrange field shares log t between alpha and beta


def _el_field_formula(h, f, s, t, y):
    """The field as first written: alpha(t) and beta(t) each take a log."""
    d = y.size // 2
    x, w = y[:d], y[d:]
    a = s.alpha(t)
    out = np.empty(y.shape)
    dx, dw = out[:d], out[d:]
    np.subtract(h.dual_gradient(w), x, out=dx)
    np.multiply(math.exp(a), dx, out=dx)
    np.multiply(-math.exp(a + s.beta(t)), f.gradient(x), out=dw)
    return out


_SIGNED_COORD = (st.sampled_from((0.0, -0.0))
                 | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _el_cases(draw):
    p = draw(st.sampled_from((2.0, 3.0, 4.0)) | st.floats(0.5, 6.0))
    C = draw(st.sampled_from((1.0,)) | st.floats(0.01, 100.0))
    t = draw(st.floats(0.1, 1e4))
    d = draw(st.integers(1, 4))
    mirror = draw(st.sampled_from(("euclidean", "pth_power")))
    y = np.array(draw(st.lists(_SIGNED_COORD, min_size=2 * d, max_size=2 * d)))
    return p, C, t, mirror, y


@PROPERTY_SETTINGS
@given(_el_cases())
@example((4.0, 1.0, 0.1, "pth_power", np.array([-0.0, 0.0, 0.0, -0.0])))
@example((2.0, 1.0, 1.0, "euclidean", np.array([0.0, -0.0])))
def test_el_field_is_bit_equal_to_separate_alpha_beta(case):
    p, C, t, mirror, y = case
    s = polynomial_triple(p, C)
    assert s.alpha_beta(t) == (s.alpha(t), s.beta(t))
    h = EuclideanMap() if mirror == "euclidean" else PthPowerMap(p if p >= 2 else 2)
    f = DiagonalQuadratic(tuple(float(i + 1) for i in range(y.size // 2)))
    field = build_el_system(h, f, s).vector_field
    assert _bits(field(t, y)) == _bits(_el_field_formula(h, f, s, t, y))


# ---------------------------------------------------------------------------
# integrator controls: every invalid one raises InputError

_NOT_A_NUMBER = st.sampled_from(("tight", "", None, [1e-8]))
_NONFINITE = st.sampled_from((math.nan, math.inf, -math.inf))
# steps / record_every / max_steps: integers >= 1 (integral floats admitted)
_BAD_COUNT = (st.integers(-10**6, 0)
              | st.floats(-1e6, 0.0)
              | st.floats(allow_nan=True).filter(
                  lambda v: not (math.isfinite(v) and v.is_integer()))
              | st.booleans() | _NOT_A_NUMBER)
# initial_step / abs_tol: finite and > 0
_BAD_POSITIVE = st.floats(-1e6, 0.0) | _NONFINITE | _NOT_A_NUMBER
# rel_tol: finite and >= 0
_BAD_NONNEGATIVE = st.floats(-1e6, -5e-324) | _NONFINITE | _NOT_A_NUMBER

_VALID = {
    "rk4": {"steps": st.integers(1, 20), "record_every": st.integers(1, 5)},
    "rk4_adaptive": {
        "rel_tol": st.floats(0.0, 1e-3), "abs_tol": st.floats(1e-12, 1e-3),
        "initial_step": st.floats(1e-3, 1.0), "max_steps": st.integers(1, 50),
        "record_every": st.integers(1, 5),
    },
}
_BAD = {"steps": _BAD_COUNT, "record_every": _BAD_COUNT, "max_steps": _BAD_COUNT,
        "initial_step": _BAD_POSITIVE, "abs_tol": _BAD_POSITIVE,
        "rel_tol": _BAD_NONNEGATIVE}


@st.composite
def _bad_controls(draw):
    method = draw(st.sampled_from(("rk4", "rk4_adaptive")))
    valid = _VALID[method]
    bad_key = draw(st.sampled_from(sorted(valid) + ["t_end"]))
    controls = {"method": method}
    for key, values in valid.items():
        if key != bad_key and (key == "steps" or draw(st.booleans())):
            controls[key] = draw(values)
    t_end = 1.0
    if bad_key == "t_end":
        t_end = draw(_NONFINITE | st.floats(-1e3, 0.1))
    else:
        controls[bad_key] = draw(_BAD[bad_key])
    return t_end, controls


_FLOW = build_el_system(EuclideanMap(), DiagonalQuadratic((1.0, 10.0)),
                        polynomial_triple(2, 1.0))


@PROPERTY_SETTINGS
@given(_bad_controls())
@example((1.0, {"method": "rk4"}))
@example((1.0, {"method": "rk4_adaptive", "rel_tol": -1.0, "abs_tol": -1.0}))
@example((1.0, {"method": "rk4_adaptive", "max_steps": 1e4 + 0.5}))
def test_every_invalid_integrator_control_raises_input_error(case):
    t_end, controls = case
    with pytest.raises(InputError):
        integrate(_FLOW, np.array([1.0, 1.0]), 0.1, t_end, controls)


# ---------------------------------------------------------------------------
# the real coercion configs and integrator controls go through


@PROPERTY_SETTINGS
@given(st.integers() | st.floats(allow_nan=True, allow_infinity=True))
@example(10 ** 400)
def test_as_real_is_float_bit_for_bit(v):
    try:
        want = float(v)
    except OverflowError:
        with pytest.raises(InputError):
            as_real("v", v)
        return
    assert _bits(as_real("v", v)) == _bits(want)


@pytest.mark.parametrize("v", [True, False, np.bool_(True), "3", "20", None, [1.0]])
def test_as_real_rejects_booleans_and_strings(v):
    with pytest.raises(InputError):
        as_real("v", v)


# ---------------------------------------------------------------------------
# NaN method parameters


_QUAD = DiagonalQuadratic((1.0, 10.0))
_X0 = np.array([1.0, 1.0])
_NAN_CONSTRUCTORS = {
    "accelerated": lambda kw: AccelConfig(
        p=kw.get("p", 2), epsilon=kw.get("epsilon", 0.1), x0=_X0,
        N=kw.get("N", 2.0), C=kw.get("C")),
    "naive": lambda kw: naive_discretization(
        _QUAD, EuclideanMap(), kw.get("p", 2), kw.get("C", 0.1),
        kw.get("epsilon", 0.1), _X0, 5),
    "exponential": lambda kw: exponential_discretization(
        _QUAD, EuclideanMap(), kw.get("c", 1.0), kw.get("delta", 0.1), _X0, 5),
}
_NAN_KEYS = {
    "accelerated": ("epsilon", "N", "C"),
    "naive": ("C", "epsilon"),
    "exponential": ("c", "delta"),
}


@st.composite
def _nan_parameters(draw):
    name = draw(st.sampled_from(sorted(_NAN_CONSTRUCTORS)))
    nan_keys = draw(st.sets(st.sampled_from(_NAN_KEYS[name]), min_size=1))
    kw = {key: math.nan for key in nan_keys}
    if name != "exponential":
        kw["p"] = draw(st.sampled_from((2, 3, 4)))
    return name, kw


@PROPERTY_SETTINGS
@given(_nan_parameters())
def test_nan_method_parameters_raise_input_error(case):
    name, kw = case
    with pytest.raises(InputError):
        _NAN_CONSTRUCTORS[name](kw)


# ---------------------------------------------------------------------------
# the secular solve's one bracket rule


def _secular_case(draw, lam, g, scale, power):
    eigvecs = np.linalg.qr(np.array(draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=lam.size, max_size=lam.size),
        min_size=lam.size, max_size=lam.size))) + 3.0 * np.eye(lam.size))[0]
    with np.errstate(all="ignore"):  # non-finite coordinates are drawn
        gnorm = float(np.linalg.norm(g))
        r_hi = (gnorm / scale) ** (1.0 / (power + 1.0))
        return lam, eigvecs, eigvecs @ g, scale, power, r_hi


@st.composite
def _newton_region_cases(draw):
    """Roots below 1e-16 r_hi with s r^power 16 orders under every
    eigenvalue: the region the solve once settled with fixed-point sweeps."""
    power = draw(st.sampled_from((1, 2)))
    d = draw(st.integers(1, 4))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    gnorm = 10.0 ** draw(st.floats(-100.0, 30.0))
    r_hi = (gnorm / scale) ** (1.0 / (power + 1.0))
    # lam_min >= 1e16 s lo^power makes the regularizer negligible; 1e16
    # ||g|| / r_hi puts the Newton step, hence the root, below lo
    lo = 1e-16 * r_hi
    lam_min = max(1e16 * scale * lo ** power, 1e17 * gnorm / r_hi)
    lam = lam_min * 10.0 ** np.array(draw(st.lists(
        st.floats(0.0, 6.0), min_size=d, max_size=d)))
    direction = np.array(draw(st.lists(
        st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3),
        min_size=d, max_size=d)))
    g = gnorm * direction / np.linalg.norm(direction)
    return _secular_case(draw, lam, g, scale, power)


@PROPERTY_SETTINGS
@given(_newton_region_cases())
def test_secular_solve_below_lo_returns_the_newton_step(case):
    lam, eigvecs, g, scale, power, r_hi = case
    coords = eigvecs.T @ g
    lo = 1e-16 * r_hi
    assert norm(coords / (lam + scale * lo ** power)) - lo <= 0.0
    assert np.all(lam >= 1e16 * scale * lo ** power)
    u = _secular_displacement(lam, eigvecs, g, scale, power, r_hi)
    newton = -(eigvecs @ (coords / lam))
    assert norm(u - newton) <= 1e-15 * norm(newton)


@st.composite
def _any_secular_cases(draw):
    """Zero and positive eigenvalues, gradients from 1e-300 to 1e30, and
    non-finite gradient coordinates."""
    power = draw(st.sampled_from((1, 2)))
    d = draw(st.integers(1, 4))
    lam = np.array(draw(st.lists(
        st.just(0.0) | st.floats(-30.0, 40.0).map(lambda e: 10.0 ** e),
        min_size=d, max_size=d)))
    coords = np.array(draw(st.lists(st.just(0.0) | st.floats(-1.0, 1.0),
                                    min_size=d, max_size=d)))
    g = 10.0 ** draw(st.floats(-300.0, 30.0)) * coords
    if draw(st.booleans()):
        g[draw(st.integers(0, d - 1))] = draw(
            st.sampled_from((math.nan, math.inf, -math.inf)))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    return _secular_case(draw, lam, g, scale, power)


@PROPERTY_SETTINGS
@given(_any_secular_cases())
@example((np.array([0.0, 1.0]), np.eye(2), np.array([1e-300, 0.0]), 1.0, 1,
          1e-150))
def test_secular_solve_returns_a_finite_step_or_solver_error(case):
    lam, eigvecs, g, scale, power, r_hi = case
    with np.errstate(all="ignore"):
        try:
            u = _secular_displacement(lam, eigvecs, g, scale, power, r_hi)
        except SolverError:
            return
    assert np.all(np.isfinite(u))
