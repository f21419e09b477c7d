"""Core-layer checks: small pure functions, mirror maps, oracles, scalings.

Expected values are either hand arithmetic spelled out in the test or an
independent numerical oracle (central differences, brute-force sums); the
analytic implementations must match both.
"""

import math

import numpy as np
import pytest

from accelflow.core import (
    DiagonalQuadratic,
    EuclideanMap,
    LeastSquares,
    ObjectiveOracle,
    PowerNorm,
    PthPowerMap,
    ScaledPthPowerMap,
    as_point,
    bregman_divergence,
    builtin_mirror_maps,
    builtin_problems,
    central_diff_directional,
    central_diff_gradient,
    central_diff_scalar,
    exponential_triple,
    ideal_scaling_check,
    massless_triple,
    polynomial_triple,
    rising_factorial,
    taylor_model,
)
from accelflow.core.scalings import ScalingTriple
from accelflow.errors import CapabilityError, InputError

RNG_SEED = 20260819


# ---------------------------------------------------------------- points

def test_as_point_rejects_nonfinite_and_wrong_dim():
    with pytest.raises(InputError):
        as_point([1.0, np.nan])
    with pytest.raises(InputError):
        as_point([1.0, np.inf])
    with pytest.raises(InputError):
        as_point([1.0, 2.0], dim=3)
    with pytest.raises(InputError):
        as_point(np.zeros((2, 2)))
    assert as_point(3.0).shape == (1,)


def test_as_point_copies():
    src = np.array([1.0, 2.0])
    p = as_point(src)
    src[0] = 99.0
    assert p[0] == 1.0


# ------------------------------------------------------- bregman divergence

def test_bregman_euclidean_hand_value():
    h = EuclideanMap()
    # D = 1/2 ||y - x||^2 = 1/2 (1 + 4)
    assert bregman_divergence(h, np.array([1.0, 2.0]), np.zeros(2)) == pytest.approx(
        2.5, abs=1e-14
    )


def test_bregman_vanishes_at_equal_points():
    for h in builtin_mirror_maps().values():
        d = h.dimension or 3
        x = np.linspace(0.3, 1.1, d)
        assert bregman_divergence(h, x, x) == pytest.approx(0.0, abs=1e-14)


def test_bregman_quartic_1d_against_difference_oracle():
    # h(x) = (1/4) x^4: D(2, 1) = 4 - 1/4 - 1·1 = 2.75; the finite-difference
    # oracle uses only h.value, independent of the analytic gradient
    h = PthPowerMap(4)
    y, x = np.array([2.0]), np.array([1.0])
    fd_grad = central_diff_gradient(h.value, x, eps=1e-6)
    oracle = h.value(y) - h.value(x) - float(fd_grad @ (y - x))
    val = bregman_divergence(h, y, x)
    assert val == pytest.approx(2.75, abs=1e-12)
    assert val == pytest.approx(oracle, abs=1e-8)


def test_bregman_dimension_mismatch():
    with pytest.raises(InputError):
        bregman_divergence(EuclideanMap(), np.zeros(2), np.zeros(3))


# --------------------------------------------------------- rising factorial

def test_rising_factorial_hand_values():
    assert rising_factorial(3, 2) == 12
    assert rising_factorial(2, 3) == 24
    assert rising_factorial(0, 4) == 0
    for k in (1, 2, 7, 11):
        assert rising_factorial(k, 1) == k


def test_rising_factorial_matches_factorial_ratio():
    # k^(m) = (k+m-1)!/(k-1)!
    for k in range(1, 11):
        for m in range(1, 6):
            expect = math.factorial(k + m - 1) // math.factorial(k - 1)
            assert rising_factorial(k, m) == expect


def test_rising_factorial_rejects_bad_args():
    with pytest.raises(InputError):
        rising_factorial(-1, 2)
    with pytest.raises(InputError):
        rising_factorial(3, 0)


# ------------------------------------------------------------- taylor model

class Quartic1D(ObjectiveOracle):
    """f(x) = x^4 in one dimension, exact derivatives to order 3."""

    name = "quartic_1d"
    derivative_order = 3

    def value(self, x):
        return float(x[0]) ** 4

    def gradient(self, x):
        return np.array([4.0 * x[0] ** 3])

    def hessian_apply(self, x, v):
        return np.array([12.0 * x[0] ** 2 * v[0]])

    def third_apply(self, x, u, v):
        return np.array([24.0 * x[0] * u[0] * v[0]])


def test_taylor_model_linear_at_origin():
    f = DiagonalQuadratic([1.0], name="half_square")
    assert taylor_model(f, np.zeros(1), 1, np.ones(1)) == pytest.approx(0.0, abs=1e-15)


def test_taylor_model_quadratic_exact_at_order_2():
    f = DiagonalQuadratic([1.0, 10.0])
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(20):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert taylor_model(f, x, 2, y) == pytest.approx(f.value(y), rel=1e-12)


def test_taylor_model_quartic_hand_value():
    # f(x) = x^4 at x = 1, y = 1.5: 1 + 4(0.5) + 6(0.25) = 4.5
    f = Quartic1D()
    got = taylor_model(f, np.array([1.0]), 2, np.array([1.5]))
    assert got == pytest.approx(4.5, abs=1e-12)
    # order 3 adds 4(0.125) = 0.5
    got3 = taylor_model(f, np.array([1.0]), 3, np.array([1.5]))
    assert got3 == pytest.approx(5.0, abs=1e-12)


def test_taylor_model_order_guard():
    f = DiagonalQuadratic([1.0, 2.0])
    with pytest.raises(CapabilityError):
        taylor_model(f, np.zeros(2), 4, np.ones(2))

    class GradOnly(ObjectiveOracle):
        derivative_order = 1

        def value(self, x):
            return float(x @ x)

        def gradient(self, x):
            return 2.0 * np.asarray(x)

    with pytest.raises(CapabilityError):
        taylor_model(GradOnly(), np.zeros(2), 2, np.ones(2))


# ------------------------------------------------------------ scaling triples

def test_ideal_scaling_polynomial_and_exponential():
    rep = ideal_scaling_check(polynomial_triple(2, 1.0), [1.0, 2.0, 5.0])
    assert rep.beta_ok and rep.gamma_ok and rep.beta_tight
    rep = ideal_scaling_check(exponential_triple(1.0), [0.5, 1.0])
    assert rep.beta_ok and rep.gamma_ok and rep.beta_tight


def test_ideal_scaling_polynomial_family_sweep():
    grid = np.linspace(0.5, 20.0, 17)
    for p in (2, 3, 4, 5):
        for C in (0.1, 1.0):
            rep = ideal_scaling_check(polynomial_triple(p, C), grid)
            assert rep.beta_ok and rep.gamma_ok and rep.beta_tight


def test_ideal_scaling_slack_variant_not_tight():
    # slow objective weight: beta grows like 2 log t while e^alpha = (r-1)/t
    # allows up to (r-1) log t; with r = 5 the rate condition holds strictly
    r = 5.0
    s = ScalingTriple(
        alpha=lambda t: math.log(r - 1.0) - math.log(t),
        beta=lambda t: 2.0 * math.log(t) - 2.0 * math.log(r - 1.0),
        gamma=lambda t: (r - 1.0) * math.log(t),
        alpha_dot=lambda t: -1.0 / t,
        beta_dot=lambda t: 2.0 / t,
        gamma_dot=lambda t: (r - 1.0) / t,
        valid_from=0.1,
        family=("custom", "r_system_r5"),
    )
    rep = ideal_scaling_check(s, [1.0, 3.0, 10.0])
    assert rep.beta_ok and rep.gamma_ok
    assert not rep.beta_tight


def test_ideal_scaling_grid_domain_guard():
    with pytest.raises(InputError):
        ideal_scaling_check(polynomial_triple(2), [0.05, 1.0])
    with pytest.raises(InputError):
        ideal_scaling_check(polynomial_triple(2), [])


@pytest.mark.parametrize(
    "triple",
    [polynomial_triple(3, 0.5), exponential_triple(0.7), massless_triple(0.01)],
    ids=["polynomial", "exponential", "massless"],
)
def test_scaling_derivatives_match_finite_differences(triple):
    for t in np.linspace(max(0.2, triple.valid_from + 0.1), 5.0, 9):
        for fun, dot in (
            (triple.alpha, triple.alpha_dot),
            (triple.beta, triple.beta_dot),
            (triple.gamma, triple.gamma_dot),
        ):
            fd = central_diff_scalar(fun, float(t), eps=1e-6)
            assert dot(float(t)) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_triple_constructor_guards():
    with pytest.raises(InputError):
        polynomial_triple(0)
    with pytest.raises(InputError):
        polynomial_triple(2, C=-1.0)
    with pytest.raises(InputError):
        exponential_triple(0.0)
    with pytest.raises(InputError):
        massless_triple(-0.1)


# --------------------------------------------------------------- mirror maps

def _points_for(h, rng, n):
    d = h.dimension or 4
    return rng.normal(scale=1.5, size=(n, d))


def test_mirror_roundtrip_catalog_sweep():
    rng = np.random.default_rng(RNG_SEED)
    for name, h in builtin_mirror_maps().items():
        for x in _points_for(h, rng, 100):
            back = h.dual_gradient(h.gradient(x))
            err = np.linalg.norm(back - x)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(x)), (name, x, err)


def test_mirror_bregman_nonnegative_and_uniformly_convex():
    rng = np.random.default_rng(RNG_SEED + 1)
    for name, h in builtin_mirror_maps().items():
        for _ in range(100):
            d = h.dimension or 4
            x, y = rng.normal(size=d), rng.normal(size=d)
            div = bregman_divergence(h, y, x)
            assert div >= -1e-12, name
            if h.uniform_convexity is not None:
                p, sigma = h.uniform_convexity
                lower = (sigma / p) * np.linalg.norm(y - x) ** p
                assert div >= lower - 1e-10, (name, div, lower)


def test_euclidean_dual_gradient_is_identity():
    h = EuclideanMap()
    w = np.array([0.3, -2.0, 5.5])
    assert np.array_equal(h.dual_gradient(w), w)


def test_pth_power_dual_gradient_hand_value():
    # grad h(x) = ||x||^2 x for p = 4, so (2,0) maps to (8,0); the dual
    # gradient must invert it
    h = PthPowerMap(4)
    fwd = h.gradient(np.array([2.0, 0.0]))
    assert np.allclose(fwd, [8.0, 0.0], atol=1e-13)
    back = h.dual_gradient(np.array([8.0, 0.0]))
    assert np.allclose(back, [2.0, 0.0], atol=1e-12)


def test_pth_power_uniform_convexity_constant():
    for p in (2, 3, 4):
        assert PthPowerMap(p).uniform_convexity == (float(p), 2.0 ** (2.0 - p))
        assert ScaledPthPowerMap(p).uniform_convexity == (float(p), 1.0)


def test_pth_power_anchor_shift():
    w = np.array([1.0, -2.0])
    h = PthPowerMap(3, anchor=w)
    assert h.dual_gradient(np.zeros(2)) == pytest.approx(w)
    assert h.value(w) == 0.0


def test_mirror_rejects_p_below_2():
    with pytest.raises(InputError):
        PthPowerMap(1.5)
    with pytest.raises(InputError):
        ScaledPthPowerMap(1.0)


@pytest.mark.parametrize("h", [PthPowerMap(2), ScaledPthPowerMap(2)], ids=lambda h: h.name)
def test_quadratic_power_map_hessian_at_tiny_point_is_scaled_identity(h):
    # the d d^T term has coefficient p - 2 = 0; r^{p-4} alone overflows here
    assert np.array_equal(h.hessian_dense([2.5e-156]), h.scale * np.eye(1))


def test_mirror_hessians_match_finite_differences():
    rng = np.random.default_rng(RNG_SEED + 2)
    for name, h in builtin_mirror_maps().items():
        d = h.dimension or 3
        x = rng.normal(size=d) + 0.5  # keep away from pth-power kink at 0
        H = h.hessian_dense(x)
        for _ in range(3):
            v = rng.normal(size=d)
            fd = (h.gradient(x + 1e-6 * v) - h.gradient(x - 1e-6 * v)) / 2e-6
            assert np.allclose(H @ v, fd, rtol=1e-4, atol=1e-6), name


# ------------------------------------------------------------------ oracles

def _problem_points(f, rng, n):
    d = f.dimension or 3
    return rng.normal(scale=1.2, size=(n, d))


def test_oracle_gradients_match_directional_differences():
    rng = np.random.default_rng(RNG_SEED + 3)
    for name, f in builtin_problems().items():
        for x in _problem_points(f, rng, 20):
            v = rng.normal(size=x.size)
            v /= np.linalg.norm(v)
            fd = central_diff_directional(f.value, x, v, eps=1e-5)
            an = float(f.gradient(x) @ v)
            assert an == pytest.approx(fd, rel=1e-4, abs=1e-7), name


def test_oracle_hessians_match_gradient_differences():
    rng = np.random.default_rng(RNG_SEED + 4)
    for name, f in builtin_problems().items():
        if f.derivative_order < 2:
            continue
        for x in _problem_points(f, rng, 10):
            if "power" in name and np.linalg.norm(x) < 0.3:
                continue  # third derivative of norm powers is singular at 0
            v = rng.normal(size=x.size)
            fd = (f.gradient(x + 1e-6 * v) - f.gradient(x - 1e-6 * v)) / 2e-6
            assert np.allclose(f.hessian_apply(x, v), fd, rtol=1e-4, atol=1e-6), name


def test_oracle_third_derivatives_match_hessian_differences():
    rng = np.random.default_rng(RNG_SEED + 5)
    for name, f in builtin_problems().items():
        if f.derivative_order < 3:
            continue
        for x in _problem_points(f, rng, 5):
            if "power" in name and np.linalg.norm(x) < 0.3:
                continue
            u, v = rng.normal(size=x.size), rng.normal(size=x.size)
            fd = (
                f.hessian_apply(x + 1e-5 * u, v) - f.hessian_apply(x - 1e-5 * u, v)
            ) / 2e-5
            assert np.allclose(f.third_apply(x, u, v), fd, rtol=1e-4, atol=1e-5), name


def test_oracle_hessian_dense_agrees_with_apply():
    rng = np.random.default_rng(RNG_SEED + 6)
    for name, f in builtin_problems().items():
        if f.derivative_order < 2:
            continue
        x = rng.normal(size=f.dimension or 3) + 0.4
        H = f.hessian_dense(x)
        v = rng.normal(size=x.size)
        assert np.allclose(H @ v, f.hessian_apply(x, v), rtol=1e-12, atol=1e-12), name


def test_oracle_minimizers_are_stationary():
    for name, f in builtin_problems().items():
        if f.minimizer is None:
            continue
        assert np.linalg.norm(f.gradient(f.minimizer)) <= 1e-10, name


def test_oracle_uniform_convexity_sampled():
    rng = np.random.default_rng(RNG_SEED + 7)
    for name, f in builtin_problems().items():
        if f.uniform_convexity is None:
            continue
        p, sigma = f.uniform_convexity
        for _ in range(50):
            d = f.dimension or 3
            x, y = rng.normal(size=d), rng.normal(size=d)
            div = f.value(y) - f.value(x) - float(f.gradient(x) @ (y - x))
            lower = (sigma / p) * np.linalg.norm(y - x) ** p
            assert div >= lower - 1e-10, (name, div, lower)


def test_quadratic_hand_values():
    f = DiagonalQuadratic([1.0, 1.0])
    x = np.array([3.0, 4.0])
    assert f.value(x) == pytest.approx(12.5, abs=1e-14)
    assert np.allclose(f.gradient(x), [3.0, 4.0])


def test_power_norm_gradient_at_origin():
    f = PowerNorm(4, dimension=3)
    assert np.all(f.gradient(np.zeros(3)) == 0.0)
    assert f.min_value == 0.0


def test_smoothness_constants():
    probs = builtin_problems()
    assert probs["quadratic"].smoothness_constant(1) == 10.0
    assert probs["power_3"].smoothness_constant(2) == 2.0
    assert probs["power_4"].smoothness_constant(3) == 6.0
    with pytest.raises(CapabilityError):
        probs["power_3"].smoothness_constant(1)


def test_gap_requires_known_minimum():
    probs = builtin_problems()
    assert probs["quadratic"].gap(np.array([1.0, 1.0])) == pytest.approx(5.5)
    with pytest.raises(CapabilityError):
        probs["zero"].gap(np.zeros(2))


def test_least_squares_minimizer_from_direct_solve():
    f = builtin_problems()["least_squares"]
    # the normal equations must hold at the recorded minimizer
    assert np.linalg.norm(f.gram @ f.minimizer - f.A.T @ f.b) <= 1e-10
    assert f.min_value <= f.value(np.zeros(f.dimension))


def test_log_sum_exp_symmetric_minimizer():
    f = builtin_problems()["log_sum_exp"]
    assert f.min_value == pytest.approx(math.log(12), abs=1e-12)
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(10):
        assert f.value(rng.normal(size=4)) >= f.min_value - 1e-12


def test_catalogs_are_deterministic():
    a = builtin_problems()["least_squares"]
    b = builtin_problems()["least_squares"]
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
