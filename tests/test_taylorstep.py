"""Tests for the regularized higher-order update operator.

The p = 3 scalar oracle: minimizing 0.5 + u + u^2/2 + (2/3)|u|^3 (the 1-D
quadratic f = x^2/2 at x = 1 with eps = 1, N = 2) has optimality condition
1 + u + 2u|u| = 0, whose root is u = -1/2 by inspection; a brute-force grid
confirms it below. Everything else is checked against either hand values or
local-minimality probes of the model itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from accelflow.core import (
    DiagonalQuadratic,
    ObjectiveOracle,
    PowerNorm,
    builtin_problems,
    taylor_model,
)
from accelflow.errors import CapabilityError, InputError, SolverError
from accelflow.taylorstep import (
    StepConfig,
    _secular_displacement,
    g_step,
    progress_coefficient,
    smoothness_epsilon,
    verify_step_progress,
)

RNG_SEED = 20260819


def reg_model_value(f, x, y, cfg):
    """f_{p-1}(y; x) + (N/(eps p)) ||y - x||^p, the quantity g_step minimizes."""
    u = y - x
    return taylor_model(f, x, cfg.p - 1, y) + (
        cfg.N / (cfg.epsilon * cfg.p)
    ) * float(np.linalg.norm(u)) ** cfg.p


def test_step_config_validation():
    with pytest.raises(InputError):
        StepConfig(5, 1.0, 2.0)
    with pytest.raises(InputError):
        StepConfig(2, 0.0, 2.0)
    with pytest.raises(InputError):
        StepConfig(2, 1.0, 0.0)
    cfg = StepConfig(3, 0.5)
    assert cfg.N == 2.0  # accelerated-use default


def test_progress_coefficient_hand_values():
    assert progress_coefficient(2, 2.0) == 0.25
    assert progress_coefficient(2, 1.0) == 0.5
    # (N^2-1)^{(p-2)/(2p-2)} / (2N)
    assert abs(progress_coefficient(3, 2.0) - 3.0 ** 0.25 / 4.0) < 1e-15
    assert abs(progress_coefficient(4, 2.0) - 3.0 ** (1.0 / 3.0) / 4.0) < 1e-15
    # degenerate at N <= 1 for p > 2: the progress bound collapses to descent
    assert progress_coefficient(3, 1.0) == 0.0


def test_smoothness_epsilon_catalog_values():
    f = builtin_problems()["quadratic"]
    assert abs(smoothness_epsilon(f, 2) - 0.1) < 1e-15  # 1!/10
    assert abs(smoothness_epsilon(f, 3) - 0.5) < 1e-15  # 2!/4
    assert abs(smoothness_epsilon(f, 4) - 1.0) < 1e-15  # 3!/6
    with pytest.raises(CapabilityError):
        smoothness_epsilon(PowerNorm(3), 2)  # only order-2 constant declared


def test_g_step_p2_is_exact_gradient_step():
    f = DiagonalQuadratic((1.0, 1.0))
    y, cert = g_step(f, np.array([1.0, 0.0]), StepConfig(2, 1.0, 1.0))
    np.testing.assert_array_equal(y, np.zeros(2))  # unit quadratic, one step
    assert cert.residual == 0.0
    assert cert.ok


def test_g_step_p2_formula_bitwise():
    f = builtin_problems()["quadratic"]
    x = np.array([0.7, -0.4])
    cfg = StepConfig(2, 0.1, 2.0)
    y, _ = g_step(f, x, cfg)
    np.testing.assert_array_equal(y, x - (cfg.epsilon / cfg.N) * f.gradient(x))


def test_g_step_p3_scalar_oracle():
    f = DiagonalQuadratic((1.0,))
    cfg = StepConfig(3, 1.0, 2.0)
    y, cert = g_step(f, np.array([1.0]), cfg)
    assert abs(y[0] - 0.5) < 1e-9
    # brute force the same subproblem on a grid
    us = np.linspace(-2.0, 0.0, 40001)
    model = 0.5 + us + 0.5 * us ** 2 + (2.0 / 3.0) * np.abs(us) ** 3
    u_grid = us[int(np.argmin(model))]
    assert abs(u_grid - (y[0] - 1.0)) < 1e-4
    assert cert.ok


@pytest.mark.parametrize("p", [2, 3, 4])
def test_g_step_fixed_point_at_minimizer(p):
    f = builtin_problems()["quadratic"]
    cfg = StepConfig(p, smoothness_epsilon(f, p), 2.0)
    y, cert = g_step(f, np.zeros(2), cfg)
    np.testing.assert_array_equal(y, np.zeros(2))
    assert cert.residual == 0.0
    assert cert.move_norm == 0.0


@pytest.mark.parametrize(
    "key, p",
    [("quadratic", 3), ("least_squares", 3), ("quadratic", 4), ("power_4", 4)],
)
def test_g_step_minimizes_the_model(key, p):
    # y should beat every probed perturbation on the regularized model
    f = builtin_problems()[key]
    cfg = StepConfig(p, smoothness_epsilon(f, p), 2.0)
    rng = np.random.default_rng(RNG_SEED)
    d = f.minimizer.size
    x = rng.normal(size=d)
    y, cert = g_step(f, x, cfg)
    base = reg_model_value(f, x, y, cfg)
    for scale in (1e-3, 1e-2, 1e-1):
        for _ in range(60):
            delta = rng.normal(size=d)
            delta *= scale / np.linalg.norm(delta)
            assert reg_model_value(f, x, y + delta, cfg) >= base - 1e-11
    # plugging y = x bounds the model minimum by f(x)
    assert base <= f.value(x) + 1e-11


def test_g_step_p4_pure_quadratic_residual():
    # no third derivatives: the warm start is already the exact solution
    f = builtin_problems()["quadratic"]
    cfg = StepConfig(4, 1.0, 2.0)
    x = np.array([1.0, 1.0])
    y, cert = g_step(f, x, cfg)
    assert cert.residual <= 1e-10 * (1.0 + float(np.linalg.norm(f.gradient(x))))
    g = f.gradient(x)
    H = f.hessian_dense(x)
    u = y - x
    opt = g + H @ u + (cfg.N / cfg.epsilon) * float(u @ u) * u
    assert float(np.linalg.norm(opt)) <= 1e-10


@pytest.mark.parametrize("p", [3, 4])
def test_g_step_deterministic(p):
    key = {3: "power_3", 4: "power_4"}[p]
    f = builtin_problems()[key]
    cfg = StepConfig(p, smoothness_epsilon(f, p), 2.0)
    x = np.array([0.9, -0.3, 0.4])
    y1, _ = g_step(f, x, cfg)
    y2, _ = g_step(f, x, cfg)
    assert float(np.max(np.abs(y1 - y2))) <= 1e-12


def test_g_step_checks_derivative_order():
    class GradOnly(ObjectiveOracle):
        name = "grad_only"
        derivative_order = 1

        def value(self, x):
            return 0.5 * float(x @ x)

        def gradient(self, x):
            return np.asarray(x, dtype=np.float64).copy()

    with pytest.raises(CapabilityError):
        g_step(GradOnly(), np.array([1.0]), StepConfig(3, 1.0, 2.0))
    # p = 2 needs only the gradient and must still work
    y, _ = g_step(GradOnly(), np.array([1.0]), StepConfig(2, 1.0, 1.0))
    np.testing.assert_array_equal(y, np.zeros(1))


def test_g_step_rejects_concave_model():
    class Concave(ObjectiveOracle):
        name = "concave"
        derivative_order = 2

        def value(self, x):
            return -0.5 * float(x @ x)

        def gradient(self, x):
            return -np.asarray(x, dtype=np.float64)

        def hessian_dense(self, x):
            return -np.eye(len(x))

        def hessian_apply(self, x, v):
            return -np.asarray(v, dtype=np.float64)

    with pytest.raises(SolverError):
        g_step(Concave(), np.array([1.0, 2.0]), StepConfig(3, 1.0, 2.0))


def test_verify_step_progress_hand_values_p2():
    # M = 1/(2N) and upper move bound eps*||grad f(y)|| at N = 2
    f = DiagonalQuadratic((1.0, 1.0))
    x = np.array([1.0, 0.0])
    y = np.array([0.5, 0.0])
    cert = verify_step_progress(f, x, y, StepConfig(2, 0.1, 2.0))
    assert abs(cert.progress_lower - 0.25 * 0.1 * 0.25) < 1e-15
    assert abs(cert.move_bounds[1] - 0.1 * 0.5) < 1e-15
    assert abs(cert.progress - 0.25) < 1e-15  # <(0.5, 0), (0.5, 0)>
    assert abs(cert.grad_y_norm - 0.5) < 1e-15


def test_verify_step_progress_flags_overlarge_epsilon():
    # eps = 10 on a curvature-10 quadratic violently overshoots; the
    # certificate must flag it rather than raise
    f = builtin_problems()["quadratic"]
    x = np.array([1.0, 1.0])
    cfg = StepConfig(2, 10.0, 2.0)
    y, cert = g_step(f, x, cfg)
    assert not cert.ok
    assert cert.progress < cert.progress_lower


PROGRESS_SWEEP = {
    2: ["quadratic", "quadratic_10d", "least_squares", "log_sum_exp", "power_2"],
    3: ["quadratic", "quadratic_10d", "least_squares", "log_sum_exp", "power_3"],
    4: ["quadratic", "quadratic_10d", "least_squares", "power_4"],
}


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("N", [1.5, 2.0, 4.0])
def test_step_progress_sweep(p, N):
    # the progress inequality and move sandwich at 100 seeded points per
    # benchmark whose declared smoothness backs the chosen epsilon
    problems = builtin_problems()
    rng = np.random.default_rng(RNG_SEED + p)
    for key in PROGRESS_SWEEP[p]:
        f = problems[key]
        cfg = StepConfig(p, smoothness_epsilon(f, p), N)
        d = f.minimizer.size
        for i in range(100):
            x = rng.normal(size=d) * (0.3, 1.0, 3.0)[i % 3]
            y, cert = g_step(f, x, cfg)
            assert cert.progress >= cert.progress_lower - 1e-8, (key, p, N, i)
            assert cert.move_bounds[0] - 1e-8 <= cert.move_norm, (key, p, N, i)
            assert cert.move_norm <= cert.move_bounds[1] + 1e-8, (key, p, N, i)
            assert cert.ok, (key, p, N, i)
            limit = 1e-6 if p == 4 else 1e-9 * (1.0 + float(
                np.linalg.norm(f.gradient(x))
            ))
            assert cert.residual <= limit, (key, p, N, i)


class _InfiniteGradient(DiagonalQuadratic):
    """The quadratic with one gradient coordinate replaced by +inf."""

    def gradient(self, x):
        g = super().gradient(x)
        g[0] = np.inf
        return g


@pytest.mark.parametrize("p", [3, 4])
def test_secular_solve_without_a_root_bracket_is_solver_error(p):
    # phi(r) is NaN everywhere, so brentq cannot bracket a root
    f = _InfiniteGradient((1.0, 10.0))
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="no root bracket"):
        g_step(f, np.array([1.0, 1.0]), StepConfig(p, 0.1, 2.0))


def test_secular_bracket_without_sign_change_is_solver_error():
    # r_hi far below the root: phi stays positive across every doubling
    lam, vecs = np.linalg.eigh(np.diag([1.0, 10.0]))
    with pytest.raises(SolverError, match="different signs"):
        _secular_displacement(lam, vecs, np.array([1.0, 1.0]), 20.0, 1, 1e-300)


def test_g_step_at_tiny_point_of_quadratic_power_norm():
    # the order-2 Hessian of power_2 at a 1e-160 point used to overflow
    f = builtin_problems()["power_2"]
    x = np.array([1e-160, 0.0, 0.0])
    try:
        y, cert = g_step(f, x, StepConfig(3, 0.5, 2.0))
    except SolverError:
        return
    assert np.all(np.isfinite(y)) and cert.ok
