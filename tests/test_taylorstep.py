"""Tests for the regularized higher-order update operator.

The p = 3 scalar oracle: minimizing 0.5 + u + u^2/2 + (2/3)|u|^3 (the 1-D
quadratic f = x^2/2 at x = 1 with eps = 1, N = 2) has optimality condition
1 + u + 2u|u| = 0, whose root is u = -1/2 by inspection; a brute-force grid
confirms it below. Everything else is checked against either hand values or
local-minimality probes of the model itself.
"""

from __future__ import annotations

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelflow import taylorstep
from accelflow.accel import AccelConfig, accelerated
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
    _secular_root,
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
    y, _, cert = g_step(f, np.array([1.0, 0.0]), StepConfig(2, 1.0, 1.0))
    np.testing.assert_array_equal(y, np.zeros(2))  # unit quadratic, one step
    assert cert.residual == 0.0
    assert cert.ok


def test_g_step_p2_formula_bitwise():
    f = builtin_problems()["quadratic"]
    x = np.array([0.7, -0.4])
    cfg = StepConfig(2, 0.1, 2.0)
    y, _, _ = g_step(f, x, cfg)
    np.testing.assert_array_equal(y, x - (cfg.epsilon / cfg.N) * f.gradient(x))


def test_g_step_p3_scalar_oracle():
    f = DiagonalQuadratic((1.0,))
    cfg = StepConfig(3, 1.0, 2.0)
    y, _, cert = g_step(f, np.array([1.0]), cfg)
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
    y, _, cert = g_step(f, np.zeros(2), cfg)
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
    y, _, cert = g_step(f, x, cfg)
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
    y, _, cert = g_step(f, x, cfg)
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
    y1, _, _ = g_step(f, x, cfg)
    y2, _, _ = g_step(f, x, cfg)
    assert float(np.max(np.abs(y1 - y2))) <= 1e-12


# ---------------------------------------------------------------------------
# one eigendecomposition per distinct Hessian


@pytest.fixture
def eigh_calls(monkeypatch):
    """Count np.linalg.eigh calls, starting from an empty memo."""
    taylorstep._last_eigh[0] = None
    calls = []
    real = np.linalg.eigh

    def counting(H):
        calls.append(H)
        return real(H)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_eigh_runs_once_per_distinct_hessian_in_a_run(eigh_calls):
    K = 30
    # log_sum_exp's Hessian moves with x, except from x_0 to x_1 = x_0 (the
    # k = 0 mirror weight vanishes): K decompositions for K + 1 steps
    for name, expected in (("quadratic", 1), ("log_sum_exp", K)):
        f = builtin_problems()[name]
        x0 = np.full(f.dimension, 0.7)
        eigh_calls.clear()
        rec = accelerated(f, AccelConfig(p=3, epsilon=smoothness_epsilon(f, 3), x0=x0), K)
        assert rec.termination["status"] == "completed"
        assert len(rec.ks) == K + 1
        assert len(eigh_calls) == expected, name


def _interleaved_steps(cases, fresh):
    """Two steps at each point, problem after problem; with fresh set, the
    memo is emptied before every step."""
    steps = []
    for i in range(3):
        for f, cfg, points in cases:
            for _ in range(2):
                if fresh:
                    taylorstep._last_eigh[0] = None
                steps.append(g_step(f, points[i], cfg))
    return steps


def test_memo_steps_on_interleaved_problems_equal_fresh_decompositions():
    taylorstep._last_eigh[0] = None
    problems = builtin_problems()
    rng = np.random.default_rng(RNG_SEED)
    cases = []
    # quadratic_10d twice in a row: its constant Hessian is shared across
    # points and orders
    for name, p in (("quadratic_10d", 3), ("quadratic_10d", 4), ("log_sum_exp", 3),
                    ("least_squares", 4), ("power_4", 4)):
        f = problems[name]
        cases.append((f, StepConfig(p, smoothness_epsilon(f, p)),
                      0.5 * rng.standard_normal((3, f.dimension))))
    memo = _interleaved_steps(cases, fresh=False)
    fresh = _interleaved_steps(cases, fresh=True)
    for (y, gy, cert), (y2, gy2, cert2) in zip(memo, fresh):
        assert y.tobytes() == y2.tobytes() and gy.tobytes() == gy2.tobytes()
        assert np.array([cert], taylorstep.CERTIFICATE_DTYPE).tobytes() == \
            np.array([cert2], taylorstep.CERTIFICATE_DTYPE).tobytes()


def test_memo_decomposes_a_hessian_one_ulp_away_and_is_read_only(eigh_calls):
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    vals, vecs = taylorstep._eigh(H)
    again = taylorstep._eigh(H.copy())
    assert len(eigh_calls) == 1 and again[0] is vals and again[1] is vecs
    near = H.copy()
    near[1, 1] = np.nextafter(1.0, 2.0)
    vals2, _ = taylorstep._eigh(near)
    assert len(eigh_calls) == 2 and vals2 is not vals
    for array in (vals, vecs, vals2):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_memo_shared_by_threads_returns_each_steps_own_decomposition():
    # four threads (more than the two cores) step on problems with different
    # Hessians through the one memo, switching every microsecond; a torn or
    # mismatched entry would give some thread another matrix's eigenvectors
    problems = builtin_problems()
    cases = [(problems[name], StepConfig(p, smoothness_epsilon(problems[name], p)))
             for name, p in (("quadratic_10d", 3), ("log_sum_exp", 3),
                             ("least_squares", 4), ("quadratic_10d", 4))]
    rng = np.random.default_rng(RNG_SEED)
    points = [0.5 * rng.standard_normal((4, f.dimension)) for f, _ in cases]
    expected = []
    for (f, cfg), xs in zip(cases, points):
        row = []
        for x in xs:
            taylorstep._last_eigh[0] = None
            row.append(g_step(f, x, cfg)[0].tobytes())
        expected.append(row)
    mismatches = []

    def work(i):
        f, cfg = cases[i]
        try:
            for _ in range(25):
                for j, x in enumerate(points[i]):
                    if g_step(f, x, cfg)[0].tobytes() != expected[i][j]:
                        mismatches.append((i, j))
        except Exception as exc:  # a thread's error must fail the test
            mismatches.append((i, repr(exc)))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


class _ListHessian:
    """Delegates to an objective oracle; its hessian_dense returns a list."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def hessian_dense(self, x):
        return self.inner.hessian_dense(x).tolist()


@pytest.mark.parametrize("key, p", [("log_sum_exp", 3), ("least_squares", 4),
                                    ("power_4", 4)])
def test_a_list_from_hessian_dense_steps_as_an_array_does(key, p):
    f = builtin_problems()[key]
    cfg = StepConfig(p, smoothness_epsilon(f, p))
    x = np.linspace(-0.6, 0.8, f.dimension)
    steps = []
    for oracle in (f, _ListHessian(f), _ListHessian(f)):  # a miss, then a hit
        if oracle is f:
            taylorstep._last_eigh[0] = None
        y, gy, cert = g_step(oracle, x, cfg)
        steps.append((y.tobytes(), gy.tobytes(), tuple(cert)))
    taylorstep._last_eigh[0] = None
    y, gy, cert = g_step(_ListHessian(f), x, cfg)
    steps.append((y.tobytes(), gy.tobytes(), tuple(cert)))
    assert steps[1:] == steps[:1] * 3


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
    y, _, _ = g_step(GradOnly(), np.array([1.0]), StepConfig(2, 1.0, 1.0))
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

    with pytest.raises(SolverError):
        g_step(Concave(), np.array([1.0, 2.0]), StepConfig(3, 1.0, 2.0))


class _FourMethods(ObjectiveOracle):
    """A catalog oracle seen through the four methods of the interface only:
    value, gradient, hessian_dense and third_apply, with its constants.
    hessian_calls counts the Hessians evaluated."""

    def __init__(self, inner):
        self.inner = inner
        self.hessian_calls = 0
        for attr in ("name", "derivative_order", "smoothness", "uniform_convexity",
                     "minimizer", "min_value", "dimension"):
            setattr(self, attr, getattr(inner, attr))

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)

    def hessian_dense(self, x):
        self.hessian_calls += 1
        return self.inner.hessian_dense(x)

    def third_apply(self, x, u, v):
        return self.inner.third_apply(x, u, v)


@pytest.mark.parametrize("key, p", [("log_sum_exp", 3), ("least_squares", 3),
                                    ("power_4", 4), ("quadratic_10d", 4)])
def test_g_step_certifies_an_oracle_of_four_methods(key, p):
    # the step is solved and its residual certified against hessian_dense,
    # so an oracle needs no other Hessian; one Hessian serves the whole step
    f = _FourMethods(builtin_problems()[key])
    cfg = StepConfig(p, smoothness_epsilon(f, p), 2.0)
    rng = np.random.default_rng(11)
    x = rng.normal(size=f.dimension)
    for _ in range(5):
        gnorm = float(np.linalg.norm(f.gradient(x)))
        calls = f.hessian_calls
        y, _, cert = g_step(f, x, cfg)
        assert f.hessian_calls == calls + 1
        assert verify_step_progress(f, x, y, cfg) == cert
        assert f.hessian_calls == calls + 2
        assert cert.ok, (key, p, cert)
        assert cert.residual <= (taylorstep.RESIDUAL_TARGET * (1.0 + gnorm) if p == 3
                                 else taylorstep.RESIDUAL_LIMIT_P4)
        x = y


@pytest.mark.parametrize("key, p", [("log_sum_exp", 3), ("power_4", 4)])
def test_g_step_over_its_residual_limit_is_solver_error(key, p):
    # with both limits at 0 every step fails the one residual gate, and the
    # error carries the step's y and its certificate's residual
    f = builtin_problems()[key]
    cfg = StepConfig(p, smoothness_epsilon(f, p), 2.0)
    x = np.linspace(0.7, -0.4, f.dimension)
    y, _, cert = g_step(f, x, cfg)
    assert cert.residual > 0.0
    with mock.patch.object(taylorstep, "RESIDUAL_TARGET", 0.0), \
            mock.patch.object(taylorstep, "RESIDUAL_LIMIT_P4", 0.0), \
            pytest.raises(SolverError, match="left residual") as err:
        g_step(f, x, cfg)
    assert np.array_equal(err.value.best, y)
    assert err.value.residual == cert.residual


def test_accelerated_certifies_an_oracle_of_four_methods():
    f = _FourMethods(builtin_problems()["log_sum_exp"])
    cfg = AccelConfig(p=3, epsilon=smoothness_epsilon(f, 3), x0=np.ones(4))
    rec = accelerated(f, cfg, 30)
    assert rec.termination["status"] == "completed"
    assert rec.certificates.shape == (31,) and rec.certificates["ok"].all()
    report = rec.invariant_report()
    assert report and all(entry["ok"] for entry in report.values()), report


def test_verify_step_progress_hand_values_p2():
    # M = 1/(2N) and upper move bound eps*||grad f(y)|| at N = 2
    f = DiagonalQuadratic((1.0, 1.0))
    x = np.array([1.0, 0.0])
    y = np.array([0.5, 0.0])
    cert = verify_step_progress(f, x, y, StepConfig(2, 0.1, 2.0))
    assert abs(cert.progress_lower - 0.25 * 0.1 * 0.25) < 1e-15
    assert abs(cert.move_hi - 0.1 * 0.5) < 1e-15
    assert abs(cert.progress - 0.25) < 1e-15  # <(0.5, 0), (0.5, 0)>
    assert abs(cert.grad_y_norm - 0.5) < 1e-15


def test_certificate_input_errors_and_copies():
    f = DiagonalQuadratic((1.0, 1.0))
    x = [1.0, 0.0]
    cfg = StepConfig(2, 0.1, 2.0)
    for y in ([0.5, math.nan], [0.5, math.inf], [0.5, 0.0, 0.0]):
        with pytest.raises(InputError):
            verify_step_progress(f, x, y, cfg)
    assert verify_step_progress(f, x, [0.5, 0.0], cfg).move_norm == 0.5

    class Exploding(DiagonalQuadratic):
        def gradient(self, x):
            return np.array([math.inf, 0.0])

    # the step lands on a non-finite point, which the certificate rejects
    with pytest.raises(InputError, match="non-finite"):
        g_step(Exploding((1.0, 1.0)), np.array(x), cfg)
    # the returned y is a new array, at a stationary point too
    for start in (x, [0.0, 0.0]):
        x_arr = np.array(start)
        y, gy, _ = g_step(f, x_arr, cfg)
        np.testing.assert_array_equal(gy, f.gradient(y))
        y[0] = 7.0
        assert x_arr.tolist() == start


def test_verify_step_progress_flags_overlarge_epsilon():
    # eps = 10 on a curvature-10 quadratic violently overshoots; the
    # certificate must flag it rather than raise
    f = builtin_problems()["quadratic"]
    x = np.array([1.0, 1.0])
    cfg = StepConfig(2, 10.0, 2.0)
    y, _, cert = g_step(f, x, cfg)
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
            y, _, cert = g_step(f, x, cfg)
            assert cert.progress >= cert.progress_lower - 1e-8, (key, p, N, i)
            assert cert.move_lo - 1e-8 <= cert.move_norm, (key, p, N, i)
            assert cert.move_norm <= cert.move_hi + 1e-8, (key, p, N, i)
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
    # ||g|| is infinite, so no closed-form bound brackets the root
    f = _InfiniteGradient((1.0, 10.0))
    with np.errstate(invalid="ignore"), pytest.raises(SolverError, match="no root bracket"):
        g_step(f, np.array([1.0, 1.0]), StepConfig(p, 0.1, 2.0))


class _StiffPlusLinear(ObjectiveOracle):
    """f = (L/2) x_0^2 + b x_1: curvature L along x_0 and none along x_1,
    where only the regularizer sets the step. Powers of two keep the Newton
    part exact: the step lands on x_0 = 0 without rounding."""

    name = "stiff_plus_linear"
    derivative_order = 3
    dimension = 2

    def __init__(self, L, b):
        self.L, self.b = L, b

    def value(self, x):
        return 0.5 * self.L * x[0] ** 2 + self.b * x[1]

    def gradient(self, x):
        return np.array([self.L * x[0], self.b])

    def hessian_dense(self, x):
        return np.diag([self.L, 0.0])

    def third_apply(self, x, u, v):
        return np.zeros(2)


def test_secular_shortcut_region_with_a_live_regularizer_is_certified():
    # ||g|| ~ 2^110 puts the root r = 1 (b / (s r) = r along x_1) 16 orders
    # under (||g|| / s)^{1/2}, and the regularizer alone sets the x_1 step.
    # Two fixed-point sweeps from 1e-16 (||g|| / s)^{1/2} would stop at
    # r = 10 and a step of 0.28, which fails the move-norm sandwich; the
    # secular root gives the certified unit step.
    f = _StiffPlusLinear(2.0**150, 1.0)
    x = np.array([2.0**-40, 0.0])
    cfg = StepConfig(3, 2.0, 2.0)
    scale = cfg.N / cfg.epsilon
    g = f.gradient(x)
    lam, vecs = np.linalg.eigh(f.hessian_dense(x))
    lo = 1e-16 * math.sqrt(float(np.linalg.norm(g)) / scale)
    coords = vecs.T @ g
    assert np.linalg.norm(coords / (lam + scale * lo)) - lo <= 0.0
    assert np.any((lam == 0.0) & (coords != 0.0))  # the regularizer is live
    u = _secular_displacement(lam, vecs, g, scale, 1)
    r = float(np.linalg.norm(u))
    assert abs(r - 1.0) <= 1e-12
    np.testing.assert_allclose(u, [-x[0], -1.0], rtol=1e-12, atol=0)
    assert verify_step_progress(f, x, x + u, cfg).ok
    y, _, cert = g_step(f, x, cfg)
    assert cert.ok and np.array_equal(y, x + u)


def test_secular_shortcut_keeps_the_newton_step_when_the_regularizer_is_negligible():
    # a stiff quadratic whose root lies 16 orders under (||g|| / s)^{1/2}:
    # the Newton step, to the last bit the regularizer can move
    lam, vecs = np.linalg.eigh(np.diag([1e40, 3e40]))
    g = np.array([1e34, -6e34])  # Newton step (-1e-6, 2e-6)
    lo = 1e-16 * math.sqrt(float(np.linalg.norm(g)) / 1.0)
    assert np.linalg.norm((vecs.T @ g) / (lam + lo)) - lo <= 0.0
    u = _secular_displacement(lam, vecs, g, 1.0, 1)
    np.testing.assert_allclose(u, [-1e-6, 2e-6], rtol=1e-15, atol=0)


def test_g_step_at_tiny_point_of_quadratic_power_norm():
    # the order-2 Hessian of power_2 at a 1e-160 point used to overflow
    f = builtin_problems()["power_2"]
    x = np.array([1e-160, 0.0, 0.0])
    try:
        y, _, cert = g_step(f, x, StepConfig(3, 0.5, 2.0))
    except SolverError:
        return
    assert np.all(np.isfinite(y)) and cert.ok


# ---------------------------------------------------------------------------
# The secular root


EPS = np.finfo(float).eps


@st.composite
def _secular_problems(draw):
    """d in 1..10, half of the cases with zero eigenvalues, power 1 or 2,
    and gradient norms from 1e-60 to 1e10: without a zero eigenvalue and
    below about 1e-32 lam^2 / s, the root lies 16 orders under
    (||g|| / s)^{1/(power+1)}."""
    power = draw(st.sampled_from((1, 2)))
    d = draw(st.integers(1, 10))
    lam = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0),
                                         min_size=d, max_size=d)))
    if draw(st.booleans()):  # a zero eigenvalue keeps the root near the upper bound
        lam[:draw(st.integers(1, d))] = 0.0
    direction = np.array(draw(st.lists(
        st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3),
        min_size=d, max_size=d)))
    g = 10.0 ** draw(st.floats(-60.0, 10.0)) * direction
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    vecs = np.linalg.qr(np.array(draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d),
        min_size=d, max_size=d))) + 3.0 * np.eye(d))[0]
    return lam, vecs, vecs @ g, scale, power


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_secular_problems())
# a zero eigenvalue with a zero coordinate, where s r^2 underflows to 0 at
# the first iterates (2.6e-221 squared): the root near 3.66e-64 is a normal
# double, so that coordinate must read 0 there, not 0 / 0
@example((np.array([0.0, 1.9e30, 0.0]), np.eye(3),
          np.array([0.0, 2.6e-223, -4.9e-191]), 1.0, 2))
def test_secular_root_solves_the_secular_equation(case):
    # the root to 8 ulps, inside the closed-form bracket r_lo <= r <= r_up
    # (r (lam + s r^power) = ||g|| at the largest and smallest eigenvalue),
    # and the step u = -V (Lam + s r^power)^{-1} V^T g at it
    lam, vecs, g, scale, power = case
    coords = vecs.T @ g
    with np.errstate(over="ignore"):  # iterates far below the root overflow u(r) / r
        r, _ = _secular_root(lam, coords, scale, power)
    inverse = 1.0 / (lam + scale * r**power)
    assert abs(np.linalg.norm(coords * inverse) - r) <= 8 * EPS * r
    gnorm = math.hypot(*coords)  # the squares in np.linalg.norm underflow below 1e-154
    assert r * (lam.min() + scale * r**power) <= gnorm * (1 + 8 * EPS)
    assert r * (lam.max() + scale * r**power) >= gnorm * (1 - 8 * EPS)
    u = -(vecs @ (inverse * coords))
    with np.errstate(over="ignore"):
        step = _secular_displacement(lam, vecs, g, scale, power)
    assert np.linalg.norm(step - u) <= 16 * EPS * np.linalg.norm(u)


@pytest.mark.parametrize("power, gnorm", [(1, 4.0), (2, 8.0)])
def test_secular_root_at_the_upper_bound_is_exact(power, gnorm):
    # lam = 0 and s = 1: ||g|| / r^power = r holds exactly at r = 2, the
    # upper bound (||g|| / s)^{1/(power+1)}
    r, den = _secular_root(np.zeros(1), np.array([gnorm]), 1.0, power)
    assert r == 2.0 and den[0] == 2.0**power
    u = _secular_displacement(np.zeros(1), np.eye(1), np.array([gnorm]), 1.0, power)
    assert u.tolist() == [-2.0]


@pytest.mark.parametrize("power", [1, 2])
def test_secular_root_far_below_the_upper_bound(power):
    # ||g|| = 1e-40 and lam = 1 put the root near 1e-40, about 1e-40^{1/2}
    # or 1e-40^{1/3} under the bound that the zero eigenvalue sets
    lam, g = np.array([1.0, 0.0]), np.array([1e-40, 0.0])
    r, _ = _secular_root(lam, g, 1.0, power)
    assert abs(r - 1e-40) <= 4 * EPS * 1e-40
    assert _secular_displacement(lam, np.eye(2), g, 1.0, power).tolist() == [-1e-40, 0.0]


@pytest.mark.parametrize("lam, g", [
    ([1.0, 2.0], [math.nan, 1.0]),
    ([math.nan, 2.0], [1.0, 1.0]),
], ids=["gradient", "eigenvalue"])
@pytest.mark.parametrize("power", [1, 2])
def test_secular_solve_with_a_nan_is_no_root_bracket(lam, g, power):
    with pytest.raises(SolverError, match="no root bracket"):
        _secular_displacement(np.array(lam), np.eye(2), np.array(g), 1.0, power)


def test_secular_solve_past_its_iteration_budget_is_solver_error():
    # eigenvalues 1 and 100 keep the root off both closed-form bounds, so
    # one evaluation cannot settle it
    lam, g = np.array([1.0, 100.0]), np.array([1.0, 1.0])
    _secular_displacement(lam, np.eye(2), g, 1.0, 1)
    with mock.patch.object(taylorstep, "SECULAR_MAXITER", 1), \
            pytest.raises(SolverError, match="did not converge in 1 iterations"):
        _secular_displacement(lam, np.eye(2), g, 1.0, 1)
