"""Tests for the continuous-time systems, the integrator, and time dilation.

Oracles used here, all derived by hand and independent of the implementation:

* Force-free motion. With f identically zero the dual variable W is constant,
  so X solves X_dot = e^{alpha} (z0 - X) with z0 = grad h*(W0). Under the
  damping condition gamma_dot = e^{alpha} the solution is

      X_t = z0 + (x0 - z0) * exp(-(gamma(t) - gamma(t0))).

* Rescaled gradient flow on f = (1/p)||x||^p. grad f = ||x||^{p-2} x and
  ||grad f|| = ||x||^{p-1}, so the rescaling cancels the norm exactly and
  the field is -x: X_t = e^{-t} X_0 for every p.

* Natural gradient flow with h = (1/4) x^4 and f = (1/2) x^2 in one
  dimension: h'' = 3 x^2, so x_dot = -x / (3 x^2) = -1/(3x), which separates
  to x(t) = sqrt(x0^2 - 2t/3).

* Dilation algebra. Reparametrizing the degree-2 polynomial triple by
  tau(t) = t^{p/2} yields the degree-p triple with the same rate constant:
  alpha picks up log tau_dot = log(p/2) + (p/2 - 1) log t, which combines
  with alpha(tau) = log 2 - (p/2) log t to give log p - log t.

* The adaptive integrator's tableau against the Butcher order conditions
  (one per rooted tree up to order 5), and its final states against scipy's
  independent DOP853 at rtol 1e-13.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from accelflow.core import (
    DiagonalMap,
    DiagonalQuadratic,
    EuclideanMap,
    MirrorMap,
    PowerNorm,
    PthPowerMap,
    ScalingTriple,
    ZeroObjective,
    as_point,
    builtin_problems,
    exponential_triple,
    massless_triple,
    polynomial_triple,
)
from accelflow.errors import (
    CapabilityError,
    DivergenceError,
    InputError,
    NumericalError,
    SolverError,
)
from accelflow.flows import (
    FlowSystem,
    TimeDilation,
    build_el_system,
    build_euclidean_r_system,
    build_hamiltonian_system,
    build_massless_system,
    build_natural_gradient_flow,
    build_rescaled_gradient_flow,
    dilate_trajectory,
    dilate_triple,
    energy_at,
    fit_rate,
    integrate,
    rescaled_flow_energy,
)
from accelflow.flows.integrate import _A as _DP_A
from accelflow.flows.integrate import _C as _DP_C
from accelflow.flows.integrate import _E as _DP_E

RNG_SEED = 20260819


def quadratic_2d():
    return DiagonalQuadratic((1.0, 10.0))


# ---------------------------------------------------------------------------
# vector fields, checked against hand-evaluated formulas


def test_el_field_hand_values():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    y = np.array([1.0, -1.0, 0.5, 2.0])  # X = (1, -1), W = (0.5, 2)
    # e^alpha = p/t = 1 at t = 2; e^{alpha+beta} = p C t^{p-1} = 4
    dy = sys.vector_field(2.0, y)
    np.testing.assert_allclose(dy[:2], [-0.5, 3.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(dy[2:], [-4.0, 40.0], rtol=0, atol=1e-14)


def test_el_field_with_diagonal_mirror():
    sys = build_el_system(DiagonalMap((2.0, 5.0)), quadratic_2d(),
                          polynomial_triple(2, 1.0))
    y = np.array([1.0, -1.0, 0.5, 2.0])
    dy = sys.vector_field(2.0, y)
    # grad h*(W) = (0.25, 0.4)
    np.testing.assert_allclose(dy[:2], [-0.75, 1.4], rtol=0, atol=1e-14)
    np.testing.assert_allclose(dy[2:], [-4.0, 40.0], rtol=0, atol=1e-14)


def test_exponential_field_hand_values():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), exponential_triple(1.0))
    y = np.array([1.0, -1.0, 0.5, 2.0])
    dy = sys.vector_field(0.7, y)
    np.testing.assert_allclose(dy[:2], [-0.5, 3.0], rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        dy[2:], [-math.exp(0.7) * 1.0, -math.exp(0.7) * -10.0], rtol=1e-14
    )


def test_massless_field_hand_values():
    sys = build_massless_system(EuclideanMap(), quadratic_2d(), 0.1)
    assert sys.kind == "massless_lagrangian"
    y = np.array([1.0, -1.0, 0.5, 2.0])
    dy = sys.vector_field(3.0, y)
    # X_dot = (1/m)(W - X); W_dot = -grad f exactly (alpha + beta = 0)
    np.testing.assert_allclose(dy[:2], [-5.0, 30.0], rtol=1e-14)
    np.testing.assert_allclose(dy[2:], [-1.0, 10.0], rtol=1e-14)


@pytest.mark.parametrize("mirror", [EuclideanMap(), DiagonalMap((2.0, 5.0)),
                                    PthPowerMap(3)])
def test_el_initial_velocity_is_zero(mirror):
    sys = build_el_system(mirror, quadratic_2d(), polynomial_triple(2, 1.0))
    y0 = sys.initial_state_from(np.array([0.7, -1.3]), 0.5)
    np.testing.assert_allclose(y0[:2], [0.7, -1.3], rtol=0, atol=0)
    dy = sys.vector_field(0.5, y0)
    np.testing.assert_allclose(dy[:2], 0.0, rtol=0, atol=1e-12)


def test_el_rejects_broken_damping():
    # beta/gamma of the degree-2 family but a constant damping weight:
    # gamma_dot != e^alpha, so the (X, W) reduction does not apply.
    bad = ScalingTriple(
        alpha=lambda t: math.log(2.0) - math.log(t),
        beta=lambda t: 2.0 * math.log(t),
        gamma=lambda t: t,
        alpha_dot=lambda t: -1.0 / t,
        beta_dot=lambda t: 2.0 / t,
        gamma_dot=lambda t: 1.0,
        valid_from=0.1,
    )
    with pytest.raises(InputError):
        build_el_system(EuclideanMap(), quadratic_2d(), bad)
    with pytest.raises(InputError):
        build_hamiltonian_system(EuclideanMap(), quadratic_2d(), bad)


def test_r_system_field_unit_force():
    sys = build_euclidean_r_system(quadratic_2d(), 3.0)
    y = np.array([1.0, -1.0, 0.2, 0.4])  # X, V
    dy = sys.vector_field(0.5, y)
    np.testing.assert_allclose(dy[:2], [0.2, 0.4], rtol=0)
    # V_dot = -(3/0.5) V - grad f = (-1.2 - 1, -2.4 + 10)
    np.testing.assert_allclose(dy[2:], [-2.2, 7.6], rtol=1e-14)


def test_r_system_field_matched_force():
    sys = build_euclidean_r_system(quadratic_2d(), 4.0, force_scaling=("matched", 0.5))
    y = np.array([1.0, -1.0, 0.2, 0.4])
    dy = sys.vector_field(2.0, y)
    # p = 3, force = 0.5 * 9 * t = 9 at t = 2; damping 4/2 = 2
    np.testing.assert_allclose(dy[2:], [-0.4 - 9.0, -0.8 + 90.0], rtol=1e-14)


def test_r_system_rejects_bad_force_scaling():
    with pytest.raises(InputError):
        build_euclidean_r_system(quadratic_2d(), 3.0, force_scaling="mystery")
    with pytest.raises(InputError):
        build_euclidean_r_system(quadratic_2d(), 3.0, force_scaling=("matched", -1.0))
    with pytest.raises(InputError):
        build_euclidean_r_system(quadratic_2d(), 0.0)


def test_hamiltonian_field_reduces_in_euclidean_case():
    # With h = (1/2)||x||^2 the momentum equation collapses:
    # X_dot = e^{alpha-gamma} P, P_dot = -e^{alpha+beta+gamma} grad f(X).
    f = quadratic_2d()
    s = polynomial_triple(2, 1.0)
    sys = build_hamiltonian_system(EuclideanMap(), f, s)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(25):
        t = float(rng.uniform(0.3, 8.0))
        y = rng.normal(size=4)
        dy = sys.vector_field(t, y)
        ea_minus_g = (2.0 / t) * t ** -2.0
        ea_plus_bg = (2.0 / t) * t ** 4.0
        np.testing.assert_allclose(dy[:2], ea_minus_g * y[2:], rtol=1e-12)
        np.testing.assert_allclose(
            dy[2:], -ea_plus_bg * f.gradient(y[:2]), rtol=1e-12
        )


class _GradientOnlyMirror(MirrorMap):
    """Strictly first-order mirror used to exercise capability errors."""

    name = "gradient_only"

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        return np.asarray(x, dtype=np.float64).copy()

    def dual_gradient(self, w):
        return np.asarray(w, dtype=np.float64).copy()


def test_hessian_requiring_builders_check_capability():
    h = _GradientOnlyMirror()
    with pytest.raises(CapabilityError):
        build_hamiltonian_system(h, quadratic_2d(), polynomial_triple(2, 1.0))
    with pytest.raises(CapabilityError):
        build_natural_gradient_flow(h, quadratic_2d())


def test_natural_gradient_field_1d():
    h = PthPowerMap(4)
    f = DiagonalQuadratic((1.0,))
    sys = build_natural_gradient_flow(h, f)
    dy = sys.vector_field(0.0, np.array([2.0]))
    np.testing.assert_allclose(dy, [-1.0 / 6.0], rtol=1e-14)


def test_natural_gradient_matches_separable_solution():
    # x_dot = -1/(3x) gives x(t) = sqrt(x0^2 - 2t/3)
    sys = build_natural_gradient_flow(PthPowerMap(4), DiagonalQuadratic((1.0,)))
    traj = integrate(sys, np.array([2.0]), 0.0, 1.0,
                     {"method": "rk4", "steps": 1000})
    exact = np.sqrt(4.0 - 2.0 * traj.times / 3.0)
    np.testing.assert_allclose(traj.block("X")[:, 0], exact, rtol=0, atol=1e-10)


def test_natural_gradient_singular_hessian_raises():
    # pth-power Hessian vanishes at the anchor for p > 2
    sys = build_natural_gradient_flow(PthPowerMap(4), DiagonalQuadratic((1.0,)))
    with pytest.raises(NumericalError):
        sys.vector_field(0.0, np.array([0.0]))


# ---------------------------------------------------------------------------
# force-free motion: closed form and integrator order


def _natural_motion_setup(triple, mirror):
    sys = build_el_system(mirror, ZeroObjective(), triple)
    x0 = np.array([1.0, 2.0])
    z0 = np.array([3.0, -1.0])
    y0 = np.concatenate([x0, mirror.gradient(z0)])
    return sys, x0, z0, y0


@pytest.mark.parametrize("p", [2, 3])
def test_natural_motion_polynomial(p):
    triple = polynomial_triple(p, 1.0)
    sys, x0, z0, y0 = _natural_motion_setup(triple, EuclideanMap())
    t0 = 0.5
    traj = integrate(sys, x0, t0, 4.0, {"method": "rk4", "steps": 2000},
                     initial_state=y0)
    decay = (t0 / traj.times)[:, None] ** p
    exact = z0[None, :] + (x0 - z0)[None, :] * decay
    err = np.max(np.abs(traj.block("X") - exact))
    assert err < 1e-8
    # W never moves when the force vanishes
    w = traj.block("W")
    assert np.max(np.abs(w - w[0][None, :])) < 1e-13


def test_natural_motion_exponential():
    sys, x0, z0, y0 = _natural_motion_setup(exponential_triple(1.0), EuclideanMap())
    traj = integrate(sys, x0, 0.0, 3.0, {"method": "rk4", "steps": 1500},
                     initial_state=y0)
    decay = np.exp(-traj.times)[:, None]
    exact = z0[None, :] + (x0 - z0)[None, :] * decay
    assert np.max(np.abs(traj.block("X") - exact)) < 1e-9


def test_integrator_is_fourth_order():
    # halving the step on a smooth problem should cut the error by ~16;
    # anything >= 8 confirms the classical order
    sys, x0, z0, y0 = _natural_motion_setup(exponential_triple(1.0), EuclideanMap())
    errs = []
    for steps in (50, 100):
        traj = integrate(sys, x0, 0.0, 3.0, {"method": "rk4", "steps": steps},
                         initial_state=y0)
        exact = z0 + (x0 - z0) * math.exp(-3.0)
        errs.append(np.max(np.abs(traj.final_state()[:2] - exact)))
    assert errs[0] > 1e-13  # not yet at roundoff, so the ratio is meaningful
    assert errs[0] / errs[1] > 8.0


# ---------------------------------------------------------------------------
# integrator behavior: records, divergence, adaptivity


def _growth_system():
    return FlowSystem(
        "test_growth", ("X",), lambda t, y: y.copy(),
        lambda x0, t0: as_point(x0), valid_from=0.0,
    )


def test_divergence_carries_partial_trajectory():
    with pytest.raises(DivergenceError) as info:
        integrate(_growth_system(), np.array([1.0]), 0.0, 25.0,
                  {"method": "rk4", "steps": 2500})
    err = info.value
    # e^t crosses 1e8 near t = 18.4
    assert err.t is not None and 18.0 < err.t < 19.0
    assert err.partial is not None
    assert err.partial.times[-1] < 19.0
    assert np.all(np.isfinite(err.partial.states))


def test_nan_field_raises_numerical_error():
    bad = FlowSystem(
        "test_nan", ("X",), lambda t, y: np.array([math.nan]),
        lambda x0, t0: as_point(x0), valid_from=0.0,
    )
    with pytest.raises(NumericalError):
        integrate(bad, np.array([1.0]), 0.0, 1.0, {"method": "rk4", "steps": 10})


def _still_system():
    return FlowSystem(
        "test_still", ("X",), lambda t, y: np.zeros_like(y),
        lambda x0, t0: as_point(x0), valid_from=0.0,
    )


def test_infinite_state_raises_numerical_error():
    with pytest.raises(NumericalError):
        integrate(_still_system(), np.zeros(2), 0.0, 1.0, {"method": "rk4", "steps": 10},
                  initial_state=np.array([math.inf, 0.0]))


@pytest.mark.parametrize("controls", [
    {"method": "rk4", "steps": 100},
    {"method": "rk4_adaptive"},
], ids=["rk4", "rk4_adaptive"])
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_diverged_initial_state_raises_before_the_first_sample(controls):
    # |x0|^2 overflows; the gap of x0 would overflow as well, and the partial
    # record holds no sample to evaluate it at
    sys = build_el_system(EuclideanMap(), builtin_problems()["power_3"],
                          polynomial_triple(2, 1.0))
    with pytest.raises(DivergenceError) as info:
        integrate(sys, np.array([1e154, 1.0, 1.0]), 0.1, 50.0, controls)
    err = info.value
    assert err.t == 0.1 and len(err.partial) == 0
    assert err.partial.step_stats["field_evals"] == 0


def test_adaptive_non_finite_error_estimate_is_a_solver_error():
    # the field turns NaN past t = 1 while the state stays finite
    sys = FlowSystem("test_nan_after_1", ("X",),
                     lambda t, y: -y if t < 1.0 else np.full_like(y, math.nan),
                     lambda x0, t0: as_point(x0))
    with pytest.raises(SolverError, match="non-finite error estimate"):
        integrate(sys, np.array([1.0]), 0.0, 2.0,
                  {"method": "rk4_adaptive", "rel_tol": 1e-7, "max_steps": 20000})


def test_adaptive_step_that_no_longer_advances_is_a_solver_error():
    # a jump of the field at t = 1 that no step can resolve at abs_tol
    # 1e-300: the step shrinks below the spacing of floats near t = 1
    sys = FlowSystem("test_jump", ("X",),
                     lambda t, y: np.array([0.0 if t < 1.0 else 1.0]),
                     lambda x0, t0: as_point(x0))
    with pytest.raises(SolverError, match="no longer advances"):
        integrate(sys, np.array([1.0]), 0.0, 2.0,
                  {"method": "rk4_adaptive", "rel_tol": 0.0, "abs_tol": 1e-300,
                   "max_steps": 20000})


@pytest.mark.parametrize("controls", [
    {"method": "rk4", "steps": 10},
    {"method": "rk4_adaptive"},
], ids=["rk4", "rk4_adaptive"])
def test_finite_state_whose_square_overflows_diverges(controls):
    # 1e200^2 overflows to inf although every coordinate is finite
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        integrate(_still_system(), np.array([1e200, 0.0]), 0.0, 1.0, controls)


@pytest.mark.parametrize("controls", [
    {"method": "rk4", "steps": 10, "rel_tol": 1e-8},
    {"method": "rk4_adaptive", "steps": 10},
    {"method": "rk4_adaptive", "dt": 0.1},
], ids=["rk4_rel_tol", "adaptive_steps", "unknown"])
def test_controls_the_method_does_not_read_are_rejected(controls):
    with pytest.raises(InputError, match="does not read"):
        integrate(_growth_system(), np.array([1.0]), 0.0, 1.0, controls)


def test_integrate_input_validation():
    sys = _growth_system()
    with pytest.raises(InputError):
        integrate(sys, np.array([1.0]), 0.0, 0.0, {"method": "rk4", "steps": 10})
    with pytest.raises(InputError):
        integrate(sys, np.array([1.0]), 0.0, 1.0, {"method": "leapfrog"})
    with pytest.raises(InputError):
        integrate(sys, np.array([1.0]), 0.0, 1.0,
                  {"method": "rk4", "steps": 10, "record_every": 0})
    el = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    with pytest.raises(InputError):  # t0 below the scaling's domain
        integrate(el, np.array([1.0, 1.0]), 0.01, 1.0,
                  {"method": "rk4", "steps": 10})


@pytest.mark.parametrize("t0, t_end, controls", [
    (0.1, math.nan, {"method": "rk4", "steps": 10}),
    (math.inf, 1.0, {"method": "rk4", "steps": 10}),
    (0.1, math.inf, {"method": "rk4_adaptive"}),
    (0.1, 1.0, {"method": "rk4_adaptive", "initial_step": -1.0}),
    (0.1, 1.0, {"method": "rk4_adaptive", "initial_step": 0.0}),
    (0.1, 1.0, {"method": "rk4_adaptive", "initial_step": math.nan}),
    (0.1, 1.0, {"method": "rk4_adaptive", "initial_step": math.inf}),
    (0.1, 1.0, {"method": "rk4_adaptive", "rel_tol": -1.0}),
    (0.1, 1.0, {"method": "rk4_adaptive", "rel_tol": math.nan}),
    (0.1, 1.0, {"method": "rk4_adaptive", "rel_tol": math.inf}),
    (0.1, 1.0, {"method": "rk4_adaptive", "abs_tol": 0.0}),
    (0.1, 1.0, {"method": "rk4_adaptive", "abs_tol": -1e-12}),
    (0.1, 1.0, {"method": "rk4_adaptive", "abs_tol": math.nan}),
    (0.1, 1.0, {"method": "rk4_adaptive", "abs_tol": math.inf}),
    (0.1, 1.0, {"method": "rk4_adaptive", "rel_tol": -1.0, "abs_tol": -1.0}),
    (0.1, 1.0, {"method": "rk4_adaptive", "rel_tol": "tight"}),
    (0.1, 1.0, {"method": "rk4_adaptive", "max_steps": 0}),
    (0.1, 1.0, {"method": "rk4_adaptive", "max_steps": -5}),
    (0.1, 1.0, {"method": "rk4"}),
    (0.1, 1.0, {"method": "rk4", "steps": 10.5}),
    (0.1, 1.0, {"method": "rk4", "steps": "10"}),
    (0.1, 1.0, {"method": "rk4", "steps": None}),
    (0.1, 1.0, {"method": "rk4", "steps": True}),
], ids=[
    "nan_t_end", "inf_t0", "inf_t_end",
    "negative_initial_step", "zero_initial_step", "nan_initial_step",
    "inf_initial_step",
    "negative_rel_tol", "nan_rel_tol", "inf_rel_tol",
    "zero_abs_tol", "negative_abs_tol", "nan_abs_tol", "inf_abs_tol",
    "negative_tolerances", "string_rel_tol",
    "zero_max_steps", "negative_max_steps",
    "rk4_missing_steps", "rk4_fractional_steps", "rk4_string_steps",
    "rk4_none_steps", "rk4_bool_steps",
])
def test_integrate_rejects_bad_controls(t0, t_end, controls):
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    with pytest.raises(InputError):
        integrate(sys, np.array([1.0, 1.0]), t0, t_end, controls)


def test_integrate_admits_integral_float_counts():
    sys = _growth_system()
    a = integrate(sys, np.array([1.0]), 0.0, 1.0,
                  {"method": "rk4", "steps": 100.0, "record_every": 10.0})
    b = integrate(sys, np.array([1.0]), 0.0, 1.0,
                  {"method": "rk4", "steps": 100, "record_every": 10})
    assert np.array_equal(a.states, b.states) and len(a) == 11


def test_record_every_thins_samples():
    sys = _growth_system()
    traj = integrate(sys, np.array([1.0]), 0.0, 1.0,
                     {"method": "rk4", "steps": 1000, "record_every": 100})
    assert len(traj) == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    # thinned samples still carry exact field values for interpolation
    np.testing.assert_allclose(traj.derivs, traj.states, rtol=0, atol=0)


def test_adaptive_matches_fixed_step():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    x0 = np.array([1.0, 1.0])
    fixed = integrate(sys, x0, 0.1, 10.0, {"method": "rk4", "steps": 5000})
    adaptive = integrate(sys, x0, 0.1, 10.0,
                         {"method": "rk4_adaptive", "rel_tol": 1e-10,
                          "abs_tol": 1e-12})
    assert adaptive.step_stats["accepted"] > 0
    assert adaptive.times[-1] == 10.0
    np.testing.assert_allclose(adaptive.final_state(), fixed.final_state(),
                               rtol=0, atol=1e-6)


def test_adaptive_step_budget_guard():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    with pytest.raises(SolverError, match="exceeded 5 step attempts"):
        integrate(sys, np.array([1.0, 1.0]), 0.1, 50.0,
                  {"method": "rk4_adaptive", "max_steps": 5})


def _counting(sys):
    """sys with its field wrapped to count calls; returns (sys, calls)."""
    calls = [0]
    field = sys.vector_field

    def counted(t, y):
        calls[0] += 1
        return field(t, y)

    sys.vector_field = counted
    return sys, calls


@pytest.mark.parametrize("controls", [
    {"method": "rk4", "steps": 2500},
    {"method": "rk4_adaptive", "rel_tol": 1e-8},
], ids=["rk4", "rk4_adaptive"])
def test_divergence_partial_stats_count_field_evals(controls):
    sys, calls = _counting(_growth_system())
    with pytest.raises(DivergenceError) as info:
        integrate(sys, np.array([1.0]), 0.0, 25.0, controls)
    err = info.value
    assert 18.0 < err.t < 19.0  # e^t crosses 1e8 at t = 18.42
    stats = err.partial.step_stats
    assert stats["method"] == controls["method"]
    assert stats["field_evals"] == calls[0]
    if controls["method"] == "rk4":
        assert stats["field_evals"] == 4 * stats["completed"]
    else:
        assert stats["accepted"] > 0 and "rejected" in stats
        # FSAL: stage 13 of each accepted step but the diverged one, whose
        # state is checked before its field is evaluated
        assert stats["field_evals"] == 12 * stats["accepted"] + 11 * stats["rejected"]


def _full_tableau():
    """The DOP853 coefficients as a 13x13 A (row 12 is b) and c."""
    A = np.zeros((13, 13))
    for i, row in enumerate(_DP_A):
        A[i, :i] = row
    return A, np.array(_DP_C)


def _grow(tree):
    """Every rooted tree made by attaching one leaf to a node of tree. A tree
    is the sorted tuple of its subtrees, so equal trees are equal tuples."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _grow(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


def _rooted_trees(max_order):
    """The rooted trees of each order 1..max_order: every tree of order n
    grows from one of order n - 1 by a leaf."""
    levels = [{()}]
    while len(levels) < max_order:
        levels.append({grown for tree in levels[-1] for grown in _grow(tree)})
    return levels


def _elementary_weight(A, tree):
    """Phi(tree) per stage: the product over subtrees of A Phi(subtree)."""
    phi = np.ones(A.shape[0])
    for child in tree:
        phi = phi * (A @ _elementary_weight(A, child))
    return phi


def _order(tree):
    return 1 + sum(_order(child) for child in tree)


def _density(tree):
    """gamma(tree) = order(tree) * product of the subtrees' densities."""
    return _order(tree) * math.prod(_density(child) for child in tree)


def test_dormand_prince_tableau_meets_its_order_conditions():
    A, c = _full_tableau()
    np.testing.assert_allclose(A.sum(axis=1), c, rtol=0, atol=1e-15)
    levels = _rooted_trees(8)
    assert [len(level) for level in levels] == [1, 1, 2, 4, 9, 20, 48, 115]
    stages, b = A[:12, :12], A[12, :12]
    for order, level in enumerate(levels, start=1):
        weights = [_elementary_weight(stages, tree) for tree in level]
        # b is of order 8: b . Phi = 1/gamma on all 200 trees
        residual = max(abs(b @ phi - 1.0 / _density(tree))
                       for phi, tree in zip(weights, level))
        assert residual <= 2e-15, (order, residual)
        # E5 = b - b5 and E3 = b - b3 for embedded solutions of order 5 and 3
        for row, embedded in ((_DP_E[0], 5), (_DP_E[1], 3)):
            worst = max(abs(row @ phi) for phi in weights)
            if order <= embedded:
                assert worst <= 5e-15, (order, embedded, worst)
            elif order == embedded + 1:
                assert worst > 1e-4, (order, embedded, worst)
    assert np.max(np.abs(_DP_E.sum(axis=1))) <= 1e-15
    # stage 13 is the field at the new state (c = 1, weights b): the next
    # step's stage 1, which neither estimate reads
    assert c[12] == 1.0 and _DP_E.shape == (2, 12)


def _quartic_flow():
    return build_el_system(PthPowerMap(4), quadratic_2d(), polynomial_triple(4, 1.0))


ADAPTIVE = {"method": "rk4_adaptive", "rel_tol": 1e-7, "abs_tol": 1e-11}


@pytest.mark.parametrize("every", [1, 16])
def test_adaptive_records_the_field_at_every_sample_bitwise(every):
    sys = _quartic_flow()
    traj = integrate(sys, np.array([1.0, -1.0]), 0.1, 3.0,
                     {**ADAPTIVE, "record_every": every})
    stats = traj.step_stats
    assert stats["rejected"] > 0 and stats["accepted"] > every
    assert traj.times[-1] == 3.0
    for t, y, dy in zip(traj.times, traj.states, traj.derivs):
        assert dy.tobytes() == sys.vector_field(t, y).tobytes()


@pytest.mark.parametrize("mirror, p, every", [
    (PthPowerMap(4), 4, 16),
    (EuclideanMap(), 3, 4),
], ids=["pth_power_4", "euclidean"])
def test_adaptive_field_evals_match_the_fsal_count(mirror, p, every):
    sys, calls = _counting(build_el_system(mirror, quadratic_2d(),
                                           polynomial_triple(p, 1.0)))
    traj = integrate(sys, np.array([1.0, -1.0]), 0.1, 3.0,
                     {**ADAPTIVE, "record_every": every})
    stats = traj.step_stats
    assert stats["rejected"] > 0
    assert stats["field_evals"] == calls[0]
    assert stats["field_evals"] == 12 * stats["accepted"] + 11 * stats["rejected"] + 1
    assert set(stats) == {"method", "accepted", "rejected", "field_evals",
                          "rel_tol", "abs_tol", "h_min", "h_max", "record_every"}


def test_adaptive_reruns_are_bitwise_equal():
    runs = [integrate(_quartic_flow(), np.array([1.0, -1.0]), 0.1, 3.0,
                      {**ADAPTIVE, "record_every": 4}) for _ in range(2)]
    a, b = runs
    for name in ("times", "states", "derivs", "f_gap", "energy"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.step_stats == b.step_stats


@pytest.mark.parametrize("p, mirror", [(2, EuclideanMap()), (3, PthPowerMap(3))],
                         ids=["euclidean_p2", "pth_power_3"])
def test_adaptive_force_free_error_scales_with_tolerance(p, mirror):
    sys, x0, z0, y0 = _natural_motion_setup(polynomial_triple(p, 1.0), mirror)
    t0, t_end = 0.5, 4.0
    exact = z0 + (x0 - z0) * (t0 / t_end) ** p
    errs = []
    for rel_tol in (1e-6, 1e-8, 1e-10):
        abs_tol = 1e-3 * rel_tol
        traj = integrate(sys, x0, t0, t_end,
                         {"method": "rk4_adaptive", "rel_tol": rel_tol,
                          "abs_tol": abs_tol}, initial_state=y0)
        err = float(np.max(np.abs(traj.final_state()[:2] - exact)))
        assert err <= 10.0 * (rel_tol * np.max(np.abs(exact)) + abs_tol)
        errs.append(err)
    assert errs[0] > 10.0 * errs[1] > 100.0 * errs[2]


@pytest.mark.parametrize("mirror, p", [(PthPowerMap(4), 4), (EuclideanMap(), 3)],
                         ids=["pth_power_4", "euclidean"])
@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
def test_adaptive_final_state_matches_dop853(mirror, p, rel_tol):
    sys = build_el_system(mirror, quadratic_2d(), polynomial_triple(p, 1.0))
    x0 = np.array([1.0, -1.0])
    t0, t_end, abs_tol = 0.1, 3.0, 1e-11
    ref = solve_ivp(sys.vector_field, (t0, t_end), sys.initial_state_from(x0, t0),
                    method="DOP853", rtol=1e-13, atol=1e-16)
    assert ref.success
    y_ref = ref.y[:, -1]
    traj = integrate(sys, x0, t0, t_end,
                     {"method": "rk4_adaptive", "rel_tol": rel_tol, "abs_tol": abs_tol})
    err = float(np.max(np.abs(traj.final_state() - y_ref)))
    assert err <= 50.0 * (rel_tol * np.max(np.abs(y_ref)) + abs_tol)


def test_trajectory_interpolation_nodes_and_range():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    traj = integrate(sys, np.array([1.0, 1.0]), 0.1, 5.0,
                     {"method": "rk4", "steps": 500})
    k = len(traj) // 2
    np.testing.assert_array_equal(traj.interp_state(traj.times[k]), traj.states[k])
    state, deriv = traj.interp_state_and_deriv(traj.times[k])
    np.testing.assert_array_equal(deriv, traj.derivs[k])
    with pytest.raises(InputError):
        traj.interp_state(0.05)
    with pytest.raises(InputError):
        traj.interp_state(5.01)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_trajectory_interpolation_rejects_non_finite_time(t):
    # NaN compares false against both ends of the range, so it used to
    # reach searchsorted and fail with an IndexError
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    traj = integrate(sys, np.array([1.0, 1.0]), 0.1, 1.0, {"method": "rk4", "steps": 10})
    with pytest.raises(InputError, match="outside recorded range"):
        traj.interp_state_and_deriv(t)


def test_trajectory_interpolation_between_nodes():
    # a coarse record interpolated at off-node times should match a dense
    # record to roughly h^4
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    x0 = np.array([1.0, 1.0])
    # node spacing 0.014 and fourth derivatives ~ omega^4 put the Hermite
    # error near 1e-6; the bound leaves an order of margin
    coarse = integrate(sys, x0, 0.1, 5.0,
                       {"method": "rk4", "steps": 4900, "record_every": 14})
    dense = integrate(sys, x0, 0.1, 5.0, {"method": "rk4", "steps": 4900})
    probe = np.linspace(0.15, 4.95, 37)
    worst = 0.0
    for t in probe:
        j = int(np.argmin(np.abs(dense.times - t)))
        worst = max(worst, float(np.max(np.abs(
            coarse.interp_state(dense.times[j]) - dense.states[j]
        ))))
    assert worst < 1e-5


def test_csv_export_is_deterministic(tmp_path):
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    paths = []
    for tag in ("a", "b"):
        traj = integrate(sys, np.array([1.0, 1.0]), 0.1, 2.0,
                         {"method": "rk4", "steps": 200})
        path = tmp_path / f"run_{tag}.csv"
        traj.to_csv(path)
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == "t,X_0,X_1,W_0,W_1,f_gap,energy"
    assert len(first.decode().splitlines()) == 202


# ---------------------------------------------------------------------------
# energy certificates


def test_energy_hand_value():
    # z = W for the euclidean map; D_h(0, z) = ||z||^2/2 = 2.125,
    # e^beta = t^2 = 4, f(X) = 5.5  =>  E = 2.125 + 22
    val = energy_at(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0),
                    2.0, np.array([1.0, -1.0]), np.array([0.5, 2.0]),
                    np.zeros(2))
    assert abs(val - 24.125) < 1e-12


def test_energy_monotone_along_el_flow():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    traj = integrate(sys, np.array([1.0, 1.0]), 0.1, 100.0,
                     {"method": "rk4", "steps": 20000, "record_every": 10})
    e = traj.energy
    assert e is not None
    assert e[-1] <= e[0]
    # the certificate is nonincreasing; thinned sampling keeps the true
    # decrement between records far above integrator jitter
    increases = np.diff(e)
    assert np.max(increases, initial=0.0) < 1e-8 * e[0]


def test_energy_bounds_gap_along_flow():
    # E nonincreasing gives f(X_t) - f* <= E(t0) e^{-beta_t}
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    traj = integrate(sys, np.array([1.0, 1.0]), 0.1, 50.0,
                     {"method": "rk4", "steps": 10000, "record_every": 10})
    e0 = traj.energy[0]
    bound = e0 / traj.times ** 2
    assert np.all(traj.f_gap <= bound * (1.0 + 1e-9))


def test_energy_and_gap_capability_errors():
    sys = build_el_system(EuclideanMap(), ZeroObjective(), polynomial_triple(2, 1.0))
    assert not sys.has_energy and not sys.has_gap
    y = np.zeros(4)
    with pytest.raises(CapabilityError):
        sys.energy_value(1.0, y)
    with pytest.raises(CapabilityError):
        sys.gap_value(1.0, y)


# ---------------------------------------------------------------------------
# rescaled gradient flow


@pytest.mark.parametrize("p", [2, 3, 4])
def test_rescaled_flow_exact_on_power_norm(p):
    f = PowerNorm(p, dimension=3)
    sys = build_rescaled_gradient_flow(f, p)
    x0 = np.array([1.0, -2.0, 0.5])
    traj = integrate(sys, x0, 0.0, 3.0, {"method": "rk4", "steps": 3000})
    exact = np.exp(-traj.times)[:, None] * x0[None, :]
    assert np.max(np.abs(traj.block("X") - exact)) < 1e-8


def test_rescaled_flow_primary_monitor_rate():
    # gap^{-1/(p-1)} grows at least (t - t0) / ((p-1) R^{p/(p-1)})
    # stop at t = 2: this flow reaches the optimum in *finite* time and the
    # gradient floor then freezes the state, flattening the monitor
    p = 3
    f = quadratic_2d()
    sys = build_rescaled_gradient_flow(f, p)
    x0 = np.array([1.0, 1.0])
    traj = integrate(sys, x0, 0.0, 2.0, {"method": "rk4", "steps": 2000})
    xs = traj.block("X")
    radius = float(np.max(np.linalg.norm(xs, axis=1)))
    primary = np.array(
        [rescaled_flow_energy(f, p, t, x, f.minimizer)[0]
         for t, x in zip(traj.times, xs)]
    )
    assert np.all(np.diff(primary) > 0)
    assert primary[-1] > 5.0 * primary[0]
    slope_floor = 1.0 / ((p - 1) * radius ** (p / (p - 1.0)))
    growth = primary - primary[0]
    assert np.all(growth >= slope_floor * traj.times * (1.0 - 1e-9))


def test_rescaled_flow_floor_freezes_critical_point():
    sys = build_rescaled_gradient_flow(quadratic_2d(), 3)
    traj = integrate(sys, np.zeros(2), 0.0, 1.0, {"method": "rk4", "steps": 50})
    np.testing.assert_array_equal(traj.states, np.zeros_like(traj.states))


def test_rescaled_flow_records_fractional_p():
    sys = build_rescaled_gradient_flow(quadratic_2d(), 2.5)
    # the field integrates with the same p: ||grad f||^{(p-2)/(p-1)} scaling
    x = np.array([1.0, 1.0])
    g = quadratic_2d().gradient(x)
    expected = -g / np.linalg.norm(g) ** (0.5 / 1.5)
    np.testing.assert_allclose(sys.vector_field(0.0, x), expected, rtol=1e-15)


def test_rescaled_flow_rejects_p_below_two():
    with pytest.raises(InputError):
        build_rescaled_gradient_flow(quadratic_2d(), 1)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_recovers_exact_power_law():
    times = np.linspace(0.5, 20.0, 60)
    gaps = 7.0 * times ** -3.5
    assert abs(fit_rate(times, gaps, (1.0, 10.0)) + 3.5) < 1e-10


def test_fit_rate_skips_dead_samples():
    times = np.linspace(0.5, 20.0, 60)
    gaps = 7.0 * times ** -3.5
    gaps[::7] = 0.0  # exhausted precision: excluded, not fatal
    assert abs(fit_rate(times, gaps, (1.0, 10.0)) + 3.5) < 1e-10


def test_fit_rate_input_validation():
    times = np.linspace(1.0, 2.0, 50)
    gaps = np.ones(50)
    with pytest.raises(InputError):
        fit_rate(times, gaps, (0.0, 2.0))
    with pytest.raises(InputError):
        fit_rate(times, gaps, (2.0, 1.0))
    with pytest.raises(InputError):
        fit_rate(times, np.zeros(50), (1.0, 2.0))  # nothing usable


def test_el_flow_rate_matches_design_order():
    # the degree-2 flow should show a log-log slope near -2 on a quadratic
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    traj = integrate(sys, np.array([1.0, 1.0]), 0.1, 55.0,
                     {"method": "rk4", "steps": 20000, "record_every": 10})
    slope = fit_rate(traj.times, traj.f_gap, (1.0, 50.0))
    assert slope <= -2.0 + 0.3


# ---------------------------------------------------------------------------
# Hamiltonian form agrees with the (X, W) form


def test_hamiltonian_trajectory_matches_el():
    # same flow written in different coordinates; the mirror's curvature
    # term in P_dot is exercised by a non-identity diagonal metric
    h = DiagonalMap((2.0, 5.0))
    f = quadratic_2d()
    s = polynomial_triple(2, 1.0)
    x0 = np.array([1.0, 1.0])
    controls = {"method": "rk4", "steps": 4000}
    el = integrate(build_el_system(h, f, s), x0, 0.1, 5.0, controls)
    ham = integrate(build_hamiltonian_system(h, f, s), x0, 0.1, 5.0, controls)
    assert np.max(np.abs(ham.block("X") - el.block("X"))) < 1e-7
    # the dual variable is recoverable from the momentum: W = grad h(X) + e^{-gamma} P
    w_from_p = np.array(
        [h.gradient(x) + math.exp(-s.gamma(t)) * p
         for t, x, p in zip(ham.times, ham.block("X"), ham.block("P"))]
    )
    assert np.max(np.abs(w_from_p - el.block("W"))) < 1e-6


# ---------------------------------------------------------------------------
# time dilation


def test_power_dilation_validation():
    with pytest.raises(InputError):
        TimeDilation.power(0.0)
    with pytest.raises(InputError):
        TimeDilation.power(-2.0)


def test_dilate_triple_rejects_decreasing_clock():
    shrink = TimeDilation(lambda t: -t, lambda t: -1.0, lambda t: 0.0,
                          lambda s: -s, name="backwards")
    with pytest.raises(InputError):
        dilate_triple(polynomial_triple(2, 1.0), shrink)


@pytest.mark.parametrize("p_target, a", [(3, 1.5), (4, 2.0)])
def test_dilation_algebra_polynomial_family(p_target, a):
    # speeding the degree-2 clock up by t^{p/2} lands exactly on degree p,
    # same constant C
    C = 0.7
    t_min = 0.1 ** a  # chosen so the dilated domain starts at 0.1
    src = polynomial_triple(2, C, t_min=t_min)
    dil = dilate_triple(src, TimeDilation.power(a))
    target = polynomial_triple(p_target, C, t_min=0.1)
    assert abs(dil.valid_from - 0.1) < 1e-15
    for t in np.linspace(0.5, 3.0, 20):
        for part in ("alpha", "beta", "gamma", "alpha_dot", "beta_dot",
                     "gamma_dot"):
            got = getattr(dil, part)(t)
            want = getattr(target, part)(t)
            assert abs(got - want) < 1e-12, (part, t, got, want)


def test_identity_dilation_is_noop():
    src = polynomial_triple(3, 2.0)
    dil = dilate_triple(src, TimeDilation.power(1.0))
    for t in (0.3, 1.0, 7.5):
        assert abs(dil.alpha(t) - src.alpha(t)) < 1e-15
        assert abs(dil.alpha_dot(t) - src.alpha_dot(t)) < 1e-15


def test_dilated_trajectory_matches_direct_integration():
    # integrate the degree-2 flow once, relabel its clock by t^2, and compare
    # with a direct degree-4 integration started from the matching time
    h = EuclideanMap()
    f = quadratic_2d()
    x0 = np.array([1.0, 1.0])
    src = integrate(build_el_system(h, f, polynomial_triple(2, 1.0, t_min=0.05)),
                    x0, 0.25, 100.0,
                    {"method": "rk4", "steps": 20000, "record_every": 2})
    direct = integrate(build_el_system(h, f, polynomial_triple(4, 1.0)),
                       x0, 0.5, 10.0,
                       {"method": "rk4", "steps": 20000, "record_every": 4})
    check_times = np.linspace(0.5, 10.0, 200)
    relabeled = dilate_trajectory(src, check_times, TimeDilation.power(2.0))
    direct_states = np.array([direct.interp_state(t) for t in check_times])
    assert np.max(np.abs(relabeled.states - direct_states)) < 1e-4


def test_dilate_trajectory_exact_at_mapped_nodes():
    sys = build_el_system(EuclideanMap(), quadratic_2d(),
                          polynomial_triple(2, 1.0, t_min=0.05))
    src = integrate(sys, np.array([1.0, 1.0]), 0.25, 9.0,
                    {"method": "rk4", "steps": 875})
    # source nodes are 0.25 + 0.01 k; pick new times whose squares hit nodes
    new_times = np.sqrt(np.array([0.25, 1.0, 2.25, 4.0]))
    out = dilate_trajectory(src, new_times, TimeDilation.power(2.0))
    for t_new in new_times:
        j = int(np.argmin(np.abs(src.times - t_new ** 2)))
        assert abs(src.times[j] - t_new ** 2) < 1e-12
        row = np.where(out.times == t_new)[0][0]
        np.testing.assert_allclose(out.states[row], src.states[j],
                                   rtol=0, atol=1e-14)
        # velocities pick up the clock rate tau_dot = 2t
        np.testing.assert_allclose(out.derivs[row],
                                   src.derivs[j] * 2.0 * t_new,
                                   rtol=1e-12, atol=1e-14)


def test_dilate_trajectory_input_validation():
    sys = build_el_system(EuclideanMap(), quadratic_2d(), polynomial_triple(2, 1.0))
    src = integrate(sys, np.array([1.0, 1.0]), 0.25, 9.0,
                    {"method": "rk4", "steps": 875})
    dil = TimeDilation.power(2.0)
    with pytest.raises(InputError):
        dilate_trajectory(src, np.array([0.6]), dil)  # single sample
    with pytest.raises(InputError):
        dilate_trajectory(src, np.array([0.6, 0.6]), dil)  # not increasing
    with pytest.raises(InputError):
        dilate_trajectory(src, np.array([0.6, 4.0]), dil)  # image leaves range
