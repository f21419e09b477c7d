"""Tests for the discrete-time methods and their per-iteration certificates.

Oracles used here, written before the implementations they check:

* the weight identity p * sum_{i<=k} i^(p-1) = k^(p) (rising factorials,
  exact integer arithmetic) that makes the estimate sequence telescope;
* a direct O(k d) re-summation of psi_k from the stored history, compared
  against the run's incremental accumulators at arbitrary points;
* closed-form single steps (p = 2 descent is an exact gradient step; the
  first naive/exponential mirror steps are two-line hand computations);
* the 2x2 transfer-matrix analysis of the naive scheme on a diagonal
  quadratic: det = 1 - p/k exactly, so divergence requires the effective
  step eps p^2 C lambda k^{p-2} to exceed ~4 — constant (stable) for p = 2
  with the parameters below, growing (divergent) for p >= 3. The measured
  divergence steps are frozen as regression values.
"""

from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest

from accelflow.core import (
    DiagonalQuadratic,
    EuclideanMap,
    PowerNorm,
    PthPowerMap,
    ScaledPthPowerMap,
    builtin_problems,
    rising_factorial,
)
from accelflow.core.numerics import norm
from accelflow.accel import (
    MAX_ITERS,
    AccelConfig,
    RunRecord,
    accelerated,
    estimate_sequence_value,
    exponential_discretization,
    higher_order_descent,
    naive_discretization,
    restart_accelerated,
)
from accelflow.errors import CapabilityError, InputError
from accelflow.taylorstep import (
    CERTIFICATE_DTYPE,
    StepConfig,
    progress_coefficient,
    smoothness_epsilon,
    verify_step_progress,
)

RNG_SEED = 20260819


# ---------------------------------------------------------------------------
# weight identities (the arithmetic backbone of the estimate sequence)


def test_rising_factorial_partial_sum_identity():
    # p * sum_{i=0}^k i^(p-1) = k^(p), exactly, in integer arithmetic
    for p in (2, 3, 4):
        for k in range(0, 60):
            total = sum(rising_factorial(i, p - 1) for i in range(k + 1))
            assert p * total == rising_factorial(k, p)


def test_first_rising_factorials():
    assert rising_factorial(0, 1) == 0
    assert rising_factorial(0, 3) == 0
    assert rising_factorial(1, 4) == 24  # 1*2*3*4 = p! at k = 1
    assert rising_factorial(3, 2) == 12


# ---------------------------------------------------------------------------
# configuration invariants


def test_accel_config_default_C_is_admissible_boundary():
    x0 = np.zeros(2)
    cfg = AccelConfig(p=2, epsilon=0.1, x0=x0)
    assert cfg.C == 1.0 / 16.0  # M = 1/4 at N = 2, M^(p-1)/p^p = (1/4)/4
    for p in (3, 4):
        cfg = AccelConfig(p=p, epsilon=0.1, x0=x0)
        M = progress_coefficient(p, 2.0)
        assert cfg.C == pytest.approx(M ** (p - 1) / p**p, rel=1e-15)


def test_accel_config_rejects_inadmissible_C():
    x0 = np.zeros(2)
    boundary = 1.0 / 16.0
    AccelConfig(p=2, epsilon=0.1, x0=x0, C=boundary)  # boundary itself is fine
    AccelConfig(p=2, epsilon=0.1, x0=x0, C=boundary / 10)
    with pytest.raises(InputError):
        AccelConfig(p=2, epsilon=0.1, x0=x0, C=boundary * 1.01)
    with pytest.raises(InputError):
        AccelConfig(p=2, epsilon=0.1, x0=x0, C=0.0)
    with pytest.raises(InputError):
        AccelConfig(p=2, epsilon=0.1, x0=x0, C=-1.0)


def test_accel_config_validation():
    x0 = np.zeros(2)
    with pytest.raises(InputError):
        AccelConfig(p=5, epsilon=0.1, x0=x0)
    with pytest.raises(InputError):
        AccelConfig(p=2, epsilon=0.0, x0=x0)
    with pytest.raises(InputError):
        AccelConfig(p=2, epsilon=0.1, x0=x0, N=1.0)  # progress coefficient = 0


def test_accel_config_default_mirror_matches_order():
    cfg2 = AccelConfig(p=2, epsilon=0.1, x0=np.ones(2))
    assert isinstance(cfg2.mirror, EuclideanMap)
    cfg3 = AccelConfig(p=3, epsilon=0.1, x0=np.ones(3))
    assert isinstance(cfg3.mirror, ScaledPthPowerMap)
    assert cfg3.mirror.p == 3
    np.testing.assert_array_equal(cfg3.mirror.anchor, np.ones(3))


def test_accel_config_rejects_weak_or_mismatched_mirror():
    # unscaled pth-power map: uniformly convex of order 3 but constant 1/2
    with pytest.raises(InputError):
        AccelConfig(p=3, epsilon=0.1, x0=np.ones(3), mirror=PthPowerMap(3))
    # Euclidean map has order 2, not 3
    with pytest.raises(InputError):
        AccelConfig(p=3, epsilon=0.1, x0=np.ones(3), mirror=EuclideanMap())
    # anchored map of the wrong dimension
    with pytest.raises(InputError):
        AccelConfig(
            p=3, epsilon=0.1, x0=np.ones(3), mirror=ScaledPthPowerMap(3, anchor=np.ones(4))
        )


# ---------------------------------------------------------------------------
# plain higher-order descent


def test_descent_p2_N1_single_exact_step():
    # p = 2, N = 1, eps = 1/lambda: x1 = x0 - (1/lambda) grad f(x0) = 0 exactly
    f = DiagonalQuadratic([4.0], name="quadratic_1d")
    rec = higher_order_descent(f, StepConfig(2, 0.25, 1.0), np.array([1.7]), 1)
    assert rec.xs[1][0] == 0.0
    assert rec.f_xs[1] == 0.0
    assert rec.termination == {"status": "completed", "k": None}


def test_descent_invariants_quadratic():
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    for p in (2, 3):
        eps = smoothness_epsilon(f, p)
        rec = higher_order_descent(f, StepConfig(p, eps, 2.0), x0, 300)
        assert rec.termination["status"] == "completed"
        report = rec.invariant_report()
        for name in (
            "monotone_descent",
            "step_certificates",
            "gap_bound",
            "gap_recursion",
            "inverse_gap_increments",
        ):
            assert report[name]["ok"], (p, name, report[name])
        # the final gap actually beat the k^{-(p-1)} envelope
        assert rec.final_gap_x < rec.bound_values[-1]


def test_descent_uses_certified_level_radius_when_available():
    f = builtin_problems()["quadratic"]
    rec = higher_order_descent(f, StepConfig(2, 0.1, 2.0), np.array([1.0, 1.0]), 5)
    R = rec.extras["level_radius"]
    assert R == pytest.approx(f.level_set_radius(np.array([1.0, 1.0])), rel=1e-15)
    # uc radius for the (1,10) quadratic from (1,1): sqrt(2*5.5/1)
    assert R == pytest.approx(math.sqrt(11.0), rel=1e-12)
    assert rec.extras["level_radius_source"] == "declared"


def test_descent_empirical_radius_fallback():
    # log-sum-exp declares no uniform convexity but knows its minimizer, so
    # the record falls back to the padded empirical radius
    f = builtin_problems()["log_sum_exp"]
    eps = smoothness_epsilon(f, 2)
    x0 = 0.3 * np.ones(4)
    rec = higher_order_descent(f, StepConfig(2, eps, 2.0), x0, 40)
    assert f.level_set_radius(x0) is None
    dists = np.linalg.norm(rec.xs - f.minimizer[None, :], axis=1)
    assert rec.extras["level_radius"] == pytest.approx(1.1 * float(dists.max()))
    assert rec.extras["level_radius_source"] == "empirical"
    assert rec.invariant_report()["gap_bound"]["ok"]


def test_descent_solver_error_truncates_record():
    # simplest honest trigger: a negative-curvature quadratic model at p = 3
    from accelflow.core import ObjectiveOracle

    class Saddle(ObjectiveOracle):
        name = "saddle"
        derivative_order = 3
        smoothness = {2: 1.0}
        dimension = 2

        def value(self, x):
            return 0.5 * (x[0] ** 2 - x[1] ** 2)

        def gradient(self, x):
            return np.array([x[0], -x[1]])

        def hessian_dense(self, x):
            return np.diag([1.0, -1.0])

        def third_apply(self, x, u, v):
            return np.zeros(2)

    rec = higher_order_descent(Saddle(), StepConfig(3, 1.0, 2.0), np.ones(2), 10)
    term = rec.termination
    assert (term["status"], term["k"]) == ("solver_error", 0)
    assert "not convex" in term["message"]
    assert math.isnan(term["residual"])  # the solver stopped before a residual
    assert len(rec.ks) == 1  # only x0 recorded
    assert rec.certificates.dtype == CERTIFICATE_DTYPE
    assert rec.certificates.shape == (0,)


def _failing_g_step(monkeypatch, fail_at):
    """Make accel's Taylor step raise SolverError on call fail_at (0-based)."""
    import accelflow.accel as accel_module
    from accelflow.errors import SolverError

    real = accel_module.g_step
    calls = [0]

    def g_step(f, x, cfg):
        calls[0] += 1
        if calls[0] == fail_at + 1:
            raise SolverError("inner solve stalled at residual 2.500e-01",
                              best=None, residual=0.25)
        return real(f, x, cfg)

    monkeypatch.setattr(accel_module, "g_step", g_step)


@pytest.mark.parametrize("algorithm", ["higher_order_descent", "accelerated"])
def test_solver_error_records_message_and_residual(monkeypatch, tmp_path, algorithm):
    f = builtin_problems()["quadratic"]
    _failing_g_step(monkeypatch, fail_at=3)
    if algorithm == "accelerated":
        rec = accelerated(f, AccelConfig(p=3, epsilon=smoothness_epsilon(f, 3),
                                         x0=np.ones(2)), 10)
    else:
        rec = higher_order_descent(f, StepConfig(3, smoothness_epsilon(f, 3), 2.0),
                                   np.ones(2), 10)
    expected = {"status": "solver_error", "k": 3,
                "message": "inner solve stalled at residual 2.500e-01",
                "residual": 0.25}
    assert rec.termination == expected
    assert rec.certificates.shape == (3,) and rec.certificates["ok"].all()
    # the record goes to summaries only: the CSV holds the iterations
    rec.to_csv(tmp_path / "run.csv")
    text = (tmp_path / "run.csv").read_text()
    assert "stalled" not in text and "solver_error" not in text


def test_restart_carries_the_inner_solver_failure(monkeypatch):
    f = builtin_problems()["quadratic"]
    _failing_g_step(monkeypatch, fail_at=0)
    rec = restart_accelerated(f, 0.1, np.ones(2), 2)
    assert rec.termination["status"] == "solver_error"
    assert rec.termination["k"] == 0  # the epoch, not the inner iteration
    assert rec.termination["residual"] == 0.25


def test_descent_input_validation():
    f = builtin_problems()["quadratic"]
    with pytest.raises(InputError):
        higher_order_descent(f, StepConfig(2, 0.1, 2.0), np.ones(2), 0)
    with pytest.raises(InputError):
        higher_order_descent(f, StepConfig(2, 0.1, 2.0), np.ones(3), 5)


# ---------------------------------------------------------------------------
# accelerated method


def _quadratic_run(p, K=150, eps=None):
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    if eps is None:
        eps = smoothness_epsilon(f, p)
    cfg = AccelConfig(p=p, epsilon=eps, x0=x0)
    return f, cfg, accelerated(f, cfg, K)


class _CountingOracle:
    """Delegates to an objective oracle and counts its value and gradient
    calls."""

    def __init__(self, inner):
        self.inner = inner
        self.value_calls = self.gradient_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def value(self, x):
        self.value_calls += 1
        return self.inner.value(x)

    def gradient(self, x):
        self.gradient_calls += 1
        return self.inner.gradient(x)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_accelerated_makes_two_gradient_calls_per_iteration(p):
    # grad f(x_k) for the step and grad f(y_k) for its certificate; the
    # accumulator and the step residual reuse them
    f = _CountingOracle(builtin_problems()["quadratic"])
    K = 20
    cfg = AccelConfig(p=p, epsilon=smoothness_epsilon(f, p), x0=np.ones(2))
    rec = accelerated(f, cfg, K)
    assert rec.termination["status"] == "completed"
    assert f.gradient_calls == 2 * (K + 1)
    # the reused values are bit for bit what fresh evaluations give
    fresh = np.empty(K + 1, CERTIFICATE_DTYPE)
    for k in range(K + 1):
        np.testing.assert_array_equal(rec.grad_ys[k], f.inner.gradient(rec.ys[k]))
        fresh[k] = verify_step_progress(f.inner, rec.xs[k], rec.ys[k], cfg.step_config())
    assert rec.certificates.dtype == CERTIFICATE_DTYPE
    for name in CERTIFICATE_DTYPE.names:
        assert rec.certificates[name].tobytes() == fresh[name].tobytes(), name


def test_accelerated_record_retains_under_250_bytes_per_iteration():
    # the per-iteration arrays plus one 57-byte certificate row: about 203 B
    # on the 2-d quadratic; a record that kept a StepCertificate object per
    # iteration (copies of x, y and grad f(y), boxed scalars) retains ~870 B
    f = builtin_problems()["quadratic"]
    cfg = AccelConfig(p=3, epsilon=smoothness_epsilon(f, 3), x0=np.ones(2))
    K = 2000
    accelerated(f, cfg, 5)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rec = accelerated(f, cfg, K)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert rec.termination["status"] == "completed"
    assert retained / K < 250, retained / K


def test_runs_cut_short_keep_no_buffer_sized_for_K():
    # from x0 = (1e9, 1) both methods diverge at once; a record holding
    # views of its K-row buffers would retain about 1.6 MB (descent) and
    # 3.9 MB (accelerated) here
    f = builtin_problems()["quadratic"]
    x0 = np.array([1e9, 1.0])
    eps = smoothness_epsilon(f, 3)
    cfg = AccelConfig(p=3, epsilon=eps, x0=x0)
    K = 20_000
    runs = {
        "accelerated": lambda: accelerated(f, cfg, K),
        "descent": lambda: higher_order_descent(f, StepConfig(3, eps, 2.0), x0, K),
    }
    for name, run in runs.items():
        run()  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rec = run()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rec.termination["status"] == "diverged", name
        assert retained < 16_000, (name, retained)


def test_accelerated_first_coupling_keeps_x0():
    _, _, rec = _quadratic_run(2, K=3)
    # x1 = (p/p) z0 + 0 * y0 = z0 = x0 (the k = 0 mirror weight vanishes)
    np.testing.assert_array_equal(rec.xs[1], rec.xs[0])
    np.testing.assert_array_equal(rec.zs[0], rec.xs[0])


def test_accelerated_estimate_sequence_starts_at_zero():
    _, _, rec = _quadratic_run(2, K=2)
    assert rec.psi_values[0] == 0.0


def test_accelerated_invariants_all_orders():
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    for p in (2, 3, 4):
        eps = smoothness_epsilon(f, p)
        cfg = AccelConfig(p=p, epsilon=eps, x0=x0)
        rec = accelerated(f, cfg, 120)
        assert rec.termination["status"] == "completed"
        report = rec.invariant_report()
        for name in (
            "step_certificates",
            "estimate_lower",
            "estimate_upper",
            "dual_optimality",
            "rate_bound",
        ):
            assert report[name]["ok"], (p, name, report[name])


def test_accelerated_rate_bound_holds_every_iteration():
    f, cfg, rec = _quadratic_run(2, K=400)
    gaps = rec.f_gaps_y
    ks = np.arange(1, 401)
    expected = rec.extras["dh_star_x0"] / (cfg.C * cfg.epsilon * ks * (ks + 1))
    np.testing.assert_allclose(rec.bound_values[1:], expected, rtol=1e-12)
    assert np.all(gaps[1:] <= rec.bound_values[1:] * (1 + 1e-9))


def test_accelerated_ckp_column_consistent():
    f, cfg, rec = _quadratic_run(3, K=60)
    for k in (0, 1, 7, 33, 60):
        kp = rising_factorial(k, 3)
        assert rec.ckp_fy[k] == pytest.approx(cfg.C * kp * rec.f_ys[k], rel=1e-14)


def test_estimate_sequence_value_matches_incremental_accumulators():
    f, cfg, rec = _quadratic_run(2, K=80)
    for k in (0, 1, 5, 40, 80):
        direct = estimate_sequence_value(rec, cfg, rec.zs[k], k)
        scale = 1.0 + abs(rec.psi_values[k])
        assert abs(direct - rec.psi_values[k]) < 1e-10 * scale
    # and at the minimizer, against the recorded psi_at_minimizer column
    for k in (1, 17, 80):
        direct = estimate_sequence_value(rec, cfg, f.minimizer, k)
        assert abs(direct - rec.psi_at_minimizer[k]) < 1e-10 * (
            1.0 + abs(rec.psi_at_minimizer[k])
        )


def test_estimate_sequence_value_at_random_points_dominates_minimum():
    # z_k is the exact minimizer of psi_k, so psi_k(x) >= psi_k(z_k) anywhere
    rng = np.random.default_rng(RNG_SEED)
    f, cfg, rec = _quadratic_run(3, K=40)
    for k in (0, 3, 25, 40):
        base = rec.psi_values[k]
        for _ in range(10):
            x = rec.zs[k] + rng.normal(size=2)
            assert estimate_sequence_value(rec, cfg, x, k) >= base - 1e-9 * (
                1.0 + abs(base)
            )


def test_estimate_sequence_value_input_validation():
    f, cfg, rec = _quadratic_run(2, K=10)
    with pytest.raises(InputError):
        estimate_sequence_value(rec, cfg, np.zeros(2), 11)
    with pytest.raises(InputError):
        estimate_sequence_value(rec, cfg, np.zeros(2), -1)
    other = AccelConfig(p=2, epsilon=cfg.epsilon / 2, x0=cfg.x0)
    with pytest.raises(InputError):
        estimate_sequence_value(rec, other, np.zeros(2), 3)
    plain = higher_order_descent(f, StepConfig(2, 0.1, 2.0), cfg.x0, 5)
    with pytest.raises(InputError):
        estimate_sequence_value(plain, cfg, np.zeros(2), 3)


def _per_iteration_estimate_sequence(f, cfg, rec):
    """Reference: the estimate-sequence bookkeeping as a per-iteration loop
    over the record's rows, the way accelerated once updated S1, S2 and
    every psi column inside its recursion. It replays w_k and z_k from
    grad f(y_k) and checks them and the next average against the record."""
    h, p, C, eps, x0 = cfg.mirror, cfg.p, cfg.C, cfg.epsilon, cfg.x0
    x_star, f_star = f.minimizer, f.min_value
    h_x0 = h.value(x0)
    dh_star = h.bregman(x_star, x0) if x_star is not None else None
    n = len(rec.ks)
    cols = {name: np.full(n, np.nan) for name in (
        "psi_values", "psi_grad_norms", "psi_grad_scales", "psi_at_minimizer",
        "psi_upper_envelope", "ckp_fy", "bound_values")}
    w0 = h.gradient(x0)
    w0_norm = norm(w0)
    w = w0.copy()
    S1 = 0.0
    S2 = np.zeros(x0.size)
    for k in range(n):
        y, g = rec.ys[k], rec.grad_ys[k]
        weight = rising_factorial(k, p - 1)
        w = w - (eps * C * p * weight) * g
        z = h.dual_gradient(w)
        assert z.tobytes() == rec.zs[k].tobytes(), k
        if k + 1 < n:
            x = (p / (k + p)) * z + (k / (k + p)) * y
            assert x.tobytes() == rec.xs[k + 1].tobytes(), k
        S1 += weight * (rec.f_ys[k] - float(g @ y))
        S2 = S2 + weight * g
        kp = rising_factorial(k, p)
        dh_z = h.value(z) - h_x0 - float(w0 @ (z - x0))
        cols["psi_values"][k] = C * p * (S1 + float(S2 @ z)) + dh_z / eps
        grad_psi = C * p * S2 + (h.gradient(z) - w0) / eps
        cols["psi_grad_norms"][k] = norm(grad_psi)
        cols["psi_grad_scales"][k] = norm(w) + w0_norm
        cols["ckp_fy"][k] = C * kp * rec.f_ys[k]
        if x_star is not None:
            cols["psi_at_minimizer"][k] = C * p * (S1 + float(S2 @ x_star)) + dh_star / eps
            if f_star is not None:
                cols["psi_upper_envelope"][k] = C * kp * f_star + dh_star / eps
                if k >= 1:
                    cols["bound_values"][k] = dh_star / (C * eps * kp)
    return cols


def _assert_post_pass_matches_the_loop(f, cfg, rec):
    n = len(rec.ks)
    for name, expected in _per_iteration_estimate_sequence(f, cfg, rec).items():
        got = getattr(rec, name)
        if got is None:  # no minimizer or no f*: the loop left the column NaN
            assert name in ("psi_at_minimizer", "psi_upper_envelope"), name
            assert np.isnan(expected).all(), name
            continue
        assert got.shape == (n,) and got.dtype == np.float64, name
        assert got.tobytes() == expected.tobytes(), name


class _Unsolved:
    """Delegates to an objective oracle that declares neither x* nor f*."""

    minimizer = None
    min_value = None

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("problem, p, variant, K", [
    ("quadratic", 2, None, 150),  # Euclidean
    ("quadratic", 2, "scaled_power", 150),
    ("quadratic", 3, None, 150),  # scaled power, anchored at x0
    ("quadratic", 4, None, 60),
    ("quadratic_10d", 4, None, 40),
    ("least_squares", 2, None, 150),
    ("least_squares", 3, None, 150),
    ("log_sum_exp", 3, None, 80),
    ("quadratic", 3, "unsolved", 60),  # psi_at_minimizer None, bounds NaN
])
def test_estimate_sequence_post_pass_equals_the_per_iteration_loop(problem, p, variant, K):
    f = builtin_problems()[problem]
    rng = np.random.default_rng(RNG_SEED + p)
    x0 = f.minimizer + rng.standard_normal(f.dimension)
    h = ScaledPthPowerMap(p, anchor=x0) if variant == "scaled_power" else None
    if variant == "unsolved":
        f = _Unsolved(f)
    cfg = AccelConfig(p=p, epsilon=smoothness_epsilon(f, p), x0=x0, mirror=h)
    rec = accelerated(f, cfg, K)
    assert rec.termination["status"] == "completed"
    _assert_post_pass_matches_the_loop(f, cfg, rec)
    if variant == "unsolved":
        assert rec.psi_upper_envelope is None and np.isnan(rec.bound_values).all()


def test_estimate_sequence_post_pass_on_runs_cut_short(monkeypatch):
    f = builtin_problems()["quadratic"]
    # five times the certified epsilon: the p = 2 run diverges at k = 27
    cfg = AccelConfig(p=2, epsilon=5 * smoothness_epsilon(f, 2), x0=np.ones(2))
    rec = accelerated(f, cfg, 200)
    assert rec.termination == {"status": "diverged", "k": 27}
    _assert_post_pass_matches_the_loop(f, cfg, rec)
    # a solver failure at k = 7 keeps rows 0..6
    _failing_g_step(monkeypatch, fail_at=7)
    cfg = AccelConfig(p=3, epsilon=smoothness_epsilon(f, 3), x0=np.ones(2))
    rec = accelerated(f, cfg, 50)
    assert (rec.termination["status"], len(rec.ks)) == ("solver_error", 7)
    _assert_post_pass_matches_the_loop(f, cfg, rec)


def test_estimate_sequence_post_pass_in_restart_epochs():
    f = builtin_problems()["power_3"]
    rec = restart_accelerated(f, 1.0, np.array([1.0, -1.0, 0.5]), 3)
    assert rec.termination["status"] == "completed"
    for j, inner in enumerate(rec.inner):
        cfg = AccelConfig(p=3, epsilon=1.0, x0=rec.xs[j], C=inner.config["C"])
        _assert_post_pass_matches_the_loop(f, cfg, inner)
        # each anchor is the epoch's last step output
        assert rec.xs[j + 1].tobytes() == inner.ys[-1].tobytes()


def test_accelerated_on_least_squares():
    f = builtin_problems()["least_squares"]
    x0 = np.zeros(5)
    for p in (2, 3):
        eps = smoothness_epsilon(f, p)
        cfg = AccelConfig(p=p, epsilon=eps, x0=x0)
        rec = accelerated(f, cfg, 150)
        report = rec.invariant_report()
        assert all(c["ok"] for c in report.values()), (p, report)
        # ill-conditioned problem: check rate-consistent progress, not an
        # absolute target the certified bound does not promise at K = 150
        assert rec.f_gaps_y[-1] < 1e-2 * rec.f_gaps_y[1]


def test_acceleration_dominates_plain_method():
    # same eps, same problem, same k: the averaged scheme must be ahead
    f = builtin_problems()["quadratic_10d"]
    x0 = np.ones(10)
    eps = smoothness_epsilon(f, 2)
    plain = higher_order_descent(f, StepConfig(2, eps, 2.0), x0, 100)
    cfg = AccelConfig(p=2, epsilon=eps, x0=x0)
    accel = accelerated(f, cfg, 100)
    assert accel.f_gaps_y[100] < plain.f_gaps_x[100]


def test_accelerated_iteration_budget():
    f = builtin_problems()["quadratic"]
    cfg = AccelConfig(p=2, epsilon=0.1, x0=np.ones(2))
    with pytest.raises(InputError):
        accelerated(f, cfg, MAX_ITERS + 1)
    with pytest.raises(InputError):
        accelerated(f, cfg, 0)


# ---------------------------------------------------------------------------
# naive discretization (recorded failure mode)


def test_naive_first_step_hand_value():
    # p = 2, k0 = 3: z <- x0 - eps C p 3 grad f(x0), x <- (2/3) z + (1/3) x0
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    eps, C = 0.01, 0.25
    rec = naive_discretization(f, EuclideanMap(), 2, C, eps, x0, 1)
    g0 = f.gradient(x0)
    z = x0 - eps * C * 2 * 3.0 * g0
    expected = (2.0 / 3.0) * z + (1.0 / 3.0) * x0
    np.testing.assert_allclose(rec.xs[1], expected, rtol=1e-15)
    np.testing.assert_array_equal(rec.ks, [3, 4])


def test_naive_p2_is_stable_here_regression():
    # transfer-matrix analysis: det = 1 - 2/k < 1 and the effective step
    # eps p^2 C lambda = 0.1 stays far below the real-eigenvalue threshold,
    # so this configuration converges; stability is frozen as a regression
    f = builtin_problems()["quadratic"]
    rec = naive_discretization(
        f, EuclideanMap(), 2, 0.25, 0.01, np.array([1.0, 1.0]), 20000
    )
    assert rec.termination["status"] == "completed"
    assert np.max(np.linalg.norm(rec.xs, axis=1)) <= math.sqrt(2.0) + 1e-12
    assert rec.final_gap_x < 1e-6


def test_naive_divergence_steps_frozen():
    # measured once and pinned: the k^{p-1}-weighted accumulator crosses the
    # 1e8 norm threshold at these exact iterations
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    rec3 = naive_discretization(f, EuclideanMap(), 3, 0.25, 0.01, x0, 100000)
    assert rec3.termination == {"status": "diverged", "k": 33}
    assert rec3.ks[0] == 4 and rec3.ks[-1] == 33
    rec4 = naive_discretization(f, EuclideanMap(), 4, 0.25, 0.01, x0, 100000)
    assert rec4.termination == {"status": "diverged", "k": 10}
    assert rec4.ks[0] == 5 and rec4.ks[-1] == 10
    # the recorded prefix shows the blow-up (gap growth past 1e12)
    assert np.max(rec3.f_gaps_x) > 1e12


def test_naive_oscillation_grows_before_divergence():
    # qualitative shape: early iterations head toward the minimizer, then
    # the oscillation amplitude increases until the threshold trips
    f = builtin_problems()["quadratic"]
    rec = naive_discretization(
        f, EuclideanMap(), 3, 0.25, 0.01, np.array([1.0, 1.0]), 100000
    )
    gaps = rec.f_gaps_x
    assert np.min(gaps) < gaps[0]  # approached the minimizer first
    assert np.argmax(gaps) == len(gaps) - 1  # and left through the roof


def test_naive_input_validation():
    f = builtin_problems()["quadratic"]
    h = EuclideanMap()
    with pytest.raises(InputError):
        naive_discretization(f, h, 5, 0.25, 0.01, np.ones(2), 10)
    with pytest.raises(InputError):
        naive_discretization(f, h, 2, -0.25, 0.01, np.ones(2), 10)
    with pytest.raises(InputError):
        naive_discretization(f, h, 2, 0.25, 0.0, np.ones(2), 10)
    with pytest.raises(InputError):
        naive_discretization(f, h, 2, 0.25, 0.01, np.ones(2), 0)


# ---------------------------------------------------------------------------
# exponential-weight discretization (diagnostic)


def test_exponential_first_step_hand_value():
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    c, delta = 1.0, 0.5
    rec = exponential_discretization(f, EuclideanMap(), c, delta, x0, 1)
    z = x0 - delta * c * 1.0 * f.gradient(x0)  # e^{c delta 0} = 1
    expected = 0.5 * z + 0.5 * x0
    np.testing.assert_allclose(rec.xs[1], expected, rtol=1e-15)
    # progress ratio = <g, x0 - x1>/||g||
    g = f.gradient(x0)
    ratio = float(g @ (x0 - rec.xs[1])) / float(np.linalg.norm(g))
    assert rec.extras["progress_ratios"][0] == pytest.approx(ratio, rel=1e-14)


def test_exponential_requires_convex_averaging():
    f = builtin_problems()["quadratic"]
    with pytest.raises(InputError):
        exponential_discretization(f, EuclideanMap(), 2.0, 0.6, np.ones(2), 10)
    with pytest.raises(InputError):
        exponential_discretization(f, EuclideanMap(), -1.0, 0.5, np.ones(2), 10)
    with pytest.raises(InputError):
        exponential_discretization(f, EuclideanMap(), 1.0, 0.5, np.ones(2), 0)


@pytest.mark.parametrize("c, delta", [(1.0, 1.0), (0.3, 0.1), (1.0, 1e-3)])
def test_exponential_runs_at_its_largest_admissible_K(c, delta):
    K = math.floor(math.log(sys.float_info.max) / (c * delta)) + 1
    with pytest.raises(InputError, match=f"largest admissible K is {K}"):
        exponential_discretization(builtin_problems()["zero"], EuclideanMap(),
                                   c, delta, np.ones(2), K + 1)
    rec = exponential_discretization(builtin_problems()["zero"], EuclideanMap(),
                                     c, delta, np.ones(2), K)
    assert rec.termination["status"] == "completed"
    assert len(rec.ks) == K + 1


def test_exponential_records_progress_ratios():
    f = builtin_problems()["quadratic"]
    rec = exponential_discretization(
        f, EuclideanMap(), 1.0, 0.05, np.array([1.0, 1.0]), 60
    )
    assert rec.termination["status"] == "completed"
    ratios = rec.extras["progress_ratios"]
    assert len(ratios) == 60
    assert np.all(np.isfinite(ratios))
    # no rate is certified; the record just exposes the diagnostic
    assert rec.invariant_report() == {}


def test_exponential_divergence_recorded_not_raised():
    # growing weights with a too-aggressive clock blow the accumulator; the
    # record reports it as a termination status, matching the naive scheme
    f = DiagonalQuadratic([50.0, 50.0], name="stiff")
    rec = exponential_discretization(
        f, EuclideanMap(), 4.0, 0.25, np.array([1.0, 1.0]), 500
    )
    assert rec.termination["status"] == "diverged"
    assert rec.termination["k"] is not None


# ---------------------------------------------------------------------------
# restart scheme


def test_restart_epoch_length_formula():
    # kappa = eps sigma = 0.1 on the (1,10) quadratic: m = ceil(16/sqrt(0.1))
    f = builtin_problems()["quadratic"]
    rec = restart_accelerated(f, 0.1, np.array([1.0, 1.0]), 1)
    assert rec.config["m"] == 51
    assert rec.config["kappa"] == pytest.approx(0.1)
    # spec-scale example: sigma = 0.1, eps = 0.1 -> kappa = 0.01 -> m = 160
    weak = DiagonalQuadratic([0.1, 1.0], name="weak")
    rec2 = restart_accelerated(weak, 0.1, np.array([1.0, 1.0]), 1)
    assert rec2.config["m"] == 160


def test_restart_contracts_quadratic():
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    rec = restart_accelerated(f, 0.1, x0, 3)
    assert rec.termination["status"] == "completed"
    dist_p = np.asarray(rec.extras["distance_powers"])
    ratios = dist_p[1:] / dist_p[:-1]
    assert np.all(ratios <= math.exp(-1.0) * (1 + 1e-9))
    report = rec.invariant_report()
    for name in ("epoch_contraction", "anchor_envelope", "final_bound",
                 "inner_epochs_completed"):
        assert report[name]["ok"], (name, report[name])
    assert rec.extras["final_gap"] <= rec.extras["final_bound"]
    assert len(rec.inner) == 3


def test_restart_contracts_power3():
    # sigma = 1/2 for (1/3)||x||^3, eps = 1 (admissible: (p-1)!/L_2 = 1),
    # kappa = 1/2 -> m = 31; exercises the re-anchored order-3 mirror
    f = builtin_problems()["power_3"]
    x0 = np.array([1.0, -1.0, 0.5])
    rec = restart_accelerated(f, 1.0, x0, 3)
    assert rec.config["m"] == 31
    assert rec.config["p"] == 3
    dist_p = np.asarray(rec.extras["distance_powers"])
    assert np.all(dist_p[1:] <= math.exp(-1.0) * dist_p[:-1] * (1 + 1e-9))
    assert rec.extras["final_gap"] <= rec.extras["final_bound"]


def test_restart_inner_runs_use_scheme_constants():
    f = builtin_problems()["quadratic"]
    rec = restart_accelerated(f, 0.1, np.array([1.0, 1.0]), 2)
    for inner in rec.inner:
        assert inner.config["N"] == rec.config["N"] == 2.0  # the record states its epochs' N
        assert inner.config["C"] == pytest.approx(1.0 / 64.0)  # (4p)^-p at p=2
        assert inner.config["K"] == rec.config["m"]
        # every inner run carries its own green certificate set
        assert all(c["ok"] for c in inner.invariant_report().values())
    # epoch anchors chain: each inner run starts where the previous ended
    np.testing.assert_array_equal(rec.inner[1].xs[0], rec.xs[1])


def test_restart_requires_uniform_convexity_and_sane_kappa():
    lse = builtin_problems()["log_sum_exp"]
    with pytest.raises(CapabilityError):
        restart_accelerated(lse, 0.1, np.zeros(4), 2)
    quad = builtin_problems()["quadratic"]
    with pytest.raises(InputError):
        restart_accelerated(quad, 1.0, np.ones(2), 2)  # kappa = 1, not < 1
    with pytest.raises(InputError):
        restart_accelerated(quad, -0.1, np.ones(2), 2)
    with pytest.raises(InputError):
        restart_accelerated(quad, 0.1, np.ones(2), 0)


# ---------------------------------------------------------------------------
# the plain method's linear rate under uniform convexity


def test_descent_report_checks_the_quadratic_linear_rate():
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    rec = higher_order_descent(f, StepConfig(2, 0.1, 2.0), x0, 350)
    # rho = 1/(1 + M kappa): M = 1/4, kappa = 0.1
    assert rec.extras["linear_rate"] == pytest.approx(1.0 / 1.025, rel=1e-15)
    assert rec.extras["linear_prefactor"] == pytest.approx(15.0 * 2.0, rel=1e-12)
    report = rec.invariant_report()
    assert report["geometric_bound"]["ok"], report["geometric_bound"]
    assert report["inverse_gap_increments"]["ok"]
    # rows k = 1..350 are covered by the geometric bound; k = 0 is not
    assert report["geometric_bound"]["checked"] == 350


@pytest.mark.parametrize("problem, p, x0, present", [
    ("quadratic", 2, [1.0, 1.0], True),
    ("power_3", 3, [1.0, 1.0, 1.0], True),
    ("power_4", 4, [1.0, 1.0, 1.0], True),
    ("quadratic", 3, [1.0, 1.0], False),  # uniformly convex of order 2 only
    ("log_sum_exp", 2, [0.1] * 4, False),  # declares no uniform convexity
    ("zero", 2, [1.0, 1.0], False),  # declares neither
])
def test_geometric_bound_needs_uniform_convexity_of_order_p(problem, p, x0, present):
    f = builtin_problems()[problem]
    rec = higher_order_descent(f, StepConfig(p, 0.05, 2.0), np.array(x0), 5)
    assert ("geometric_bound" in rec.invariant_report()) is present
    assert ("linear_rate" in rec.extras) is present


def test_geometric_bound_fails_on_a_gap_above_its_envelope():
    f = builtin_problems()["quadratic"]
    rec = higher_order_descent(f, StepConfig(2, 0.1, 2.0), np.array([1.0, 1.0]), 40)
    assert rec.invariant_report()["geometric_bound"]["ok"]
    rho, prefactor = rec.extras["linear_rate"], rec.extras["linear_prefactor"]
    rec.f_xs[20] = f.min_value + 1.01 * prefactor * rho**19
    entry = rec.invariant_report()["geometric_bound"]
    assert not entry["ok"] and entry["worst"] < 0


def test_gap_recursion_holds_past_the_convexity_segment():
    # t* = (eps gap_0 / ((N+1) R^p))^{1/2} = 17.8 > 1: the drop
    # ((p-1)/p) gap_k t* exceeded the gap itself (worst margin -1.105e-4);
    # past t* = 1 the bound is the model's value at t = 1, (N+1) R^p / (eps p)
    f = DiagonalQuadratic([6.634])
    eps = smoothness_epsilon(f, 3)
    rec = higher_order_descent(f, StepConfig(3, eps), np.array([-0.001753]), 200)
    gap0, R = rec.f_gaps_x[0], rec.extras["level_radius"]
    assert (eps * gap0 / (3.0 * R**3)) ** 0.5 > 17.0
    entry = rec.invariant_report()["gap_recursion"]
    assert entry["ok"] and entry["checked"] > 0, entry


def test_gap_recursion_inside_the_segment_keeps_its_drop():
    # t* <= 1 at every pair of this run: each margin is the drop formula's
    f = builtin_problems()["quadratic"]
    rec = higher_order_descent(f, StepConfig(3, smoothness_epsilon(f, 3)), np.ones(2), 50)
    eps, R = rec.config["epsilon"], rec.extras["level_radius"]
    denom = 3.0 * R**3
    prev, nxt = rec.f_gaps_x[:-1], rec.f_gaps_x[1:]
    live = prev > 0
    assert np.all(eps * prev <= denom)
    drop = (2.0 / 3.0) * (eps * prev[live] ** 3 / denom) ** 0.5
    worst = float(np.min(prev[live] - drop + 1e-9 - nxt[live]))
    assert rec.invariant_report()["gap_recursion"]["worst"] == worst


def test_restart_reads_each_anchor_value_from_its_epoch():
    # f(x0), f(x_k) and f(y_k) for k = 0..m in each epoch, and the trailing
    # step's f(y): f(anchor) is the epoch's last f(y_k), not a new call
    f = _CountingOracle(builtin_problems()["quadratic"])
    rec = restart_accelerated(f, 0.1, np.array([1.0, 1.0]), 3)
    m = rec.config["m"]
    assert f.value_calls == 1 + 3 * 2 * (m + 1) + 1
    for j, inner in enumerate(rec.inner):
        assert rec.f_xs[j + 1] == inner.f_ys[-1] == f.inner.value(rec.xs[j + 1])


# ---------------------------------------------------------------------------
# record mechanics: CSV, summaries, gap properties


def test_run_record_csv_header_and_determinism(tmp_path):
    f, cfg, rec = _quadratic_run(2, K=25)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rec.to_csv(a)
    accelerated(f, cfg, 25).to_csv(b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "k,f_gap_x,f_gap_y,bound,psi_zk,Ckp_fyk,progress,progress_lower,move_norm"
    assert len(lines) == 27  # header + k = 0..25
    # k = 0 has no rate bound yet: the bound cell is empty
    assert lines[1].split(",")[3] == ""
    # k = 1 row is fully populated
    assert all(cell != "" for cell in lines[2].split(","))


def test_descent_csv_has_no_certificate_after_the_last_iterate(tmp_path):
    # a step goes from each iterate but the last: K rows for K + 1 iterates
    f = builtin_problems()["quadratic"]
    rec = higher_order_descent(f, StepConfig(3, smoothness_epsilon(f, 3), 2.0),
                               np.ones(2), 6)
    assert rec.termination["status"] == "completed"
    assert (len(rec.ks), len(rec.certificates)) == (7, 6)
    path = tmp_path / "descent.csv"
    rec.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 7
    for row, cert in zip(rows, rec.certificates):
        assert row[6:] == [repr(float(cert[name])) for name in
                           ("progress", "progress_lower", "move_norm")]
    assert rows[-1][6:] == ["", "", ""]


def test_run_record_csv_sparse_columns_for_naive(tmp_path):
    f = builtin_problems()["quadratic"]
    rec = naive_discretization(f, EuclideanMap(), 2, 0.25, 0.01, np.ones(2), 5)
    path = tmp_path / "naive.csv"
    rec.to_csv(path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    for row in rows:
        assert row[1] != ""  # f_gap_x present
        assert all(cell == "" for cell in row[2:])  # no y/psi/cert columns


def test_run_record_gaps_nan_without_reference_value():
    from accelflow.core import ZeroObjective

    f = ZeroObjective()
    rec = higher_order_descent(f, StepConfig(2, 1.0, 2.0), np.ones(2), 3)
    assert np.all(np.isnan(rec.f_gaps_x))
    assert np.all(np.isnan(rec.bound_values))
    assert rec.extras["level_radius"] is None
    assert rec.extras["level_radius_source"] is None
    # zero objective: the step is a fixed point, descent trivially holds
    assert rec.invariant_report()["monotone_descent"]["ok"]
    np.testing.assert_array_equal(rec.xs[-1], rec.xs[0])
