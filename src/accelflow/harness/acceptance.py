"""The acceptance suite: every promised rate and inequality, checked at desk scale.

Seventeen checks, each registered exactly once in CHECKS, each producing one
CheckResult. A check bundles the runs it needs, the tolerance it pins, and a
short detail string naming every sub-measurement. Two scales:

- "full" runs the stated horizons and iteration counts (seconds to a few
  minutes per check; the quartic-mirror flow is the slow one),
- "quick" cuts horizons/iterations for a sub-two-minute smoke pass; every
  runner documents its own reduction in its docstring.

Checks share expensive runs through the context cache (the six
polynomial-flow integrations feed both the rate check and the energy check;
the five accelerated runs feed three checks). Each check writes its own
trajectory/iterate CSVs plus log-log plot data under its own subdirectory.
The accelerated runs only compute, and the checks that read them write
their files; the polynomial flows run as the flow kind, which writes
polynomial_flow_rate's files when the flows are first computed, once per
task. One table, _TASKS, schedules the checks: checks that share cached
runs form one task, and the slowest tasks start first. Tasks run
concurrently in forked worker processes, one per usable CPU, and their
results and file lists are merged back in registry order, so every verdict
and every emitted byte is the same as in a serial run.

The tolerances, the artifact writer and every measurement a verdict is built
from live in checks.py, which the experiment kinds share; this module holds
the registry, the context cache, each check's run parameters, and its
verdict and detail strings; the checks listed in experiments.py run the
kind they mirror (SuiteContext.run_kind) and read its CheckResults and runs.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..accel import ESTIMATE_TOL
from ..core import (
    EuclideanMap,
    builtin_mirror_maps,
    builtin_problems,
    exponential_triple,
    massless_triple,
    polynomial_triple,
    r_damped_triple,
)
from ..errors import InputError
from ..flows import (
    build_el_system,
    build_hamiltonian_system,
    build_natural_gradient_flow,
    build_rescaled_gradient_flow,
    integrate,
    integrate_family,
)
from ..taylorstep import StepConfig, g_step, smoothness_epsilon
from .checks import (
    DILATION_HORIZON,
    DILATION_STEPS,
    DILATION_SUP_TOL,
    DUAL_NORM_TOL,
    ENERGY_REL_SLACK,
    HAMILTONIAN_SUP_TOL,
    NATURAL_MOTION_SUP_TOL,
    RESCALED_EXACT_SUP_TOL,
    SLOPE_SLACK,
    TRIPLE_GRID_TOL,
    UC_FLOW_REL_SLACK,
    UNIT_FORCE_SLOPE_SLACK,
    ArtifactWriter,
    dilation_mismatch,
    limit_distance,
    masked_slope,
    triple_grid_defect,
    worst_bound_ratio,
)
from .config import ExperimentConfig
from .experiments import _RUNNERS
from .reporting import CheckResult, ReportSummary

DEFAULT_SUITE_SEED = 20260819


@dataclass
class SuiteContext:
    """Shared state for one suite execution: scale, seed, output root, cache."""

    scale: str
    seed: int
    root: Path
    cache: dict = field(default_factory=dict)
    files: list = field(default_factory=list)

    def full(self) -> bool:
        return self.scale == "full"

    def artifacts(self, check: str, labels: dict | None = None) -> ArtifactWriter:
        """Writer for one check's own subdirectory, listing into files."""
        return ArtifactWriter(self.root / check, f"{check}/", self.files, labels)

    def run_kind(self, check: str | None, kind: str, method: dict,
                 labels: dict | None = None, **fields) -> tuple[dict, dict]:
        """A kind run from all ones with the suite's seed (fields may set the
        problem): its CheckResults and runs, by name and label, written as
        check's files under labels; with check None it only computes. A run
        that stopped short raises _StoppedShort, which fails the check."""
        cfg = ExperimentConfig(kind=kind, method=method, seed=self.seed, **fields)
        emit = ArtifactWriter() if check is None else self.artifacts(check, labels)
        checks = {c.name: c for c in _RUNNERS[kind](cfg, emit)}
        done = checks.get("run_completed")
        if done is not None and done.status != "pass":
            label = f"{kind} {method} on {cfg.problem}"
            raise _StoppedShort(replace(done, detail=f"{label}: {done.detail}"))
        return checks, emit.runs


class _StoppedShort(Exception):
    """Carries the failed run_completed check that run_check reports."""


# ---------------------------------------------------------------------------
# shared runs (cached across checks)


def _polynomial_flow_runs(ctx: SuiteContext) -> list[dict]:
    """The six (order, mirror) polynomial flows on the 2-d quadratic, C = 1,
    each run as the flow kind; a run's "checks" are the kind's CheckResults.

    full: the kind's t in [0.1, 50] at 1e-8 relative; the quartic mirror run
    carries abs_tol 1e-13 because its dual gradient loses precision near the
    minimizer. That run oscillates fast near the minimizer, so accuracy, not
    stability, sets its step: ~1.9e5 accepted steps. quick: t_end 20 at 1e-7.
    Recording is thinned per run to keep files comparable in size. Unlike
    the other cached runs, these write polynomial_flow_rate's files when
    first computed, which is once per task: _TASKS keeps both readers in one.
    """
    if "poly_flows" in ctx.cache:
        return ctx.cache["poly_flows"]
    runs = []
    for p in (2, 3, 4):
        for mirror in ("euclidean", f"pth_power_{p}"):
            pth = mirror != "euclidean"
            if ctx.full():
                # every 4^(p-2)-th step, and 2^(p-2) times sparser on d_p
                integration = {"record_every": 4 ** (p - 2) * (2 ** (p - 2) if pth else 1)}
                if p == 4 and pth:
                    integration["abs_tol"] = 1e-13
            else:
                integration = {"t_end": 20.0, "rel_tol": 1e-7, "record_every": 4 ** (p - 2)}
            checks, _ = ctx.run_kind(
                "polynomial_flow_rate", "flow",
                {"family": "polynomial", "p": p, "C": 1.0, "mirror": mirror},
                {"trajectory": f"p{p}_{mirror}"}, integration=integration)
            runs.append({"p": p, "mirror": mirror, "checks": checks})
    ctx.cache["poly_flows"] = runs
    return runs


def _accelerated_runs(ctx: SuiteContext) -> list[dict]:
    """The five rate-matching runs whose records feed three checks.

    The compute-only optimize kind at its accelerated defaults: orders 2
    and 3 on the quadratic and least-squares problems, order 4 on the
    quadratic. full: the stated K = 2000 (500 for order 4); quick: 300 (150).
    """
    if "accel_runs" in ctx.cache:
        return ctx.cache["accel_runs"]
    specs = [
        ("quadratic", 2, 2000), ("quadratic", 3, 2000),
        ("least_squares", 2, 2000), ("least_squares", 3, 2000),
        ("quadratic", 4, 500),
    ]
    runs = []
    for name, p, k_full in specs:
        K = k_full if ctx.full() else (150 if k_full == 500 else 300)
        checks, kept = ctx.run_kind(None, "optimize", {"p": p, "K": K}, problem=name)
        runs.append({"problem": name, "p": p, "K": K, "record": kept["iterates"],
                     "checks": checks})
    ctx.cache["accel_runs"] = runs
    return runs


# ---------------------------------------------------------------------------
# the seventeen checks


def _check_polynomial_flow_rate(ctx: SuiteContext) -> CheckResult:
    """Polynomial flows decay at their stated order, under their certificate.

    Reads the flow kind's checks of the six (order, mirror) runs: the
    log-log slope over [1, t_end] (ideal -p, slack 0.3) and every sampled
    f-gap held to E_{t0} e^{-beta_t} with 1e-6 relative slack. quick:
    horizon and fit window end at 20 instead of 50.
    """
    worst_excess = -math.inf
    worst_point = 0.0
    ok = True
    parts = []
    for run in _polynomial_flow_runs(ctx):
        rate, cert = run["checks"]["rate_slope"], run["checks"]["pointwise_certificate"]
        worst_excess = max(worst_excess, rate.measured + run["p"])
        worst_point = max(worst_point, cert.measured)
        ok = ok and rate.status == cert.status == "pass"
        parts.append(f"p={run['p']} {run['mirror']}: slope {rate.measured:+.3f}, "
                     f"gap/cert {cert.measured:.3f}")
    return CheckResult(
        name="polynomial_flow_rate",
        status="pass" if ok else "fail",
        measured=worst_excess,
        bound=SLOPE_SLACK,
        detail="; ".join(parts),
        extras={"worst_gap_over_certificate": worst_point,
                "fit_window": [1.0, 50.0 if ctx.full() else 20.0]},
    )


def _check_energy_monotonicity(ctx: SuiteContext) -> CheckResult:
    """Sampled energy never rises beyond rounding on any certified flow.

    Reads the flow kind's energy check of the six polynomial-flow runs and
    of the exponential flow (c = 1) it runs on the quadratic; the largest
    relative step-to-step energy increase must stay within 1e-6. quick:
    inherits the reduced horizons of the shared runs; the exponential flow
    runs to t = 6 at 1e-8 relative, 1e-11 absolute instead of the kind's
    t = 8 at 1e-9, 1e-12.
    """
    energies = [(f"p={run['p']} {run['mirror']}", run["checks"]["energy_monotone"])
                for run in _polynomial_flow_runs(ctx)]
    exponential, _ = ctx.run_kind(
        "energy_monotonicity", "flow", {"family": "exponential", "c": 1.0},
        {"trajectory": "exponential_c1"},
        integration={} if ctx.full() else {"t_end": 6.0, "rel_tol": 1e-8, "abs_tol": 1e-11})
    energies.append(("exponential c=1", exponential["energy_monotone"]))
    return CheckResult(
        name="energy_monotonicity",
        status="pass" if all(e.status == "pass" for _, e in energies) else "fail",
        measured=max(e.measured for _, e in energies),
        bound=ENERGY_REL_SLACK,
        detail="max relative energy rise per sample: "
               + "; ".join(f"{label}: {e.measured:+.2e}" for label, e in energies),
    )


def _check_time_dilation(ctx: SuiteContext) -> CheckResult:
    """Speeding up the quadratic-rate flow reproduces the higher orders.

    The order-2 trajectory relabeled by tau(t) = t^{p/2} must match directly
    integrated order-p flows in X (sup over [0.5, 10] at 200 points), and the
    relabeled scaling triple must equal the order-p triple on a 20-point grid
    to 1e-12 in all six functions. quick: window [0.5, 5], 6000 steps.
    """
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    hi, steps = (DILATION_HORIZON, DILATION_STEPS) if ctx.full() else (5.0, 6000)
    worst_sup = 0.0
    parts = []
    out = ctx.artifacts("time_dilation_match")
    for p, (direct, check_times, diff) in zip((3, 4), dilation_mismatch(
            f, x0, (3, 4), 1.0, hi, steps)):
        sup = float(np.max(diff))
        worst_sup = max(worst_sup, sup)
        parts.append(f"p=2 -> {p}: sup|dX| = {sup:.2e}")
        out.trajectory(f"direct_p{p}", direct)
        out.plot(f"mismatch_p{p}.dat", check_times, np.max(diff, axis=1),
                 "t   sup|X_dilated - X_direct|")
    # symbolic identity of the relabeled triple, checked on a fixed grid
    grid_defect = max(triple_grid_defect(p, 1.0) for p in (3, 4))
    parts.append(f"triple identity grid defect {grid_defect:.2e}")
    ok = worst_sup <= DILATION_SUP_TOL and grid_defect <= TRIPLE_GRID_TOL
    return CheckResult(
        name="time_dilation_match",
        status="pass" if ok else "fail",
        measured=worst_sup,
        bound=DILATION_SUP_TOL,
        detail="; ".join(parts),
        extras={"triple_grid_defect": grid_defect, "grid_tolerance": TRIPLE_GRID_TOL},
    )


def _check_accelerated_gap_bound(ctx: SuiteContext) -> CheckResult:
    """The rate-matching method's gap certificate holds at every iteration.

    f(y_k) - f* <= D_h(x*, x0) / (C eps k^(p)) for each shared run; the
    measured value is the worst gap-to-certificate ratio. quick: K = 300
    (150 for order 4) instead of 2000 (500).
    """
    worst = 0.0
    parts = []
    out = ctx.artifacts("accelerated_gap_bound")
    for run in _accelerated_runs(ctx):
        rec = run["record"]
        out.record(f"{run['problem']}_p{run['p']}", rec)
        ratio = worst_bound_ratio(rec)
        worst = max(worst, ratio)
        parts.append(
            f"{run['problem']} p={run['p']} K={run['K']}: worst ratio {ratio:.4f}"
            + ("" if run["checks"]["rate_bound"].status == "pass" else " VIOLATED")
        )
    return CheckResult(
        name="accelerated_gap_bound",
        status="pass" if worst <= 1.0 else "fail",
        measured=worst,
        bound=1.0,
        detail="; ".join(parts),
    )


def _check_estimate_sequence(ctx: SuiteContext) -> CheckResult:
    """The running lower-model is tight and minimized where it should be.

    On every iteration of the shared accelerated runs: psi_k(z_k) >=
    C k^(p) f(y_k) - 1e-9, and ||grad psi_k(z_k)|| <= 1e-8 absolutely.
    quick: inherits the shorter shared runs.
    """
    grad_max = 0.0
    margin_min = math.inf
    parts = []
    for run in _accelerated_runs(ctx):
        rec = run["record"]
        margin = float(np.min(np.asarray(rec.psi_values) - np.asarray(rec.ckp_fy)))
        grad = float(np.max(rec.psi_grad_norms))
        margin_min = min(margin_min, margin)
        grad_max = max(grad_max, grad)
        parts.append(
            f"{run['problem']} p={run['p']}: margin {margin:+.2e}, |grad| {grad:.2e}"
        )
    ok = margin_min >= -ESTIMATE_TOL and grad_max <= DUAL_NORM_TOL
    return CheckResult(
        name="estimate_sequence_invariants",
        status="pass" if ok else "fail",
        measured=grad_max,
        bound=DUAL_NORM_TOL,
        detail="; ".join(parts),
        extras={"min_lower_margin": margin_min, "lower_floor": -ESTIMATE_TOL},
    )


def _check_taylor_step_certificates(ctx: SuiteContext) -> CheckResult:
    """Every update step certifies its progress and move-norm inequalities.

    Covers each y-step of the shared accelerated runs, then standalone
    sweeps: for every (p, N) in {2,3,4} x {1.5, 2, 4}, 100 seeded steps split
    over two problems with declared order-(p-1) smoothness (the 10-d
    quadratic paired with log-sum-exp for p < 4, least-squares for p = 4,
    which needs an order-3 constant log-sum-exp does not declare).
    quick: 30 standalone steps per pair instead of 100.
    """
    failures = 0
    checked = 0
    for run in _accelerated_runs(ctx):
        ok = run["record"].certificates["ok"]
        checked += len(ok)
        failures += len(ok) - int(np.count_nonzero(ok))
    problems = builtin_problems()
    per_problem = 50 if ctx.full() else 15
    rng = np.random.default_rng(ctx.seed)
    for p in (2, 3, 4):
        pair = ("quadratic_10d", "log_sum_exp") if p < 4 else ("quadratic_10d", "least_squares")
        for N in (1.5, 2.0, 4.0):
            for name in pair:
                f = problems[name]
                cfg = StepConfig(p, smoothness_epsilon(f, p), N)
                for _ in range(per_problem):
                    x = 0.5 * rng.standard_normal(f.dimension)
                    _, _, cert = g_step(f, x, cfg)
                    checked += 1
                    failures += 0 if cert.ok else 1
    return CheckResult(
        name="taylor_step_certificates",
        status="pass" if failures == 0 else "fail",
        measured=float(failures),
        bound=0.0,
        detail=f"{checked} certificates evaluated, {failures} failed "
               f"({2 * per_problem} standalone per (p, N) pair)",
    )


def _check_plain_method_rate(ctx: SuiteContext) -> CheckResult:
    """The plain higher-order method descends at its guaranteed rate.

    The optimize kind's descent, orders 2 and 3 on the quadratic: monotone
    descent, the p^{p-1}(N+1)R^p / (eps k^{p-1}) gap certificate, the
    one-step gap recursion, and the inverse-gap increment floor, all at
    every iteration. quick: K = 300 instead of 2000.
    """
    K = 2000 if ctx.full() else 300
    worst_ratio = 0.0
    parts = []
    ok = True
    for p in (2, 3):
        checks, kept = ctx.run_kind("plain_method_rate", "optimize",
                                    {"algorithm": "descent", "p": p, "K": K},
                                    {"iterates": f"quadratic_p{p}"})
        bad = [name for name, c in checks.items() if c.status != "pass"]
        ok = ok and not bad
        ratio = worst_bound_ratio(kept["iterates"])
        worst_ratio = max(worst_ratio, ratio)
        parts.append(
            f"p={p} K={K}: gap/bound {ratio:.4f}"
            + (f", failing: {bad}" if bad else ", all invariants hold")
        )
    return CheckResult(
        name="plain_method_rate",
        status="pass" if ok and worst_ratio <= 1.0 else "fail",
        measured=worst_ratio,
        bound=1.0,
        detail="; ".join(parts),
    )


def _check_rescaled_flow(ctx: SuiteContext) -> CheckResult:
    """The rescaled gradient flow: rate, exact solution, descent monitors.

    Runs the flow kind, family rescaled at order 3, on the quadratic: fitted
    slope <= -2 + 0.3 (the gap hits the floor in finite time; floored
    samples are excluded); the inverse-gap monitor grows at least linearly
    with constant 1/((p-1) R^{p/(p-1)}) and the t^p-weighted gap's
    increments stay under (p-1)^{p-1} R^p dt + 1e-6. On (1/3)||x||^3 the
    trajectory must equal e^{-t} x0 to sup 1e-5, a run of this check's own.
    quick: 10000/3000 integration steps and horizon 15/6 instead of 30/10.
    """
    p = 3
    kind, _ = ctx.run_kind("rescaled_flow_descent", "flow", {"family": "rescaled", "p": p},
                           {"trajectory": "quadratic_p3"},
                           integration={} if ctx.full() else {"t_end": 15.0, "steps": 10000})
    rate, primary = kind["rate_slope"], kind["primary_monitor"]
    monitors = ["ok" if kind[name].status == "pass" else "VIOLATED"
                for name in ("primary_monitor", "alternative_monitor")]

    cube = builtin_problems()["power_3"]
    y0 = np.array([1.0, -0.5, 0.25])
    t_exact, steps_exact = (10.0, 10000) if ctx.full() else (6.0, 3000)
    exact_traj = integrate(build_rescaled_gradient_flow(cube, p), y0, 0.0, t_exact,
                           {"method": "rk4", "steps": steps_exact, "record_every": 2})
    reference = y0[None, :] * np.exp(-exact_traj.times)[:, None]
    sup_exact = float(np.max(np.abs(exact_traj.block("X") - reference)))
    ctx.artifacts("rescaled_flow_descent").trajectory("power_3_exact", exact_traj)

    ok = all(c.status == "pass" for c in kind.values()) and sup_exact <= RESCALED_EXACT_SUP_TOL
    return CheckResult(
        name="rescaled_flow_descent",
        status="pass" if ok else "fail",
        measured=rate.measured,
        bound=rate.bound,
        detail=(f"slope {rate.measured:+.3f}; primary monitor {monitors[0]}; "
                f"alternative monitor {monitors[1]}; e^-t trajectory sup {sup_exact:.2e}"),
        extras={"exact_sup": sup_exact, "level_radius": primary.extras["level_radius"]},
    )


def _check_naive_vs_matched(ctx: SuiteContext) -> CheckResult:
    """The naive discretization blows up where the rate-matching one is certified.

    Runs the naive_demo kind: same 2-d quadratic, same eps = 0.01, order 3;
    the naive scheme must terminate diverged within 1e5 steps (the effective
    step eps p^2 C lam k^{p-2} grows without bound, so divergence is
    guaranteed); the rate-matching method must complete and satisfy its gap
    certificate at every k. quick: K = 300 for the certified run instead of
    2000.
    """
    kind, _ = ctx.run_kind("naive_vs_matched", "naive_demo",
                           {"accel_K": 2000 if ctx.full() else 300},
                           {"naive": "naive_p3", "accelerated": "matched_p3"})
    naive, matched = kind["naive_diverges"], kind["accelerated_bound"]
    return CheckResult(
        name="naive_vs_matched",
        status="pass" if all(c.status == "pass" for c in kind.values()) else "fail",
        measured=naive.measured,
        bound=naive.bound,
        detail=f"{naive.detail}; {matched.detail}: gap/bound {matched.measured:.4f}",
        extras={"diverged": naive.extras["diverged"],
                "bound_ok": matched.extras["bound_ok"],
                "worst_ratio": matched.measured},
    )


def _check_hamiltonian_match(ctx: SuiteContext) -> CheckResult:
    """The dual-space and primal-space formulations trace the same curve.

    Order 2 on the quadratic over [0.1, 10], both systems under fixed rk4
    with 1e4 steps; sup-norm of the X difference at the shared sample times.
    Both scales run the stated parameters (already desk-scale).
    """
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    triple = polynomial_triple(2, 1.0)
    controls = {"method": "rk4", "steps": 10000, "record_every": 2}
    lagrangian = integrate(build_el_system(EuclideanMap(), f, triple),
                           x0, 0.1, 10.0, controls)
    hamiltonian = integrate(build_hamiltonian_system(EuclideanMap(), f, triple),
                            x0, 0.1, 10.0, controls)
    sup = float(np.max(np.abs(lagrangian.block("X") - hamiltonian.block("X"))))
    ctx.artifacts("hamiltonian_lagrangian_match").trajectory("euler_lagrange", lagrangian)
    ctx.artifacts("hamiltonian_lagrangian_match").trajectory("hamiltonian", hamiltonian)
    return CheckResult(
        name="hamiltonian_lagrangian_match",
        status="pass" if sup <= HAMILTONIAN_SUP_TOL else "fail",
        measured=sup,
        bound=HAMILTONIAN_SUP_TOL,
        detail=f"sup|X_lagrangian - X_hamiltonian| = {sup:.2e} over [0.1, 10]",
    )


def _check_force_free_motion(ctx: SuiteContext) -> CheckResult:
    """With no objective force, the flow follows its closed form exactly.

    Starting off the rest manifold (dual state from a different anchor), X
    must equal z0 + (x0 - z0) e^{-(gamma_t - gamma_{t0})} to sup 1e-6 for
    the order-2 and order-3 polynomial scalings and the exponential scaling.
    quick: 2000 integration steps instead of 8000.
    """
    f = builtin_problems()["zero"]
    x_init = np.array([1.0, -1.0, 0.5])
    z0 = np.array([0.3, -0.2, 0.1])
    steps = 8000 if ctx.full() else 2000
    worst = 0.0
    parts = []
    cases = [
        ("polynomial_p2", polynomial_triple(2, 1.0), 0.5, 10.0),
        ("polynomial_p3", polynomial_triple(3, 1.0), 0.5, 10.0),
        ("exponential_c1", exponential_triple(1.0), 0.0, 8.0),
    ]
    for label, triple, t0, t_end in cases:
        system = build_el_system(EuclideanMap(), f, triple)
        traj = integrate(system, x_init, t0, t_end,
                         {"method": "rk4", "steps": steps, "record_every": 2},
                         initial_state=np.concatenate([x_init, z0]))
        gamma0 = triple.gamma(t0)
        decay = np.exp(-(np.array([triple.gamma(t) for t in traj.times]) - gamma0))
        reference = z0[None, :] + (x_init - z0)[None, :] * decay[:, None]
        sup = float(np.max(np.abs(traj.block("X") - reference)))
        worst = max(worst, sup)
        parts.append(f"{label}: sup {sup:.2e}")
        ctx.artifacts("force_free_motion").trajectory(label, traj)
    return CheckResult(
        name="force_free_motion",
        status="pass" if worst <= NATURAL_MOTION_SUP_TOL else "fail",
        measured=worst,
        bound=NATURAL_MOTION_SUP_TOL,
        detail="; ".join(parts),
    )


def _check_small_mass_limit(ctx: SuiteContext) -> CheckResult:
    """Shrinking the mass drives the flow onto its first-order limit.

    Sup-distance over t in [0, 2] between the mass-m flow and the natural
    gradient flow (diagonal mirror), and between the Euclidean mass-m flow
    and plain gradient flow, must decrease strictly across m = 0.1, 0.01,
    0.001. quick: halved integration steps.
    """
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    masses = (0.1, 0.01, 0.001)
    base_steps = 20000 if ctx.full() else 10000
    check_times = np.linspace(0.0, 2.0, 101)
    parts = []
    chains = {}
    for label, mirror, limit_system in (
        ("diagonal", builtin_mirror_maps()["diagonal_2_5"], None),
        ("euclidean", EuclideanMap(), build_rescaled_gradient_flow(f, 2)),
    ):
        if limit_system is None:
            limit_system = build_natural_gradient_flow(mirror, f)
        limit = integrate(limit_system, x0, 0.0, 2.0,
                          {"method": "rk4", "steps": base_steps, "record_every": 10})
        ctx.artifacts("small_mass_limit").trajectory(f"{label}_limit", limit)
        sups = []
        family = build_el_system(mirror, f, [massless_triple(m) for m in masses])
        controls = {"method": "rk4", "steps": 2 * base_steps, "record_every": 20}
        trajs = integrate_family(family, x0, 0.0, 2.0, controls)
        for m, traj in zip(masses, trajs):
            sups.append(limit_distance(traj, limit, check_times))
            ctx.artifacts("small_mass_limit").trajectory(f"{label}_m{m:g}", traj)
        chains[label] = sups
        parts.append(f"{label}: " + " > ".join(f"{v:.3g}" for v in sups))
    ok = all(s[0] > s[1] > s[2] for s in chains.values())
    return CheckResult(
        name="small_mass_limit",
        status="pass" if ok else "fail",
        measured=chains["euclidean"][-1],
        bound=None,
        detail="sup distances across m = 0.1, 0.01, 0.001 — " + "; ".join(parts),
        extras={f"{k}_sups": v for k, v in chains.items()},
    )


def _check_damped_oscillator_threshold(ctx: SuiteContext) -> CheckResult:
    """Euclidean r-damped dynamics hit their rates on both force scalings.

    x_ddot + (r/t) x_dot + force grad f = 0 runs as the (X, W) flow of a
    triple under the Euclidean map. Unit force, r_damped_triple(r): slope
    <= -2 + 0.2 for r in {3, 4, 5} (its beta_dot = 2/t <= e^alpha = (r-1)/t,
    tight at r = 3, so more damping cannot beat the quadratic rate without
    rescaling the force). Matched force C p^2 t^{p-2}, p = r - 1,
    polynomial_triple(r - 1, C = 1): slope <= -(r-1) + 0.3 for r in {3, 4}.
    quick: horizon 15 and 10000 steps instead of 30 and 30000.
    """
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])
    t_end, steps = (30.0, 30000) if ctx.full() else (15.0, 10000)
    cases = [("unit", r, r_damped_triple(r), -2.0 + UNIT_FORCE_SLOPE_SLACK)
             for r in (3, 4, 5)]
    cases += [("matched", r, polynomial_triple(r - 1, 1.0), -(r - 1.0) + SLOPE_SLACK)
              for r in (3, 4)]
    worst_excess = -math.inf
    parts = []
    family = build_el_system(EuclideanMap(), f, [triple for _, _, triple, _ in cases])
    trajs = integrate_family(family, x0, 0.1, t_end,
                             {"method": "rk4", "steps": steps, "record_every": 3})
    for (tag, r, _, limit), traj in zip(cases, trajs):
        slope = masked_slope(traj, (1.0, t_end))
        worst_excess = max(worst_excess, slope - limit)
        parts.append(f"{tag} r={r}: slope {slope:+.3f} (limit {limit:+.1f})")
        ctx.artifacts("damped_oscillator_threshold").trajectory(f"{tag}_r{r}", traj)
    return CheckResult(
        name="damped_oscillator_threshold",
        status="pass" if worst_excess <= 0.0 else "fail",
        measured=worst_excess,
        bound=0.0,
        detail="; ".join(parts),
    )


def _check_uniformly_convex_discrete(ctx: SuiteContext) -> CheckResult:
    """Uniform convexity upgrades the discrete methods to linear rates.

    The optimize kind's descent (order 2, N = 2, eps = 0.1) on the strongly
    convex quadratic obeys the geometric gap bound and the per-step
    inverse-gap increment floor. The restart kind at its defaults contracts
    ||anchor - x*||^p by at least 1/e per epoch and lands under its final
    bound after 3 epochs, for orders 2 (quadratic) and 3 (the cubic power
    norm); its anchors are written. quick: descent K = 200 instead of 500.
    """
    K = 500 if ctx.full() else 200
    descent, kept = ctx.run_kind("uniformly_convex_discrete", "optimize",
                                 {"algorithm": "descent", "epsilon": 0.1, "K": K},
                                 {"iterates": "geometric_descent"})
    rec = kept["iterates"]
    bound_ok = descent["geometric_bound"].status == "pass"
    increments_ok = descent["inverse_gap_increments"].status == "pass"
    parts = [
        f"geometric bound {'ok' if bound_ok else 'VIOLATED'} "
        f"(rate {rec.extras['linear_rate']:.4f}), increments "
        f"{'ok' if increments_ok else 'VIOLATED'}"
    ]
    worst_ratio = 0.0
    restarts_ok = True
    for name in ("quadratic", "power_3"):
        checks, kept = ctx.run_kind(None, "restart", {}, problem=name)
        restart = kept["anchors"]
        bad = [k for k, c in checks.items() if c.status != "pass"]
        restarts_ok = restarts_ok and not bad
        dist = np.asarray(restart.extras["distance_powers"])
        ratio = float(np.max(dist[1:] / dist[:-1]))
        worst_ratio = max(worst_ratio, ratio)
        parts.append(
            f"restart {name} (m={restart.extras['m']}): worst epoch ratio {ratio:.3f}"
            + (f", failing: {bad}" if bad else "")
        )
        ctx.artifacts("uniformly_convex_discrete").record(f"restart_{name}", restart)
    ok = bound_ok and increments_ok and restarts_ok and worst_ratio <= math.exp(-1.0)
    return CheckResult(
        name="uniformly_convex_discrete",
        status="pass" if ok else "fail",
        measured=worst_ratio,
        bound=math.exp(-1.0),
        detail="; ".join(parts),
        extras={key: rec.extras[key] for key in ("linear_rate", "linear_prefactor")},
    )


def _check_uniformly_convex_flow(ctx: SuiteContext) -> CheckResult:
    """The rescaled flow converges exponentially under uniform convexity.

    On (1/p)||x||^p (sigma = 2^{2-p}) the sampled gap stays below
    gap_0 exp(-sigma^{1/(p-1)} t) (1 + 1e-4) for orders 2 and 3.
    quick: horizon 6 and 3000 steps instead of 10 and 10000.
    """
    x0 = np.array([1.0, -0.5, 0.25])
    t_end, steps = (10.0, 10000) if ctx.full() else (6.0, 3000)
    worst = 0.0
    parts = []
    for p in (2, 3):
        f = builtin_problems()[f"power_{p}"]
        traj = integrate(build_rescaled_gradient_flow(f, p), x0, 0.0, t_end,
                         {"method": "rk4", "steps": steps, "record_every": 2})
        sigma = f.uniform_convexity[1]
        envelope = traj.f_gap[0] * np.exp(-sigma ** (1.0 / (p - 1.0)) * traj.times)
        ratio = float(np.max(traj.f_gap / (envelope * (1.0 + UC_FLOW_REL_SLACK))))
        worst = max(worst, ratio)
        parts.append(f"p={p} (sigma={sigma:g}): worst gap/envelope {ratio:.4f}")
        ctx.artifacts("uniformly_convex_flow").trajectory(f"power_{p}", traj)
    return CheckResult(
        name="uniformly_convex_flow",
        status="pass" if worst <= 1.0 else "fail",
        measured=worst,
        bound=1.0,
        detail="; ".join(parts),
    )


def _check_flow_method_correspondence(ctx: SuiteContext) -> CheckResult:
    """The discrete method shadows its continuous limit at matching times.

    Runs the compare kind at its defaults: order 2 with step delta = 0.05,
    eps = delta^2, plotted at t = delta k, against the order-2 flow run with
    the same force constant C (the method's admissible C = 1/16; matching C
    is what aligns the two oscillation phases). Gap ratio within a factor of
    10 over t in [1, 10]. Both scales run the stated parameters (already
    desk-scale).
    """
    kind, _ = ctx.run_kind("flow_method_correspondence", "compare", {},
                           {"iterates": "accelerated_p2", "flow": "flow_p2"})
    return replace(kind["within_factor"], name="flow_method_correspondence")


def _check_rerun_determinism(ctx: SuiteContext) -> CheckResult:
    """Re-running the suite with one seed reproduces every emitted byte.

    Executes the sixteen other checks twice at quick scale (reproducibility
    is a property of the code paths, not of horizon lengths — both scales
    verify it on the quick parameters) in sibling directories, each replay
    on the suite's worker pool, then compares every CSV and plot file byte
    for byte. A replayed check that crashes fails this check.
    """
    replayed = [i for i, spec in enumerate(CHECKS) if spec.name != "rerun_determinism"]
    roots = []
    for tag in ("run_a", "run_b"):
        root = ctx.root / "rerun_determinism" / tag
        results, _ = _run_checks(replayed, "quick", ctx.seed, root)
        crashed = [r.name for r in results if r.extras.get("internal_error")]
        if crashed:
            raise RuntimeError(f"replayed checks crashed in {tag}: {crashed}")
        roots.append(root)

    def inventory(root: Path) -> dict[str, bytes]:
        return {
            str(path.relative_to(root)): path.read_bytes()
            for pattern in ("*.csv", "*.dat")
            for path in sorted(root.rglob(pattern))
        }

    a, b = inventory(roots[0]), inventory(roots[1])
    mismatched = sorted(
        set(a) ^ set(b) | {name for name in set(a) & set(b) if a[name] != b[name]}
    )
    ok = not mismatched and len(a) > 0
    return CheckResult(
        name="rerun_determinism",
        status="pass" if ok else "fail",
        measured=float(len(mismatched)),
        bound=0.0,
        detail=(
            f"{len(a)} files compared byte-for-byte"
            + (f"; mismatched: {mismatched[:5]}" if mismatched else ", all identical")
        ),
        extras={"files_compared": len(a)},
    )


# ---------------------------------------------------------------------------
# registry and driver


@dataclass(frozen=True)
class CheckSpec:
    name: str
    title: str
    runner: object


CHECKS: tuple[CheckSpec, ...] = (
    CheckSpec("polynomial_flow_rate",
              "polynomial flows meet their order and certificate", _check_polynomial_flow_rate),
    CheckSpec("energy_monotonicity",
              "energy certificates never increase", _check_energy_monotonicity),
    CheckSpec("time_dilation_match",
              "clock changes map the family onto itself", _check_time_dilation),
    CheckSpec("accelerated_gap_bound",
              "rate-matching method meets its gap certificate", _check_accelerated_gap_bound),
    CheckSpec("estimate_sequence_invariants",
              "lower-model tightness and dual optimality", _check_estimate_sequence),
    CheckSpec("taylor_step_certificates",
              "update-step progress and move-norm inequalities", _check_taylor_step_certificates),
    CheckSpec("plain_method_rate",
              "plain method descends at its guaranteed rate", _check_plain_method_rate),
    CheckSpec("rescaled_flow_descent",
              "rescaled gradient flow: rate, exact solution, monitors", _check_rescaled_flow),
    CheckSpec("naive_vs_matched",
              "naive discretization diverges, rate-matching stays certified", _check_naive_vs_matched),
    CheckSpec("hamiltonian_lagrangian_match",
              "dual-space dynamics reproduce the primal flow", _check_hamiltonian_match),
    CheckSpec("force_free_motion",
              "zero-force flows follow their closed form", _check_force_free_motion),
    CheckSpec("small_mass_limit",
              "small-mass flows approach first-order dynamics", _check_small_mass_limit),
    CheckSpec("damped_oscillator_threshold",
              "r-damped dynamics on both force scalings", _check_damped_oscillator_threshold),
    CheckSpec("uniformly_convex_discrete",
              "linear rates and restarts under uniform convexity", _check_uniformly_convex_discrete),
    CheckSpec("uniformly_convex_flow",
              "exponential flow rate under uniform convexity", _check_uniformly_convex_flow),
    CheckSpec("flow_method_correspondence",
              "discrete method shadows its continuous limit", _check_flow_method_correspondence),
    CheckSpec("rerun_determinism",
              "bitwise-identical artifacts on reruns", _check_rerun_determinism),
)

_names = [spec.name for spec in CHECKS]
if len(set(_names)) != len(_names):  # pragma: no cover - registry typo guard
    raise RuntimeError(f"duplicate check names in registry: {_names}")


# The pool's schedule, in start order. Checks that read the same cached
# runs share a task, so each cached run is computed once per task; the first
# six tasks hold the slowest checks at either scale and start first
# (seconds under taskset -c 0 on a shared 2-CPU host; quick, two runs:
# 17.8-18.2, 2.7-3.1, 2.7-2.8, 0.8-0.9, 0.7-0.8, 0.9-1.3; full: 17, 33,
# 4.9, 2.4, 2.3, 0.9; every later task under 1.1 s at either scale).
# Every other check runs as a task of its own after these, in registry
# order, so the short checks fill in around the long ones: the wall time
# stays near the suite's CPU time over the worker count, and no long check
# starts late because of which worker happened to be free first.
# Keyed by name: callers may rebuild the registry's specs.
_TASKS = (
    ("rerun_determinism",),
    ("polynomial_flow_rate", "energy_monotonicity"),  # poly_flows
    ("small_mass_limit",),
    ("damped_oscillator_threshold",),
    ("time_dilation_match",),
    ("hamiltonian_lagrangian_match",),
    ("accelerated_gap_bound", "estimate_sequence_invariants",
     "taylor_step_certificates"),  # accel_runs
)


def _internal_error(name: str, exc: BaseException, **tags) -> CheckResult:
    return CheckResult(
        name=name,
        status="fail",
        detail=f"internal error: {type(exc).__name__}: {exc}",
        extras={"internal_error": True, **tags},
    )


def run_check(spec: CheckSpec, ctx: SuiteContext) -> CheckResult:
    """Execute one registered check, timing it and containing its failures.

    A crash inside a runner becomes a failed CheckResult tagged
    internal_error instead of aborting the suite, so one broken check cannot
    hide the verdicts of the other sixteen; a run it reads that stopped
    short fails it cleanly, with the run's termination in extras.
    """
    start = time.perf_counter()
    try:
        result = spec.runner(ctx)
    except _StoppedShort as exc:
        result = replace(exc.args[0], name=spec.name)
    except Exception as exc:  # noqa: BLE001 - the tag preserves the class
        result = _internal_error(spec.name, exc)
    result.runtime = time.perf_counter() - start
    return result


def _tasks(indices) -> list[tuple[int, ...]]:
    """The registry indices as tasks, in start order: the indices named by
    each _TASKS entry form one task, every other index its own, in registry
    order. Each task holds its indices in registry order."""
    indices = sorted(indices)
    tasks = [tuple(i for i in indices if CHECKS[i].name in names) for names in _TASKS]
    scheduled = {i for task in tasks for i in task}
    return [task for task in tasks if task] + [(i,) for i in indices if i not in scheduled]


def _run_task(task, scale: str, seed: int, root) -> list:
    """Run one task's checks in order on a fresh context; returns (index,
    result, files emitted during that check) for each."""
    ctx = SuiteContext(scale=scale, seed=seed, root=Path(root))
    out = []
    for i in task:
        first = len(ctx.files)
        result = run_check(CHECKS[i], ctx)
        out.append((i, result, ctx.files[first:]))
    return out


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_checks(indices, scale: str, seed: int, root) -> tuple[list, list]:
    """Run the registered checks at indices; returns their results and the
    files they emitted, both in registry order.

    Tasks run in _TASKS order on one forked worker per usable CPU
    (in-process with one CPU or without fork). Workers are forked so that
    each resolves its indices in the registry exactly as this process holds
    it, runners included, and nothing but indices and results crosses the
    process boundary. Results do not depend on the worker count. A worker
    that dies (a signal, the memory limit) fails every check of each task
    left unfinished, tagged internal_error and worker_died. The pool is
    imported here, so that only a suite run loads it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    tasks = _tasks(indices)
    workers = min(_usable_cpus(), len(tasks))
    done = []
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        for task in tasks:
            done += _run_task(task, scale, seed, root)
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            futures = [(task, pool.submit(_run_task, task, scale, seed, root))
                       for task in tasks]
            for task, future in futures:
                try:
                    done += future.result()
                except BrokenProcessPool as exc:
                    done += [(i, _internal_error(CHECKS[i].name, exc, worker_died=True), [])
                             for i in task]
    done.sort(key=lambda item: item[0])
    files = [name for _, _, emitted in done for name in emitted]
    return [result for _, result, _ in done], files


def acceptance_suite(scale: str = "quick", out_dir=None,
                     seed: int = DEFAULT_SUITE_SEED) -> ReportSummary:
    """Run every registered check and write summary.json under out_dir.

    quick targets a sub-two-minute smoke pass with per-check reductions
    documented on the runners; full runs the stated parameters. Checks run
    concurrently on the usable CPUs; the summary lists each check once, in
    registry order, with its own wall time as runtime and the suite's wall
    time as total_runtime.
    """
    if scale not in ("quick", "full"):
        raise InputError(f"scale must be 'quick' or 'full', got {scale!r}")
    if out_dir is None:
        import tempfile

        out_dir = tempfile.mkdtemp(prefix="accelflow-acceptance-")
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    checks, files = _run_checks(range(len(CHECKS)), scale, int(seed), root)
    summary = ReportSummary(
        kind="acceptance",
        seed=int(seed),
        checks=checks,
        scale=scale,
        files=files,
        total_runtime=time.perf_counter() - start,
    )
    summary.write(root / "summary.json")
    summary.files.append("summary.json")
    return summary
