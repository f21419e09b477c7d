"""Experiment orchestration: one validated config in, one checked summary out.

Every kind runs deterministically from its config (the seed is recorded even
where nothing draws random numbers), evaluates the checks that the chosen
dynamics certify, and — when an output directory is configured — emits the
trace CSV, log-log plot data, and a schema-valid summary.json. Tolerances,
the artifact writer and the measurements come from checks.py, the module the
acceptance suite uses too. A config sets a kind's inputs, never its verdict:
each flow family runs the integration method its defaults name, polynomial
flows fit their rate from one decade above t0 to t_end and rescaled flows
over [1, t_end], and compare holds t = delta k in [1, 10] to
CORRESPONDENCE_FACTOR.

Ten acceptance checks run the kind they mirror through _RUNNERS and build
their verdicts from its CheckResults and the runs its writer kept:
flow_method_correspondence runs compare, naive_vs_matched naive_demo,
rescaled_flow_descent the rescaled flow (its exact e^{-t} x0 run on power_3
is its own), polynomial_flow_rate the six polynomial flows,
energy_monotonicity those six and the exponential flow, plain_method_rate
optimize descent, uniformly_convex_discrete optimize descent and restart
(anchors only), and the three accelerated-run checks five compute-only
optimize runs; only the standalone Taylor-step sweep calls a method. Apart:
- dilation_check, time_dilation_match: the check's quick horizon and step
  count would need new kind fields (both share DILATION_HORIZON and
  DILATION_STEPS, checks.py);
- massless flow, small_mass_limit: three masses share one limit flow;
- uniformly_convex_flow: its envelope reads the trajectory itself.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..accel import (
    AccelConfig,
    accelerated,
    exponential_discretization,
    higher_order_descent,
    naive_discretization,
    restart_accelerated,
)
from ..core import EuclideanMap, exponential_triple, massless_triple, polynomial_triple
from ..core.numerics import LOG_FLOAT_MAX
from ..core.points import as_real
from ..errors import InputError
from ..flows import (
    build_el_system,
    build_natural_gradient_flow,
    build_rescaled_gradient_flow,
    integrate,
)
from ..taylorstep import DEFAULT_N, StepConfig, smoothness_epsilon
from .checks import (
    CORRESPONDENCE_FACTOR,
    DILATION_HORIZON,
    DILATION_STEPS,
    DILATION_SUP_TOL,
    ENERGY_REL_SLACK,
    PRIMARY_MONITOR_FLOOR,
    SLOPE_SLACK,
    TRIPLE_GRID_TOL,
    ArtifactWriter,
    dilation_mismatch,
    gap_ratios,
    limit_distance,
    masked_slope,
    max_relative_energy_rise,
    report_checks,
    rescaled_monitor_margins,
    triple_grid_defect,
    worst_bound_ratio,
    worst_gap_over_certificate,
)
from .config import ExperimentConfig
from .reporting import CheckResult, ReportSummary

# naive_demo's default step count: the naive scheme diverges well before it
NAIVE_STEP_BUDGET = 100_000


def _merge_controls(cfg: ExperimentConfig, defaults: dict) -> tuple[float, float, dict]:
    """Split (t0, t_end) from the integrator controls, config over the
    family's defaults; the method is always the one the defaults name."""
    merged = {**defaults, **cfg.integration}
    t0 = as_real("t0", merged.pop("t0"))
    t_end = as_real("t_end", merged.pop("t_end"))
    if not t_end > t0:
        raise InputError(f"integration needs t_end > t0, got [{t0}, {t_end}]")
    return t0, t_end, merged


def _default_window(t0: float, t_end: float) -> tuple[float, float]:
    """Rate fits skip the initial transient: one decade above the start time."""
    lo = 10.0 * t0 if t0 > 0 else 1.0
    if not lo < t_end:
        raise InputError(
            f"no fit window left after the transient: [{lo}, {t_end}]; "
            "the fit starts one decade above t0, so t_end must exceed it"
        )
    return lo, t_end


def _slope_check(traj, window, limit) -> CheckResult:
    if traj.f_gap is None:
        return CheckResult("rate_slope", "skip", detail="problem declares no f*")
    slope = masked_slope(traj, window)
    return CheckResult(
        name="rate_slope",
        status="pass" if slope <= limit else "fail",
        measured=slope,
        bound=limit,
        detail=f"log-log fit over t in [{window[0]:g}, {window[1]:g}]",
    )


def _energy_check(traj) -> CheckResult:
    if traj.energy is None:
        return CheckResult("energy_monotone", "skip", detail="problem declares no x* or no f*")
    rise = max_relative_energy_rise(traj)
    return CheckResult(
        name="energy_monotone",
        status="pass" if rise <= ENERGY_REL_SLACK else "fail",
        measured=rise,
        bound=ENERGY_REL_SLACK,
        detail="largest relative energy increase between samples",
    )


def _termination_check(rec) -> CheckResult:
    """Passes only when the run did every iteration it was asked for; the
    extras carry the termination record (for a solver failure, its message
    and residual too)."""
    term = rec.termination
    where = "" if term["k"] is None else f" at k={term['k']}"
    return CheckResult(
        name="run_completed",
        status="pass" if term["status"] == "completed" else "fail",
        detail=f"run terminated {term['status']}{where}",
        extras={"termination": dict(term)},
    )


def _pointwise_check(traj, triple) -> CheckResult:
    if traj.f_gap is None or traj.energy is None:
        return CheckResult("pointwise_certificate", "skip",
                           detail="problem declares no x* or no f*")
    worst, holds = worst_gap_over_certificate(traj, triple)
    return CheckResult(
        name="pointwise_certificate",
        status="pass" if holds else "fail",
        measured=worst,
        bound=1.0,
        detail="f-gap against its energy certificate at every sample",
    )


# ---------------------------------------------------------------------------
# per-kind runners


def _run_flow(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    family = cfg.variant()

    if family == "polynomial":
        p = cfg.number("p", 2)
        C = cfg.number("C", 1.0)
        mirror = cfg.mirror_map() or EuclideanMap()
        triple = polynomial_triple(p, C)
        t0, t_end, controls = _merge_controls(cfg, {
            "t0": 0.1, "t_end": 50.0,
            "method": "rk4_adaptive", "rel_tol": 1e-8, "abs_tol": 1e-11,
        })
        traj = integrate(build_el_system(mirror, f, triple), x0, t0, t_end, controls)
        emit.trajectory("trajectory", traj)
        return [
            _slope_check(traj, _default_window(t0, t_end), -p + SLOPE_SLACK),
            _energy_check(traj),
            _pointwise_check(traj, triple),
        ]

    if family == "exponential":
        c = cfg.number("c", 1.0)
        mirror = cfg.mirror_map() or EuclideanMap()
        triple = exponential_triple(c)
        t0, t_end, controls = _merge_controls(cfg, {
            "t0": 0.0, "t_end": 8.0,
            "method": "rk4_adaptive", "rel_tol": 1e-9, "abs_tol": 1e-12,
        })
        traj = integrate(build_el_system(mirror, f, triple), x0, t0, t_end, controls)
        emit.trajectory("trajectory", traj)
        return [_energy_check(traj), _pointwise_check(traj, triple)]

    if family == "rescaled":
        p = cfg.number("p", 3)
        t0, t_end, controls = _merge_controls(cfg, {
            "t0": 0.0, "t_end": 30.0,
            "method": "rk4", "steps": 30000, "record_every": 3,
        })
        traj = integrate(build_rescaled_gradient_flow(f, p), x0, t0, t_end, controls)
        emit.trajectory("trajectory", traj)
        checks = [_slope_check(traj, (1.0, t_end), -(p - 1) + SLOPE_SLACK)]
        checks.extend(_rescaled_monitor_checks(f, p, traj))
        return checks

    # massless: first-order limit of the vanishing-mass dynamics
    m = cfg.number("m", 0.01)
    mirror = cfg.mirror_map() or EuclideanMap()
    t0, t_end, controls = _merge_controls(cfg, {
        "t0": 0.0, "t_end": 2.0,
        "method": "rk4", "steps": 40000, "record_every": 20,
    })
    traj = integrate(build_el_system(mirror, f, massless_triple(m)), x0, t0, t_end, controls)
    emit.trajectory("trajectory", traj)
    limit = integrate(build_natural_gradient_flow(mirror, f), x0, t0, t_end,
                      {"method": "rk4",
                       "steps": max(int(controls.get("steps", 40000)) // 2, 1000),
                       "record_every": 10})
    emit.trajectory("limit_flow", limit)
    sup = limit_distance(traj, limit, np.linspace(t0, t_end, 101))
    finite = bool(np.all(np.isfinite(traj.states)))
    return [
        CheckResult(
            name="run_completed",
            status="pass" if finite else "fail",
            measured=float(traj.f_gap[-1]) if traj.f_gap is not None else None,
            bound=None,
            detail="all sampled states finite; measured is the final f-gap",
        ),
        CheckResult(
            name="limit_distance",
            status="pass" if math.isfinite(sup) else "fail",
            measured=sup,
            bound=None,
            detail=f"sup distance to the natural gradient flow at mass m={m:g} "
                   "(informational: shrinks with m)",
        ),
    ]


def _rescaled_monitor_checks(f, p: int, traj) -> list[CheckResult]:
    """The two descent monitors, where the problem declares f* and certifies
    the level-set radius R through x0, and where their largest terms fit a
    float: t^p (f(x0) - f*), which bounds t^p (f(X) - f*) along the
    descending flow, and the increment cap (p-1)^(p-1) R^p (t_end - t0)."""
    missing = None
    R = f.level_set_radius(traj.states[0][: traj.d])
    if f.min_value is None:
        missing = "problem declares no minimum value; monitors need f*"
    elif R is None:
        missing = "problem certifies no level-set radius at x0; monitors need R"
    else:
        t0, t_end = traj.times[0], traj.times[-1]
        ln = lambda v: math.log(max(v, 1.0))  # noqa: E731
        top = max(p * ln(t_end) + ln(traj.f_gap[0]),
                  (p - 1.0) * ln(p - 1.0) + p * ln(R) + ln(t_end - t0))
        if not top <= LOG_FLOAT_MAX:
            missing = f"the monitors' terms reach e^{top:.6g}, beyond the float range"
    if missing is not None:
        return [CheckResult(name=name, status="skip", detail=missing)
                for name in ("primary_monitor", "alternative_monitor")]
    margin, alt_margin = rescaled_monitor_margins(p, traj, R)
    return [
        CheckResult(
            name="primary_monitor",
            status="pass" if margin >= PRIMARY_MONITOR_FLOOR else "fail",
            measured=margin,
            bound=0.0,
            detail="inverse-gap growth vs its guaranteed linear rate "
                   "(worst margin over live samples)",
            extras={"level_radius": R},
        ),
        CheckResult(
            name="alternative_monitor",
            status="pass" if alt_margin >= 0.0 else "fail",
            measured=alt_margin,
            bound=0.0,
            detail="weighted-gap increments vs their per-step cap (worst margin)",
        ),
    ]


def _run_optimize(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    algorithm = cfg.variant()
    K = cfg.number("K", 500)

    if algorithm == "exponential":
        # diagnostic forward scheme: nothing is certified, so nothing is
        # checked — the record (progress ratios included) is the output
        mirror = cfg.mirror_map() or EuclideanMap()
        rec = exponential_discretization(
            f, mirror, cfg.number("c", 1.0), cfg.number("delta", 0.1), x0, K
        )
        emit.record("iterates", rec)
        return [CheckResult(
            name="certified_rate",
            status="skip",
            detail="the exponential-rate flow has no rate-certified forward "
                   f"discretization; run terminated {rec.termination['status']} "
                   f"at k={rec.termination['k']}",
            extras={"termination": dict(rec.termination),
                    "final_gap": float(rec.final_gap_x)},
        )]

    p = cfg.number("p", 2)
    epsilon = cfg.number("epsilon")
    if epsilon is None:
        epsilon = smoothness_epsilon(f, p)
    N = cfg.number("N", DEFAULT_N)

    if algorithm == "accelerated":
        acfg = AccelConfig(p=p, epsilon=epsilon, x0=x0, N=N, C=cfg.number("C"),
                           mirror=cfg.mirror_map())
        rec = accelerated(f, acfg, K)
    else:
        rec = higher_order_descent(f, StepConfig(p, epsilon, N), x0, K)
    emit.record("iterates", rec)
    checks = report_checks(rec.invariant_report())
    for check in checks:
        # these bounds rest on the level-set radius; say where it came from
        if check.name in ("gap_bound", "gap_recursion", "inverse_gap_increments"):
            check.extras["level_radius_source"] = rec.extras["level_radius_source"]
    return [_termination_check(rec), *checks]


def _run_compare(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    p = cfg.number("p", 2)
    delta = cfg.number("delta", 0.05)
    if f.min_value is None:
        raise InputError("compare needs a problem with a declared optimal value")
    try:
        epsilon = delta**p
    except OverflowError:
        raise InputError(f"epsilon = delta**p overflows at delta = {delta:g}, "
                         f"p = {p}") from None
    acfg = AccelConfig(p=p, epsilon=epsilon, x0=x0, N=cfg.number("N", DEFAULT_N),
                       C=cfg.number("C"))

    lo, hi = 1.0, 10.0  # the matched times t = delta k that are compared
    last = hi / delta  # finite: a delta that small makes epsilon 0, rejected above
    K = int(math.ceil(last)) + 1
    # t = delta k grows with k: the last sample at most hi is within one
    # step of floor(hi / delta)
    near = math.floor(last)
    if not any(lo <= delta * k <= hi
               for k in range(max(near - 1, 0), near + 2)):
        raise InputError(f"window [{lo:g}, {hi:g}] holds no sample time "
                         f"t = delta k at delta = {delta:g}")
    rec = accelerated(f, acfg, K)
    # the method's continuous-time limit: the flow on the method's own mirror
    flow = integrate(
        build_el_system(acfg.mirror, f, polynomial_triple(p, acfg.C)),
        x0, 0.1, hi + delta,
        {"method": "rk4_adaptive", "rel_tol": 1e-9, "abs_tol": 1e-12},
    )
    emit.record("iterates", rec)
    emit.trajectory("flow", flow)
    times, ratios, worst, holds = gap_ratios(f, rec, flow, delta, lo, hi)
    emit.plot("gap_ratio.dat", times, ratios, "t = delta k   method-gap / flow-gap")
    spread = (f"gap ratio in [{ratios.min():.3f}, {ratios.max():.3f}] at {len(ratios)} "
              "sample times" if len(ratios) else "no sample time with both gaps positive")
    return [CheckResult(
        name="within_factor",
        status="pass" if holds else "fail",
        measured=worst,
        bound=CORRESPONDENCE_FACTOR,
        detail=f"{spread}, t = delta k in [{lo:g}, {hi:g}], "
               f"shared force constant C = {acfg.C:g}",
    )]


def _run_dilation_check(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    p = cfg.number("p", 4)
    if p not in (3, 4):
        raise InputError("dilation_check relabels the order-2 flow; p must be 3 or 4")
    C = cfg.number("C", 1.0)
    [(direct, check_times, diff)] = dilation_mismatch(f, x0, (p,), C, DILATION_HORIZON,
                                                      DILATION_STEPS)
    sup = float(np.max(diff))
    emit.trajectory("direct", direct)
    emit.plot("mismatch.dat", check_times, np.max(diff, axis=1),
              "t   sup|X_dilated - X_direct|")
    defect = triple_grid_defect(p, C)
    return [
        CheckResult(
            name="trajectory_match",
            status="pass" if sup <= DILATION_SUP_TOL else "fail",
            measured=sup,
            bound=DILATION_SUP_TOL,
            detail=f"sup|X| mismatch, order 2 sped up to order {p}",
        ),
        CheckResult(
            name="triple_identity",
            status="pass" if defect <= TRIPLE_GRID_TOL else "fail",
            measured=defect,
            bound=TRIPLE_GRID_TOL,
            detail="relabeled scaling functions vs the direct triple on a 20-point grid",
        ),
    ]


def _run_restart(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    epochs = cfg.number("epochs", 3)
    epsilon = cfg.number("epsilon")
    if epsilon is None:
        if f.uniform_convexity is None:
            raise InputError(
                "restart needs epsilon, or a problem with declared uniform convexity"
            )
        epsilon = smoothness_epsilon(f, int(round(f.uniform_convexity[0])))
    rec = restart_accelerated(f, epsilon, x0, epochs)
    emit.record("anchors", rec)
    for idx, inner in enumerate(rec.inner):
        emit.record(f"epoch_{idx}", inner)
    return [_termination_check(rec), *report_checks(rec.invariant_report())]


def _run_naive_demo(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    p = cfg.number("p", 3)
    C = cfg.number("C", 0.25)
    epsilon = cfg.number("epsilon", 0.01)
    K = cfg.number("K", NAIVE_STEP_BUDGET)
    accel_K = cfg.number("accel_K", 2000)
    # the accelerated run goes first: its entry checks reject an x0 the
    # matched method cannot start from before either run writes a file
    matched = accelerated(
        f, AccelConfig(p=p, epsilon=epsilon, x0=x0), accel_K,
    )
    naive = naive_discretization(f, EuclideanMap(), p, C, epsilon, x0, K)
    emit.record("naive", naive)
    emit.record("accelerated", matched)
    diverged = naive.termination["status"] == "diverged"
    k = naive.termination["k"]  # None when the scheme ran all K steps

    # the report omits the bound when the problem declares no f* or the run
    # recorded no iteration k >= 1
    report = matched.invariant_report().get("rate_bound")
    bound_ok = report is not None and bool(report["ok"])
    return [
        CheckResult(
            name="naive_diverges",
            status="pass" if diverged else "fail",
            measured=None if k is None else float(k),
            bound=float(K),
            detail=f"naive scheme terminated {naive.termination['status']}"
                   + ("" if k is None else f" at k={k}"),
            extras={"diverged": diverged, "terminated_at": k},
        ),
        _termination_check(matched),
        CheckResult(
            name="accelerated_bound",
            status="pass" if bound_ok else "fail",
            measured=None if report is None else worst_bound_ratio(matched),
            bound=1.0,
            detail=f"rate-matching run, same epsilon={epsilon:g}, K={accel_K}",
            extras={"bound_ok": bound_ok},
        ),
    ]


_RUNNERS = {
    "flow": _run_flow,
    "optimize": _run_optimize,
    "compare": _run_compare,
    "dilation_check": _run_dilation_check,
    "restart": _run_restart,
    "naive_demo": _run_naive_demo,
}


def run_experiment(cfg: ExperimentConfig) -> ReportSummary:
    """Run one configured experiment; emit artifacts when cfg.out is set.

    The acceptance kind delegates to the suite (its per-check directories and
    summary layout are fixed); every other kind runs its dynamics, evaluates
    the checks those dynamics certify, and writes trajectory/iterate CSVs,
    log-log plot data, and summary.json under cfg.out.
    """
    if cfg.kind == "acceptance":
        from .acceptance import acceptance_suite  # which imports this module
        return acceptance_suite(scale=cfg.scale, out_dir=cfg.out, seed=cfg.seed)
    start = time.perf_counter()
    emit = ArtifactWriter(cfg.out)
    checks = _RUNNERS[cfg.kind](cfg, emit)
    summary = ReportSummary(
        kind=cfg.kind,
        seed=cfg.seed,
        checks=checks,
        scale=None,
        config=cfg.to_doc(),
        files=list(emit.files),
    )
    summary.total_runtime = time.perf_counter() - start
    if emit.root is not None:
        summary.write(emit.root / "summary.json")
        summary.files.append("summary.json")
    return summary
