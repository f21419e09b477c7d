"""Experiment orchestration: one validated config in, one checked summary out.

Every kind runs deterministically from its config (the seed is recorded even
where nothing draws random numbers), evaluates the checks that the chosen
dynamics certify, and — when an output directory is configured — emits the
trace CSV, log-log plot data, and a schema-valid summary.json. Tolerances,
the artifact writer and the measurements come from checks.py, the module the
acceptance suite uses too, so an experiment and the acceptance check it
mirrors can never drift apart.
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
from ..core import EuclideanMap, exponential_triple, polynomial_triple
from ..errors import InputError
from ..flows import (
    build_el_system,
    build_massless_system,
    build_natural_gradient_flow,
    build_rescaled_gradient_flow,
    integrate,
)
from ..taylorstep import StepConfig, smoothness_epsilon
from .acceptance import acceptance_suite
from .checks import (
    CORRESPONDENCE_FACTOR,
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


def _merge_controls(cfg: ExperimentConfig, defaults: dict) -> tuple[float, float, dict]:
    """Split (t0, t_end) from the integrator controls, config over defaults."""
    merged = {**defaults, **cfg.integration}
    t0 = float(merged.pop("t0"))
    t_end = float(merged.pop("t_end"))
    if not t_end > t0:
        raise InputError(f"integration needs t_end > t0, got [{t0}, {t_end}]")
    return t0, t_end, merged


def _default_window(t0: float, t_end: float) -> tuple[float, float]:
    """Rate fits skip the initial transient: one decade above the start time."""
    lo = 10.0 * t0 if t0 > 0 else 1.0
    if not lo < t_end:
        raise InputError(
            f"no fit window left after the transient: [{lo}, {t_end}]; "
            "give an explicit window"
        )
    return lo, t_end


def _slope_check(traj, window, limit) -> CheckResult:
    slope = masked_slope(traj, window)
    return CheckResult(
        name="rate_slope",
        status="pass" if slope <= limit else "fail",
        measured=slope,
        bound=limit,
        detail=f"log-log fit over t in [{window[0]:g}, {window[1]:g}]",
    )


def _energy_check(traj) -> CheckResult:
    rise = max_relative_energy_rise(traj)
    return CheckResult(
        name="energy_monotone",
        status="pass" if rise <= ENERGY_REL_SLACK else "fail",
        measured=rise,
        bound=ENERGY_REL_SLACK,
        detail="largest relative energy increase between samples",
    )


def _pointwise_check(traj, triple) -> CheckResult:
    worst = worst_gap_over_certificate(traj, triple)
    return CheckResult(
        name="pointwise_certificate",
        status="pass" if worst <= 1.0 else "fail",
        measured=worst,
        bound=1.0,
        detail="f-gap against its energy certificate at every sample",
    )


# ---------------------------------------------------------------------------
# per-kind runners


def _run_flow(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    family = cfg.method.get("family", "polynomial")

    if family == "polynomial":
        p = int(cfg.method.get("p", 2))
        C = float(cfg.method.get("C", 1.0))
        mirror = cfg.mirror_map() or EuclideanMap()
        triple = polynomial_triple(p, C)
        t0, t_end, controls = _merge_controls(cfg, {
            "t0": 0.1, "t_end": 50.0,
            "method": "rk4_adaptive", "rel_tol": 1e-8, "abs_tol": 1e-11,
        })
        traj = integrate(build_el_system(mirror, f, triple), x0, t0, t_end, controls)
        emit.trajectory("trajectory", traj)
        window = tuple(cfg.window) if cfg.window else _default_window(t0, t_end)
        return [
            _slope_check(traj, window, -p + SLOPE_SLACK),
            _energy_check(traj),
            _pointwise_check(traj, triple),
        ]

    if family == "exponential":
        c = float(cfg.method.get("c", 1.0))
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
        p = int(cfg.method.get("p", 3))
        t0, t_end, controls = _merge_controls(cfg, {
            "t0": 0.0, "t_end": 30.0,
            "method": "rk4", "steps": 30000, "record_every": 3,
        })
        traj = integrate(build_rescaled_gradient_flow(f, p), x0, t0, t_end, controls)
        emit.trajectory("trajectory", traj)
        window = tuple(cfg.window) if cfg.window else (1.0, t_end)
        checks = [_slope_check(traj, window, -(p - 1) + SLOPE_SLACK)]
        checks.extend(_rescaled_monitor_checks(f, p, traj))
        return checks

    # massless: first-order limit of the vanishing-mass dynamics
    m = float(cfg.method.get("m", 0.01))
    mirror = cfg.mirror_map() or EuclideanMap()
    t0, t_end, controls = _merge_controls(cfg, {
        "t0": 0.0, "t_end": 2.0,
        "method": "rk4", "steps": 40000, "record_every": 20,
    })
    traj = integrate(build_massless_system(mirror, f, m), x0, t0, t_end, controls)
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
    """The two descent monitors, where the problem declares a minimizer."""
    if f.minimizer is None:
        skip = CheckResult(
            name="primary_monitor", status="skip",
            detail="problem declares no minimizer; monitors need x*",
        )
        return [skip, CheckResult(name="alternative_monitor", status="skip",
                                  detail=skip.detail)]
    _, margin, alt_margin = rescaled_monitor_margins(f, p, traj)
    return [
        CheckResult(
            name="primary_monitor",
            status="pass" if margin >= PRIMARY_MONITOR_FLOOR else "fail",
            measured=margin,
            bound=0.0,
            detail="inverse-gap growth vs its guaranteed linear rate "
                   "(worst margin over live samples)",
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
    algorithm = cfg.method.get("algorithm", "accelerated")
    K = int(cfg.method.get("K", 500))

    if algorithm == "exponential":
        # diagnostic forward scheme: nothing is certified, so nothing is
        # checked — the record (progress ratios included) is the output
        mirror = cfg.mirror_map() or EuclideanMap()
        rec = exponential_discretization(
            f, mirror,
            float(cfg.method.get("c", 1.0)), float(cfg.method.get("delta", 0.1)),
            x0, K,
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

    p = int(cfg.method.get("p", 2))
    epsilon = cfg.method.get("epsilon")
    epsilon = smoothness_epsilon(f, p) if epsilon is None else float(epsilon)

    if algorithm == "accelerated":
        kwargs = {}
        if "N" in cfg.method:
            kwargs["N"] = float(cfg.method["N"])
        if "C" in cfg.method:
            kwargs["C"] = float(cfg.method["C"])
        mirror = cfg.mirror_map()
        if mirror is not None:
            kwargs["mirror"] = mirror
        rec = accelerated(f, AccelConfig(p=p, epsilon=epsilon, x0=x0, **kwargs), K)
    else:
        if "C" in cfg.method or cfg.method.get("mirror") is not None:
            raise InputError("descent takes no C or mirror parameters")
        rec = higher_order_descent(
            f, StepConfig(p, epsilon, float(cfg.method.get("N", 2.0))), x0, K
        )
    emit.record("iterates", rec)
    return report_checks(rec.invariant_report())


def _run_compare(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    p = int(cfg.method.get("p", 2))
    delta = float(cfg.method.get("delta", 0.05))
    factor = float(cfg.method.get("factor", CORRESPONDENCE_FACTOR))
    if f.min_value is None:
        raise InputError("compare needs a problem with a declared optimal value")
    kwargs = {"N": float(cfg.method["N"])} if "N" in cfg.method else {}
    if "C" in cfg.method:
        kwargs["C"] = float(cfg.method["C"])
    acfg = AccelConfig(p=p, epsilon=delta**p, x0=x0, **kwargs)

    lo, hi = tuple(cfg.window) if cfg.window else (1.0, 10.0)
    K = int(math.ceil(hi / delta)) + 1
    rec = accelerated(f, acfg, K)
    flow = integrate(
        build_el_system(EuclideanMap(), f, polynomial_triple(p, acfg.C)),
        x0, min(0.1, lo), hi + delta,
        {"method": "rk4_adaptive", "rel_tol": 1e-9, "abs_tol": 1e-12},
    )
    emit.record("iterates", rec)
    emit.trajectory("flow", flow)
    times, ratios, worst = gap_ratios(f, rec, flow, delta, lo, hi)
    emit.plot("gap_ratio.dat", times, ratios, "t = delta k   method-gap / flow-gap")
    return [CheckResult(
        name="within_factor",
        status="pass" if worst <= factor else "fail",
        measured=worst,
        bound=factor,
        detail=f"gap ratio across t = delta k in [{lo:g}, {hi:g}], "
               f"shared force constant C = {acfg.C:g}",
    )]


def _run_dilation_check(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    p = int(cfg.method.get("p", 4))
    if p not in (3, 4):
        raise InputError("dilation_check relabels the order-2 flow; p must be 3 or 4")
    C = float(cfg.method.get("C", 1.0))
    direct, check_times, diff = dilation_mismatch(f, x0, p, C, 10.0, 20000)
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
    epochs = int(cfg.method.get("epochs", 3))
    epsilon = cfg.method.get("epsilon")
    if epsilon is None:
        if f.uniform_convexity is None:
            raise InputError(
                "restart needs epsilon, or a problem with declared uniform convexity"
            )
        epsilon = smoothness_epsilon(f, int(round(f.uniform_convexity[0])))
    rec = restart_accelerated(f, float(epsilon), x0, epochs)
    emit.record("anchors", rec)
    for idx, inner in enumerate(rec.inner):
        emit.record(f"epoch_{idx}", inner)
    return report_checks(rec.invariant_report())


def _run_naive_demo(cfg: ExperimentConfig, emit: ArtifactWriter) -> list[CheckResult]:
    f = cfg.problem_oracle()
    x0 = cfg.resolved_x0()
    p = int(cfg.method.get("p", 3))
    C = float(cfg.method.get("C", 0.25))
    epsilon = float(cfg.method.get("epsilon", 0.01))
    K = int(cfg.method.get("K", 100000))
    naive = naive_discretization(f, EuclideanMap(), p, C, epsilon, x0, K)
    emit.record("naive", naive)
    diverged = naive.termination["status"] == "diverged"

    accel_K = int(cfg.method.get("accel_K", 2000))
    kwargs = {"N": float(cfg.method["accel_N"])} if "accel_N" in cfg.method else {}
    matched = accelerated(f, AccelConfig(p=p, epsilon=epsilon, x0=x0, **kwargs), accel_K)
    emit.record("accelerated", matched)
    bound_ok = bool(matched.invariant_report()["rate_bound"]["ok"])
    return [
        CheckResult(
            name="naive_diverges",
            status="pass" if diverged else "fail",
            measured=float(naive.termination["k"]),
            bound=float(K),
            detail=f"naive scheme terminated {naive.termination['status']} "
                   f"at k={naive.termination['k']}",
            extras={"diverged": diverged,
                    "terminated_at": int(naive.termination["k"])},
        ),
        CheckResult(
            name="accelerated_bound",
            status="pass" if bound_ok else "fail",
            measured=worst_bound_ratio(matched),
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
