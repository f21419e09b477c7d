"""The check library shared by the acceptance suite and the experiment kinds.

Both acceptance.py and experiments.py hold the same claims to the same
bounds, so everything they have in common lives here exactly once:

- every pinned tolerance,
- one artifact writer for trajectory/iterate CSVs and two-column plot data,
- one implementation of each measurement a verdict is built from (rate
  slopes, energy rises, certificate ratios, monitor margins, the dilation
  mismatch, method/flow gap ratios, limit distances),
- the adapter from an invariant report to CheckResults.

The callers keep their own run parameters, verdicts and detail strings.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core import EuclideanMap, polynomial_triple
from ..flows import (
    TimeDilation,
    build_el_system,
    dilate_trajectory,
    dilate_triple,
    fit_rate,
    integrate,
    rescaled_flow_energy,
)
from .reporting import CheckResult, log_gap_columns, write_plot_data

# ---------------------------------------------------------------------------
# pinned tolerances

SLOPE_SLACK = 0.3  # fitted log-log slope may sit this far above the ideal
UNIT_FORCE_SLOPE_SLACK = 0.2  # tighter pin for the classical damped oscillator
ENERGY_REL_SLACK = 1e-6  # sampled energies may tick up by this relative amount
POINTWISE_REL_SLACK = 1e-6  # f-gap vs its certificate, relative
DILATION_SUP_TOL = 1e-3  # relabeled vs directly integrated X
TRIPLE_GRID_TOL = 1e-12  # symbolic triple identity on a grid
DUAL_NORM_TOL = 1e-8  # absolute bound on ||grad psi_k(z_k)||
HAMILTONIAN_SUP_TOL = 1e-4
NATURAL_MOTION_SUP_TOL = 1e-6
RESCALED_EXACT_SUP_TOL = 1e-5
UC_FLOW_REL_SLACK = 1e-4
CORRESPONDENCE_FACTOR = 10.0
NAIVE_STEP_BUDGET = 100_000
GAP_FLOOR = 1e-10  # rate fits exclude samples at the numerical floor
MONITOR_ABS_SLACK = 1e-6  # additive slack on the alternative-monitor increments
PRIMARY_MONITOR_FLOOR = -1e-12  # the primary-monitor margin may undershoot zero by this


# ---------------------------------------------------------------------------
# artifacts


class ArtifactWriter:
    """Writes CSVs and plot data under root, listing each file as prefix + name.

    With root None nothing is written or listed. Writers may share one file
    list: the suite gives each check its own directory and prefix.
    """

    def __init__(self, root=None, prefix: str = "", files: list | None = None):
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.files = [] if files is None else files

    def plot(self, name: str, xs, ys, comment: str) -> None:
        if self.root is None:
            return
        write_plot_data(self.root / name, xs, ys, comment)
        self.files.append(self.prefix + name)

    def trajectory(self, label: str, traj) -> None:
        """Trajectory CSV plus, when a gap series exists, log-log plot data."""
        if self.root is None:
            return
        traj.to_csv(self.root / f"{label}.csv")
        self.files.append(f"{self.prefix}{label}.csv")
        if traj.f_gap is not None:
            lx, ly = log_gap_columns(traj.times, traj.f_gap)
            self.plot(f"{label}_gap_loglog.dat", lx, ly, "log10 t   log10 f-gap")

    def record(self, label: str, rec) -> None:
        """Iterate CSV plus log-log gap-vs-iteration plot data."""
        if self.root is None:
            return
        rec.to_csv(self.root / f"{label}.csv")
        self.files.append(f"{self.prefix}{label}.csv")
        gaps = rec.f_gaps_y if rec.f_gaps_y is not None else rec.f_gaps_x
        lx, ly = log_gap_columns(np.asarray(rec.ks, dtype=np.float64), gaps)
        self.plot(f"{label}_gap_loglog.dat", lx, ly, "log10 k   log10 f-gap")


# ---------------------------------------------------------------------------
# flow measurements


def masked_slope(traj, window) -> float:
    """Log-log rate fit over window, excluding samples at the numerical gap floor."""
    gaps = np.where(traj.f_gap < GAP_FLOOR, 0.0, traj.f_gap)
    return fit_rate(traj.times, gaps, window)


def max_relative_energy_rise(traj) -> float:
    """Largest relative energy increase between consecutive samples."""
    e = traj.energy
    return float(np.max(np.diff(e) / np.maximum(e[:-1], 1e-300)))


def worst_gap_over_certificate(traj, triple) -> float:
    """Largest f-gap over its slackened energy certificate E_{t0} e^{-beta_t}."""
    beta = np.array([triple.beta(t) for t in traj.times])
    certificate = traj.energy[0] * np.exp(-beta)
    return float(np.max(traj.f_gap / (certificate * (1.0 + POINTWISE_REL_SLACK))))


def rescaled_monitor_margins(f, p: int, traj) -> tuple[float, float, float]:
    """(R, primary margin, alternative margin) of a rescaled gradient flow.

    The inverse-gap monitor must grow at least linearly with constant
    1/((p-1) R^{p/(p-1)}); its margin is the worst excess over live samples
    (finite monitor, gap above the floor), 0 when none is live, and holds when
    at least PRIMARY_MONITOR_FLOOR. The t^p-weighted gap's increments must
    stay under (p-1)^{p-1} R^p dt + MONITOR_ABS_SLACK; that margin holds when
    nonnegative. R is the level-set radius through the initial state. Needs
    the problem's minimizer.
    """
    R = f.level_set_radius(traj.states[0][: traj.d])
    monitors = np.array([
        rescaled_flow_energy(f, p, t, state[: traj.d], f.minimizer)
        for t, state in zip(traj.times, traj.states)
    ])
    primary, alternative = monitors[:, 0], monitors[:, 1]
    live = np.isfinite(primary) & (traj.f_gap > GAP_FLOOR)
    required = (traj.times - traj.times[0]) / ((p - 1.0) * R ** (p / (p - 1.0)))
    primary_margin = float(np.min(
        ((primary - primary[0]) - required * (1.0 - 1e-9))[live]
    )) if np.any(live) else 0.0
    cap = (p - 1.0) ** (p - 1) * R**p * np.diff(traj.times) + MONITOR_ABS_SLACK
    alternative_margin = float(np.min(cap - np.diff(alternative)))
    return R, primary_margin, alternative_margin


def dilation_mismatch(f, x0, p: int, C: float, hi: float, steps: int):
    """Relabel the order-2 flow by tau(t) = t^{p/2} and compare it in X with
    the directly integrated order-p flow at 200 times over [0.5, hi].

    Both flows run fixed-step rk4 with the given step count. Returns the
    direct trajectory, the check times and |X_dilated - X_direct| per time
    and coordinate.
    """
    a = p / 2.0
    controls = {"method": "rk4", "steps": steps, "record_every": 2}
    source = integrate(
        build_el_system(EuclideanMap(), f, polynomial_triple(2, C, t_min=0.05)),
        x0, 0.5**a, hi**a, controls,
    )
    direct = integrate(
        build_el_system(EuclideanMap(), f, polynomial_triple(p, C)),
        x0, 0.5, hi, controls,
    )
    check_times = np.linspace(0.5, hi, 200)
    relabeled = dilate_trajectory(source, check_times, TimeDilation.power(a))
    direct_x = np.array([direct.interp_state(t)[: direct.d] for t in check_times])
    return direct, check_times, np.abs(relabeled.block("X") - direct_x)


def triple_grid_defect(p: int, C: float) -> float:
    """Largest defect between the relabeled order-2 triple and the order-p
    triple, over all six scaling functions on a 20-point grid in [0.5, 10]."""
    relabeled = dilate_triple(polynomial_triple(2, C, t_min=0.05),
                              TimeDilation.power(p / 2.0))
    target = polynomial_triple(p, C)
    defect = 0.0
    for t in np.linspace(0.5, 10.0, 20):
        for fn in ("alpha", "beta", "gamma", "alpha_dot", "beta_dot", "gamma_dot"):
            defect = max(defect, abs(getattr(relabeled, fn)(t) - getattr(target, fn)(t)))
    return defect


def limit_distance(traj, limit, check_times) -> float:
    """Sup over check_times of ||X(t) - X_limit(t)|| for a first-order limit flow."""
    states = np.array([traj.interp_state(t)[: traj.d] for t in check_times])
    limit_states = np.array([limit.interp_state(t) for t in check_times])
    return float(np.max(np.linalg.norm(states - limit_states, axis=1)))


# ---------------------------------------------------------------------------
# discrete-method measurements


def gap_ratios(f, rec, flow, delta: float, lo: float, hi: float):
    """Method gap over flow gap at t = delta k, for lo <= t <= hi.

    Returns the times, the ratios and the worst factor max(r, 1/r).
    """
    times, ratios = [], []
    for k, gap in zip(rec.ks, rec.f_gaps_x):
        t = delta * k
        if lo <= t <= hi:
            flow_gap = f.value(flow.interp_state(t)[: flow.d]) - f.min_value
            times.append(t)
            ratios.append(gap / flow_gap)
    ratios = np.asarray(ratios)
    worst = float(np.max(np.maximum(ratios, 1.0 / ratios)))
    return np.asarray(times), ratios, worst


def worst_bound_ratio(rec) -> float:
    """Largest f(y_k) - f* over its certified bound, for k >= 1."""
    return float(np.max(rec.f_gaps_y[1:] / rec.bound_values[1:]))


def report_checks(report: dict) -> list[CheckResult]:
    """One CheckResult per invariant-report entry (worst margin as measured)."""
    out = []
    for name, entry in report.items():
        worst = entry.get("worst")
        out.append(CheckResult(
            name=name,
            status="pass" if entry["ok"] else "fail",
            measured=None if worst is None else float(worst),
            bound=0.0 if worst is not None else None,
            detail=f"{entry.get('checked', 0)} inequalities checked; "
                   "measured is the worst margin (nonnegative is satisfied)",
        ))
    return out
