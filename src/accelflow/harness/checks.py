"""The check library shared by the acceptance suite and the experiment kinds.

Both acceptance.py and experiments.py hold the same claims to the same
bounds, so everything they have in common lives here exactly once:

- every pinned tolerance,
- one artifact writer for trajectory/iterate CSVs and two-column plot data,
- one implementation of each measurement a verdict is built from (rate
  slopes, energy rises, certificate ratios, monitor margins, the dilation
  mismatch, method/flow gap ratios, limit distances),
- the adapter from an invariant report to CheckResults,
- the run parameters of the checks and kinds that stay apart.

Ten checks run the kind they mirror (see experiments.py); the others keep
their own run parameters, verdicts and detail strings.
"""

from __future__ import annotations

import math
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
    integrate_family,
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
DILATION_HORIZON = 10.0  # window end of the full-scale dilation runs
DILATION_STEPS = 20_000  # rk4 steps of the full-scale dilation runs
GAP_FLOOR = 1e-10  # rate fits exclude samples at the numerical floor
MONITOR_ABS_SLACK = 1e-6  # additive slack on the alternative-monitor increments
PRIMARY_MONITOR_FLOOR = -1e-12  # the primary-monitor margin may undershoot zero by this


# ---------------------------------------------------------------------------
# artifacts


class ArtifactWriter:
    """Writes CSVs and plot data under root, listing each file as prefix + name.

    runs keeps every run handed in by its label, also with root None, where
    nothing is written or listed. Writers may share one file list: the suite
    gives each check a directory and prefix; labels renames a kind's labels.
    """

    def __init__(self, root=None, prefix: str = "", files: list | None = None,
                 labels: dict | None = None):
        self.root = None if root is None else Path(root)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.files = [] if files is None else files
        self.labels = labels or {}
        self.runs = {}

    def plot(self, name: str, xs, ys, comment: str) -> None:
        if self.root is None:
            return
        write_plot_data(self.root / name, xs, ys, comment)
        self.files.append(self.prefix + name)

    def trajectory(self, label: str, traj) -> None:
        """Trajectory CSV plus, when a gap series exists, log-log plot data."""
        self.runs[label] = traj
        if self.root is None:
            return
        label = self.labels.get(label, label)
        traj.to_csv(self.root / f"{label}.csv")
        self.files.append(f"{self.prefix}{label}.csv")
        if traj.f_gap is not None:
            lx, ly = log_gap_columns(traj.times, traj.f_gap)
            self.plot(f"{label}_gap_loglog.dat", lx, ly, "log10 t   log10 f-gap")

    def record(self, label: str, rec) -> None:
        """Iterate CSV plus log-log gap-vs-iteration plot data."""
        self.runs[label] = rec
        if self.root is None:
            return
        label = self.labels.get(label, label)
        rec.to_csv(self.root / f"{label}.csv")
        self.files.append(f"{self.prefix}{label}.csv")
        lx, ly = log_gap_columns(np.asarray(rec.ks, dtype=np.float64), _gaps(rec))
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


def worst_gap_over_certificate(traj, triple) -> tuple[float, bool]:
    """The f-gap against its slackened energy certificate E_{t0} e^{-beta_t}.

    Returns the largest gap over certificate where the certificate is
    positive, floored at 0.0, and whether gap <= certificate holds at every
    sample; a zero gap under a zero certificate, a flow that starts at rest
    at the minimizer, holds.
    """
    beta = np.array([triple.beta(t) for t in traj.times])
    certificate = traj.energy[0] * np.exp(-beta) * (1.0 + POINTWISE_REL_SLACK)
    positive = certificate > 0.0
    worst = float(np.max(traj.f_gap[positive] / certificate[positive], initial=0.0))
    return worst, bool(np.all(traj.f_gap <= certificate))


def rescaled_monitor_margins(p: int, traj, R: float) -> tuple[float, float]:
    """(primary margin, alternative margin) of a rescaled gradient flow.

    The inverse-gap monitor gap^{-1/(p-1)} (+inf once the gap is
    nonpositive) must grow at least linearly with constant
    1/((p-1) R^{p/(p-1)}); its margin is the worst excess over live samples
    (finite monitor, gap above the floor), 0 when none is live, and holds when
    at least PRIMARY_MONITOR_FLOOR. The increments of the t^p-weighted gap
    must stay under (p-1)^{p-1} R^p dt + MONITOR_ABS_SLACK; that margin holds
    when nonnegative. R is the level-set radius through the initial state.
    The gaps are the ones the trajectory recorded, traj.f_gap.
    """
    monitors = np.array([
        (math.inf if gap <= 0.0 else gap ** (-1.0 / (p - 1.0)), t**p * gap)
        for t, gap in zip(traj.times.tolist(), traj.f_gap.tolist())
    ])
    primary, alternative = monitors[:, 0], monitors[:, 1]
    live = np.isfinite(primary) & (traj.f_gap > GAP_FLOOR)
    required = (traj.times - traj.times[0]) / ((p - 1.0) * R ** (p / (p - 1.0)))
    primary_margin = float(np.min(
        ((primary - primary[0]) - required * (1.0 - 1e-9))[live]
    )) if np.any(live) else 0.0
    cap = (p - 1.0) ** (p - 1) * R**p * np.diff(traj.times) + MONITOR_ABS_SLACK
    alternative_margin = float(np.min(cap - np.diff(alternative)))
    return primary_margin, alternative_margin


def dilation_mismatch(f, x0, orders, C: float, hi: float, steps: int) -> list:
    """For each p in orders, relabel the order-2 flow by tau(t) = t^{p/2} and
    compare it in X with the directly integrated order-p flow at 200 times
    over [0.5, hi].

    Every flow runs fixed-step rk4 with the given step count; the direct
    flows share a grid, so on a rowwise objective they run as one family.
    Returns, per order, the direct trajectory, the check times and
    |X_dilated - X_direct| per time and coordinate.
    """
    controls = {"method": "rk4", "steps": steps, "record_every": 2}
    order_2 = build_el_system(EuclideanMap(), f, polynomial_triple(2, C, t_min=0.05))
    sources = [integrate(order_2, x0, 0.5 ** (p / 2.0), hi ** (p / 2.0), controls)
               for p in orders]
    triples = [polynomial_triple(p, C) for p in orders]
    if f.rowwise:
        directs = integrate_family(build_el_system(EuclideanMap(), f, triples),
                                   x0, 0.5, hi, controls)
    else:
        directs = [integrate(build_el_system(EuclideanMap(), f, s), x0, 0.5, hi, controls)
                   for s in triples]
    check_times = np.linspace(0.5, hi, 200)
    out = []
    for p, source, direct in zip(orders, sources, directs):
        relabeled = dilate_trajectory(source, check_times, TimeDilation.power(p / 2.0))
        direct_x = np.array([direct.interp_state(t)[: direct.d] for t in check_times])
        out.append((direct, check_times, np.abs(relabeled.block("X") - direct_x)))
    return out


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
    """Method gap against flow gap at t = delta k, for lo <= t <= hi.

    The two are within CORRESPONDENCE_FACTOR when each gap is at most that
    many times the other, so a pair of zero gaps (a run from the minimizer)
    holds. Returns the times and ratios of the samples where both gaps are
    positive, the worst factor max(r, 1/r) over them (1.0 where there is
    none), and whether every sample holds.
    """
    times, gaps, flow_gaps = [], [], []
    for k, gap in zip(rec.ks, rec.f_gaps_x):
        t = delta * k
        if lo <= t <= hi:
            times.append(t)
            gaps.append(gap)
            flow_gaps.append(f.gap(flow.interp_state(t)[: flow.d]))
    times, gaps, flow_gaps = np.asarray(times), np.asarray(gaps), np.asarray(flow_gaps)
    factor = CORRESPONDENCE_FACTOR
    holds = bool(np.all((gaps <= factor * flow_gaps) & (flow_gaps <= factor * gaps)))
    positive = (gaps > 0.0) & (flow_gaps > 0.0)
    ratios = gaps[positive] / flow_gaps[positive]
    worst = float(np.max(np.maximum(ratios, 1.0 / ratios), initial=1.0))
    return times[positive], ratios, worst, holds


def _gaps(rec):
    """The gaps a record's bound certifies: f(y_k) - f* where it has y-gaps,
    f(x_k) - f* otherwise."""
    return rec.f_gaps_y if rec.f_gaps_y is not None else rec.f_gaps_x


def worst_bound_ratio(rec) -> float:
    """Largest gap over its certified bound, for k >= 1."""
    return float(np.max(_gaps(rec)[1:] / rec.bound_values[1:]))


def report_checks(report: dict) -> list[CheckResult]:
    """One CheckResult per invariant-report entry: the worst margin as
    measured; an entry without one names its failure count and first
    failing k in the detail. Every key but ok, checked and worst goes to
    extras."""
    out = []
    for name, entry in report.items():
        worst = entry.get("worst")
        detail = f"{entry.get('checked', 0)} inequalities checked; "
        if worst is not None:
            detail += "measured is the worst margin (nonnegative is satisfied)"
        elif "failures" in entry:
            first = entry["first_failure"]
            detail += f"{entry['failures']} failed" + (
                "" if first is None else f", the first at k = {first}")
        else:
            detail += "the entry has no margin"
        out.append(CheckResult(
            name=name,
            status="pass" if entry["ok"] else "fail",
            measured=None if worst is None else float(worst),
            bound=0.0 if worst is not None else None,
            detail=detail,
            extras={k: v for k, v in entry.items() if k not in ("ok", "checked", "worst")},
        ))
    return out
