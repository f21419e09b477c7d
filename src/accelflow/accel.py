"""Discrete-time higher-order methods with per-iteration certificates.

Two families built out of the regularized Taylor step G (see taylorstep):

* the plain method x_{k+1} = G(x_k), which descends monotonically and
  converges at O(1/k^{p-1});
* the accelerated method, which couples an averaging sequence x_k, the step
  outputs y_k = G(x_k), and a mirror-space gradient accumulator z_k to reach
  O(1/k^p) — certified every iteration through an explicit estimate
  sequence psi_k.

Alongside them: a naive discretization of the corresponding continuous-time
flow (which loses stability — kept as a recorded failure mode, divergence is
reported rather than raised), an exponential-weight variant (diagnostic
only; the two share one loop), and a restart scheme that turns the
accelerated method into a linearly convergent one on uniformly convex
objectives.

Every run returns a RunRecord holding the iterates, raw objective values,
step certificates, estimate-sequence values, and the theoretical rate bound
evaluated at each iteration, plus a termination status. Records export to
CSV (stable columns, repr floats) and to a JSON-able summary with one
pass/fail entry per invariant the algorithm guarantees.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core.mirrors import EuclideanMap, MirrorMap, ScaledPthPowerMap
from .core.numerics import rising_factorial
from .core.oracles import ObjectiveOracle
from .core.points import Point, as_point
from .errors import CapabilityError, InputError, SolverError
from .flows.integrate import DIVERGENCE_THRESHOLD
from .taylorstep import (
    StepCertificate,
    StepConfig,
    g_step,
    progress_coefficient,
)

# slack for the plain method's monotone-descent guarantee
DESCENT_TOL = 1e-10
# slack for the estimate-sequence lower bound psi_k(z_k) >= C k^{(p)} f(y_k)
ESTIMATE_TOL = 1e-9
# slack for the per-step gap recursion of the plain method
GAP_RECURSION_TOL = 1e-9
# relative slack for rate bounds (theory says <=; rounding needs a margin)
BOUND_RTOL = 1e-9
# ||grad psi_k(z_k)|| must vanish relative to the dual-variable scale
DUAL_OPT_TOL = 1e-8

CSV_COLUMNS = (
    "k",
    "f_gap_x",
    "f_gap_y",
    "bound",
    "psi_zk",
    "Ckp_fyk",
    "progress",
    "progress_lower",
    "move_norm",
)


def _blown(v: np.ndarray) -> bool:
    v = np.asarray(v)
    return not np.all(np.isfinite(v)) or float(np.linalg.norm(v)) > DIVERGENCE_THRESHOLD


@dataclass
class RunRecord:
    """Everything a discrete-time run produced, aligned by iteration index.

    Arrays are truncated to the longest prefix of complete iterations: on
    divergence or a solver failure at iteration k, rows 0..k-1 remain and
    termination records where and why the run stopped. Optional fields are
    None for algorithms that do not produce them (e.g. only the accelerated
    method has an estimate sequence). For restart runs, rows are epoch
    anchors rather than single iterations and ``bound_values`` tracks the
    certified contraction envelope of ||anchor - x*||^p.
    """

    algorithm: str
    config: dict
    ks: np.ndarray
    xs: np.ndarray
    f_xs: np.ndarray
    f_star: float | None
    termination: dict
    ys: np.ndarray | None = None
    zs: np.ndarray | None = None
    f_ys: np.ndarray | None = None
    grad_ys: np.ndarray | None = None
    certificates: list[StepCertificate] | None = None
    psi_values: np.ndarray | None = None
    psi_grad_norms: np.ndarray | None = None
    psi_grad_scales: np.ndarray | None = None
    psi_at_minimizer: np.ndarray | None = None
    psi_upper_envelope: np.ndarray | None = None
    ckp_fy: np.ndarray | None = None
    bound_values: np.ndarray | None = None
    extras: dict = field(default_factory=dict)
    inner: list["RunRecord"] | None = None

    @property
    def f_gaps_x(self) -> np.ndarray:
        if self.f_star is None:
            return np.full(len(self.f_xs), np.nan)
        return self.f_xs - self.f_star

    @property
    def f_gaps_y(self) -> np.ndarray | None:
        if self.f_ys is None:
            return None
        if self.f_star is None:
            return np.full(len(self.f_ys), np.nan)
        return self.f_ys - self.f_star

    @property
    def final_gap_x(self) -> float:
        return float(self.f_gaps_x[-1])

    @property
    def final_gap_y(self) -> float | None:
        gaps = self.f_gaps_y
        return None if gaps is None or len(gaps) == 0 else float(gaps[-1])

    def _cell(self, column: str, i: int) -> str:
        """One CSV cell; '' when the quantity does not exist at this row."""

        def num(arr, j=i):
            if arr is None or j >= len(arr) or j < 0:
                return ""
            v = float(arr[j])
            return "" if math.isnan(v) else repr(v)

        if column == "k":
            return str(int(self.ks[i]))
        if column == "f_gap_x":
            return num(self.f_gaps_x)
        if column == "f_gap_y":
            return num(self.f_gaps_y)
        if column == "bound":
            return num(self.bound_values)
        if column == "psi_zk":
            return num(self.psi_values)
        if column == "Ckp_fyk":
            return num(self.ckp_fy)
        cert = (
            self.certificates[i]
            if self.certificates is not None and i < len(self.certificates)
            else None
        )
        if cert is None:
            return ""
        value = {
            "progress": cert.progress,
            "progress_lower": cert.progress_lower,
            "move_norm": cert.move_norm,
        }[column]
        v = float(value)
        return "" if math.isnan(v) else repr(v)

    def to_csv(self, path) -> None:
        """Write one row per recorded iteration under a fixed header.

        Floats are written with repr (shortest round-trip form), so equal
        runs produce byte-identical files; absent quantities are empty cells.
        """
        with open(path, "w", encoding="utf-8") as out:
            out.write(",".join(CSV_COLUMNS) + "\n")
            for i in range(len(self.ks)):
                out.write(",".join(self._cell(c, i) for c in CSV_COLUMNS) + "\n")

    def invariant_report(self) -> dict:
        """Check every inequality this algorithm guarantees, nothing raised.

        Returns {name: {"ok": bool, "checked": int, "worst": float}} where
        ``worst`` is the smallest margin seen (negative = violation beyond
        the pinned tolerance). Checks whose inputs are unavailable (unknown
        minimizer, no certificates) are omitted rather than guessed.
        """
        if self.algorithm == "higher_order_descent":
            return _descent_report(self)
        if self.algorithm == "accelerated":
            return _accelerated_report(self)
        if self.algorithm == "restart_accelerated":
            return _restart_report(self)
        # naive/exponential discretizations promise nothing
        return {}

    def summary(self) -> dict:
        """JSON-able digest: config, termination, final gaps, invariants."""
        # a module-level import would be circular: harness imports this module
        from .harness.reporting import jsonable

        report = self.invariant_report()
        return jsonable(
            {
                "algorithm": self.algorithm,
                "config": self.config,
                "termination": self.termination,
                "iterations": int(self.ks[-1]) if len(self.ks) else None,
                "f_star_known": self.f_star is not None,
                "final_gap_x": self.final_gap_x if self.f_star is not None else None,
                "final_gap_y": self.final_gap_y,
                "invariants": report,
                "all_invariants_ok": all(c["ok"] for c in report.values()),
                "extras": self.extras,
            }
        )


def _margin_check(margins) -> dict:
    margins = np.asarray(margins, dtype=np.float64)
    if margins.size == 0:
        return {"ok": True, "checked": 0, "worst": None}
    worst = float(np.min(margins))
    return {"ok": bool(worst >= 0.0), "checked": int(margins.size), "worst": worst}


def _certificate_check(certs) -> dict:
    bad = sum(0 if c.ok else 1 for c in certs)
    return {"ok": bad == 0, "checked": len(certs), "worst": None, "failures": bad}


def _descent_report(rec: RunRecord) -> dict:
    checks = {}
    checks["monotone_descent"] = _margin_check(
        rec.f_xs[:-1] - rec.f_xs[1:] + DESCENT_TOL
    )
    if rec.certificates:
        checks["step_certificates"] = _certificate_check(rec.certificates)
    gaps = rec.f_gaps_x
    if rec.f_star is not None and rec.bound_values is not None:
        mask = np.isfinite(rec.bound_values)
        if np.any(mask):
            checks["gap_bound"] = _margin_check(
                rec.bound_values[mask] * (1.0 + BOUND_RTOL) - gaps[mask]
            )
    R = rec.extras.get("level_radius")
    if rec.f_star is not None and R is not None and len(gaps) > 1:
        p = rec.config["p"]
        eps = rec.config["epsilon"]
        N = rec.config["N"]
        denom = (N + 1.0) * R**p
        prev, nxt = gaps[:-1], gaps[1:]
        ok_prev = prev > 0
        drop = np.zeros_like(prev)
        drop[ok_prev] = ((p - 1.0) / p) * (eps * prev[ok_prev] ** p / denom) ** (
            1.0 / (p - 1.0)
        )
        checks["gap_recursion"] = _margin_check(
            (prev - drop + GAP_RECURSION_TOL - nxt)[ok_prev]
        )
        live, incs, inc_min = _inverse_gap_increments(gaps, rec.f_star, p, eps, N, R)
        if np.any(live):
            checks["inverse_gap_increments"] = _margin_check(
                incs - inc_min * (1.0 - BOUND_RTOL)
            )
    return checks


def _inverse_gap_increments(gaps, f_star, p, eps, N, R):
    """Increments of e_k = gap_k^{-1/(p-1)} and the floor they must clear.

    The plain method gains at least (1/p)(eps/((N+1)R^p))^{1/(p-1)} per
    step. Pairs where either gap is below 1e-12 (1 + |f*|) are skipped: the
    difference no longer carries precision there. Returns the live mask
    over consecutive pairs, the live increments and the required increment.
    """
    inc_min = (1.0 / p) * (eps / ((N + 1.0) * R**p)) ** (1.0 / (p - 1.0))
    floor = 1e-12 * (1.0 + abs(f_star))
    prev, nxt = gaps[:-1], gaps[1:]
    live = (prev > floor) & (nxt > floor)
    incs = nxt[live] ** (-1.0 / (p - 1.0)) - prev[live] ** (-1.0 / (p - 1.0))
    return live, incs, inc_min


def _accelerated_report(rec: RunRecord) -> dict:
    checks = {}
    if rec.certificates:
        checks["step_certificates"] = _certificate_check(rec.certificates)
    if rec.psi_values is not None and rec.ckp_fy is not None:
        checks["estimate_lower"] = _margin_check(
            rec.psi_values - rec.ckp_fy + ESTIMATE_TOL
        )
    if rec.psi_at_minimizer is not None and rec.psi_upper_envelope is not None:
        scale = 1.0 + np.abs(rec.psi_upper_envelope)
        checks["estimate_upper"] = _margin_check(
            rec.psi_upper_envelope - rec.psi_at_minimizer + ESTIMATE_TOL * scale
        )
    if rec.psi_grad_norms is not None and rec.psi_grad_scales is not None:
        checks["dual_optimality"] = _margin_check(
            DUAL_OPT_TOL * (1.0 + rec.psi_grad_scales) - rec.psi_grad_norms
        )
    gaps = rec.f_gaps_y
    if rec.f_star is not None and rec.bound_values is not None and gaps is not None:
        mask = np.isfinite(rec.bound_values)
        if np.any(mask):
            checks["rate_bound"] = _margin_check(
                rec.bound_values[mask] * (1.0 + BOUND_RTOL) - gaps[mask]
            )
    return checks


def _restart_report(rec: RunRecord) -> dict:
    checks = {}
    dist_p = rec.extras.get("distance_powers")
    if dist_p is not None:
        dist_p = np.asarray(dist_p, dtype=np.float64)
        if len(dist_p) > 1:
            checks["epoch_contraction"] = _margin_check(
                math.exp(-1.0) * dist_p[:-1] * (1.0 + BOUND_RTOL) - dist_p[1:]
            )
        if rec.bound_values is not None:
            checks["anchor_envelope"] = _margin_check(
                rec.bound_values * (1.0 + BOUND_RTOL) - dist_p
            )
    final_gap = rec.extras.get("final_gap")
    final_bound = rec.extras.get("final_bound")
    if final_gap is not None and final_bound is not None:
        checks["final_bound"] = _margin_check(
            [final_bound * (1.0 + BOUND_RTOL) - final_gap]
        )
    if rec.inner:
        done = sum(
            1 for r in rec.inner if r.termination["status"] == "completed"
        )
        checks["inner_epochs_completed"] = {
            "ok": done == len(rec.inner),
            "checked": len(rec.inner),
            "worst": None,
        }
    return checks


@dataclass
class AccelConfig:
    """Parameters of the accelerated method.

    C defaults to the largest value the rate statement admits,
    M^{p-1} / p^p with M the step progress coefficient; any smaller positive
    value is accepted, larger ones are rejected. The mirror map must be
    1-uniformly convex of the same order p (the scaled p-th power map d_p is
    the canonical choice and the default for p > 2).
    """

    p: int
    epsilon: float
    x0: Point
    N: float = 2.0
    C: float | None = None
    mirror: MirrorMap | None = None
    max_iters: int = 1_000_000

    def __post_init__(self):
        if self.p not in (2, 3, 4):
            raise InputError(f"accelerated method supports p in {{2, 3, 4}}, got {self.p}")
        self.p = int(self.p)
        if self.epsilon <= 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        if self.N <= 1:
            raise InputError(
                f"acceleration needs N > 1 (progress coefficient vanishes), got {self.N}"
            )
        self.x0 = as_point(self.x0)
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")
        boundary = self.admissible_C_bound()
        if self.C is None:
            self.C = boundary
        elif self.C <= 0:
            raise InputError(f"C must be positive, got {self.C}")
        elif self.C > boundary * (1.0 + 1e-12):
            raise InputError(
                f"C={self.C:g} exceeds the admissible bound "
                f"M^(p-1)/p^p = {boundary:g} for p={self.p}, N={self.N:g}"
            )
        if self.mirror is None:
            self.mirror = (
                EuclideanMap() if self.p == 2 else ScaledPthPowerMap(self.p, anchor=self.x0)
            )
        uc = self.mirror.uniform_convexity
        if uc is None:
            raise InputError("mirror map must declare uniform convexity")
        if uc[0] != self.p or uc[1] < 1.0 - 1e-12:
            raise InputError(
                f"mirror map must be 1-uniformly convex of order {self.p}; "
                f"{self.mirror.name} declares {uc}"
            )
        if self.mirror.dimension is not None and self.mirror.dimension != self.x0.size:
            raise InputError(
                f"mirror dimension {self.mirror.dimension} does not match "
                f"x0 dimension {self.x0.size}"
            )

    def admissible_C_bound(self) -> float:
        M = progress_coefficient(self.p, self.N)
        return M ** (self.p - 1) / float(self.p) ** self.p

    def step_config(self) -> StepConfig:
        return StepConfig(p=self.p, epsilon=self.epsilon, N=self.N)

    def snapshot(self) -> dict:
        return {
            "p": self.p,
            "epsilon": float(self.epsilon),
            "N": float(self.N),
            "C": float(self.C),
            "mirror": self.mirror.name,
            "max_iters": int(self.max_iters),
            "x0": [float(v) for v in self.x0],
        }


def _check_dimension(f: ObjectiveOracle, x0: np.ndarray) -> None:
    if f.dimension is not None and f.dimension != x0.size:
        raise InputError(
            f"{f.name} is {f.dimension}-dimensional, x0 has size {x0.size}"
        )


def _empirical_level_radius(f, x0, xs, x_star) -> tuple[float | None, str | None]:
    """Radius bound for the sublevel set through x0, with its provenance.

    Prefer the oracle's own certified value ("declared"); otherwise, with a
    known minimizer, fall back to the largest observed iterate distance
    padded by 10% ("empirical": honest, but not certified — descent keeps
    iterates inside the level set, so the true radius dominates all of
    them). (None, None) when neither is available.
    """
    R = f.level_set_radius(x0)
    if R is not None:
        return R, "declared"
    if x_star is None:
        return None, None
    return 1.1 * float(np.max(np.linalg.norm(xs - x_star[None, :], axis=1))), "empirical"


def higher_order_descent(
    f: ObjectiveOracle, cfg: StepConfig, x0: Point, K: int
) -> RunRecord:
    """Iterate the regularized Taylor step: x_{k+1} = G_{p,eps,N}(x_k).

    Descends monotonically and obeys the O(1/k^{p-1}) gap bound
    p^{p-1} (N+1) R^p / (eps k^{p-1}) with R the radius of the initial
    sublevel set. Each step carries its progress certificate; a solver
    failure is recorded in ``termination`` and truncates the run. R and its
    provenance go to extras "level_radius" and "level_radius_source":
    "declared" when the oracle certifies the radius, "empirical" for the
    padded fallback, None when the bound cannot be formed.
    """
    x0 = as_point(x0)
    _check_dimension(f, x0)
    if K < 1:
        raise InputError(f"need at least one iteration, got K={K}")
    d = x0.size
    xs = np.empty((K + 1, d))
    f_xs = np.empty(K + 1)
    certs: list[StepCertificate] = []
    termination = {"status": "completed", "k": None}
    xs[0] = x0
    f_xs[0] = f.value(x0)
    n = 1
    x = x0
    for k in range(K):
        try:
            y, cert = g_step(f, x, cfg)
        except SolverError:
            termination = {"status": "solver_error", "k": k}
            break
        if _blown(y):
            termination = {"status": "diverged", "k": k + 1}
            break
        certs.append(cert)
        xs[k + 1] = y
        f_xs[k + 1] = f.value(y)
        n += 1
        x = y
    xs, f_xs = xs[:n], f_xs[:n]
    x_star = f.minimizer
    f_star = f.min_value
    R, R_source = _empirical_level_radius(f, x0, xs, x_star)
    bounds = np.full(n, np.nan)
    if R is not None and f_star is not None:
        ks = np.arange(1, n, dtype=np.float64)
        bounds[1:] = (
            cfg.p ** (cfg.p - 1) * (cfg.N + 1.0) * R**cfg.p / (cfg.epsilon * ks ** (cfg.p - 1))
        )
    return RunRecord(
        algorithm="higher_order_descent",
        config={
            "p": cfg.p,
            "epsilon": float(cfg.epsilon),
            "N": float(cfg.N),
            "K": int(K),
            "objective": f.name,
            "x0": [float(v) for v in x0],
        },
        ks=np.arange(n),
        xs=xs,
        f_xs=f_xs,
        f_star=f_star,
        termination=termination,
        certificates=certs,
        bound_values=bounds,
        extras={"level_radius": R, "level_radius_source": R_source},
    )


def accelerated(f: ObjectiveOracle, cfg: AccelConfig, K: int) -> RunRecord:
    """Run the accelerated method for K iterations, certifying each one.

    Per iteration k = 0..K: take the Taylor step y_k = G(x_k), push the
    gradient into the mirror accumulator with weight eps C p k^(p-1) (rising
    factorial, so k = 0 contributes nothing and z_0 = x_0), read back
    z_k = grad h*(w_k), and average x_{k+1} = p/(k+p) z_k + k/(k+p) y_k.

    The estimate sequence psi_k(x) = C p sum_i i^(p-1) [f(y_i) +
    <grad f(y_i), x - y_i>] + D_h(x, x_0)/eps is tracked in closed form:
    z_k is its exact minimizer (dual optimality is recorded), its value
    there stays above C k^(p) f(y_k), and its value at the minimizer stays
    below C k^(p) f* + D_h(x*, x_0)/eps. Those two pin the certified rate
    f(y_k) - f* <= D_h(x*, x_0) / (C eps k^(p)).
    """
    if K < 1:
        raise InputError(f"need at least one iteration, got K={K}")
    if K > cfg.max_iters:
        raise InputError(f"K={K} exceeds max_iters={cfg.max_iters}")
    _check_dimension(f, cfg.x0)
    h = cfg.mirror
    scfg = cfg.step_config()
    p, C, eps = cfg.p, cfg.C, cfg.epsilon
    x0 = cfg.x0
    d = x0.size
    x_star = f.minimizer
    f_star = f.min_value
    dh_star = h.bregman(x_star, x0) if x_star is not None else None

    m = K + 1  # iterations 0..K inclusive
    xs = np.empty((m, d))
    ys = np.empty((m, d))
    zs = np.empty((m, d))
    f_xs = np.empty(m)
    f_ys = np.empty(m)
    grad_ys = np.empty((m, d))
    psi_values = np.empty(m)
    psi_grad_norms = np.empty(m)
    psi_grad_scales = np.empty(m)
    psi_at_min = np.full(m, np.nan)
    psi_upper = np.full(m, np.nan)
    ckp_fy = np.empty(m)
    bounds = np.full(m, np.nan)
    certs: list[StepCertificate] = []
    termination = {"status": "completed", "k": None}

    w0 = h.gradient(x0)
    w = w0.copy()
    S1 = 0.0
    S2 = np.zeros(d)
    x = x0.copy()
    n = 0
    for k in range(m):
        if _blown(x):
            termination = {"status": "diverged", "k": k}
            break
        xs[k] = x
        f_xs[k] = f.value(x)
        try:
            y, cert = g_step(f, x, scfg)
        except SolverError:
            termination = {"status": "solver_error", "k": k}
            break
        g = cert.grad_y
        weight = rising_factorial(k, p - 1)
        w = w - (eps * C * p * weight) * g
        z = h.dual_gradient(w)
        if _blown(y) or _blown(z):
            termination = {"status": "diverged", "k": k}
            break
        certs.append(cert)
        ys[k] = y
        zs[k] = z
        f_ys[k] = f.value(y)
        grad_ys[k] = g
        S1 += weight * (f_ys[k] - float(g @ y))
        S2 = S2 + weight * g
        kp = rising_factorial(k, p)
        psi_values[k] = C * p * (S1 + float(S2 @ z)) + h.bregman(z, x0) / eps
        grad_psi = C * p * S2 + (h.gradient(z) - w0) / eps
        psi_grad_norms[k] = float(np.linalg.norm(grad_psi))
        psi_grad_scales[k] = float(np.linalg.norm(w)) + float(np.linalg.norm(w0))
        ckp_fy[k] = C * kp * f_ys[k]
        if x_star is not None:
            psi_at_min[k] = C * p * (S1 + float(S2 @ x_star)) + dh_star / eps
            if f_star is not None:
                psi_upper[k] = C * kp * f_star + dh_star / eps
                if k >= 1:
                    bounds[k] = dh_star / (C * eps * kp)
        n += 1
        if k < K:
            x = (p / (k + p)) * z + (k / (k + p)) * y

    return RunRecord(
        algorithm="accelerated",
        config={**cfg.snapshot(), "K": int(K), "objective": f.name},
        ks=np.arange(n),
        xs=xs[:n],
        f_xs=f_xs[:n],
        f_star=f_star,
        termination=termination,
        ys=ys[:n],
        zs=zs[:n],
        f_ys=f_ys[:n],
        grad_ys=grad_ys[:n],
        certificates=certs,
        psi_values=psi_values[:n],
        psi_grad_norms=psi_grad_norms[:n],
        psi_grad_scales=psi_grad_scales[:n],
        psi_at_minimizer=psi_at_min[:n] if x_star is not None else None,
        psi_upper_envelope=psi_upper[:n] if f_star is not None else None,
        ckp_fy=ckp_fy[:n],
        bound_values=bounds[:n],
        extras={"dh_star_x0": dh_star},
    )


def estimate_sequence_value(
    record: RunRecord, cfg: AccelConfig, x: Point, k: int
) -> float:
    """Evaluate psi_k at an arbitrary point from a finished run's history.

    Direct O(k d) summation over the stored y_i, f(y_i), grad f(y_i) — the
    reference implementation the run's incremental accumulators are tested
    against. k must index a recorded iteration.
    """
    if record.ys is None or record.grad_ys is None or record.f_ys is None:
        raise InputError(
            f"record of '{record.algorithm}' carries no estimate-sequence history"
        )
    if not 0 <= k < len(record.ys):
        raise InputError(
            f"k={k} out of range; record holds iterations 0..{len(record.ys) - 1}"
        )
    for name in ("p", "epsilon", "N", "C"):
        if record.config.get(name) != getattr(cfg, name):
            raise InputError(
                f"config mismatch on {name}: record has {record.config.get(name)}, "
                f"cfg has {getattr(cfg, name)}"
            )
    x = as_point(x)
    p, C = cfg.p, cfg.C
    total = 0.0
    for i in range(k + 1):
        weight = rising_factorial(i, p - 1)
        if weight:
            total += weight * (
                record.f_ys[i] + float(record.grad_ys[i] @ (x - record.ys[i]))
            )
    return C * p * total + cfg.mirror.bregman(x, cfg.x0) / cfg.epsilon


def _forward_discretization(f, h, x0, ks, weight, averaging):
    """The loop both forward discretizations share: for each label k,

        grad h(z_k) = grad h(z_{k-1}) - weight(k) grad f(x_k)
        x_{k+1}     = a_k z_k + b_k x_k,   (a_k, b_k) = averaging(k)

    from grad h(z_{-1}) = grad h(x0), stopping at the first blown-up z_k
    (termination k) or x_{k+1} (termination k + 1). Returns xs, f(xs), the
    termination and the progress ratios <grad f(x_k), x_k - x_{k+1}> /
    ||grad f(x_k)|| (NaN at a zero gradient).
    """
    xs, f_xs, ratios = [x0], [f.value(x0)], []
    termination = {"status": "completed", "k": None}
    x = x0.copy()
    w = h.gradient(x0)
    for k in ks:
        g = f.gradient(x)
        w = w - weight(k) * g
        z = h.dual_gradient(w)
        if _blown(z):
            termination = {"status": "diverged", "k": k}
            break
        a, b = averaging(k)
        x_next = a * z + b * x
        if _blown(x_next):
            termination = {"status": "diverged", "k": k + 1}
            break
        gnorm = float(np.linalg.norm(g))
        ratios.append(float(g @ (x - x_next)) / gnorm if gnorm > 0 else np.nan)
        xs.append(x_next)
        f_xs.append(f.value(x_next))
        x = x_next
    return np.array(xs), np.array(f_xs), termination, np.array(ratios)


def naive_discretization(
    f: ObjectiveOracle,
    h: MirrorMap,
    p: int,
    C: float,
    epsilon: float,
    x0: Point,
    K: int,
) -> RunRecord:
    """Forward discretization of the polynomial flow, without the Taylor step.

    Starting from k0 = p + 1 with x_{k0} = z_{k0-1} = x0, iterate

        grad h(z_k) = grad h(z_{k-1}) - eps C p k^{p-1} grad f(x_k)
        x_{k+1}     = (p/k) z_k + ((k-p)/k) x_k

    (plain powers, gradients taken at x_k itself). This is the scheme the
    accelerated method repairs; it is generically unstable. Divergence is a
    recorded outcome — termination says at which k the iterates left the
    admissible region — never an exception.
    """
    x0 = as_point(x0)
    _check_dimension(f, x0)
    if p not in (2, 3, 4):
        raise InputError(f"supported orders are p in {{2, 3, 4}}, got {p}")
    if C <= 0 or epsilon <= 0:
        raise InputError("C and epsilon must be positive")
    if K < 1:
        raise InputError(f"need at least one iteration, got K={K}")
    k0 = p + 1
    xs, f_xs, termination, _ = _forward_discretization(
        f, h, x0, range(k0, k0 + K),
        lambda k: epsilon * C * p * float(k) ** (p - 1),
        lambda k: (p / k, (k - p) / k),
    )
    return RunRecord(
        algorithm="naive_discretization",
        config={
            "p": int(p),
            "C": float(C),
            "epsilon": float(epsilon),
            "mirror": h.name,
            "K": int(K),
            "k0": k0,
            "objective": f.name,
            "x0": [float(v) for v in x0],
        },
        ks=np.arange(k0, k0 + len(xs)),
        xs=xs,
        f_xs=f_xs,
        f_star=f.min_value,
        termination=termination,
        extras={"k0": k0},
    )


_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # e^x is finite iff x <= this


def exponential_discretization(
    f: ObjectiveOracle,
    h: MirrorMap,
    c: float,
    delta: float,
    x0: Point,
    K: int,
) -> RunRecord:
    """Forward discretization of the exponential-rate flow (diagnostic).

    Requires c delta <= 1 so the averaging weights stay convex, and
    c delta (K - 1) <= log(float max) so every weight is finite. Iterates

        grad h(z_k) = grad h(z_{k-1}) - delta c e^{c delta k} grad f(x_k)
        x_{k+1}     = c delta z_k + (1 - c delta) x_k

    with z_{-1} = x0. No rate is certified; the record carries the per-step
    progress ratio <grad f(x_k), x_k - x_{k+1}> / ||grad f(x_k)||, whose
    sign and size show how far the scheme is from a descent direction.
    """
    x0 = as_point(x0)
    _check_dimension(f, x0)
    if c <= 0 or delta <= 0:
        raise InputError("c and delta must be positive")
    if c * delta > 1.0:
        raise InputError(
            f"need c*delta <= 1 for a convex averaging step, got {c * delta:g}"
        )
    if K < 1:
        raise InputError(f"need at least one iteration, got K={K}")
    if c * delta * (K - 1) > _LOG_FLOAT_MAX:
        # the exponent is formed as the loop forms it; the quotient may
        # round either way by one
        K_max = int(_LOG_FLOAT_MAX / (c * delta)) + 2
        while c * delta * (K_max - 1) > _LOG_FLOAT_MAX:
            K_max -= 1
        raise InputError(
            f"the weight e^(c delta k) overflows at k = {K - 1}; with "
            f"c*delta = {c * delta:g} the largest admissible K is {K_max}"
        )
    xs, f_xs, termination, ratios = _forward_discretization(
        f, h, x0, range(K),
        lambda k: delta * c * math.exp(c * delta * k),
        lambda k: (c * delta, 1.0 - c * delta),
    )
    return RunRecord(
        algorithm="exponential_discretization",
        config={
            "c": float(c),
            "delta": float(delta),
            "mirror": h.name,
            "K": int(K),
            "objective": f.name,
            "x0": [float(v) for v in x0],
        },
        ks=np.arange(len(xs)),
        xs=xs,
        f_xs=f_xs,
        f_star=f.min_value,
        termination=termination,
        extras={"progress_ratios": ratios},
    )


def restart_accelerated(
    f: ObjectiveOracle, epsilon: float, x0: Point, epochs: int
) -> RunRecord:
    """Linear convergence on uniformly convex objectives via restarts.

    Reads (p, sigma) from the oracle's declared uniform convexity and sets
    kappa = eps sigma (must lie in (0, 1)). Each epoch runs the accelerated
    method for m = ceil(8 p / kappa^{1/p}) iterations with N = 2,
    C = (4p)^{-p}, and the order-p mirror map re-anchored at the current
    point; the epoch output y_m contracts ||anchor - x*||^p by at least
    a factor e. A trailing Taylor step converts the last anchor's distance
    into the value bound 3 ||x0 - x*||^p / (eps p e^epochs).
    """
    x0 = as_point(x0)
    _check_dimension(f, x0)
    if f.uniform_convexity is None:
        raise CapabilityError(
            f"{f.name} declares no uniform convexity; restarts need (p, sigma)"
        )
    q, sigma = f.uniform_convexity
    p = int(round(q))
    if p != q or p not in (2, 3, 4):
        raise InputError(f"restart scheme supports convexity order in {{2, 3, 4}}, got {q}")
    kappa = epsilon * sigma
    if not 0.0 < kappa < 1.0:
        raise InputError(
            f"kappa = epsilon*sigma = {kappa:g} outside (0, 1); "
            "rescale epsilon to the objective's smoothness"
        )
    if epochs < 1:
        raise InputError(f"need at least one epoch, got {epochs}")
    m = math.ceil(8 * p / kappa ** (1.0 / p))
    C = (4.0 * p) ** (-p)
    x_star = f.minimizer
    f_star = f.min_value

    anchors = np.empty((epochs + 1, x0.size))
    f_anchors = np.empty(epochs + 1)
    anchors[0] = x0
    f_anchors[0] = f.value(x0)
    inner: list[RunRecord] = []
    termination = {"status": "completed", "k": None}
    xhat = x0
    n = 1
    for j in range(epochs):
        mirror = EuclideanMap() if p == 2 else ScaledPthPowerMap(p, anchor=xhat)
        cfg = AccelConfig(p=p, epsilon=epsilon, x0=xhat, N=2.0, C=C, mirror=mirror)
        rec = accelerated(f, cfg, m)
        inner.append(rec)
        if rec.termination["status"] != "completed":
            termination = {"status": rec.termination["status"], "k": j}
            break
        xhat = np.asarray(rec.ys[-1])
        anchors[j + 1] = xhat
        f_anchors[j + 1] = f.value(xhat)
        n += 1

    extras: dict = {"m": m, "kappa": float(kappa)}
    bounds = None
    if x_star is not None:
        dist_p = np.linalg.norm(anchors[:n] - x_star[None, :], axis=1) ** p
        extras["distance_powers"] = dist_p
        bounds = dist_p[0] * np.exp(-np.arange(n, dtype=np.float64))
    if termination["status"] == "completed":
        y_final, cert = g_step(f, xhat, StepConfig(p=p, epsilon=epsilon, N=2.0))
        extras["final_point"] = [float(v) for v in y_final]
        extras["final_value"] = f.value(y_final)
        extras["final_certificate_ok"] = cert.ok
        if f_star is not None:
            extras["final_gap"] = f.value(y_final) - f_star
        if x_star is not None:
            dist0_p = float(np.linalg.norm(x0 - x_star)) ** p
            extras["final_bound"] = 3.0 * dist0_p / (
                epsilon * p * math.exp(float(epochs))
            )
    return RunRecord(
        algorithm="restart_accelerated",
        config={
            "p": p,
            "epsilon": float(epsilon),
            "sigma": float(sigma),
            "kappa": float(kappa),
            "m": m,
            "epochs": int(epochs),
            "N": 2.0,
            "C": float(C),
            "objective": f.name,
            "x0": [float(v) for v in x0],
        },
        ks=np.arange(n),
        xs=anchors[:n],
        f_xs=f_anchors[:n],
        f_star=f_star,
        termination=termination,
        bound_values=bounds,
        extras=extras,
        inner=inner,
    )


def uniformly_convex_descent_rate_check(record: RunRecord, f: ObjectiveOracle) -> dict:
    """Compare a plain-descent run against the linear rate uniform convexity buys.

    On an objective that is sigma-uniformly convex of the method's own order
    p, the plain method's gap obeys, for k >= 1,

        f(x_k) - f* <= (N+1) ||x0 - x*||^p / (eps p) * rho^{k-1},
        rho = 1 / (1 + M kappa^{1/(p-1)}),  kappa = eps sigma,

    with M the step progress coefficient (the geometric decay starts after
    the first step; the initial gap itself is unconstrained), and the
    inverse-gap transform e_k = gap^{-1/(p-1)} still gains at least
    (1/p)(eps/((N+1)R^p))^{1/(p-1)} per step. Violations are reported in
    the returned dict, never raised.
    """
    if record.algorithm != "higher_order_descent":
        raise InputError(
            f"rate check applies to higher_order_descent records, got {record.algorithm}"
        )
    if f.uniform_convexity is None:
        raise CapabilityError(f"{f.name} declares no uniform convexity")
    if f.minimizer is None or f.min_value is None:
        raise CapabilityError(f"{f.name} has no known minimizer to measure against")
    q, sigma = f.uniform_convexity
    p = record.config["p"]
    if q != p:
        raise InputError(
            f"objective is uniformly convex of order {q}, method has p={p}"
        )
    eps = record.config["epsilon"]
    N = record.config["N"]
    M = progress_coefficient(p, N)
    kappa = eps * sigma
    x0 = np.asarray(record.config["x0"], dtype=np.float64)
    dist0 = float(np.linalg.norm(x0 - f.minimizer))
    rho = 1.0 / (1.0 + M * kappa ** (1.0 / (p - 1.0)))
    prefactor = (N + 1.0) * dist0**p / (eps * p)
    gaps = record.f_gaps_x
    ks = np.asarray(record.ks, dtype=np.float64)
    # the bound covers the iterates after the first step only
    covered = ks >= 1
    bounds = np.where(covered, prefactor * rho ** (ks - 1.0), np.inf)
    tol = 1e-15 * (1.0 + abs(record.f_star))
    bound_violations = [
        {"k": int(ks[i]), "gap": float(gaps[i]), "bound": float(bounds[i])}
        for i in range(len(ks))
        if gaps[i] > bounds[i] * (1.0 + BOUND_RTOL) + tol
    ]
    report = {
        "p": p,
        "N": float(N),
        "kappa": float(kappa),
        "rate": float(rho),
        "prefactor": float(prefactor),
        "checked": int(covered.sum()),
        "bound_ok": not bound_violations,
        "bound_violations": bound_violations,
    }
    R = f.level_set_radius(x0)
    if R is not None and len(ks) > 1:
        live, incs, inc_min = _inverse_gap_increments(gaps, record.f_star, p, eps, N, R)
        bad = incs < inc_min * (1.0 - BOUND_RTOL)
        report["required_increment"] = float(inc_min)
        report["checked_increments"] = int(live.sum())
        report["min_increment"] = float(np.min(incs)) if incs.size else None
        report["increment_ok"] = not bool(np.any(bad))
        report["increment_violations"] = [
            {"k": int(k)}
            for k, flag in zip(np.asarray(record.ks)[:-1][live], bad)
            if flag
        ]
    return report
