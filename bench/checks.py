"""Correctness checks on workload outputs, computed apart from the program.

Each check takes plain arrays (or files) and returns a list of failure
strings; an empty list means the outputs hold. The formulas come from
bench/reference.py and from the statements of the method, never from
accelflow, so a fault in the program cannot make its own output pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from reference import (
    LAMBDAS,
    energy,
    gap_certificate,
    objective,
    reference_final_x,
)

ENERGY_REL_SLACK = 1e-6  # sampled energy may rise by this relative amount
GAP_REL_SLACK = 1e-6  # sampled gap over its certificate E_{t0} e^(-beta_t)
FLOW_FINAL_REL_LIMIT = 0.05  # final X against the DOP853 reference
CERT_SLACK = 1e-8  # absolute rounding slack on the step inequalities
RATE_REL_SLACK = 1e-9  # relative slack on the certified gap bound
SUITE_FINAL_REL_LIMIT = 1e-4  # the suite's direct-flow CSVs against the reference

# the two directly integrated flows of the suite's time-dilation check:
# Euclidean mirror, quadratic, C = 1, x0 = (1, 1) from t = 0.5
SUITE_DIRECT_FLOWS = (("direct_p3.csv", 3), ("direct_p4.csv", 4))
SUITE_DIRECT_X0 = np.array([1.0, 1.0])
SUITE_DIRECT_T0 = 0.5


def relative_error(x, x_ref) -> float:
    x, x_ref = np.asarray(x, dtype=np.float64), np.asarray(x_ref, dtype=np.float64)
    return float(np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref))


# ---------------------------------------------------------------------------
# flows


def flow_failures(label: str, problem: str, p: int, q: int, times, states,
                  t0: float, t_end: float, x_ref) -> tuple[list[str], float]:
    """Energy monotonicity, the pointwise gap certificate and the final
    state against the reference, for one (X, W) trajectory."""
    lam = LAMBDAS[problem]
    d = lam.size
    times = np.asarray(times, dtype=np.float64)
    states = np.asarray(states, dtype=np.float64)
    fails = []
    if states.ndim != 2 or states.shape[1] != 2 * d or len(times) != len(states):
        return [f"{label}: state layout {states.shape} is not (n, {2 * d})"], math.inf
    if not np.all(np.isfinite(states)):
        return [f"{label}: non-finite states"], math.inf
    if len(times) < 2 or times[0] != t0 or abs(times[-1] - t_end) > 1e-12 * t_end:
        fails.append(f"{label}: samples span [{times[0]}, {times[-1]}], "
                     f"expected [{t0}, {t_end}]")
    x, w = states[:, :d], states[:, d:]
    e = energy(times, x, w, lam, p, q)
    rise = float(np.max(np.diff(e) / np.maximum(e[:-1], 1e-300)))
    if rise > ENERGY_REL_SLACK:
        fails.append(f"{label}: energy rises by {rise:.3e} relative")
    ratio = float(np.max(objective(x, lam) / gap_certificate(times, e[0], p)))
    if ratio > 1.0 + GAP_REL_SLACK:
        fails.append(f"{label}: gap reaches {ratio:.6f} x its certificate")
    err = relative_error(x[-1], x_ref)
    if not err <= FLOW_FINAL_REL_LIMIT:
        fails.append(f"{label}: final X off the reference by {err:.3e} relative")
    return fails, err


# ---------------------------------------------------------------------------
# the accelerated method and the Taylor step


def rising_factorial(k, n: int):
    """k^(n) = k (k+1) ... (k+n-1), elementwise."""
    k = np.asarray(k, dtype=np.float64)
    out = np.ones_like(k)
    for i in range(n):
        out = out * (k + i)
    return out


def progress_coefficient(p: int, N: float) -> float:
    """M = (N^2 - 1)^((p-2)/(2p-2)) / (2N); 1/(2N) at p = 2."""
    if p == 2:
        return 1.0 / (2.0 * N)
    return (N * N - 1.0) ** ((p - 2.0) / (2.0 * p - 2.0)) / (2.0 * N)


def default_C(p: int, N: float) -> float:
    """Largest C the rate statement admits: M^(p-1) / p^p."""
    return progress_coefficient(p, N) ** (p - 1) / float(p) ** p


def epsilon_from(smoothness: dict, p: int) -> float:
    """(p-1)! / L_{p-1} from the declared Lipschitz constants."""
    return math.factorial(p - 1) / smoothness[p - 1]


class Objective:
    """f, grad f (row-wise) and f* of a catalog problem, from its data."""

    def __init__(self, name: str, data):
        self.name = name
        if name in LAMBDAS:
            lam = LAMBDAS[name]
            self.value = lambda x: objective(x, lam)
            self.grad = lambda x: lam * x
            self.x_star = np.zeros(lam.size)
        elif name == "least_squares":
            A, b = np.asarray(data.A), np.asarray(data.b)
            self.value = lambda x: 0.5 * np.sum((x @ A.T - b) ** 2, axis=-1)
            self.grad = lambda x: (x @ A.T - b) @ A
            self.x_star = np.linalg.lstsq(A, b, rcond=None)[0]
        elif name == "log_sum_exp":
            A, b = np.asarray(data.A), np.asarray(data.b)

            def weights(x):
                theta = x @ A.T + b
                m = np.max(theta, axis=-1, keepdims=True)
                e = np.exp(theta - m)
                return e / np.sum(e, axis=-1, keepdims=True), theta, m

            def value(x):
                _, theta, m = weights(x)
                return np.log(np.sum(np.exp(theta - m), axis=-1)) + m[..., 0]

            self.value = value
            self.grad = lambda x: weights(x)[0] @ A
            # rows come in +/- pairs with b = 0, so f is even: x* = 0
            self.x_star = np.zeros(A.shape[1])
        elif name == "power_4":
            self.value = lambda x: 0.25 * np.sum(x * x, axis=-1) ** 2
            self.grad = lambda x: np.sum(x * x, axis=-1, keepdims=True) * x
            self.x_star = np.zeros(np.asarray(data.minimizer).size)
        else:
            raise KeyError(f"no independent formulas for {name}")
        self.f_star = float(self.value(self.x_star))


def step_failures(label: str, p: int, N: float, eps: float, xs, ys,
                  grads) -> list[str]:
    """Progress inequality and move-norm sandwich of the Taylor step, row-wise:

        <g(y), x - y> >= M eps^(1/(p-1)) |g(y)|^(p/(p-1)),
        M (eps |g(y)|)^(1/(p-1)) <= |y - x| <= (eps |g(y)| / (N - 1))^(1/(p-1)).
    """
    xs, ys, grads = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (xs, ys, grads))
    M = progress_coefficient(p, N)
    e = 1.0 / (p - 1.0)
    gn = np.linalg.norm(grads, axis=1)
    progress = np.sum(grads * (xs - ys), axis=1)
    move = np.linalg.norm(ys - xs, axis=1)
    lower = M * eps ** e * gn ** (p * e)
    move_lo = M * (eps * gn) ** e
    move_hi = (eps * gn / (N - 1.0)) ** e if N > 1.0 else np.full_like(gn, np.inf)
    bad = ((progress < lower - CERT_SLACK) | (move < move_lo - CERT_SLACK)
           | (move > move_hi + CERT_SLACK))
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{label}: step certificate fails at row {k} of {len(bad)} "
                f"(progress {progress[k]:.3e} vs {lower[k]:.3e}, "
                f"move {move[k]:.3e} in [{move_lo[k]:.3e}, {move_hi[k]:.3e}])"]
    return []


def accel_failures(label: str, obj: Objective, p: int, N: float, eps: float,
                   C: float, x0, xs, ys, K: int) -> tuple[list[str], float]:
    """Every step certificate and the certified rate
    f(y_k) - f* <= D_h(x*, x0) / (C eps k^(p)) at every k >= 1, with h the
    Euclidean map at p = 2 and d_p(z) = 2^(p-2)/p |z - x0|^p above it.

    Returns the failures and the relative final gap
    (f(y_K) - f*) / (f(x0) - f*)."""
    xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    fails = []
    if len(ys) != K + 1 or len(xs) != K + 1:
        return [f"{label}: {len(ys)} iterations recorded, expected {K + 1}"], math.inf
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        return [f"{label}: non-finite iterates"], math.inf
    fails += step_failures(label, p, N, eps, xs, ys, obj.grad(ys))

    x_star_dist = float(np.linalg.norm(x0 - obj.x_star))
    dh = 0.5 * x_star_dist ** 2 if p == 2 else 2.0 ** (p - 2) / p * x_star_dist ** p
    k = np.arange(1, K + 1)
    bound = dh / (C * eps * rising_factorial(k, p))
    gaps = obj.value(ys[1:]) - obj.f_star
    slack = bound * RATE_REL_SLACK + 1e-14 * max(1.0, abs(obj.f_star))
    over = gaps - bound - slack
    if np.any(over > 0.0):
        j = int(np.argmax(over))
        fails.append(f"{label}: gap {gaps[j]:.3e} above the certified "
                     f"{bound[j]:.3e} at k = {j + 1}")
    start_gap = float(obj.value(x0)) - obj.f_star
    return fails, float(gaps[-1]) / start_gap


# ---------------------------------------------------------------------------
# the acceptance suite


def suite_failures(exit_code: int, out_dir: Path, schema: dict,
                   expected_checks: list[str]) -> list[str]:
    """Exit code 0, summary.json valid against the committed schema, every
    expected check present and passing, every listed file on disk."""
    from jsonschema import ValidationError, validate

    fails = []
    if exit_code != 0:
        fails.append(f"acceptance exited with code {exit_code}")
    path = out_dir / "summary.json"
    if not path.is_file():
        return fails + ["summary.json missing"]
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        validate(instance=doc, schema=schema)
    except ValidationError as exc:
        fails.append(f"summary.json violates schemas/summary.json: {exc.message}")
        return fails
    names = [c["name"] for c in doc["checks"]]
    if names != list(expected_checks):
        fails.append(f"summary lists checks {names}, expected {list(expected_checks)}")
    failing = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
    if failing or not doc["all_pass"] or doc["counts"]["fail"]:
        fails.append(f"checks not passing: {failing}")
    missing = [f for f in doc["files"] if not (out_dir / f).is_file()]
    if missing:
        fails.append(f"{len(missing)} listed files missing, e.g. {missing[:3]}")
    return fails


def suite_direct_errors(out_dir: Path, references: dict) -> tuple[list[str], float]:
    """Final X of the suite's directly integrated dilation flows against the
    reference; references maps (p, t_end) to the reference X."""
    fails, worst = [], 0.0
    for name, p in SUITE_DIRECT_FLOWS:
        path = out_dir / "time_dilation_match" / name
        if not path.is_file():
            fails.append(f"{name} missing")
            continue
        with open(path, encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        header, last = rows[0], [float(v) for v in rows[-1]]
        cols = [i for i, h in enumerate(header) if h.startswith("X_")]
        t_end = last[0]
        key = (p, t_end)
        if key not in references:
            references[key] = reference_final_x(
                "quadratic", p, 2, SUITE_DIRECT_X0, SUITE_DIRECT_T0, t_end)
        err = relative_error([last[i] for i in cols], references[key])
        worst = max(worst, err)
        if not err <= SUITE_FINAL_REL_LIMIT:
            fails.append(f"{name}: final X off the reference by {err:.3e} relative")
    return fails, worst
