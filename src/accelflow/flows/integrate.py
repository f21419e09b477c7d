"""Fixed-step and step-doubling RK4 integration with dense trajectory records.

The integrator is deliberately hand-rolled: trajectories must be bitwise
reproducible given the same controls, and every recorded sample keeps its
field value so cubic Hermite interpolation matches the integrator's order
(general-purpose adaptive libraries expose neither guarantee).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..core.points import as_point
from ..errors import DivergenceError, InputError, NumericalError

DIVERGENCE_THRESHOLD = 1e8

class Trajectory:
    """Recorded samples of one integration: times, states, field values.

    states has one row per sample; block(name) views the named slice of the
    state. f_gap and energy are filled when the system can compute them.
    Immutable by convention after construction.
    """

    def __init__(self, kind, blocks, d, times, states, derivs,
                 f_gap=None, energy=None, step_stats=None):
        self.kind = kind
        self.blocks = tuple(blocks)
        self.d = int(d)
        self.times = np.asarray(times, dtype=np.float64)
        self.states = np.asarray(states, dtype=np.float64)
        self.derivs = np.asarray(derivs, dtype=np.float64)
        self.f_gap = None if f_gap is None else np.asarray(f_gap, dtype=np.float64)
        self.energy = None if energy is None else np.asarray(energy, dtype=np.float64)
        self.step_stats = dict(step_stats or {})
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise InputError("times and states must align")
        if np.any(np.diff(self.times) <= 0):
            raise InputError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    @property
    def layout(self) -> dict[str, slice]:
        return {
            name: slice(i * self.d, (i + 1) * self.d)
            for i, name in enumerate(self.blocks)
        }

    def block(self, name: str) -> np.ndarray:
        return self.states[:, self.layout[name]]

    def final_state(self) -> np.ndarray:
        return self.states[-1].copy()

    def interp_state(self, t: float) -> np.ndarray:
        return self.interp_state_and_deriv(t)[0]

    def interp_state_and_deriv(self, t: float):
        """Cubic Hermite interpolation between recorded samples.

        Exact at sample times (returns the stored row). Raises InputError
        outside the recorded range.
        """
        t = float(t)
        ts = self.times
        if t < ts[0] or t > ts[-1]:
            raise InputError(f"time {t} outside recorded range [{ts[0]}, {ts[-1]}]")
        j = int(np.searchsorted(ts, t))
        if j < len(ts) and ts[j] == t:
            return self.states[j].copy(), self.derivs[j].copy()
        j -= 1
        t0, t1 = ts[j], ts[j + 1]
        y0, y1 = self.states[j], self.states[j + 1]
        d0, d1 = self.derivs[j], self.derivs[j + 1]
        h = t1 - t0
        s = (t - t0) / h
        s2, s3 = s * s, s * s * s
        state = (
            (2 * s3 - 3 * s2 + 1) * y0
            + (s3 - 2 * s2 + s) * h * d0
            + (-2 * s3 + 3 * s2) * y1
            + (s3 - s2) * h * d1
        )
        deriv = (
            (6 * s2 - 6 * s) / h * y0
            + (3 * s2 - 4 * s + 1) * d0
            + (-6 * s2 + 6 * s) / h * y1
            + (3 * s2 - 2 * s) * d1
        )
        return state, deriv

    def to_csv(self, path) -> None:
        """Write t, per-block coordinates, and f_gap/energy when present.

        Floats are written with repr (shortest round-trip form), so equal
        runs produce byte-identical files.
        """
        cols = ["t"]
        for name in self.blocks:
            cols += [f"{name}_{i}" for i in range(self.d)]
        if self.f_gap is not None:
            cols.append("f_gap")
        if self.energy is not None:
            cols.append("energy")
        with open(path, "w", encoding="utf-8") as out:
            out.write(",".join(cols) + "\n")
            for i in range(len(self.times)):
                row = [repr(float(self.times[i]))]
                row += [repr(float(v)) for v in self.states[i]]
                if self.f_gap is not None:
                    row.append(repr(float(self.f_gap[i])))
                if self.energy is not None:
                    row.append(repr(float(self.energy[i])))
                out.write(",".join(row) + "\n")


class _Recorder:
    def __init__(self, sys, d):
        self.sys = sys
        self.d = d
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.derivs: list[np.ndarray] = []

    def push(self, t, y, dy):
        self.times.append(float(t))
        self.states.append(np.array(y))
        self.derivs.append(np.array(dy))

    def build(self, stats) -> Trajectory:
        sys = self.sys
        f_gap = energy = None
        if sys.has_gap:
            f_gap = [sys.gap_value(t, y) for t, y in zip(self.times, self.states)]
        if sys.has_energy:
            energy = [sys.energy_value(t, y) for t, y in zip(self.times, self.states)]
        return Trajectory(
            sys.kind, sys.blocks, self.d, self.times, self.states, self.derivs,
            f_gap=f_gap, energy=energy, step_stats=stats,
        )


def _real(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InputError(f"{key} must be a number, got {value!r}") from None


def _integer(key: str, value) -> int:
    """An integer control; integral floats (1e4 from JSON) are admitted."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{key} must be an integer, got {value!r}")
    return int(value)


def integrate(sys, x0, t0: float, t_end: float, controls: dict,
              initial_state=None,
              divergence_threshold: float = DIVERGENCE_THRESHOLD) -> Trajectory:
    """Integrate a FlowSystem from t0 to t_end (finite, t_end > t0).

    controls is one of
      {"method": "rk4", "steps": n, "record_every": k}
      {"method": "rk4_adaptive", "rel_tol": 1e-8, "abs_tol": 1e-12,
       "initial_step": (t_end - t0) / 100, "max_steps": 2_000_000,
       "record_every": k}
    with the defaults shown; record_every defaults to 1. steps, record_every
    and max_steps are integers >= 1; initial_step and abs_tol are finite and
    positive, rel_tol finite and nonnegative. A violation raises InputError,
    as does t0 before the system's domain. Deterministic given controls.

    rk4 takes steps fixed steps of 4 field evaluations. rk4_adaptive is step
    doubling: each attempt compares one step of size h with two of size h/2,
    sharing k1 = field(t, y) between the full and first half step and across
    retries, for 10 evaluations per attempt. The derivative at an accepted
    state is both its recorded value and the next step's k1, so
    step_stats["field_evals"] is 10 * (accepted + rejected) + accepted + 1.

    initial_state overrides the system's standard initial state (used by
    force-free oracle checks that start with nonzero velocity). Divergence
    (state norm above the threshold) raises DivergenceError carrying the
    partial trajectory, whose step_stats count the steps and field
    evaluations so far; NaN/Inf in the state raises NumericalError, as does
    exceeding max_steps attempts.
    """
    t0, t_end = float(t0), float(t_end)
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise InputError(f"t0 and t_end must be finite, got [{t0}, {t_end}]")
    if t0 < sys.valid_from - 1e-12:
        raise InputError(f"t0 = {t0} precedes the system's domain [{sys.valid_from}, inf)")
    if t_end <= t0:
        raise InputError(f"need t_end > t0, got [{t0}, {t_end}]")
    method = controls.get("method")
    if method not in ("rk4", "rk4_adaptive"):
        raise InputError(f"unknown integration method {method!r}")
    record_every = _integer("record_every", controls.get("record_every", 1))
    if record_every < 1:
        raise InputError("record_every must be >= 1")
    if method == "rk4":
        steps = _integer("steps", controls.get("steps"))
        if steps < 1:
            raise InputError("rk4 needs steps >= 1")
    else:
        rel_tol = _real("rel_tol", controls.get("rel_tol", 1e-8))
        abs_tol = _real("abs_tol", controls.get("abs_tol", 1e-12))
        h = _real("initial_step", controls.get("initial_step", (t_end - t0) / 100.0))
        max_steps = _integer("max_steps", controls.get("max_steps", 2_000_000))
        if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
            raise InputError(f"rel_tol must be finite and >= 0, got {rel_tol}")
        if not (math.isfinite(abs_tol) and abs_tol > 0.0):
            raise InputError(f"abs_tol must be finite and > 0, got {abs_tol}")
        if not (math.isfinite(h) and h > 0.0):
            raise InputError(f"initial_step must be finite and > 0, got {h}")
        if max_steps < 1:
            raise InputError("max_steps must be >= 1")

    if initial_state is not None:
        y0 = np.array(initial_state, dtype=np.float64)
        if y0.ndim != 1 or y0.size % len(sys.blocks):
            raise InputError("initial_state does not match the system layout")
    else:
        y0 = sys.initial_state_from(as_point(x0), t0)
    d = y0.size // len(sys.blocks)
    rec = _Recorder(sys, d)

    field = sys.vector_field

    def checked(t, y, progress):
        """Raise on a non-finite or diverged state; progress() gives the
        partial record's step_stats, built only when it is needed. A finite
        squared norm means a finite state, so the elementwise test runs only
        when it is not (a finite state whose square overflows diverged)."""
        norm_sq = y.dot(y)
        if not math.isfinite(norm_sq) and not np.isfinite(y).all():
            raise NumericalError(f"non-finite state during integration at t = {t}")
        if math.sqrt(norm_sq) > divergence_threshold:
            raise DivergenceError(
                f"state norm exceeded {divergence_threshold:g} at t = {t}",
                partial=rec.build(progress()), t=t,
            )

    if method == "rk4":
        h = (t_end - t0) / steps
        y = y0.copy()
        t = t0
        evals = 0

        def progress():
            return {"method": "rk4", "steps": steps, "completed": i + 1,
                    "field_evals": evals}

        for i in range(steps):
            k1 = field(t, y)
            if i % record_every == 0:
                rec.push(t, y, k1)
            k2 = field(t + 0.5 * h, y + (0.5 * h) * k1)
            k3 = field(t + 0.5 * h, y + (0.5 * h) * k2)
            k4 = field(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t0 + (i + 1) * h
            evals += 4
            checked(t, y, progress)
        rec.push(t_end, y, field(t_end, y))
        return rec.build(
            {"method": "rk4", "steps": steps, "completed": steps,
             "field_evals": evals + 1, "record_every": record_every}
        )

    y = y0.copy()
    t = t0
    accepted = rejected = 0
    h_min_seen, h_max_seen = np.inf, 0.0
    near_end = t_end - 1e-14 * max(1.0, abs(t_end))

    def progress():
        return {"method": "rk4_adaptive", "accepted": accepted,
                "rejected": rejected, "field_evals": evals}

    def rk4_step(t, y, h, k1):
        k2 = field(t + 0.5 * h, y + (0.5 * h) * k1)
        k3 = field(t + 0.5 * h, y + (0.5 * h) * k2)
        k4 = field(t + h, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    k1 = field(t, y)  # field at the current state, shared by every attempt
    evals = 1
    rec.push(t, y, k1)
    while t < near_end:
        h = min(h, t_end - t)
        if h <= 0:
            break
        half = 0.5 * h
        y_full = rk4_step(t, y, h, k1)
        y_half = rk4_step(t, y, half, k1)
        y_two = rk4_step(t + half, y_half, half, field(t + half, y_half))
        evals += 10
        err_vec = (y_two - y_full) / 15.0
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_two))
        err = float((np.abs(err_vec) / scale).max())
        if err <= 1.0:
            t = t + h
            y = y_two + err_vec  # local extrapolation to 5th order
            accepted += 1
            h_min_seen, h_max_seen = min(h_min_seen, h), max(h_max_seen, h)
            checked(t, y, progress)
            k1 = field(t, y)
            evals += 1
            if accepted % record_every == 0 or t >= near_end:
                rec.push(t, y, k1)
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if accepted + rejected > max_steps:
            raise NumericalError(
                f"adaptive integrator exceeded {max_steps} step attempts"
            )
    if rec.times[-1] < t_end - 1e-12 * max(1.0, abs(t_end)):
        rec.push(t_end, y, field(t_end, y))
        evals += 1
    return rec.build(
        {"method": "rk4_adaptive", "accepted": accepted, "rejected": rejected,
         "field_evals": evals, "rel_tol": rel_tol, "abs_tol": abs_tol,
         "h_min": h_min_seen, "h_max": h_max_seen, "record_every": record_every}
    )
