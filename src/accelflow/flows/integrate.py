"""Fixed-step RK4 and adaptive Dormand-Prince 8(5,3) integration with dense
trajectory records.

The integrator is deliberately hand-rolled: trajectories must be bitwise
reproducible given the same controls, and every recorded sample keeps its
exact field value, so cubic Hermite interpolation between samples is exact at
them and of third order in the recorded spacing, below the adaptive method's
eighth (general-purpose adaptive libraries expose neither guarantee).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.numerics import row_dots
from ..core.points import as_integer, as_point, as_real
from ..errors import DivergenceError, InputError, NumericalError, SolverError

DIVERGENCE_THRESHOLD = 1e8
# the most steps one integration may take: rk4's steps, rk4_adaptive's
# step attempts (read once per call)
MAX_STEPS = 2_000_000

# the controls each integration method reads (defaults in integrate)
METHOD_CONTROLS = {
    "rk4": frozenset({"method", "steps", "record_every"}),
    "rk4_adaptive": frozenset({"method", "rel_tol", "abs_tol", "record_every"}),
}

# Dormand-Prince 8(5,3), DOP853 (Hairer, Norsett & Wanner, Solving ODEs I,
# Sec. II.10; literals as in scipy's dop853_coefficients.py, which carries
# the authors' dop853.f values). Row i of _A holds the weights of stage K[i]
# on K[0..i-1]; the last row is the eighth-order solution b, so stage 13 is
# the field at the new state. Row 0 of _E weighs stages 1..12 into the
# fifth-order error estimate, row 1 (b minus a third-order solution) into the
# third-order one; neither reads stage 13.
_C = (0.0,
      0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01,
      0.118350341907227396726757197510,
      0.281649658092772603273242802490,
      0.333333333333333333333333333333,
      0.25,
      0.307692307692307692307692307692,
      0.651282051282051282051282051282,
      0.6,
      0.857142857142857142857142857142,
      1.0,
      1.0)
_A = tuple(np.array(row, dtype=np.float64) for row in (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2),
))
_E = np.array([
    (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
     -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
     0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
     0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
     -0.2235530786388629525884427845e-1),
    _A[12] - np.array((0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0,
                       0.0, 0.0, 0.733846688281611857341361741547, 0.0, 0.0,
                       0.220588235294117647058823529412e-1)),
])

# PI step control (Gustafsson, ACM TOMS 17(4), 1991) with the exponents of
# Hairer's dop853.f and stabilization beta = 0.04 (dop853.f defaults to 0,
# which took 1-2% more field evaluations on the quartic-mirror flow): after
# an accepted step h grows by 0.9 err^-(1/8 - beta/5) err_prev^beta within
# [0.2, 10]; a rejection shrinks it by max(0.2, 0.9 err^(-1/8)), and the step
# after a rejection does not grow. err_prev is floored at 1e-4.
_SAFETY = 0.9
_BETA = 0.04
_ALPHA = 1 / 8 - _BETA / 5
_REJECT_EXP = 1 / 8
_SHRINK_MIN = 0.2
_GROW_MAX = 10.0
_ERR_FLOOR = 1e-4

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

    def interp_state(self, t: float) -> np.ndarray:
        return self.interp_state_and_deriv(t)[0]

    def interp_state_and_deriv(self, t: float):
        """Cubic Hermite interpolation between recorded samples.

        Exact at sample times (returns the stored row). Raises InputError
        outside the recorded range, NaN included.
        """
        t = float(t)
        ts = self.times
        if not ts[0] <= t <= ts[-1]:
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


def _by_row(y: np.ndarray) -> np.ndarray:
    """A family's states (..., 2R, d) as the rows (x_r, w_r), (..., R, 2d)."""
    *lead, n, d = y.shape
    return y.reshape(*lead, 2, n // 2, d).swapaxes(-3, -2).reshape(*lead, n // 2, 2 * d)


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

    def build(self, stats, row=None) -> Trajectory:
        sys, states, derivs = self.sys, self.states, self.derivs
        if row is not None:
            sys = sys.rows[row]
            states, derivs = (_by_row(np.array(a))[:, row].copy() for a in (states, derivs))
        f_gap = energy = None
        if sys.has_gap:
            f_gap = [sys.gap_value(t, y) for t, y in zip(self.times, states)]
        if sys.has_energy:
            energy = [sys.energy_value(t, y) for t, y in zip(self.times, states)]
        return Trajectory(
            sys.kind, sys.blocks, self.d, self.times, states, derivs,
            f_gap=f_gap, energy=energy, step_stats=stats,
        )


def integrate(sys, x0, t0: float, t_end: float, controls: dict,
              initial_state=None) -> Trajectory:
    """Integrate a FlowSystem from t0 to t_end (finite, t_end > t0).

    controls is one of
      {"method": "rk4", "steps": n, "record_every": k}
      {"method": "rk4_adaptive", "rel_tol": 1e-8, "abs_tol": 1e-12,
       "record_every": k}
    with the defaults shown; record_every defaults to 1 and steps has none.
    METHOD_CONTROLS lists the keys each method reads; any other key, steps
    on rk4_adaptive or a tolerance on rk4, raises InputError. steps and
    record_every are integers >= 1, steps at most MAX_STEPS; abs_tol is
    finite and positive, rel_tol finite and nonnegative, and rk4_adaptive
    needs t_end - t0 above its end tolerance 1e-14 * max(1, |t_end|). A
    violation raises InputError, as do t0 before the system's domain and an
    x0 outside the system's dimension. Deterministic given controls.

    rk4 takes steps fixed steps of 4 field evaluations. rk4_adaptive is
    Dormand-Prince 8(5,3), DOP853: its first attempt is (t_end - t0) / 100
    long, it makes at most MAX_STEPS attempts, and each attempt evaluates
    stages 2..12 and advances with the eighth-order solution. With e5 and
    e3 the max over coordinates of |h E5 . K| and |h E3 . K| divided by
    abs_tol + rel_tol * max(|y|, |y_new|), it accepts when
    e5^2 / sqrt(e5^2 + 0.01 e3^2) is at most 1, and a PI controller picks
    the next step. Stage 13, the field at an accepted state, is both the
    recorded derivative and the next step's stage 1; no estimate reads it,
    so a rejected attempt skips it, and step_stats["field_evals"] is
    12 * accepted + 11 * rejected + 1.

    initial_state overrides the system's standard initial state (used by
    force-free oracle checks that start with nonzero velocity). Divergence
    (state norm above DIVERGENCE_THRESHOLD, the initial state's included)
    raises DivergenceError carrying the partial trajectory, whose step_stats
    count the steps and field evaluations so far; exceeding MAX_STEPS
    attempts, a non-finite error estimate and a step too small to advance t
    raise SolverError; NaN/Inf in the state raises NumericalError.
    A family, build_el_system(h, f, triples), runs through integrate_family
    (here InputError) as one state on rk4 only (on rk4_adaptive each row
    would need its own step size). Row i's Trajectory is bit for bit
    integrate's for triples[i], f_gap, energy and step_stats included. A
    failing row raises what integrate raises for it alone (class, t, partial
    trajectory): of several, the one a single run meets first (a step's field
    evaluations, then the check of the new state), at a tie the lowest row.
    """
    if sys.rows is not None:
        raise InputError("a family of flows runs through integrate_family")
    return _integrate(sys, x0, t0, t_end, controls, initial_state)


def integrate_family(sys, x0, t0: float, t_end: float, controls: dict) -> list[Trajectory]:
    """integrate for a family system: one Trajectory per row (see integrate)."""
    if sys.rows is None:
        raise InputError("integrate_family needs build_el_system(h, f, triples)")
    return _integrate(sys, x0, t0, t_end, controls)


def _integrate(sys, x0, t0, t_end, controls, initial_state=None):
    rows = sys.rows
    t0, t_end = float(t0), float(t_end)
    if not (math.isfinite(t0) and math.isfinite(t_end)):
        raise InputError(f"t0 and t_end must be finite, got [{t0}, {t_end}]")
    if t0 < sys.valid_from - 1e-12:
        raise InputError(f"t0 = {t0} precedes the system's domain [{sys.valid_from}, inf)")
    if t_end <= t0:
        raise InputError(f"need t_end > t0, got [{t0}, {t_end}]")
    method = controls.get("method")
    if not isinstance(method, str) or method not in METHOD_CONTROLS:
        raise InputError(f"unknown integration method {method!r}")
    unread = set(controls) - METHOD_CONTROLS[method]
    if unread:
        raise InputError(f"{method} does not read the controls {sorted(unread)}; "
                         f"it reads {sorted(METHOD_CONTROLS[method])}")
    record_every = as_integer("record_every", controls.get("record_every", 1))
    if record_every < 1:
        raise InputError("record_every must be >= 1")
    if method == "rk4":
        steps = as_integer("steps", controls.get("steps"))
        if not 1 <= steps <= MAX_STEPS:
            raise InputError(f"rk4 steps = {steps} is outside [1, MAX_STEPS = {MAX_STEPS}]")
    elif rows is not None:
        raise InputError("a family runs on rk4 only: on rk4_adaptive each row "
                         "would need its own step size")
    else:
        rel_tol = as_real("rel_tol", controls.get("rel_tol", 1e-8))
        abs_tol = as_real("abs_tol", controls.get("abs_tol", 1e-12))
        h = (t_end - t0) / 100.0
        max_steps = MAX_STEPS
        if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
            raise InputError(f"rel_tol must be finite and >= 0, got {rel_tol}")
        if not (math.isfinite(abs_tol) and abs_tol > 0.0):
            raise InputError(f"abs_tol must be finite and > 0, got {abs_tol}")
        near_end = t_end - 1e-14 * max(1.0, abs(t_end))
        if t0 >= near_end:
            raise InputError(f"rk4_adaptive needs t_end - t0 above its end tolerance "
                             f"1e-14 * max(1, |t_end|), got [{t0!r}, {t_end!r}]")

    if initial_state is not None:
        y0 = np.array(initial_state, dtype=np.float64)
        if y0.ndim != 1 or y0.size % len(sys.blocks):
            raise InputError("initial_state does not match the system layout")
    else:
        x0 = as_point(x0)
        if sys.dimension not in (None, x0.size):
            raise InputError(
                f"the {sys.kind} system is {sys.dimension}-dimensional, x0 has size {x0.size}"
            )
        y0 = sys.initial_state_from(x0, t0)
    d = y0.size // len(sys.blocks) // (1 if rows is None else len(rows))
    rec = _Recorder(sys, d)

    field = sys.vector_field

    def checked(t, y, progress):
        """Raise on a non-finite or diverged state (row); progress() gives the
        partial record's step_stats, built only when it is needed. A finite
        squared norm means a finite state, so the elementwise test runs only
        when it is not (a finite state whose square overflows diverged)."""
        by_row = (y,) if rows is None else _by_row(y)
        norms_sq = (y.dot(y),) if rows is None else row_dots(by_row, by_row).tolist()
        for row, norm_sq in enumerate(norms_sq):
            if not math.isfinite(norm_sq) and not np.isfinite(by_row[row]).all():
                raise NumericalError(f"non-finite state during integration at t = {t}")
            if math.sqrt(norm_sq) > DIVERGENCE_THRESHOLD:
                raise DivergenceError(
                    f"state norm exceeded {DIVERGENCE_THRESHOLD:g} at t = {t}",
                    partial=rec.build(progress(), None if rows is None else row), t=t,
                )

    if method == "rk4":
        h = (t_end - t0) / steps
        y = y0.copy()
        t = t0
        evals = 0

        def progress():
            return {"method": "rk4", "steps": steps, "completed": evals // 4,
                    "field_evals": evals}

        checked(t, y, progress)
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
        stats = {"method": "rk4", "steps": steps, "completed": steps,
                 "field_evals": evals + 1, "record_every": record_every}
        if rows is None:
            return rec.build(stats)
        return [rec.build(stats, i) for i in range(len(rows))]

    y = y0.copy()
    t = t0
    accepted = rejected = evals = 0
    h_min_seen, h_max_seen = np.inf, 0.0
    err_prev = _ERR_FLOOR
    after_reject = False

    def progress():
        return {"method": "rk4_adaptive", "accepted": accepted,
                "rejected": rejected, "field_evals": evals}

    checked(t, y, progress)
    K = np.empty((12, y.size))
    stages = [(i, _C[i], _A[i], K[:i]) for i in range(1, 12)]
    b = _A[12]
    K[0] = field(t, y)  # field at the current state, shared by every attempt
    evals = 1
    rec.push(t, y, K[0])
    abs_y = np.abs(y)
    while t < near_end:
        h = min(h, t_end - t)
        if t + h == t:
            raise SolverError(f"the step size {h!r} no longer advances t = {t!r} "
                              f"({accepted} accepted, {rejected} rejected attempts)")
        for i, c, a, k in stages:
            K[i] = field(t + c * h, y + h * np.dot(a, k))
        evals += 11
        y_new = y + h * np.dot(b, K)
        abs_new = np.abs(y_new)
        scale = abs_tol + rel_tol * np.maximum(abs_y, abs_new)
        e5, e3 = (np.abs(np.dot(_E, K)) / scale).max(axis=1).tolist()
        if not (math.isfinite(e5) and math.isfinite(e3)):
            raise SolverError(f"non-finite error estimate at t = {t} with h = {h}: "
                              "a stage of the attempt left the float range")
        ratio = e3 / e5 if e5 > 0 else 0.0
        err = h * e5 / math.sqrt(1.0 + 0.01 * ratio * ratio)
        if err <= 1.0:
            t = t + h
            y, abs_y = y_new, abs_new
            accepted += 1
            h_min_seen, h_max_seen = min(h_min_seen, h), max(h_max_seen, h)
            checked(t, y, progress)
            K[0] = field(t, y)  # FSAL: stage 13 is the next step's stage 1
            evals += 1
            if accepted % record_every == 0 or t >= near_end:
                rec.push(t, y, K[0])
            factor = 1.0 if after_reject else _GROW_MAX
            if err > 0:
                factor = min(factor, max(_SHRINK_MIN, _SAFETY * err ** -_ALPHA
                                         * err_prev ** _BETA))
            err_prev = max(err, _ERR_FLOOR)
            after_reject = False
        else:
            rejected += 1
            factor = max(_SHRINK_MIN, _SAFETY * err ** -_REJECT_EXP)
            after_reject = True
        h *= factor
        if accepted + rejected > max_steps:
            raise SolverError(f"adaptive integrator exceeded {max_steps} step attempts")
    return rec.build(
        {"method": "rk4_adaptive", "accepted": accepted, "rejected": rejected,
         "field_evals": evals, "rel_tol": rel_tol, "abs_tol": abs_tol,
         "h_min": h_min_seen, "h_max": h_max_seen, "record_every": record_every}
    )
