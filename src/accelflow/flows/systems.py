"""First-order ODE systems for the variational and gradient flows.

Every system is reduced to first order with named state blocks of equal
dimension d. The damped oscillator form of the variational flow is never
integrated directly: the (X, W) form with W = grad h(Z), Z = X + e^{-alpha}
X_dot only needs grad h and its inverse, avoiding the mirror Hessian and its
singular inverse on the trajectory. Every damped flow is that form under its
scaling triple: the polynomial, exponential and small-mass families, and the
r-damped x_ddot + (r/t) x_dot + grad f = 0 (r_damped_triple under the
Euclidean map). Four builders make a FlowSystem: the (X, W) flow, its
(X, P) dual form, and the rescaled and natural gradient flows.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.mirrors import MirrorMap
from ..core.numerics import LOG_FLOAT_MAX, norm
from ..core.oracles import ObjectiveOracle
from ..core.points import as_point
from ..core.scalings import ScalingTriple, ideal_scaling_check
from ..errors import CapabilityError, InputError, NumericalError
from .energy import energy_at

GRADIENT_FLOOR = 1e-12

class FlowSystem:
    """ODE system dy/dt = vector_field(t, y) with named equal-size blocks.

    The state dimension is len(blocks) * d where d is fixed by the initial
    point, block i occupying state[i*d:(i+1)*d]; dimension is the d the
    objective or the mirror map settles (None when neither fixes one), which
    integrate checks x0 against. Systems are immutable and
    the field is pure, so integrations may run concurrently. The f-gap of a
    state is that of its first block, available when the objective declares
    its minimum value; energy is the Lyapunov functional, when the builder
    has one. The field and energy close over the mirror map, scaling triple
    and parameters they need; the system keeps nothing else of them. A
    family's rows are its single systems, which give each row's gap and energy.
    """

    def __init__(self, kind, blocks, vector_field, initial_state_from,
                 valid_from=0.0, objective=None, energy=None, dimension=None,
                 rows=None):
        self.kind = kind
        self.blocks = tuple(blocks)
        self.vector_field = vector_field
        self.initial_state_from = initial_state_from
        self.valid_from = float(valid_from)
        self.objective = objective
        self._energy = energy
        self.dimension = dimension
        self.rows = rows

    @property
    def has_energy(self) -> bool:
        return self._energy is not None

    @property
    def has_gap(self) -> bool:
        return self.objective is not None and self.objective.min_value is not None

    def energy_value(self, t: float, state: np.ndarray) -> float:
        if self._energy is None:
            raise CapabilityError(f"{self.kind} system has no energy functional")
        return self._energy(t, state)

    def gap_value(self, t: float, state: np.ndarray) -> float:
        if not self.has_gap:
            raise CapabilityError(f"{self.kind} system has no known optimum")
        d = state.size // len(self.blocks)
        return self.objective.gap(state[:d])


def _require_ideal_damping(s: ScalingTriple, form: str) -> None:
    """InputError unless gamma_dot = e^alpha at four times past s.valid_from."""
    report = ideal_scaling_check(s, [s.valid_from + dt for dt in (0.01, 0.1, 1.0, 10.0)])
    if not report.gamma_ok:
        raise InputError(
            "scaling triple violates gamma_dot = e^alpha "
            f"(max defect {report.max_gamma_defect:.3e}); "
            f"the {form} is only valid under it"
        )


def _require_mirror_hessian(h: MirrorMap, user: str) -> None:
    if type(h).hessian_dense is MirrorMap.hessian_dense:
        raise CapabilityError(f"{h.name} provides no dense Hessian; the {user} needs it")


def _dimension(f: ObjectiveOracle, h: MirrorMap) -> int | None:
    """The dimension f or h fixes (None when neither does); InputError when
    they fix different ones."""
    dims = {f.dimension, h.dimension} - {None}
    if len(dims) > 1:
        raise InputError(
            f"{f.name} is {f.dimension}-dimensional, the mirror map {h.name} "
            f"is {h.dimension}-dimensional"
        )
    return dims.pop() if dims else None


def _el_weights(s: ScalingTriple):
    """weights(t) = (e^alpha, -e^{alpha+beta}) of s by math.exp; InputError
    on overflow."""

    def weights(t):
        a, b = s.alpha_beta(t)
        ab = a + b
        if ab > LOG_FLOAT_MAX:
            raise InputError(f"the flow's weight e^(alpha + beta) = e^{ab:.6g} "
                             f"overflows a float at t = {t:.6g}; end the flow earlier")
        return math.exp(a), -math.exp(ab)

    return weights


def build_el_system(h: MirrorMap, f: ObjectiveOracle, s) -> FlowSystem:
    """The variational flow in (X, W) form.

    X_dot = e^{alpha} (grad h*(W) - X),  W_dot = -e^{alpha+beta} grad f(X),
    from the stationarity condition d/dt grad h(X + e^{-alpha} X_dot) =
    -e^{alpha+beta} grad f(X). Requires the damping condition
    gamma_dot = e^{alpha}, which is what collapses the second-order equation
    to this pair. Initial state (x0, grad h(x0)): zero initial velocity.
    The field at a time t where the weight e^{alpha+beta} overflows a float
    (alpha + beta > LOG_FLOAT_MAX, past t = 709 for the exponential triple
    with c = 1) raises InputError: the horizon lies beyond what the triple
    can represent.

    s may also be a sequence of R triples: their flows from one x0 as a
    family for integrate_family, its state the X rows and then the W rows
    (2R, d). h and f must declare rowwise (else CapabilityError); of the
    rows whose weight overflows, the lowest raises.
    """
    dimension = _dimension(f, h)

    def field(t, y):
        # weights are floats, or (R, 1) columns on a family's (R, d) blocks
        n = len(y) // 2
        x, w = y[:n], y[n:]
        ea, neg_eab = weights(t)
        out = np.empty(y.shape)
        dx, dw = out[:n], out[n:]
        np.subtract(h.dual_gradient(w), x, out=dx)
        np.multiply(ea, dx, out=dx)
        np.multiply(neg_eab, f.gradient(x), out=dw)
        return out

    if not isinstance(s, ScalingTriple):
        for obj in (h, f):
            if not obj.rowwise:
                raise CapabilityError(f"{obj.name} does not act row by row, as a family needs")
        triples = tuple(s)
        rows = tuple(build_el_system(h, f, one) for one in triples)
        if not rows:
            raise InputError("a family of flows needs at least one scaling triple")
        row_weights = [_el_weights(one) for one in triples]

        def weights(t):
            ea, neg_eab = np.empty((len(rows), 1)), np.empty((len(rows), 1))
            for i, row_weight in enumerate(row_weights):
                ea[i, 0], neg_eab[i, 0] = row_weight(t)
            return ea, neg_eab

        def init(x0, t0):
            starts = np.array([row.initial_state_from(x0, t0) for row in rows])
            return np.concatenate(np.split(starts, 2, axis=1))

        return FlowSystem("euler_lagrange", ("X", "W"), field, init,
                          valid_from=max(row.valid_from for row in rows),
                          dimension=dimension, rows=rows)

    _require_ideal_damping(s, "(X, W) reduction")
    weights = _el_weights(s)

    def init(x0, t0):
        x0 = as_point(x0)
        return np.concatenate([x0, h.gradient(x0)])

    energy = None
    if f.minimizer is not None and f.min_value is not None:
        x_star = f.minimizer

        def energy(t, y):
            d = y.size // 2
            return energy_at(h, f, s, t, y[:d], y[d:], x_star)

    return FlowSystem("euler_lagrange", ("X", "W"), field, init, valid_from=s.valid_from,
                      objective=f, energy=energy, dimension=dimension)


def build_hamiltonian_system(h: MirrorMap, f: ObjectiveOracle,
                             s: ScalingTriple) -> FlowSystem:
    """The dual-space form of the variational flow, in (X, P) coordinates.

    X_dot = e^{alpha} (grad h*(grad h(X) + e^{-gamma} P) - X)
    P_dot = -e^{alpha+gamma} grad^2 h(X) (grad h*(...) - X) + e^{alpha} P
            - e^{alpha+beta+gamma} grad f(X)

    Needs the mirror Hessian, hence the capability check. Initial state
    (x0, 0), which matches the (X, W) system's zero initial velocity.
    """
    _require_mirror_hessian(h, "momentum equation")
    dimension = _dimension(f, h)
    _require_ideal_damping(s, "(X, P) form")

    def field(t, y):
        d = y.size // 2
        x, pp = y[:d], y[d:]
        a, b, g = s.alpha(t), s.beta(t), s.gamma(t)
        ea = math.exp(a)
        z = h.dual_gradient(h.gradient(x) + math.exp(-g) * pp)
        vel = z - x
        dx = ea * vel
        dp = (
            -math.exp(a + g) * (h.hessian_dense(x) @ vel)
            + ea * pp
            - math.exp(a + b + g) * f.gradient(x)
        )
        return np.concatenate([dx, dp])

    def init(x0, t0):
        x0 = as_point(x0)
        return np.concatenate([x0, np.zeros_like(x0)])

    energy = None
    if f.minimizer is not None and f.min_value is not None:
        x_star = f.minimizer

        def energy(t, y):
            d = y.size // 2
            x, pp = y[:d], y[d:]
            w = h.gradient(x) + math.exp(-s.gamma(t)) * pp
            return energy_at(h, f, s, t, x, w, x_star)

    return FlowSystem("hamiltonian", ("X", "P"), field, init, valid_from=s.valid_from,
                      objective=f, energy=energy, dimension=dimension)


def build_rescaled_gradient_flow(f: ObjectiveOracle, p: float) -> FlowSystem:
    """X_dot = -grad f(X) / ||grad f(X)||^{(p-2)/(p-1)} for real p >= 2.

    p = 2 is plain gradient flow. The field is zero once the gradient norm
    falls to GRADIENT_FLOOR: the flow is singular exactly at critical
    points, and the zero convention extends it there.
    """
    if p < 2:
        raise InputError(f"rescaled gradient flow needs p >= 2, got {p}")
    expo = (p - 2.0) / (p - 1.0)

    def field(t, y):
        g = f.gradient(y)
        n = norm(g)
        if n <= GRADIENT_FLOOR:
            return np.zeros_like(y)
        return -g / n ** expo

    return FlowSystem("rescaled_gradient", ("X",), field,
                      lambda x0, t0: as_point(x0), objective=f, dimension=f.dimension)


def build_natural_gradient_flow(h: MirrorMap, f: ObjectiveOracle) -> FlowSystem:
    """X_dot solves grad^2 h(X) v = -grad f(X): steepest descent in the
    Hessian metric of h, and the m -> 0 limit of the massless flow."""
    _require_mirror_hessian(h, "natural gradient field")
    dimension = _dimension(f, h)

    def field(t, y):
        H = h.hessian_dense(y)
        try:
            return np.linalg.solve(H, -f.gradient(y))
        except np.linalg.LinAlgError:
            raise NumericalError(
                f"singular mirror Hessian on the trajectory at state {y}"
            ) from None

    return FlowSystem("natural_gradient", ("X",), field,
                      lambda x0, t0: as_point(x0), objective=f, dimension=dimension)
