"""First-order ODE systems for the variational and gradient flows.

Every system is reduced to first order with named state blocks of equal
dimension d. The damped oscillator form of the variational flow is never
integrated directly: the (X, W) form with W = grad h(Z), Z = X + e^{-alpha}
X_dot only needs grad h and its inverse, avoiding the mirror Hessian and its
singular inverse on the trajectory.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.mirrors import MirrorMap
from ..core.numerics import norm
from ..core.oracles import ObjectiveOracle
from ..core.points import as_point
from ..core.scalings import ScalingTriple, ideal_scaling_check, massless_triple
from ..errors import CapabilityError, InputError, NumericalError
from .energy import energy_at

GRADIENT_FLOOR = 1e-12
# the largest x whose e^x is a finite float
LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)

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
    and parameters they need; the system keeps nothing else of them.
    """

    def __init__(self, kind, blocks, vector_field, initial_state_from,
                 valid_from=0.0, objective=None, energy=None, dimension=None):
        self.kind = kind
        self.blocks = tuple(blocks)
        self.vector_field = vector_field
        self.initial_state_from = initial_state_from
        self.valid_from = float(valid_from)
        self.objective = objective
        self._energy = energy
        self.dimension = dimension

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


def _probe_grid(valid_from: float):
    return [valid_from + dt for dt in (0.01, 0.1, 1.0, 10.0)]


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


def build_el_system(h: MirrorMap, f: ObjectiveOracle, s: ScalingTriple,
                    kind: str = "euler_lagrange") -> FlowSystem:
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
    """
    dimension = _dimension(f, h)
    report = ideal_scaling_check(s, _probe_grid(s.valid_from))
    if not report.gamma_ok:
        raise InputError(
            "scaling triple violates gamma_dot = e^alpha "
            f"(max defect {report.max_gamma_defect:.3e}); "
            "the (X, W) reduction is only valid under it"
        )

    def field(t, y):
        d = y.size // 2
        x, w = y[:d], y[d:]
        a, b = s.alpha_beta(t)
        ab = a + b
        if ab > LOG_FLOAT_MAX:
            raise InputError(f"the flow's weight e^(alpha + beta) = e^{ab:.6g} "
                             f"overflows a float at t = {t:.6g}; end the flow earlier")
        out = np.empty(y.shape)
        dx, dw = out[:d], out[d:]
        np.subtract(h.dual_gradient(w), x, out=dx)
        np.multiply(math.exp(a), dx, out=dx)
        np.multiply(-math.exp(ab), f.gradient(x), out=dw)
        return out

    def init(x0, t0):
        x0 = as_point(x0)
        return np.concatenate([x0, h.gradient(x0)])

    energy = None
    if f.minimizer is not None:
        x_star = f.minimizer

        def energy(t, y):
            d = y.size // 2
            return energy_at(h, f, s, t, y[:d], y[d:], x_star)

    return FlowSystem(kind, ("X", "W"), field, init, valid_from=s.valid_from,
                      objective=f, energy=energy, dimension=dimension)


def build_massless_system(h: MirrorMap, f: ObjectiveOracle, m: float) -> FlowSystem:
    """The small-mass variational flow: X_dot = (1/m)(grad h*(W) - X),
    W_dot = -grad f(X). Relaxes onto the natural gradient flow as m -> 0."""
    if m <= 0:
        raise InputError(f"mass must be positive, got {m}")
    return build_el_system(h, f, massless_triple(m), kind="massless_lagrangian")


def build_hamiltonian_system(h: MirrorMap, f: ObjectiveOracle,
                             s: ScalingTriple) -> FlowSystem:
    """The dual-space form of the variational flow, in (X, P) coordinates.

    X_dot = e^{alpha} (grad h*(grad h(X) + e^{-gamma} P) - X)
    P_dot = -e^{alpha+gamma} grad^2 h(X) (grad h*(...) - X) + e^{alpha} P
            - e^{alpha+beta+gamma} grad f(X)

    Needs the mirror Hessian, hence the capability check. Initial state
    (x0, 0), which matches the (X, W) system's zero initial velocity.
    """
    if type(h).hessian_dense is MirrorMap.hessian_dense:
        raise CapabilityError(
            f"{h.name} provides no dense Hessian; the momentum equation needs it"
        )
    dimension = _dimension(f, h)
    report = ideal_scaling_check(s, _probe_grid(s.valid_from))
    if not report.gamma_ok:
        raise InputError("scaling triple violates gamma_dot = e^alpha")

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
    if f.minimizer is not None:
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
    if type(h).hessian_dense is MirrorMap.hessian_dense:
        raise CapabilityError(f"{h.name} provides no dense Hessian")
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


def build_euclidean_r_system(f: ObjectiveOracle, r: float,
                             force_scaling="unit") -> FlowSystem:
    """x_ddot + (r/t) x_dot + force(t) grad f(x) = 0 as a system in (X, V),
    valid from t = 0.1 (the r/t damping is singular at t = 0).

    force_scaling "unit" uses force = 1 (the classical r-damped equation;
    r = 3 is the accelerated-gradient limit ODE). force_scaling ("matched", C)
    uses force = C p^2 t^{p-2} with p = r - 1, the Euclidean specialization
    of the polynomial variational flow (note (p+1)/t = r/t, so only the force
    term differs).
    """
    if r <= 0:
        raise InputError(f"r must be positive, got {r}")
    if force_scaling == "unit":
        force = lambda t: 1.0
    else:
        try:
            kind_tag, C = force_scaling
        except (TypeError, ValueError):
            raise InputError(
                f"force_scaling must be 'unit' or ('matched', C), got {force_scaling!r}"
            ) from None
        if kind_tag != "matched" or C <= 0:
            raise InputError(
                f"force_scaling must be 'unit' or ('matched', C > 0), got {force_scaling!r}"
            )
        p = r - 1.0
        force = lambda t: C * p * p * t ** (p - 2.0)

    def field(t, y):
        d = y.size // 2
        x, v = y[:d], y[d:]
        dv = -(r / t) * v - force(t) * f.gradient(x)
        return np.concatenate([v, dv])

    def init(x0, t0):
        x0 = as_point(x0)
        return np.concatenate([x0, np.zeros_like(x0)])

    return FlowSystem("euclidean_r", ("X", "V"), field, init,
                      valid_from=0.1, objective=f, dimension=f.dimension)
