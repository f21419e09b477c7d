"""Time reparametrization of scaling triples and recorded trajectories.

Speeding up or slowing down the clock maps one member of the damped-dynamics
family onto another: the whole polynomial-rate hierarchy collapses to a single
curve traversed at different speeds. dilate_triple performs the symbolic map
on a scaling triple; dilate_trajectory relabels an already-integrated
trajectory so the two can be compared numerically.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.scalings import ScalingTriple
from ..errors import InputError
from .integrate import Trajectory


class TimeDilation:
    """A smooth, strictly increasing reparametrization tau of time.

    Carries tau, its first two derivatives, and its inverse; all four are
    scalar functions of a scalar.
    """

    def __init__(self, tau, tau_dot, tau_ddot, inverse, name="custom"):
        self.tau = tau
        self.tau_dot = tau_dot
        self.tau_ddot = tau_ddot
        self.inverse = inverse
        self.name = name

    @classmethod
    def power(cls, a: float) -> "TimeDilation":
        """tau(t) = t**a for a > 0 (defined for t >= 0)."""
        a = float(a)
        if a <= 0:
            raise InputError(f"power dilation needs a > 0, got {a}")
        return cls(
            lambda t: t ** a,
            lambda t: a * t ** (a - 1.0),
            lambda t: a * (a - 1.0) * t ** (a - 2.0),
            lambda s: s ** (1.0 / a),
            name=f"t^{a:g}",
        )


def dilate_triple(triple: ScalingTriple, dilation: TimeDilation) -> ScalingTriple:
    """Reparametrize a scaling triple by tau.

    The damping term picks up log tau_dot; the other two scalings simply
    compose with tau. The result satisfies the ideal-scaling conditions with
    the same tightness as the source. The new domain starts at
    tau^{-1}(old domain start).
    """
    new_from = float(dilation.inverse(triple.valid_from))
    for off in (0.01, 0.1, 1.0, 10.0):
        t = new_from + off
        if dilation.tau_dot(t) <= 0:
            raise InputError(
                f"dilation {dilation.name!r} is not increasing at t = {t}"
            )

    tau, tau_dot, tau_ddot = dilation.tau, dilation.tau_dot, dilation.tau_ddot

    return ScalingTriple(
        alpha=lambda t: triple.alpha(tau(t)) + math.log(tau_dot(t)),
        beta=lambda t: triple.beta(tau(t)),
        gamma=lambda t: triple.gamma(tau(t)),
        alpha_dot=lambda t: triple.alpha_dot(tau(t)) * tau_dot(t)
        + tau_ddot(t) / tau_dot(t),
        beta_dot=lambda t: triple.beta_dot(tau(t)) * tau_dot(t),
        gamma_dot=lambda t: triple.gamma_dot(tau(t)) * tau_dot(t),
        valid_from=new_from,
    )


def dilate_trajectory(traj: Trajectory, new_times, dilation: TimeDilation) -> Trajectory:
    """Relabel a recorded trajectory onto a new clock.

    The dilated trajectory at time t is the source trajectory at tau(t),
    every block included; its velocity picks up the factor tau_dot(t). States
    between source samples come from the trajectory's cubic Hermite
    interpolant, so values at source sample times are reproduced exactly.
    f_gap and energy relabel the same way (linear interpolation; they are
    diagnostics, not integrated quantities). new_times whose image leaves the
    recorded range raise InputError.
    """
    new_times = np.asarray(new_times, dtype=np.float64)
    if new_times.ndim != 1 or len(new_times) < 2:
        raise InputError("need at least two new sample times")
    if np.any(np.diff(new_times) <= 0):
        raise InputError("new sample times must be strictly increasing")

    states = np.empty((len(new_times), traj.states.shape[1]))
    derivs = np.empty_like(states)
    mapped = np.empty_like(new_times)
    for i, t in enumerate(new_times):
        s = float(dilation.tau(t))
        mapped[i] = s
        y, dy = traj.interp_state_and_deriv(s)
        states[i] = y
        derivs[i] = dy * dilation.tau_dot(t)

    f_gap = energy = None
    if traj.f_gap is not None:
        f_gap = np.interp(mapped, traj.times, traj.f_gap)
    if traj.energy is not None:
        energy = np.interp(mapped, traj.times, traj.energy)

    stats = {"dilated_from": dict(traj.step_stats), "dilation": dilation.name}
    return Trajectory(traj.kind, traj.blocks, traj.d, new_times, states, derivs,
                      f_gap=f_gap, energy=energy, step_stats=stats)
