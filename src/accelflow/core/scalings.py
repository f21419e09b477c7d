"""Time-weight triples (alpha, beta, gamma) for the variational flows.

alpha_t sets the velocity scale, beta_t the objective weight, gamma_t the
damping weight. The flows need e^{alpha} and the time derivatives exactly,
so each triple carries analytic derivative callables; nothing here is ever
differentiated numerically.

The two scaling conditions that make the energy certificate work are
beta_dot <= e^{alpha} (rate condition, equality is the optimal choice) and
gamma_dot = e^{alpha} (damping condition, required by the flow builders).
ideal_scaling_check evaluates both on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import InputError
from .numerics import LOG_FLOAT_MAX

SCALING_TOL = 1e-10

class ScalingTriple:
    """Bundle of (alpha, beta, gamma) and their analytic time derivatives.

    valid_from marks the left end of the domain (several families are
    singular at t = 0). alpha_beta(t) returns the pair (alpha(t), beta(t))
    bit for bit; a family may pass one that shares the work of the two, and
    by default it calls both.
    """

    def __init__(self, alpha, beta, gamma, alpha_dot, beta_dot, gamma_dot,
                 valid_from: float = 0.0, alpha_beta=None):
        self.alpha: Callable[[float], float] = alpha
        self.beta: Callable[[float], float] = beta
        self.gamma: Callable[[float], float] = gamma
        self.alpha_dot: Callable[[float], float] = alpha_dot
        self.beta_dot: Callable[[float], float] = beta_dot
        self.gamma_dot: Callable[[float], float] = gamma_dot
        self.valid_from = float(valid_from)
        self.alpha_beta: Callable[[float], tuple[float, float]] = (
            alpha_beta or (lambda t: (alpha(t), beta(t))))

    def exp_alpha(self, t: float) -> float:
        return math.exp(self.alpha(t))


def polynomial_triple(p: float, C: float = 1.0, t_min: float = 0.1) -> ScalingTriple:
    """The O(1/t^p) family: alpha = log p - log t, beta = p log t + log C,
    gamma = p log t. Singular at t = 0, hence valid_from = t_min, where
    e^alpha = p / t is largest; it must be a finite float."""
    for name, value in (("p", p), ("C", C), ("t_min", t_min)):
        if not value > 0:
            raise InputError(f"polynomial triple needs {name} > 0, got {value!r}")
    p, C = float(p), float(C)
    logp, logC = math.log(p), math.log(C)
    if logp - math.log(t_min) > LOG_FLOAT_MAX:
        raise InputError(f"e^alpha = p / t overflows a float at t = {t_min:g} "
                         f"with p = {p:g}")

    def alpha_beta(t):
        log_t = math.log(t)
        return logp - log_t, p * log_t + logC

    return ScalingTriple(
        alpha=lambda t: logp - math.log(t),
        beta=lambda t: p * math.log(t) + logC,
        gamma=lambda t: p * math.log(t),
        alpha_dot=lambda t: -1.0 / t,
        beta_dot=lambda t: p / t,
        gamma_dot=lambda t: p / t,
        valid_from=t_min,
        alpha_beta=alpha_beta,
    )


def exponential_triple(c: float) -> ScalingTriple:
    """The O(e^{-ct}) family: alpha = log c, beta = gamma = c t."""
    if not c > 0:
        raise InputError(f"exponential triple needs c > 0, got {c!r}")
    c = float(c)
    logc = math.log(c)
    return ScalingTriple(
        alpha=lambda t: logc,
        beta=lambda t: c * t,
        gamma=lambda t: c * t,
        alpha_dot=lambda t: 0.0,
        beta_dot=lambda t: c,
        gamma_dot=lambda t: c,
        valid_from=0.0,
    )


def r_damped_triple(r: float) -> ScalingTriple:
    """alpha = log(r-1) - log t, beta = 2 log t - 2 log(r-1), gamma = (r-1)
    log t: under the Euclidean map the flow x_ddot + (r/t) x_dot + grad f = 0
    (e^alpha - alpha_dot = r/t, e^{2 alpha + beta} = 1), valid from t = 0.1.
    gamma_dot = e^alpha for every r > 1; beta_dot = 2/t <= e^alpha iff
    r >= 3, so more damping cannot beat the 1/t^2 rate."""
    if not r > 1:
        raise InputError(f"r-damped triple needs r > 1, got {r!r}")
    q = float(r) - 1.0
    logq = math.log(q)
    if logq - math.log(0.1) > LOG_FLOAT_MAX:
        raise InputError(f"e^alpha = (r - 1) / t overflows a float at t = 0.1 with r = {r:g}")
    return ScalingTriple(
        alpha=lambda t: logq - math.log(t),
        beta=lambda t: 2.0 * math.log(t) - 2.0 * logq,
        gamma=lambda t: q * math.log(t),
        alpha_dot=lambda t: -1.0 / t,
        beta_dot=lambda t: 2.0 / t,
        gamma_dot=lambda t: q / t,
        valid_from=0.1,
    )


def massless_triple(m: float) -> ScalingTriple:
    """alpha = -log m, beta = log m, gamma = t/m: the small-mass family whose
    flow relaxes onto the natural gradient flow as m -> 0."""
    if not m > 0:
        raise InputError(f"massless triple needs m > 0, got {m!r}")
    m = float(m)
    logm = math.log(m)
    return ScalingTriple(
        alpha=lambda t: -logm,
        beta=lambda t: logm,
        gamma=lambda t: t / m,
        alpha_dot=lambda t: 0.0,
        beta_dot=lambda t: 0.0,
        gamma_dot=lambda t: 1.0 / m,
        valid_from=0.0,
    )


@dataclass
class IdealScalingReport:
    """Grid verdict on the two scaling conditions.

    beta_ok:   beta_dot <= e^alpha everywhere (within SCALING_TOL)
    gamma_ok:  gamma_dot == e^alpha everywhere (within SCALING_TOL)
    beta_tight: beta_dot == e^alpha everywhere (the rate-optimal choice)
    max_gamma_defect: worst violation of the gamma condition observed
    """

    beta_ok: bool
    gamma_ok: bool
    beta_tight: bool
    max_gamma_defect: float


def ideal_scaling_check(s: ScalingTriple, grid) -> IdealScalingReport:
    """Evaluate the scaling conditions on a time grid within s's domain."""
    grid = [float(t) for t in grid]
    if not grid:
        raise InputError("empty grid")
    if min(grid) < s.valid_from:
        raise InputError(
            f"grid starts at {min(grid)}, before valid_from = {s.valid_from}"
        )
    beta_excess = max(s.beta_dot(t) - s.exp_alpha(t) for t in grid)
    gamma_defect = max(abs(s.gamma_dot(t) - s.exp_alpha(t)) for t in grid)
    beta_defect = max(abs(s.beta_dot(t) - s.exp_alpha(t)) for t in grid)
    return IdealScalingReport(
        beta_ok=beta_excess <= SCALING_TOL,
        gamma_ok=gamma_defect <= SCALING_TOL,
        beta_tight=beta_defect <= SCALING_TOL,
        max_gamma_defect=gamma_defect,
    )
