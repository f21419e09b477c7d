"""The regularized higher-order update operator and its progress certificates.

One update minimizes the order-(p-1) Taylor model of f plus the regularizer
(N/(eps*p)) ||y - x||^p. For p = 2 this is an exact gradient step; for p = 3
the subproblem reduces to a scalar secular equation solved to machine
precision through one symmetric eigendecomposition; for p = 4 a
quartic-regularized secular solve warm-starts a damped Newton iteration on
the model. Every step returns a certificate holding the progress inequality

    <grad f(y), x - y>  >=  M eps^{1/(p-1)} ||grad f(y)||^{p/(p-1)},
    M = (N^2 - 1)^{(p-2)/(2p-2)} / (2N),

and the move-norm sandwich that the accelerated method's analysis consumes.
The inequalities are guaranteed when f is ((p-1)!/eps)-smooth of order p-1;
the certificate evaluates them rather than trusting them, so a mis-declared
smoothness constant shows up as a flagged violation, not silent nonsense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core.points import Point, as_point
from .errors import CapabilityError, InputError, SolverError

CERT_TOL = 1e-8
RESIDUAL_TARGET = 1e-9  # relative, p in {2, 3}
RESIDUAL_LIMIT_P4 = 1e-6


@dataclass(frozen=True)
class StepConfig:
    """Parameters (p, epsilon, N) of the update operator.

    N > 0 is accepted (the plain descent method runs fine at N = 1); the
    progress lower bound is vacuous at p > 2 unless N > 1.
    """

    p: int
    epsilon: float
    N: float = 2.0

    def __post_init__(self):
        if self.p not in (2, 3, 4):
            raise InputError(f"supported orders are p in {{2, 3, 4}}, got {self.p}")
        if not self.epsilon > 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        if not self.N > 0:
            raise InputError(f"N must be positive, got {self.N}")


@dataclass(slots=True)
class StepCertificate:
    """Evaluated progress and move-norm inequalities for one update pair.

    grad_y is grad f(y), which callers reuse instead of evaluating it again.
    Runs keep one certificate per iteration, so instances carry no __dict__.
    """

    x: Point
    y: Point
    grad_y: Point
    grad_y_norm: float
    progress: float
    progress_lower: float
    move_norm: float
    move_bounds: tuple[float, float]
    residual: float
    ok: bool


def progress_coefficient(p: int, N: float) -> float:
    """M in the progress inequality. For p = 2 the (N^2-1) factor carries
    exponent zero and the bound holds for every N > 0, so M = 1/(2N)."""
    if p == 2:
        return 1.0 / (2.0 * N)
    if N <= 1.0:
        return 0.0  # inequality degenerates to plain descent
    return (N * N - 1.0) ** ((p - 2.0) / (2.0 * p - 2.0)) / (2.0 * N)


def smoothness_epsilon(f, p: int) -> float:
    """Largest epsilon the theory certifies: (p-1)! / L_{p-1}.

    Raises CapabilityError when f does not declare a Lipschitz constant for
    its order-(p-1) derivative.
    """
    return math.factorial(p - 1) / f.smoothness_constant(p - 1)


def _model_gradient(f, x: Point, g: Point, u: Point, cfg: StepConfig) -> Point:
    """Gradient of the regularized Taylor model at displacement u; g = grad f(x)."""
    s = cfg.N / cfg.epsilon
    r = float(np.linalg.norm(u))
    out = g + s * r ** (cfg.p - 2.0) * u
    if cfg.p >= 3:
        out = out + f.hessian_apply(x, u)
    if cfg.p == 4:
        out = out + 0.5 * f.third_apply(x, u, u)
    return out


def _secular_displacement(eigvals, eigvecs, g, scale: float, power: int,
                          r_hi: float):
    """Solve u = -(H + scale * r^power I)^{-1} g with r = ||u||.

    H is given by its eigendecomposition; phi(r) = ||u(r)|| - r is strictly
    decreasing with phi(0+) > 0, and r_hi = (||g||/scale)^{1/(power+1)}
    satisfies phi(r_hi) <= 0 because ||(H + cI)^{-1} g|| <= ||g||/c for
    H >= 0. Tiny negative eigenvalues (symmetric-eig roundoff) are clamped.
    """
    lam = np.maximum(eigvals, 0.0)
    coords = eigvecs.T @ g

    def norm_u(r):
        return float(np.linalg.norm(coords / (lam + scale * r ** power)))

    def phi(r):
        return norm_u(r) - r

    lo = 1e-16 * r_hi
    if phi(lo) <= 0.0:
        r = norm_u(lo)  # regularizer negligible: essentially a Newton step
        r = norm_u(r)
    else:
        hi = r_hi
        tries = 0
        while phi(hi) > 0.0 and tries < 60:  # roundoff guard; phi(r_hi) <= 0
            hi *= 2.0
            tries += 1
        r = brentq(phi, lo, hi, xtol=1e-15 * r_hi + 1e-300,
                   rtol=4.0 * np.finfo(float).eps, maxiter=200)
    u = -(eigvecs @ (coords / (lam + scale * r ** power)))
    return u


def _newton_polish_p4(f, x, g, H, u0, scale: float, target: float):
    """Damped Newton on the order-3 model with quartic regularization."""
    d = x.size
    eye = np.eye(d)

    def model_value(u):
        r2 = float(u @ u)
        return (
            float(g @ u)
            + 0.5 * float(u @ (H @ u))
            + float(u @ f.third_apply(x, u, u)) / 6.0
            + 0.25 * scale * r2 * r2
        )

    def model_grad(u):
        return (
            g + H @ u + 0.5 * f.third_apply(x, u, u)
            + scale * float(u @ u) * u
        )

    u = u0
    val = model_value(u)
    for _ in range(100):
        gm = model_grad(u)
        if float(np.linalg.norm(gm)) <= target:
            break
        third_cols = np.column_stack(
            [f.third_apply(x, u, eye[:, j]) for j in range(d)]
        )
        hess = H + third_cols + scale * (float(u @ u) * eye + 2.0 * np.outer(u, u))
        try:
            step = np.linalg.solve(hess, -gm)
        except np.linalg.LinAlgError:
            step = -gm
        slope = float(gm @ step)
        if slope >= 0.0:  # nonconvex model direction; fall back to steepest descent
            step = -gm
            slope = -float(gm @ gm)
        alpha = 1.0
        while alpha > 1e-13:
            cand = u + alpha * step
            if model_value(cand) <= val + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # line search stalled; report the best iterate found
        u = u + alpha * step
        val = model_value(u)
    return u


def g_step(f, x: Point, cfg: StepConfig) -> tuple[Point, StepCertificate]:
    """One update y = argmin_y f_{p-1}(y; x) + (N/(eps p)) ||y - x||^p.

    Returns the new point and the evaluated certificate. Raises
    CapabilityError when f lacks order-(p-1) derivatives and SolverError when
    the p = 4 inner iteration cannot reach its residual target (a symptom of
    a nonconvex model).
    """
    x = as_point(x)
    if f.derivative_order < cfg.p - 1:
        raise CapabilityError(
            f"{f.name} exposes derivatives to order {f.derivative_order}; "
            f"p = {cfg.p} needs order {cfg.p - 1}"
        )
    g = f.gradient(x)
    gnorm = float(np.linalg.norm(g))
    s = cfg.N / cfg.epsilon

    if gnorm == 0.0:
        # stationary point of the model (all benchmark objectives are convex
        # with their higher Taylor terms vanishing only alongside the
        # gradient at the minimizer)
        return x.copy(), _certify(f, x, x.copy(), cfg, g)

    if cfg.p == 2:
        y = x - (cfg.epsilon / cfg.N) * g
        return y, _certify(f, x, y, cfg, g)

    H = f.hessian_dense(x)
    eigvals, eigvecs = np.linalg.eigh(H)
    if eigvals[0] < -1e-8 * max(1.0, float(np.max(np.abs(eigvals)))):
        raise SolverError(
            f"Taylor model at x is not convex (eigenvalue {eigvals[0]:.3e}); "
            "the subproblem solvers assume convex benchmarks",
            best=None, residual=float("nan"),
        )

    if cfg.p == 3:
        r_hi = math.sqrt(gnorm / s)
        u = _secular_displacement(eigvals, eigvecs, g, s, 1, r_hi)
        y = x + u
        cert = _certify(f, x, y, cfg, g)
        if cert.residual > RESIDUAL_TARGET * (1.0 + gnorm):
            raise SolverError(
                f"secular solve left residual {cert.residual:.3e}",
                best=y, residual=cert.residual,
            )
        return y, cert

    # p = 4: quartic-regularized quadratic solve, then Newton on the full model
    r_hi = (gnorm / s) ** (1.0 / 3.0)
    u0 = _secular_displacement(eigvals, eigvecs, g, s, 2, r_hi)
    target = 1e-10 * (1.0 + gnorm)
    u = _newton_polish_p4(f, x, g, H, u0, s, target)
    y = x + u
    cert = _certify(f, x, y, cfg, g)
    if cert.residual > RESIDUAL_LIMIT_P4:
        raise SolverError(
            f"inner solve stalled at residual {cert.residual:.3e} "
            f"(limit {RESIDUAL_LIMIT_P4:g})",
            best=y, residual=cert.residual,
        )
    return y, cert


def verify_step_progress(f, x: Point, y: Point, cfg: StepConfig) -> StepCertificate:
    """Evaluate the progress inequality and move-norm sandwich at (x, y).

    Violations are recorded in cert.ok, not raised: a failed certificate is
    evidence about the declared smoothness, and the caller decides what to do
    with it.
    """
    x = as_point(x)
    return _certify(f, x, y, cfg, f.gradient(x))


def _certify(f, x: Point, y: Point, cfg: StepConfig, gx: Point) -> StepCertificate:
    """verify_step_progress with gx = grad f(x) already evaluated."""
    x = as_point(x)
    y = as_point(y, dim=x.size)
    gy = f.gradient(y)
    gy_norm = float(np.linalg.norm(gy))
    move = y - x
    move_norm = float(np.linalg.norm(move))
    progress = float(gy @ (x - y))

    M = progress_coefficient(cfg.p, cfg.N)
    q = 1.0 / (cfg.p - 1.0)
    lower = M * cfg.epsilon ** q * gy_norm ** (cfg.p * q)
    move_lo = M * (cfg.epsilon * gy_norm) ** q
    if cfg.N > 1.0:
        move_hi = (cfg.epsilon * gy_norm / (cfg.N - 1.0)) ** q
    else:
        move_hi = math.inf

    residual = float(np.linalg.norm(_model_gradient(f, x, gx, move, cfg)))
    ok = (
        progress >= lower - CERT_TOL
        and move_lo - CERT_TOL <= move_norm <= move_hi + CERT_TOL
    )
    return StepCertificate(
        x=x.copy(), y=y.copy(), grad_y=gy, grad_y_norm=gy_norm, progress=progress,
        progress_lower=lower, move_norm=move_norm,
        move_bounds=(move_lo, move_hi), residual=residual, ok=ok,
    )
