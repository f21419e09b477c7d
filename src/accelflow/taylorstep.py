"""The regularized higher-order update operator and its progress certificates.

One update minimizes the order-(p-1) Taylor model of f plus the regularizer
(N/(eps*p)) ||y - x||^p. For p = 2 this is an exact gradient step; for p = 3
the subproblem reduces to a scalar secular equation solved to machine
precision through one symmetric eigendecomposition; for p = 4 a
quartic-regularized secular solve warm-starts a damped Newton iteration on
the model. A step evaluates the Hessian at x once: the secular solve, the
p = 4 polish and the certificate's model gradient all read that matrix.
The decomposition is kept for the last distinct Hessian (_eigh), so a
step whose Hessian has the previous one's bytes, as on a quadratic,
reuses it: one eigendecomposition per distinct Hessian.
Every step returns a certificate holding the progress inequality

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
from typing import NamedTuple

import numpy as np

from .core.numerics import norm
from .core.points import Point, as_point
from .errors import CapabilityError, InputError, SolverError

CERT_TOL = 1e-8
RESIDUAL_TARGET = 1e-9  # relative, p in {2, 3}
RESIDUAL_LIMIT_P4 = 1e-6
SECULAR_RTOL = 4.0 * np.finfo(float).eps
SECULAR_MAXITER = 100
DEFAULT_N = 2.0  # the default N of StepConfig, AccelConfig and the kinds


def _check_order(p) -> None:
    if p not in (2, 3, 4):
        raise InputError(f"supported orders are p in {{2, 3, 4}}, got {p}")


@dataclass(frozen=True)
class StepConfig:
    """Parameters (p, epsilon, N) of the update operator.

    N > 0 is accepted (the plain descent method runs fine at N = 1); the
    progress lower bound is vacuous at p > 2 unless N > 1.
    """

    p: int
    epsilon: float
    N: float = DEFAULT_N

    def __post_init__(self):
        _check_order(self.p)
        if not self.epsilon > 0:
            raise InputError(f"epsilon must be positive, got {self.epsilon}")
        if not self.N > 0:
            raise InputError(f"N must be positive, got {self.N}")


class StepCertificate(NamedTuple):
    """Evaluated progress and move-norm inequalities for one update pair.

    move_lo and move_hi bound move_norm from below and above. A run stores
    each certificate as it is, a row of CERTIFICATE_DTYPE; the step's x, y
    and grad f(y) are the run's own xs, ys and grad_ys.
    """

    grad_y_norm: float
    progress: float
    progress_lower: float
    move_norm: float
    move_lo: float
    move_hi: float
    residual: float
    ok: bool


CERTIFICATE_DTYPE = np.dtype([(name, np.bool_ if name == "ok" else np.float64)
                              for name in StepCertificate._fields])


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

    Raises InputError for p outside {2, 3, 4} and CapabilityError when f
    does not declare a Lipschitz constant for its order-(p-1) derivative.
    """
    _check_order(p)
    return math.factorial(p - 1) / f.smoothness_constant(p - 1)


def _model_gradient(f, x: Point, g: Point, H, u: Point, cfg: StepConfig,
                    third=None) -> Point:
    """Gradient of the regularized Taylor model at displacement u; g = grad f(x)
    and H = its Hessian (None at p = 2); at p = 4, third is
    f.third_apply(x, u, u) when the caller has it."""
    s = cfg.N / cfg.epsilon
    if cfg.p == 2:
        return g + s * u
    if cfg.p == 3:
        return g + H @ u + s * norm(u) * u
    if third is None:
        third = f.third_apply(x, u, u)
    return g + H @ u + 0.5 * third + s * float(u @ u) * u


def _secular_root(lam, coords, scale: float, power: int):
    """The root r of ||u(r)|| = r, u(r) = coords / (lam + scale r^power), and
    lam + scale r^power there; lam >= 0 holds H's eigenvalues and coords the
    gradient g in H's eigenbasis.

    At the root, r (lam' + scale r^power) = ||g|| for some lam' between
    min lam and max lam. In units of base = (||g|| / scale)^{1/(power+1)},
    the root where lam = 0, x = r / base solves x (m + x^power) = 1 with
    m = lam' / (scale base^power), so 1 / (1 + m) <= x <= min(1, 1 / m)
    brackets it. Newton's method on log ||u(r)|| - log r (the log form of
    1/||u(r)|| - 1/r) in log r starts at the lower end: a step multiplies r
    by (||u(r)|| / r)^{1/(1 + power tau)}, tau in [0, 1] the shift's share
    of the curvature, and is exact where lam is 0 or dominates the shift.
    A step that leaves the bracket bisects it. Every quantity the iteration
    reads is a ratio, u(r) / r, so none under- or overflows near the root;
    the shift is floored at the smallest positive double, so a zero
    eigenvalue with a zero coordinate gives 0 where scale r^power underflows.
    It stops when | ||u(r)|| / r - 1 | <= SECULAR_RTOL or the bracket is two
    ulps wide. Raises SolverError when ||g|| or scale is 0 or not finite, a
    value is NaN, the root underflows, or no root is found in
    SECULAR_MAXITER iterations.
    """
    gnorm = norm(coords)
    if gnorm < 1e-150:  # the squares in norm underflow; hypot rescales
        gnorm = math.hypot(*coords)
    if not (0.0 < gnorm < math.inf and 0.0 < scale < math.inf):
        raise SolverError(f"secular solve found no root bracket: ||g|| = "
                          f"{gnorm!r} and s = {scale!r}", residual=float("nan"))
    e = 1.0 / (power + 1.0)
    base = gnorm**e / scale**e  # the root where lam = 0
    unit_shift = gnorm / base  # scale base^power
    lams = lam.tolist()
    lo = max(base / (1.0 + max(lams) / unit_shift), math.ulp(0.0))
    hi = base / max(1.0, min(lams) / unit_shift)
    if not lo <= hi < math.inf:
        raise SolverError(f"secular solve found no root bracket: [{lo!r}, "
                          f"{hi!r}]", residual=float("nan"))
    r = lo
    # with e = 1/3 rounded, x**e errs by up to |log x| 2^-55 < 2e-14
    lo, hi = lo * (1.0 - 1e-13), hi * (1.0 + 1e-13)
    for _ in range(SECULAR_MAXITER):
        # r**2 raises past 1e154; the floor keeps 0 / 0 out where lam is 0
        shift = max(scale * r * r if power == 2 else scale * r, 5e-324)
        den = lam + shift
        v = coords / r / den  # u(r) / r
        vv = float(v.dot(v))
        if math.isnan(vv):
            raise SolverError(f"secular solve found no root bracket: the "
                              f"value at r = {r!r} is NaN", residual=float("nan"))
        rho = math.sqrt(vv)
        if abs(rho - 1.0) <= SECULAR_RTOL or hi - lo <= 2.0 * math.ulp(hi):
            return r, den
        if rho > 1.0:
            lo = r
        else:
            hi = r
        if 0.0 < vv < math.inf:  # d log ||u|| / d log r = -power tau
            tau = float((v * v).dot(shift / den)) / vv
            r *= rho ** (1.0 / (1.0 + power * tau))
        if not lo < r < hi:
            r = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
    raise SolverError(f"secular solve did not converge in {SECULAR_MAXITER} "
                      f"iterations (r = {r!r})", residual=float("nan"))


def _secular_displacement(eigvals, eigvecs, g, scale: float, power: int):
    """Solve u = -(H + scale * r^power I)^{-1} g with r = ||u|| for g != 0.

    H is given by its eigendecomposition; tiny negative eigenvalues
    (symmetric-eig roundoff) are clamped. _secular_root finds r.
    """
    lam = np.maximum(eigvals, 0.0)
    coords = eigvecs.T @ g
    return -(eigvecs @ (coords / _secular_root(lam, coords, scale, power)[1]))


_last_eigh = [None]  # (key, eigenvalues, eigenvectors), replaced whole


def _eigh(H):
    """np.linalg.eigh(H) as read-only arrays, kept for the last distinct H:
    the key is H's shape, dtype and bytes, so only an identical matrix
    reuses a decomposition (a list goes through np.asarray first)."""
    H = np.asarray(H)
    key = (H.shape, H.dtype, H.tobytes())
    memo = _last_eigh[0]
    if memo is not None and memo[0] == key:
        return memo[1:]
    eigvals, eigvecs = np.linalg.eigh(H)
    eigvals.flags.writeable = eigvecs.flags.writeable = False
    _last_eigh[0] = (key, eigvals, eigvecs)
    return eigvals, eigvecs


def _newton_polish_p4(f, x, g, H, u0, cfg: StepConfig, target: float):
    """Damped Newton on the order-3 model with quartic regularization. Each
    trial point's third_apply(x, u, u) serves its model value and, once
    accepted, its model gradient."""
    scale = cfg.N / cfg.epsilon
    d = x.size

    def model_value(u, third):
        r2 = float(u @ u)
        return (
            float(g @ u)
            + 0.5 * float(u @ (H @ u))
            + float(u @ third) / 6.0
            + 0.25 * scale * r2 * r2
        )

    u, third = u0, f.third_apply(x, u0, u0)
    for i in range(100):
        gm = _model_gradient(f, x, g, H, u, cfg, third)
        if norm(gm) <= target:
            break
        if i == 0:  # most polishes end at the test above, before these
            eye = np.eye(d)
            val = model_value(u, third)
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
            cand_third = f.third_apply(x, cand, cand)
            cand_val = model_value(cand, cand_third)
            if cand_val <= val + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # line search stalled; report the best iterate found
        u, val, third = cand, cand_val, cand_third
    return u


def g_step(f, x: Point, cfg: StepConfig) -> tuple[Point, Point, StepCertificate]:
    """One update y = argmin_y f_{p-1}(y; x) + (N/(eps p)) ||y - x||^p.

    Returns (y, grad f(y), certificate), which callers reuse instead of
    evaluating the gradient again; y is a new array. At p >= 3 the Hessian
    at x is evaluated once and serves the secular solve, the p = 4 polish
    and the certificate. Raises CapabilityError when f lacks order-(p-1)
    derivatives and SolverError when the model is not convex, the secular
    solve (a safeguarded Newton iteration on one scalar equation) finds no
    root bracket or no root in SECULAR_MAXITER iterations, or the step's
    model residual exceeds RESIDUAL_TARGET (1 + ||g||) at p = 3 or
    RESIDUAL_LIMIT_P4 at p = 4.
    """
    x = as_point(x)
    if f.derivative_order < cfg.p - 1:
        raise CapabilityError(
            f"{f.name} exposes derivatives to order {f.derivative_order}; "
            f"p = {cfg.p} needs order {cfg.p - 1}"
        )
    g = f.gradient(x)
    H = f.hessian_dense(x) if cfg.p >= 3 else None
    gnorm = norm(g)

    if gnorm == 0.0:
        # stationary point of the model (all benchmark objectives are convex
        # with their higher Taylor terms vanishing only alongside the
        # gradient at the minimizer)
        return _certify(f, x, x, cfg, g, H)

    if cfg.p == 2:
        return _certify(f, x, x - (cfg.epsilon / cfg.N) * g, cfg, g, H)

    eigvals, eigvecs = _eigh(H)
    if eigvals[0] < -1e-8 * max(1.0, abs(eigvals[0]), abs(eigvals[-1])):
        raise SolverError(
            f"Taylor model at x is not convex (eigenvalue {eigvals[0]:.3e}); "
            "the subproblem solvers assume convex benchmarks",
            best=None, residual=float("nan"),
        )

    # a regularized quadratic solve; at p = 4, Newton on the full model from it
    u = _secular_displacement(eigvals, eigvecs, g, cfg.N / cfg.epsilon, cfg.p - 2)
    if cfg.p == 4:
        u = _newton_polish_p4(f, x, g, H, u, cfg, 1e-10 * (1.0 + gnorm))
    y, gy, cert = _certify(f, x, x + u, cfg, g, H)
    limit = RESIDUAL_TARGET * (1.0 + gnorm) if cfg.p == 3 else RESIDUAL_LIMIT_P4
    if cert.residual > limit:
        raise SolverError(
            f"Taylor step left residual {cert.residual:.3e} (limit {limit:.3g})",
            best=y, residual=cert.residual,
        )
    return y, gy, cert


def verify_step_progress(f, x: Point, y: Point, cfg: StepConfig) -> StepCertificate:
    """Evaluate the progress inequality and move-norm sandwich at (x, y).

    Violations are recorded in cert.ok, not raised: a failed certificate is
    evidence about the declared smoothness, and the caller decides what to do
    with it.
    """
    x = as_point(x)
    gx = f.gradient(x)
    return _certify(f, x, y, cfg, gx, f.hessian_dense(x) if cfg.p >= 3 else None)[2]


def _certify(f, x: Point, y, cfg: StepConfig, gx: Point, H):
    """(y, grad f(y), certificate) at (x, y), with gx = grad f(x) and, at
    p >= 3, H = its Hessian already evaluated (None at p = 2): the residual
    is the model gradient at y - x against the matrix the step was solved with.

    x must be a point from as_point. y goes through as_point here, so the
    returned y is a copy and a non-finite or mis-sized y raises InputError.
    """
    y = as_point(y, dim=x.size)
    gy = f.gradient(y)
    gy_norm = norm(gy)
    move = y - x
    move_norm = norm(move)
    progress = float(gy @ (x - y))

    M = progress_coefficient(cfg.p, cfg.N)
    q = 1.0 / (cfg.p - 1.0)
    lower = M * cfg.epsilon ** q * gy_norm ** (cfg.p * q)
    move_lo = M * (cfg.epsilon * gy_norm) ** q
    if cfg.N > 1.0:
        move_hi = (cfg.epsilon * gy_norm / (cfg.N - 1.0)) ** q
    else:
        move_hi = math.inf

    residual = norm(_model_gradient(f, x, gx, H, move, cfg))
    ok = (
        progress >= lower - CERT_TOL
        and move_lo - CERT_TOL <= move_norm <= move_hi + CERT_TOL
    )
    return y, gy, StepCertificate(gy_norm, progress, lower, move_norm,
                                  move_lo, move_hi, residual, ok)
