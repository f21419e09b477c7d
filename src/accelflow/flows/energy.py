"""Energy functionals (Lyapunov certificates) and empirical rate fitting."""

from __future__ import annotations

import numpy as np

from ..core.scalings import exp_weight
from ..errors import InputError


def energy_at(h, f, s, t: float, X, W, x_star) -> float:
    """Certificate value E_t = D_h(x*, Z) + e^{beta_t} f.gap(X).

    Z = X + e^{-alpha} X_dot is recovered from the dual state as
    Z = grad h*(W), so the velocity never needs to be reconstructed.
    Nonincreasing along ideally scaled variational flows.
    """
    z = h.dual_gradient(np.asarray(W, dtype=np.float64))
    return h.bregman(x_star, z) + exp_weight(s.beta(t), "e^beta", t) * f.gap(X)


def fit_rate(times, gaps, window) -> float:
    """Least-squares slope of log(gap) against log(t) over a time window.

    Nonpositive gaps are excluded (they carry no rate information); fewer
    than 10 surviving samples raise InputError.
    """
    times = np.asarray(times, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    t_lo, t_hi = float(window[0]), float(window[1])
    if t_lo <= 0 or t_hi <= t_lo:
        raise InputError(f"bad window {window}; need 0 < t_lo < t_hi")
    mask = (times >= t_lo) & (times <= t_hi) & (gaps > 0.0) & np.isfinite(gaps)
    if int(np.sum(mask)) < 10:
        raise InputError(
            f"only {int(np.sum(mask))} usable samples in window [{t_lo}, {t_hi}]"
        )
    slope = np.polyfit(np.log(times[mask]), np.log(gaps[mask]), 1)[0]
    return float(slope)
