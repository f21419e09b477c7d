"""Independent formulas and reference trajectories for the benchmark's checks.

Nothing here imports accelflow. The polynomial variational flow in (X, W)
form, the p-th power mirror maps, the quadratic objectives and the energy
certificate are transcribed from their definitions, and the reference final
states come from scipy's DOP853 at tolerances far below the program's.

For the polynomial triple with C = 1: e^alpha = p/t, e^(alpha+beta) =
p t^(p-1), e^beta = t^p, so

    X' = (p/t) (grad h*(W) - X),   W' = -p t^(p-1) grad f(X),
    E_t = D_h(0, grad h*(W)) + t^p f(X),

with h(x) = |x|^q / q (q = 2 is the Euclidean map), f(x) = 1/2 sum lam_i x_i^2
and x* = 0, f* = 0.

The flow_stiff initial points differ from seed to seed only by coordinate
signs, and every flow here is equivariant under sign flips, so the committed
file reference_flows.json (the final X from the unsigned base points) gives
the reference of any seed by flipping the same signs. Regenerate that file
with

    python3 bench/reference.py --write

and integrate the references of one seed directly, compared with the
committed ones, with

    python3 bench/reference.py --seed 7 [--fast]
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

# curvatures of the catalog's diagonal quadratics, written out independently
LAMBDAS = {
    "quadratic": np.array([1.0, 10.0]),
    "quadratic_10d": np.logspace(0.0, 1.0, 10),
}

T0 = 0.1
T_END = 20.0
T_END_FAST = 2.0

# flow_stiff: (problem, order p, mirror power q, record_every); q = 2 is the
# Euclidean map, and the 10-d run is the p = 3 cubic-mirror flow
FLOW_CASES = (
    ("quadratic", 2, 2, 1),
    ("quadratic", 2, 2, 1),
    ("quadratic", 3, 2, 4),
    ("quadratic", 3, 3, 4),
    ("quadratic", 4, 2, 16),
    ("quadratic", 4, 4, 16),
    ("quadratic_10d", 3, 3, 4),
)

# DOP853 settings; the W block scales like |X|^(q-1), so its absolute
# tolerance shrinks with q to keep the dual state resolved near the minimizer
REF_RTOL = 1e-13
REF_ATOL_X = 1e-18
REFERENCE_FILE = Path(__file__).with_name("reference_flows.json")


def mirror_label(q: int) -> str:
    return "euclidean" if q == 2 else f"pth_power_{q}"


def case_label(problem: str, p: int, q: int, index: int) -> str:
    return f"{index}:{problem}:p{p}:{mirror_label(q)}"


def base_x0(problem: str) -> np.ndarray:
    """The unsigned initial point: equal coordinates, norm sqrt(2)."""
    d = LAMBDAS[problem].size
    return np.full(d, math.sqrt(2.0 / d))


def flow_signs(seed: int, problem: str, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, index])
    return rng.choice((-1.0, 1.0), size=LAMBDAS[problem].size)


def flow_x0(seed: int, problem: str, index: int) -> np.ndarray:
    """Initial point of one flow_stiff trajectory: the base point with
    coordinate signs drawn from the seed.

    Every flow here is equivariant under coordinate sign flips (diagonal
    objective, radial mirror), so each seed runs the same arithmetic up to
    sign; a direction drawn at random would move the quartic-mirror error by
    more than two orders of magnitude from seed to seed.
    """
    return base_x0(problem) * flow_signs(seed, problem, index)


def dual_gradient(w: np.ndarray, q: int) -> np.ndarray:
    """grad h*(w) for h = |x|^q / q, row-wise for 2-d input."""
    if q == 2:
        return np.array(w, dtype=np.float64)
    n = np.linalg.norm(w, axis=-1, keepdims=True)
    safe = np.where(n > 0.0, n, 1.0)
    return np.where(n > 0.0, w * safe ** ((2.0 - q) / (q - 1.0)), 0.0)


def mirror_gradient(x: np.ndarray, q: int) -> np.ndarray:
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return x * n ** (q - 2.0)


def bregman_to_minimizer(z: np.ndarray, q: int) -> np.ndarray:
    """D_h(0, z) = h(0) - h(z) + <grad h(z), z> = (1 - 1/q) |z|^q."""
    return (1.0 - 1.0 / q) * np.linalg.norm(z, axis=-1) ** q


def objective(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return 0.5 * np.sum(lam * x * x, axis=-1)


def energy(t: np.ndarray, x: np.ndarray, w: np.ndarray, lam, p: int, q: int):
    """E_t along sampled states (rows of x, w) of the order-p flow."""
    return bregman_to_minimizer(dual_gradient(w, q), q) + np.asarray(t) ** p * objective(x, lam)


def gap_certificate(t: np.ndarray, e0: float, p: int) -> np.ndarray:
    """E_{t0} e^(-beta_t) with beta_t = p log t (C = 1)."""
    return e0 * np.asarray(t, dtype=np.float64) ** (-p)


def reference_final_x(problem: str, p: int, q: int, x0: np.ndarray,
                      t0: float = T0, t_end: float = T_END) -> np.ndarray:
    """X(t_end) of the order-p flow integrated by DOP853 at tight tolerances."""
    from scipy.integrate import solve_ivp

    lam = LAMBDAS[problem]
    d = lam.size

    def field(t, y):
        x, w = y[:d], y[d:]
        return np.concatenate([(p / t) * (dual_gradient(w, q) - x),
                               -(p * t ** (p - 1)) * (lam * x)])

    y0 = np.concatenate([x0, mirror_gradient(x0, q)])
    atol = np.concatenate([np.full(d, REF_ATOL_X),
                           np.full(d, REF_ATOL_X * 1e-4 ** (q - 2))])
    sol = solve_ivp(field, (t0, t_end), y0, method="DOP853",
                    rtol=REF_RTOL, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:d, -1].copy()


def write_reference_file() -> dict:
    """Integrate every base point at both horizons and store the final X."""
    doc = {"rtol": REF_RTOL, "atol_x": REF_ATOL_X, "t0": T0, "final_x": {}}
    for t_end in (T_END, T_END_FAST):
        doc["final_x"][repr(t_end)] = {
            case_label(problem, p, q, i): reference_final_x(
                problem, p, q, base_x0(problem), T0, t_end).tolist()
            for i, (problem, p, q, _) in enumerate(FLOW_CASES)
        }
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return doc


def load_references(seed: int, t_end: float) -> dict[str, np.ndarray]:
    """Reference final X of every flow_stiff trajectory of a seed, from the
    committed base-point references and the seed's signs."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        table = json.load(handle)["final_x"][repr(t_end)]
    return {
        label: np.asarray(table[label]) * flow_signs(seed, problem, i)
        for i, (problem, p, q, _) in enumerate(FLOW_CASES)
        for label in [case_label(problem, p, q, i)]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flow_stiff reference final states")
    parser.add_argument("--seed", type=int, help="integrate this seed's references")
    parser.add_argument("--fast", action="store_true",
                        help=f"horizon {T_END_FAST} instead of {T_END}")
    parser.add_argument("--write", action="store_true",
                        help=f"regenerate {REFERENCE_FILE.name}")
    args = parser.parse_args(argv)
    if args.write:
        write_reference_file()
    if args.seed is None:
        return 0
    t_end = T_END_FAST if args.fast else T_END
    committed = load_references(args.seed, t_end)
    flows = {}
    for i, (problem, p, q, _) in enumerate(FLOW_CASES):
        label = case_label(problem, p, q, i)
        x0 = flow_x0(args.seed, problem, i)
        x_end = reference_final_x(problem, p, q, x0, T0, t_end)
        flows[label] = {
            "x0": x0.tolist(), "x_end": x_end.tolist(),
            "rel_diff_committed": float(np.linalg.norm(x_end - committed[label])
                                        / np.linalg.norm(x_end)),
        }
    print(json.dumps({"seed": args.seed, "t0": T0, "t_end": t_end,
                      "rtol": REF_RTOL, "flows": flows}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
