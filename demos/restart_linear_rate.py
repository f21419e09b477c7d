"""Uniform convexity turns sublinear certificates into linear ones.

On a strongly convex quadratic the plain order-2 method's k^-1 certificate
self-improves to a geometric rate, and restarting the rate-matching method
every m iterations contracts the distance to the minimizer by 1/e per
epoch. Both effects are certified per iteration, not just observed.

Writes the iterate CSVs under demo_output/restart_linear_rate/.

Run:  python3 demos/restart_linear_rate.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from accelflow.accel import higher_order_descent, restart_accelerated
from accelflow.core import builtin_problems
from accelflow.taylorstep import StepConfig

OUT = Path(__file__).resolve().parent.parent / "demo_output" / "restart_linear_rate"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    f = builtin_problems()["quadratic"]
    x0 = np.array([1.0, 1.0])

    print("plain order-2 method on the strongly convex quadratic, 500 steps")
    rec = higher_order_descent(f, StepConfig(2, 0.1, 2.0), x0, 500)
    report = rec.invariant_report()
    print(f"  geometric bound gap_k <= {rec.extras['linear_prefactor']:.3f} * "
          f"{rec.extras['linear_rate']:.4f}^(k-1), k >= 1")
    for name, entry in report.items():
        print(f"  {name}: {'ok' if entry['ok'] else 'VIOLATED'} "
              f"({entry['checked']} checked, worst margin {entry['worst']})")
    print(f"  final gap {rec.final_gap_x:.2e}")
    rec.to_csv(OUT / "descent.csv")

    print("\nrestarted rate-matching method, 3 epochs")
    for name, eps in (("quadratic", 0.1), ("power_3", 1.0)):
        prob = builtin_problems()[name]
        restart = restart_accelerated(prob, eps, np.ones(prob.dimension), 3)
        dist = np.asarray(restart.extras["distance_powers"])
        steps = restart.extras["m"]
        print(f"  {name}: m = {steps} iterations per epoch")
        for j in range(1, len(dist)):
            print(f"    epoch {j}: ||anchor - x*||^p shrank to "
                  f"{dist[j] / dist[j - 1]:.2e} of the previous (cap 1/e = 0.368)")
        print(f"    final gap {restart.extras['final_gap']:.2e} "
              f"<= bound {restart.extras['final_bound']:.3g}")
        restart.to_csv(OUT / f"restart_{name}.csv")

    print(f"\nartifacts in {OUT}")


if __name__ == "__main__":
    main()
