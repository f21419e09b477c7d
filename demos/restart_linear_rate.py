"""Uniform convexity turns sublinear certificates into linear ones.

On a strongly convex quadratic the plain order-2 method's k^-1 certificate
self-improves to a geometric rate, and restarting the rate-matching method
every m iterations contracts the distance to the minimizer by 1/e per
epoch. Both effects are certified per iteration, not just observed.

Runs the optimize experiment (descent, eps = 0.1, 500 steps) and the restart
experiment at its defaults (3 epochs, eps from the declared smoothness) on
the quadratic and on the cubic power norm, the same runs as `accelflow
optimize` and `accelflow restart` with these configs, and prints the
measured value and detail of every check they evaluate. Writes each run's
iterate CSVs, plot data and summary.json under
demo_output/restart_linear_rate/<run>/.

Run:  python3 demos/restart_linear_rate.py
"""

from __future__ import annotations

from pathlib import Path

from accelflow.harness import ExperimentConfig, run_experiment

OUT = Path(__file__).resolve().parent.parent / "demo_output" / "restart_linear_rate"


def _run(name: str, **fields) -> list:
    """The checks of one experiment, written under OUT/name."""
    return run_experiment(ExperimentConfig(**fields, out=str(OUT / name))).checks


def _show(check) -> None:
    values = "" if check.measured is None else (
        f": measured {check.measured:.4g}, bound {check.bound:g}")
    print(f"  {check.name} {check.status}{values}")
    print(f"    {check.detail}")


def main() -> None:
    print("plain order-2 method on the strongly convex quadratic, 500 steps")
    for check in _run("descent", kind="optimize",
                      method={"algorithm": "descent", "epsilon": 0.1, "K": 500}):
        _show(check)

    for problem in ("quadratic", "power_3"):
        print(f"\nrestarted rate-matching method on {problem}, 3 epochs")
        for check in _run(f"restart_{problem}", kind="restart", problem=problem):
            _show(check)

    print(f"\nartifacts in {OUT}")


if __name__ == "__main__":
    main()
