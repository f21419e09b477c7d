"""A tour of the continuous-time flows and their convergence certificates.

Runs the flow experiment for the polynomial-rate flows of orders 2, 3, 4 and
the exponential-rate flow on a mildly ill-conditioned quadratic, the same
runs as `accelflow flow` with these methods and integration controls, and
prints the measured value and detail of every check the experiment
evaluates: the fitted log-log rate, the largest relative energy rise between
samples, and the f-gap against its energy certificate. Writes each run's
trajectory CSV, log-log plot data and summary.json under
demo_output/flow_zoo/<run>/.

Run:  python3 demos/flow_zoo.py
"""

from __future__ import annotations

from pathlib import Path

from accelflow.harness import ExperimentConfig, run_experiment

OUT = Path(__file__).resolve().parent.parent / "demo_output" / "flow_zoo"

# every run's tolerances: looser than the kind's defaults, a tour not a proof
CONTROLS = {"rel_tol": 1e-7, "abs_tol": 1e-11}


def _run(name: str, method: dict, integration: dict) -> list:
    """The checks of one flow experiment, written under OUT/name."""
    cfg = ExperimentConfig(kind="flow", method=method, integration=integration,
                           out=str(OUT / name))
    return run_experiment(cfg).checks


def _show(check) -> None:
    values = "" if check.measured is None else (
        f": measured {check.measured:.4g}, bound {check.bound:g}")
    print(f"  {check.name} {check.status}{values}")
    print(f"    {check.detail}")


def main() -> None:
    print("objective: 2-d quadratic, eigenvalues (1, 10), from x0 = (1, 1)")

    print("\npolynomial-rate flows on t in [0.1, 20]: the gap should fall like t^-p")
    for p in (2, 3, 4):
        print(f"order {p}")
        for check in _run(f"polynomial_p{p}", {"family": "polynomial", "p": p},
                          {**CONTROLS, "t_end": 20.0, "record_every": 4}):
            _show(check)

    print("\nexponential-rate flow on t in [0, 8], c = 1: the gap should fall like e^-t")
    for check in _run("exponential_c1", {"family": "exponential", "c": 1.0}, CONTROLS):
        _show(check)

    print(f"\nartifacts in {OUT}")


if __name__ == "__main__":
    main()
