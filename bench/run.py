"""accelflow benchmark: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload flow_stiff --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's fixed work, one after the other, until
the next round would end past --seconds (at least one round), then checks
every output with formulas computed apart from the program. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced round, reports the per-layer metrics, and writes the spans and
per-call timings to .bench_out/trace_<workload>_<seed>.json. --fast runs each
workload at reduced size (for the benchmark's own tests). See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy loads, so each
# workload process is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
WORKLOAD_NAMES = ("flow_stiff", "accel_discrete", "suite_quick")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="accelflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up, timed by the parent
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that start the interpreter,
    import accelflow and build the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--fast"] if args.fast else [])
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_rounds(workload, seconds: float) -> list[float]:
    walls: list[float] = []
    while True:
        start = time.perf_counter()
        out = workload.round(workload.inputs)
        walls.append(time.perf_counter() - start)
        workload.inspect(out)
        if sum(walls) + statistics.median(walls) > seconds:
            return walls


def traced_rounds(workload, args, check_names) -> dict[str, tuple[float, str]]:
    start = time.perf_counter()
    out = workload.round(workload.inputs)
    plain = time.perf_counter() - start
    workload.inspect(out)

    tracer = tracing.Tracer()
    inputs = workload.build(tracer)
    with tracing.Patches() as patches:
        tracing.install(tracer, patches)
        start = time.perf_counter()
        out = tracer.run("round", True, workload.round, inputs)
        traced = time.perf_counter() - start
    workload.inspect(out)

    layers = tracing.layer_metrics(tracer, check_names)
    layers["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
    doc = {"workload": args.workload, "seed": args.seed,
           "untraced_round_s": plain, "traced_round_s": traced,
           "overhead_s": traced - plain,
           "per_layer": {name: value for name, (value, _) in layers.items()},
           **tracing.trace_document(tracer)}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace_{args.workload}_{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    print(f"trace: {path} (untraced round {plain:.3f} s, traced {traced:.3f} s, "
          f"overhead {layers['trace.overhead_pct'][0]:.1f}%)")
    return layers


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed %= 2 ** 31  # numpy seeds and the suite's --seed are non-negative
    if not (ROOT / "src" / "accelflow" / "__init__.py").is_file():
        print(f"accelflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, args.fast)
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed, args.fast)
    if args.trace:
        layers = traced_rounds(workload, args, workloads.SUITE_CHECKS)
        workload.finish()
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        setup_s = measure_setup(args)
        walls = timed_rounds(workload, args.seconds)
        rss = peak_rss_mb()
        result = workload.finish()
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "iters_per_s": {"value": result["iters_per_s"], "unit": "1/s"},
            "final_err": {"value": result["final_err"], "unit": "1"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        print(f"{args.workload}: {len(walls)} rounds, walls "
              + ", ".join(f"{w:.3f}" for w in walls) + " s")
    for failure in workload.failures:
        print(f"FAIL {failure}")
    print(json.dumps({"correct": not workload.failures,
                      "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
