"""The three workloads: inputs from the seed, one round of fixed work, checks.

A workload object builds its inputs once (the set-up that setup_s times),
then runs whole rounds of identical operations. `round` is the timed work;
`inspect` and `finish` check the outputs afterwards, outside the timing.
The layer entry points are called through their modules, so that a traced
round sees the wrappers bench/tracing.py installs there.

Every operation counts once in `attempted`; one that raises counts in
`failed` and its outputs are left out of the checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

import accelflow.accel as accel
import accelflow.flows as flows
import accelflow.taylorstep as taylorstep
import checks
import reference
import tracing
from accelflow.accel import AccelConfig
from accelflow.core import builtin_mirror_maps, builtin_problems, polynomial_triple
from accelflow.flows import build_el_system
from accelflow.harness import acceptance, cli
from accelflow.taylorstep import StepConfig, smoothness_epsilon

PERF = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"


def _identity(obj):
    return obj


class Workload:
    name = ""

    def __init__(self, seed: int, fast: bool):
        self.seed = seed
        self.fast = fast
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.start()
        self.inputs = self.build()

    def start(self) -> None:
        """Reset the accumulators of a run."""

    def build(self, tracer: tracing.Tracer | None = None):
        raise NotImplementedError

    def round(self, inputs):
        raise NotImplementedError

    def inspect(self, out) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Final checks; returns {"final_err", "iters_per_s"}."""
        raise NotImplementedError

    def _op(self, fn, *args):
        """One operation: counted, and None when it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None


def _oracle(tracer):
    return _identity if tracer is None else (lambda f: tracing.OracleProxy(f, tracer))


def _mirror(tracer):
    return _identity if tracer is None else (lambda h: tracing.MirrorProxy(h, tracer))


class FlowStiff(Workload):
    """Seven certified polynomial flows at quick-scale controls, no files."""

    name = "flow_stiff"

    @property
    def t_end(self) -> float:
        return reference.T_END_FAST if self.fast else reference.T_END

    def build(self, tracer=None):
        wrap_f, wrap_h = _oracle(tracer), _mirror(tracer)
        problems, maps = builtin_problems(), builtin_mirror_maps()
        cases = []
        for i, (problem, p, q, every) in enumerate(reference.FLOW_CASES):
            system = build_el_system(wrap_h(maps[reference.mirror_label(q)]),
                                     wrap_f(problems[problem]),
                                     polynomial_triple(p, 1.0))
            cases.append({
                "label": reference.case_label(problem, p, q, i),
                "problem": problem, "p": p, "q": q, "system": system,
                "x0": reference.flow_x0(self.seed, problem, i),
                "controls": {"method": "rk4_adaptive", "rel_tol": 1e-7,
                             "abs_tol": 1e-11, "record_every": every},
            })
        return cases

    def start(self) -> None:
        self.solver_s = 0.0
        self.flow_time = 0.0
        self.outputs: list[dict] = []

    def round(self, inputs):
        out = {}
        for case in inputs:
            start = PERF()
            traj = self._op(flows.integrate, case["system"], case["x0"], reference.T0,
                            self.t_end, case["controls"])
            self.solver_s += PERF() - start
            if traj is not None:
                self.flow_time += self.t_end - reference.T0
                out[case["label"]] = (traj.times, traj.states)
        return out

    def inspect(self, out) -> None:
        self.rounds += 1
        self.outputs.append(out)

    def finish(self) -> dict:
        worst = 0.0
        refs = reference.load_references(self.seed, self.t_end)
        for case in self.inputs:
            label = case["label"]
            x_ref = refs[label]
            for out in self.outputs:
                if label not in out:
                    continue
                times, states = out[label]
                fails, err = checks.flow_failures(label, case["problem"], case["p"],
                                                  case["q"], times, states,
                                                  reference.T0, self.t_end, x_ref)
                self.failures += fails
                worst = max(worst, err)
                if not np.array_equal(states, self.outputs[0][label][1]):
                    self.failures.append(f"{label}: rounds disagree bitwise")
        return {"final_err": worst, "iters_per_s": self.flow_time / self.solver_s}


ACCEL_CASES = (
    ("quadratic", 2, 2000), ("quadratic", 3, 2000),
    ("least_squares", 2, 2000), ("least_squares", 3, 2000),
    ("log_sum_exp", 3, 2000), ("quadratic", 4, 500),
    ("least_squares", 4, 500), ("power_4", 4, 500), ("quadratic_10d", 4, 500),
)
SWEEP_NS = (1.5, 2.0, 4.0)
SWEEP_PER_PROBLEM = 50


def sweep_pair(p: int) -> tuple[str, str]:
    """The problem pair of the suite's standalone step sweep: log-sum-exp
    declares no order-3 constant, so p = 4 uses least squares."""
    return ("quadratic_10d", "log_sum_exp") if p < 4 else ("quadratic_10d", "least_squares")


class AccelDiscrete(Workload):
    """Nine certified accelerated runs, then a seeded Taylor-step sweep."""

    name = "accel_discrete"

    def build(self, tracer=None):
        wrap_f = _oracle(tracer)
        problems = builtin_problems()
        rng = np.random.default_rng(self.seed)
        scale = 20 if self.fast else 1
        runs = []
        for name, p, K in ACCEL_CASES:
            f = problems[name]
            d = f.dimension
            u = rng.standard_normal(d)
            x0 = f.minimizer + math.sqrt(d) * u / np.linalg.norm(u)
            runs.append({"label": f"{name}:p{p}", "name": name, "p": p, "K": K // scale,
                         "f": wrap_f(f), "data": f, "x0": x0,
                         "cfg": AccelConfig(p=p, epsilon=smoothness_epsilon(f, p), x0=x0)})
        per_problem = 2 if self.fast else SWEEP_PER_PROBLEM
        sweep = []
        for p in (2, 3, 4):
            for N in SWEEP_NS:
                for name in sweep_pair(p):
                    f = problems[name]
                    points = 0.5 * rng.standard_normal((per_problem, f.dimension))
                    sweep.append({"label": f"g_step {name}:p{p}:N{N:g}", "name": name,
                                  "p": p, "N": N, "f": wrap_f(f), "data": f,
                                  "cfg": StepConfig(p, smoothness_epsilon(f, p), N),
                                  "points": points})
        self.objectives = {name: checks.Objective(name, f) for name, f in problems.items()
                           if name in {c[0] for c in ACCEL_CASES}}
        return {"runs": runs, "sweep": sweep}

    def start(self) -> None:
        self.accel_s = 0.0
        self.iters = 0
        self.final_gaps: dict[str, float] = {}
        self.final_y: dict[str, np.ndarray] = {}

    def round(self, inputs):
        records = []
        for run in inputs["runs"]:
            start = PERF()
            rec = self._op(accel.accelerated, run["f"], run["cfg"], run["K"])
            self.accel_s += PERF() - start
            if rec is not None:
                self.iters += len(rec.ks)
            records.append(rec)
        steps = []
        for group in inputs["sweep"]:
            ys = []
            for x in group["points"]:
                result = self._op(taylorstep.g_step, group["f"], x, group["cfg"])
                ys.append(None if result is None else result[0])
            steps.append(ys)
        return records, steps

    def inspect(self, out) -> None:
        self.rounds += 1
        records, steps = out
        for run, rec in zip(self.inputs["runs"], records):
            if rec is None:
                continue
            label, p, cfg = run["label"], run["p"], run["cfg"]
            if rec.termination["status"] != "completed":
                self.failures.append(f"{label}: stopped with {rec.termination}")
                continue
            eps = checks.epsilon_from(run["data"].smoothness, p)
            C = checks.default_C(p, cfg.N)
            if not (eps == cfg.epsilon and math.isclose(C, cfg.C, rel_tol=1e-12)):
                self.failures.append(f"{label}: epsilon {cfg.epsilon} / C {cfg.C} "
                                     f"differ from {eps} / {C}")
            fails, gap = checks.accel_failures(label, self.objectives[run["name"]], p,
                                               cfg.N, eps, C, run["x0"], rec.xs,
                                               rec.ys, run["K"])
            self.failures += fails
            self.final_gaps[label] = gap
            y = rec.ys[-1]
            if label in self.final_y and not np.array_equal(y, self.final_y[label]):
                self.failures.append(f"{label}: rounds disagree bitwise")
            self.final_y[label] = y
        for group, ys in zip(self.inputs["sweep"], steps):
            keep = [i for i, y in enumerate(ys) if y is not None]
            if not keep:
                continue
            xs = group["points"][keep]
            ys = np.array([ys[i] for i in keep])
            obj = self.objectives[group["name"]]
            eps = checks.epsilon_from(group["data"].smoothness, group["p"])
            self.failures += checks.step_failures(group["label"], group["p"],
                                                  group["N"], eps, xs, ys, obj.grad(ys))

    def finish(self) -> dict:
        worst = max(self.final_gaps.values()) if self.final_gaps else math.inf
        return {"final_err": worst, "iters_per_s": self.iters / self.accel_s}


# rerun_determinism replays the other sixteen checks twice (74 s of the
# 108 s quick pass), and polynomial_flow_rate / energy_monotonicity spend
# their time on the six polynomial flows that flow_stiff already runs
SUITE_EXCLUDED = ("polynomial_flow_rate", "energy_monotonicity", "rerun_determinism")
SUITE_CHECKS = tuple(spec.name for spec in acceptance.CHECKS
                     if spec.name not in SUITE_EXCLUDED)
SUITE_FAST = ("time_dilation_match", "accelerated_gap_bound", "taylor_step_certificates")


class SuiteQuick(Workload):
    """`accelflow acceptance --scale quick` through the CLI entry point,
    on every registered check but the three in SUITE_EXCLUDED."""

    name = "suite_quick"

    def build(self, tracer=None):
        wanted = SUITE_FAST if self.fast else None
        specs = []
        for spec in acceptance.CHECKS:
            if spec.name in SUITE_EXCLUDED or (wanted and spec.name not in wanted):
                continue
            runner = spec.runner
            if tracer is not None:
                runner = (lambda ctx, r=runner, n=spec.name:
                          tracer.run(f"acceptance.check.{n}", True, r, ctx))
            specs.append(acceptance.CheckSpec(spec.name, spec.title, runner))
        return tuple(specs)

    def start(self) -> None:
        with open(ROOT / "schemas" / "summary.json", encoding="utf-8") as handle:
            self.schema = json.load(handle)
        self.suite_s = 0.0
        self.digests: dict[str, str] | None = None
        self.references: dict = {}
        self.final_err = 0.0

    def check_names(self) -> list[str]:
        return [spec.name for spec in self.inputs]

    def round(self, inputs):
        out_dir = OUT_ROOT / self.name / f"{os.getpid()}_{self.rounds}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = ["acceptance", "--scale", "quick", "--out", str(out_dir),
                "--seed", str(self.seed)]
        start = PERF()
        with tracing.Patches() as patches:
            patches.set(acceptance, "CHECKS", inputs)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        self.suite_s += PERF() - start
        return code, out_dir

    def inspect(self, out) -> None:
        self.rounds += 1
        code, out_dir = out
        names = self.check_names()
        self.attempted += len(names)
        summary = out_dir / "summary.json"
        if summary.is_file():
            with open(summary, encoding="utf-8") as handle:
                doc = json.load(handle)
            self.failed += sum(1 for c in doc.get("checks", ())
                               if c.get("extras", {}).get("internal_error"))
        self.failures += checks.suite_failures(code, out_dir, self.schema, names)
        fails, err = checks.suite_direct_errors(out_dir, self.references)
        self.failures += fails
        self.final_err = max(self.final_err, err)
        digests = {
            str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for pattern in ("*.csv", "*.dat") for path in sorted(out_dir.rglob(pattern))
        }
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.failures.append("CSV/DAT artifacts differ between rounds")
        shutil.rmtree(out_dir, ignore_errors=True)

    def finish(self) -> dict:
        return {"final_err": self.final_err, "iters_per_s": self.attempted / self.suite_s}


WORKLOADS = {cls.name: cls for cls in (FlowStiff, AccelDiscrete, SuiteQuick)}
