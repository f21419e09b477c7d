"""Spans and counters around the calls into each accelflow layer.

Tracing never edits the package: it wraps the layer's public functions and
objects from the outside for the duration of one traced round and restores
them afterwards.

- Coarse layers (integrate, g_step, accelerated, emission, acceptance check
  runners) keep one span each: name, start, end and the nearest enclosing
  span. They are held in memory and written out when the run ends.
- Fine-grained calls (oracle and mirror methods, flow fields, energy and gap
  evaluations; about two million in a flow_stiff round) are aggregated into
  a call count, busy time, self time and a duration array, which is what the
  per-layer metrics need.

A layer's self time is its duration minus the time its child calls cover,
accounted on the fly from the call stack (one thread, so children nest).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

PERF = time.perf_counter
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


class Stat:
    __slots__ = ("calls", "busy", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.durations = array("d")


class Tracer:
    """Call stack, coarse spans and aggregated per-name statistics."""

    def __init__(self):
        self.origin = PERF()
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[list] = []  # [child seconds, nearest kept span index]
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.in_accel = 0

    def run(self, name: str, keep: bool, fn, *args, **kwargs):
        stack = self.stack
        parent = stack[-1][1] if stack else None
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        else:
            index = parent
        frame = [0.0, index]
        stack.append(frame)
        start = PERF()
        try:
            return fn(*args, **kwargs)
        finally:
            end = PERF()
            stack.pop()
            dur = end - start
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.busy += dur
            stat.self_s += dur - frame[0]
            stat.durations.append(dur)
            if stack:
                stack[-1][0] += dur
            if keep:
                span = self.spans[index]
                span[1] = start - self.origin
                span[2] = end - self.origin

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def stats_with_prefix(self, prefix: str) -> list[Stat]:
        return [s for n, s in self.stats.items() if n.startswith(prefix)]


class OracleProxy:
    """Counting stand-in for an ObjectiveOracle; other attributes delegate."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def value(self, x):
        return self._tracer.run("oracles.value", False, self._inner.value, x)

    def gradient(self, x):
        tracer = self._tracer
        if tracer.in_accel:
            tracer.counts["oracles.gradient_in_accel"] += 1
        return tracer.run("oracles.gradient", False, self._inner.gradient, x)

    def hessian_apply(self, x, v):
        return self._tracer.run("oracles.hessian", False, self._inner.hessian_apply, x, v)

    def hessian_dense(self, x):
        return self._tracer.run("oracles.hessian", False, self._inner.hessian_dense, x)

    def third_apply(self, x, u, v):
        return self._tracer.run("oracles.third", False, self._inner.third_apply, x, u, v)


class MirrorProxy:
    """Timing stand-in for a MirrorMap; other attributes delegate.

    hessian_dense is defined here (not delegated) because the Hamiltonian
    and natural-gradient builders look it up on the type.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def value(self, x):
        return self._tracer.run("mirrors.value", False, self._inner.value, x)

    def gradient(self, x):
        return self._tracer.run("mirrors.gradient", False, self._inner.gradient, x)

    def dual_gradient(self, w):
        return self._tracer.run("mirrors.dual_gradient", False, self._inner.dual_gradient, w)

    def hessian_dense(self, x):
        return self._tracer.run("mirrors.hessian_dense", False, self._inner.hessian_dense, x)

    def bregman(self, y, x):
        return self._tracer.run("mirrors.bregman", False, self._inner.bregman, y, x)


class Patches:
    """Replace attributes for a while; restore them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def everywhere(self, module_name: str, attr: str, make_wrapper) -> None:
        """Rebind every accelflow module attribute that is the current
        module_name.attr, so names imported with `from x import f` are
        wrapped too."""
        current = getattr(sys.modules[module_name], attr)
        wrapper = make_wrapper(current)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("accelflow"):
                continue
            for key, value in list(vars(module).items()):
                if value is current:
                    self.set(module, key, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _count_rows(path) -> tuple[int, int]:
    """(data rows, bytes) of a written CSV/DAT file: lines after the header."""
    with open(path, "rb") as handle:
        data = handle.read()
    return max(data.count(b"\n") - 1, 0), len(data)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the layer entry points that are looked up at call time."""
    from accelflow.accel import RunRecord
    from accelflow.flows.integrate import Trajectory
    from accelflow.flows.systems import FlowSystem
    from accelflow.harness.reporting import ReportSummary

    def wrap_integrate(orig):
        def integrate(system, *args, **kwargs):
            field = system.vector_field

            def traced_field(t, y):
                return tracer.run("systems.field", False, field, t, y)

            before = tracer.stat("systems.field").calls
            system.vector_field = traced_field
            try:
                traj = tracer.run("integrate", True, orig, system, *args, **kwargs)
            finally:
                system.vector_field = field
            stats = traj.step_stats
            if stats.get("method") == "rk4":
                accepted, rejected = stats.get("completed", 0), 0
            else:
                accepted, rejected = stats.get("accepted", 0), stats.get("rejected", 0)
            counts = tracer.counts
            counts["integrate.accepted"] += accepted
            counts["integrate.rejected"] += rejected
            counts["integrate.samples"] += len(traj)
            counts["integrate.field_evals"] += tracer.stat("systems.field").calls - before
            return traj
        return integrate

    def wrap_g_step(orig):
        def g_step(f, x, cfg):
            return tracer.run(f"taylorstep.g_step.p{cfg.p}", True, orig, f, x, cfg)
        return g_step

    def wrap_accelerated(orig):
        def accelerated(f, cfg, K):
            tracer.in_accel += 1
            try:
                rec = tracer.run("accel.accelerated", True, orig, f, cfg, K)
            finally:
                tracer.in_accel -= 1
            tracer.counts["accel.iters"] += len(rec.ks)
            return rec
        return accelerated

    def emitter(orig, path_index):
        def emit(*args, **kwargs):
            out = tracer.run("emit", True, orig, *args, **kwargs)
            path = str(args[path_index])
            rows, size = _count_rows(path)
            counts = tracer.counts
            counts["emit.files"] += 1
            counts["emit.bytes"] += size
            if path.endswith((".csv", ".dat")):
                counts["emit.rows"] += rows
            return out
        return emit

    def certificate(orig):
        def evaluate(self, t, state):
            return tracer.run("systems.certificate", False, orig, self, t, state)
        return evaluate

    patches.everywhere("accelflow.flows.integrate", "integrate", wrap_integrate)
    patches.everywhere("accelflow.taylorstep", "g_step", wrap_g_step)
    patches.everywhere("accelflow.accel", "accelerated", wrap_accelerated)
    patches.everywhere("accelflow.harness.reporting", "write_plot_data",
                       lambda orig: emitter(orig, 0))
    patches.set(Trajectory, "to_csv", emitter(Trajectory.to_csv, 1))
    patches.set(RunRecord, "to_csv", emitter(RunRecord.to_csv, 1))
    patches.set(ReportSummary, "write", emitter(ReportSummary.write, 1))
    patches.set(FlowSystem, "energy_value", certificate(FlowSystem.energy_value))
    patches.set(FlowSystem, "gap_value", certificate(FlowSystem.gap_value))


def _median_us(stat: Stat) -> float:
    return float(np.median(stat.durations)) * 1e6 if stat.calls else 0.0


def timing_summary(stat: Stat) -> dict:
    """Median and the highest percentile with at least ten samples beyond
    it, in microseconds, with the sample count."""
    n = stat.calls
    doc = {"n": n, "median_us": _median_us(stat)}
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            value = float(np.percentile(stat.durations, pct)) * 1e6
            doc["tail"] = {"pct": pct, "us": value}
            break
    return doc


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, check_names) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit), zero where the workload does
    not use the layer."""
    st, counts = tracer.stat, tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit="count"):
        out[name] = (value, unit)

    put("oracles.value_calls", st("oracles.value").calls)
    put("oracles.gradient_calls", st("oracles.gradient").calls)
    put("oracles.hessian_calls", st("oracles.hessian").calls)
    put("oracles.third_calls", st("oracles.third").calls)
    put("oracles.gradient_calls_per_iter",
        _ratio(counts["oracles.gradient_in_accel"], counts["accel.iters"]), "ratio")
    put("oracles.busy_s", sum(s.busy for s in tracer.stats_with_prefix("oracles.")), "s")

    put("mirrors.dual_gradient_calls", st("mirrors.dual_gradient").calls)
    put("mirrors.dual_gradient_us", _median_us(st("mirrors.dual_gradient")), "us")
    put("mirrors.busy_s", sum(s.busy for s in tracer.stats_with_prefix("mirrors.")), "s")

    field, cert = st("systems.field"), st("systems.certificate")
    put("systems.field_evals", field.calls)
    put("systems.field_us", _median_us(field), "us")
    put("systems.field_busy_s", field.busy, "s")
    put("systems.certificate_evals", cert.calls)
    put("systems.certificate_busy_s", cert.busy, "s")

    integ = st("integrate")
    accepted, rejected = counts["integrate.accepted"], counts["integrate.rejected"]
    put("integrate.calls", integ.calls)
    put("integrate.self_s", integ.self_s, "s")
    put("integrate.accepted_steps", accepted)
    put("integrate.rejected_steps", rejected)
    put("integrate.accept_ratio", _ratio(accepted, accepted + rejected), "ratio")
    put("integrate.evals_per_accepted_step",
        _ratio(counts["integrate.field_evals"], accepted), "ratio")
    put("integrate.self_us_per_attempt",
        _ratio(integ.self_s * 1e6, accepted + rejected), "us")
    put("integrate.samples", counts["integrate.samples"])

    steps = {p: st(f"taylorstep.g_step.p{p}") for p in (2, 3, 4)}
    put("taylorstep.g_step_calls", sum(s.calls for s in steps.values()))
    for p, stat in steps.items():
        put(f"taylorstep.g_step_us.p{p}", _median_us(stat), "us")
    put("taylorstep.self_s", sum(s.self_s for s in steps.values()), "s")

    acc = st("accel.accelerated")
    put("accel.iters", counts["accel.iters"])
    put("accel.self_s", acc.self_s, "s")
    put("accel.self_us_per_iter", _ratio(acc.self_s * 1e6, counts["accel.iters"]), "us")

    emit = st("emit")
    put("emit.files", counts["emit.files"])
    put("emit.rows", counts["emit.rows"])
    put("emit.bytes", counts["emit.bytes"], "bytes")
    put("emit.busy_s", emit.busy, "s")
    put("emit.rows_per_s", _ratio(counts["emit.rows"], emit.busy), "1/s")

    runs = 0
    for name in check_names:
        stat = st(f"acceptance.check.{name}")
        put(f"acceptance.check_s.{name}", stat.busy, "s")
        runs += stat.calls
    put("acceptance.check_runs", runs)
    return out


def trace_document(tracer: Tracer) -> dict:
    """Spans and per-call timing distributions for the result file."""
    spans = [
        {"name": name, "start": start, "end": end, "parent": parent}
        for name, start, end, parent in tracer.spans
    ]
    timings = {name: timing_summary(stat) for name, stat in sorted(tracer.stats.items())}
    return {"spans": spans, "timings": timings, "counts": dict(tracer.counts)}
