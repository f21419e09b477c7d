"""The benchmark's tracer still fits the package it wraps.

bench/tracing.py patches the package from outside: module-level integrate,
g_step, accelerated and write_plot_data, both to_csv methods, the summary
writer, FlowSystem's energy and gap evaluations, and each system's
vector_field attribute. A renamed function or a changed signature breaks
`bench/run.py --trace 1` without failing any package test, so this test
installs the tracer, runs a little of every traced layer, and checks that
each counted something and that restore() puts every attribute back.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from accelflow.accel import AccelConfig, RunRecord
from accelflow.core import EuclideanMap, builtin_problems, polynomial_triple
from accelflow.flows import build_el_system
from accelflow.flows.integrate import Trajectory
from accelflow.flows.systems import FlowSystem
from accelflow.harness.reporting import ReportSummary

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """Import bench/tracing.py from its file without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _package_bindings() -> dict:
    """Every attribute the tracer may rebind; compared by identity."""
    bound = {
        (name, key): value
        for name, module in sys.modules.items()
        if module is not None and name.startswith("accelflow")
        for key, value in vars(module).items()
    }
    for cls in (Trajectory, RunRecord, ReportSummary, FlowSystem):
        for key, value in vars(cls).items():
            bound[(cls.__qualname__, key)] = value
    return bound


def test_tracer_counts_every_layer_and_restores_the_package(tmp_path):
    tracing = _load_tracing()
    before = _package_bindings()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    # the tracer rebinds module attributes, so call through the modules
    integrate = importlib.import_module("accelflow.flows.integrate").integrate
    accelerated = importlib.import_module("accelflow.accel").accelerated
    f = builtin_problems()["quadratic"]
    system = build_el_system(EuclideanMap(), f, polynomial_triple(2, 1.0))
    field = system.vector_field
    try:
        traj = integrate(system, np.array([1.0, 1.0]), 0.1, 1.0,
                         {"method": "rk4", "steps": 20})
        rec = accelerated(tracing.OracleProxy(f, tracer),
                          AccelConfig(p=3, epsilon=0.1, x0=np.array([1.0, 1.0])), 3)
        traj.to_csv(tmp_path / "trajectory.csv")
        rec.to_csv(tmp_path / "iterates.csv")
    finally:
        patches.restore()
    assert tracer.stat("systems.field").calls == traj.step_stats["field_evals"] > 0
    assert tracer.stat("systems.certificate").calls > 0
    assert tracer.stat("integrate").calls == 1
    assert tracer.stat("taylorstep.g_step.p3").calls > 0
    # one Hessian per p >= 3 step, also where the step reuses its eigh
    assert tracer.stat("oracles.hessian").calls == len(rec.ks) == 4
    assert tracer.stat("accel.accelerated").calls == 1
    assert tracer.counts["accel.iters"] == len(rec.ks)
    assert tracer.stat("emit").calls == 2
    assert tracer.counts["emit.rows"] == len(traj) + len(rec.ks)
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert system.vector_field is field
