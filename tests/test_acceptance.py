"""Acceptance gate: every stated rate and inequality at the stated scale.

The suite runs once per session at full scale (the stated horizons and
iteration counts — a few minutes, dominated by the stiff quartic-mirror
flow), and each registered criterion gets its own test so `pytest -v`
prints one pass/fail line per criterion. Failure messages carry the
measured value, the pinned bound, and the check's own detail string.

The quick scale is exercised twice over: once by the determinism criterion
(which replays the other sixteen checks at quick scale inside the full
run), and once more below through the config-driven entry point, which is
also the dispatch test for the acceptance experiment kind.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import pytest

from accelflow import accel
from accelflow.errors import SolverError
from accelflow.harness import (
    CHECKS,
    DEFAULT_SUITE_SEED,
    CheckResult,
    ExperimentConfig,
    acceptance,
    acceptance_suite,
    run_experiment,
    validate_summary,
)
from accelflow.harness import experiments
from accelflow.harness.acceptance import CheckSpec, SuiteContext
from accelflow.harness.cli import main

CRITERIA = tuple(spec.name for spec in CHECKS)

# rerun_determinism replays the other checks into these two directories and
# compares them byte for byte in place; the summary never lists the replays
REPLAY_DIRS = ("rerun_determinism/run_a/", "rerun_determinism/run_b/")


def _assert_emitted_exactly(summary, root):
    """Every listed file exists and every file on disk is listed, the
    rerun_determinism replays excepted."""
    on_disk = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    replays = [name for name in on_disk if name.startswith(REPLAY_DIRS)]
    assert replays, "rerun_determinism left no replay files"
    assert not any(name.startswith(REPLAY_DIRS) for name in summary.files)
    assert sorted(summary.files) == [n for n in on_disk if n not in replays]


@pytest.fixture(scope="session")
def full_suite(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_full")
    summary = acceptance_suite(scale="full", out_dir=root, seed=DEFAULT_SUITE_SEED)
    return summary, root


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(full_suite, criterion):
    summary, _ = full_suite
    check = next(c for c in summary.checks if c.name == criterion)
    assert check.status == "pass", (
        f"{criterion} failed: measured={check.measured!r} bound={check.bound!r}"
        f" runtime={check.runtime:.1f}s\n  {check.detail}"
    )


def test_registry_has_seventeen_unique_criteria():
    assert len(CRITERIA) == 17
    assert len(set(CRITERIA)) == 17


def test_summary_lists_each_criterion_once_in_registry_order(full_suite):
    summary, _ = full_suite
    assert [c.name for c in summary.checks] == list(CRITERIA)


def test_summary_document_and_artifacts_on_disk(full_suite):
    summary, root = full_suite
    doc = json.loads((root / "summary.json").read_text())
    validate_summary(doc)
    assert doc["kind"] == "acceptance"
    assert doc["scale"] == "full"
    assert doc["seed"] == DEFAULT_SUITE_SEED
    statuses = [c["status"] for c in doc["checks"]]
    assert doc["counts"] == {s: statuses.count(s) for s in ("pass", "fail", "skip")}
    assert doc["all_pass"] == (statuses.count("fail") == 0)
    _assert_emitted_exactly(summary, root)
    # the gap curves behind the rate criteria were actually emitted
    assert any(name.endswith("_gap_loglog.dat") for name in summary.files)


def test_quick_suite_through_experiment_config(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="acceptance", scale="quick", out=str(tmp_path / "quick"),
        seed=DEFAULT_SUITE_SEED,
    ))
    assert summary.all_pass, f"quick-scale failures: {summary.failing()}"
    assert [c.name for c in summary.checks] == list(CRITERIA)
    validate_summary(json.loads((tmp_path / "quick" / "summary.json").read_text()))
    _assert_emitted_exactly(summary, tmp_path / "quick")
    # the suite's polynomial and exponential flows are the flow kind's runs
    for check, label, method, integration in (
        ("polynomial_flow_rate", "p2_euclidean", {"family": "polynomial", "p": 2},
         {"t_end": 20.0, "rel_tol": 1e-7, "record_every": 1}),
        ("energy_monotonicity", "exponential_c1", {"family": "exponential", "c": 1.0},
         {"t_end": 6.0, "rel_tol": 1e-8, "abs_tol": 1e-11}),
    ):
        out = tmp_path / label
        run_experiment(ExperimentConfig(kind="flow", method=method,
                                        integration=integration, out=str(out)))
        for suffix in (".csv", "_gap_loglog.dat"):
            assert ((out / f"trajectory{suffix}").read_bytes()
                    == (tmp_path / "quick" / check / f"{label}{suffix}").read_bytes())


# ---------------------------------------------------------------------------
# the worker pool: the schedule, merge order, worker death, cached-run files

POOL_SUBSET = ("accelerated_gap_bound", "estimate_sequence_invariants",
               "taylor_step_certificates", "naive_vs_matched", "force_free_motion")
# the checks that read a discrete run, in registry order
DISCRETE_READERS = ("accelerated_gap_bound", "estimate_sequence_invariants",
                    "taylor_step_certificates", "plain_method_rate",
                    "uniformly_convex_discrete")


def _registry(monkeypatch, specs, cpus):
    monkeypatch.setattr(acceptance, "CHECKS", tuple(specs))
    monkeypatch.setattr(acceptance, "_usable_cpus", lambda: cpus)


def _subset(names):
    return [spec for spec in CHECKS if spec.name in names]


def _artifacts(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "summary.json"}


def _without_runtime(check):
    doc = check.to_doc()
    del doc["runtime"]
    return doc


# the checks the benchmark's suite_quick workload leaves out of its registry
# (SUITE_EXCLUDED in bench/workloads.py)
BENCH_EXCLUDED = ("polynomial_flow_rate", "energy_monotonicity", "rerun_determinism")

# the pool's tasks for the full registry, in start order: the slowest first,
# checks that share cached runs together, then the rest in registry order
FULL_SCHEDULE = [
    ("rerun_determinism",),
    ("polynomial_flow_rate", "energy_monotonicity"),
    ("small_mass_limit",),
    ("damped_oscillator_threshold",),
    ("time_dilation_match",),
    ("hamiltonian_lagrangian_match",),
    ("accelerated_gap_bound", "estimate_sequence_invariants", "taylor_step_certificates"),
    ("plain_method_rate",),
    ("rescaled_flow_descent",),
    ("naive_vs_matched",),
    ("force_free_motion",),
    ("uniformly_convex_discrete",),
    ("uniformly_convex_flow",),
    ("flow_method_correspondence",),
]


@pytest.mark.parametrize("excluded", [(), BENCH_EXCLUDED], ids=["full", "benchmark"])
def test_tasks_follow_the_schedule_table(monkeypatch, excluded):
    scheduled = [name for task in acceptance._TASKS for name in task]
    assert len(set(scheduled)) == len(scheduled)
    assert set(scheduled) <= set(CRITERIA)

    _registry(monkeypatch, [spec for spec in CHECKS if spec.name not in excluded], 2)
    n = len(acceptance.CHECKS)
    tasks = acceptance._tasks(range(n))
    assert sorted(i for task in tasks for i in task) == list(range(n))
    assert [tuple(acceptance.CHECKS[i].name for i in task) for task in tasks] == [
        task for task in FULL_SCHEDULE if task[0] not in excluded
    ]


def test_pool_results_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    runs = {}
    for cpus in (1, 2):
        _registry(monkeypatch, _subset(POOL_SUBSET), cpus)
        root = tmp_path / f"cpus{cpus}"
        runs[cpus] = (acceptance_suite(scale="quick", out_dir=root, seed=0), root)
    (serial, serial_root), (pooled, pooled_root) = runs[1], runs[2]
    assert [c.name for c in pooled.checks] == list(POOL_SUBSET)
    assert pooled.all_pass, pooled.failing()
    assert pooled.files == serial.files
    assert sorted(pooled.files) == sorted([*_artifacts(pooled_root), "summary.json"])
    assert _artifacts(pooled_root) == _artifacts(serial_root)
    assert ([_without_runtime(c) for c in pooled.checks]
            == [_without_runtime(c) for c in serial.checks])


def test_dead_worker_fails_its_checks_and_the_suite(monkeypatch, tmp_path):
    parent = os.getpid()

    def die_in_worker(ctx):
        if os.getpid() != parent:
            os._exit(1)
        raise AssertionError("ran in the test process")

    specs = _subset(("force_free_motion",)) + [CheckSpec("dies", "worker exits", die_in_worker)]
    _registry(monkeypatch, specs, 2)
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["acceptance", "--scale", "quick", "--out", str(out), "--seed", "0"])
    assert code == 1
    doc = json.loads((out / "summary.json").read_text())
    validate_summary(doc)
    dead = doc["checks"][1]
    assert dead["name"] == "dies" and dead["status"] == "fail"
    assert dead["extras"] == {"internal_error": True, "worker_died": True}
    assert "BrokenProcessPool" in dead["detail"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_cached_run_read_outside_its_task_writes_nothing(monkeypatch, tmp_path, cpus):
    # the cached runs only compute; the check that owns their directory
    # writes their files, so a stray reader leaves every file as it was
    def stray(ctx):
        acceptance._accelerated_runs(ctx)
        return CheckResult(name="stray_accel_reader", status="pass")

    owners = _subset(POOL_SUBSET[:3])
    runs = {}
    for label, specs in (("owners", owners),
                         ("stray", owners + [CheckSpec("stray_accel_reader",
                                                       "reads accel_runs", stray)])):
        _registry(monkeypatch, specs, cpus)
        root = tmp_path / label
        runs[label] = (acceptance_suite(scale="quick", out_dir=root, seed=0), root)
    (owned, owned_root), (strayed, strayed_root) = runs["owners"], runs["stray"]
    assert strayed.all_pass, strayed.failing()
    assert strayed.files == owned.files
    assert _artifacts(strayed_root) == _artifacts(owned_root)


def test_raising_runner_is_still_exit_three(monkeypatch, tmp_path):
    def boom(ctx):
        raise ValueError("wires crossed")

    _registry(monkeypatch, [CheckSpec("raises", "runner raises", boom)], 1)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["acceptance", "--scale", "quick", "--out", str(tmp_path), "--seed", "0"])
    assert code == 3
    check = json.loads((tmp_path / "summary.json").read_text())["checks"][0]
    assert check["extras"] == {"internal_error": True}


# ---------------------------------------------------------------------------
# the checks that run an experiment kind write what the kind writes

# check -> (the kind's config at quick scale, the check's file label for each
# of the kind's labels, the kind's check the suite check reports)
KIND_CHECKS = {
    "flow_method_correspondence": (
        {"kind": "compare"},
        {"iterates": "accelerated_p2", "flow": "flow_p2"}, "within_factor"),
    "naive_vs_matched": (
        {"kind": "naive_demo", "method": {"accel_K": 300}},
        {"naive": "naive_p3", "accelerated": "matched_p3"}, "naive_diverges"),
    "rescaled_flow_descent": (
        {"kind": "flow", "method": {"family": "rescaled", "p": 3},
         "integration": {"t_end": 15.0, "steps": 10000}},
        {"trajectory": "quadratic_p3"}, "rate_slope"),
}
# files a check writes beside its kind's, from runs of its own
OWN_FILES = {"rescaled_flow_descent": {"power_3_exact.csv", "power_3_exact_gap_loglog.dat"}}


def _relabeled(name, labels):
    stem, suffix = name.split(".")
    for label, ours in labels.items():
        if stem in (label, f"{label}_gap_loglog"):
            return ours + stem[len(label):] + "." + suffix
    return name


def test_checks_write_the_bytes_of_the_kinds_they_run(monkeypatch, tmp_path):
    _registry(monkeypatch, _subset(KIND_CHECKS), 2)
    suite = acceptance_suite(scale="quick", out_dir=tmp_path / "suite", seed=0)
    for check in suite.checks:
        doc, labels, reported = KIND_CHECKS[check.name]
        out = tmp_path / check.name
        kind = run_experiment(ExperimentConfig(**doc, out=str(out)))
        by_name = {c.name: c for c in kind.checks}
        assert check.status == "pass" and kind.all_pass
        assert (check.measured, check.bound) == (by_name[reported].measured,
                                                  by_name[reported].bound)
        written = {_relabeled(name, labels): data
                   for name, data in _artifacts(out).items()}
        ours = _artifacts(tmp_path / "suite" / check.name)
        assert set(ours) - set(written) == OWN_FILES.get(check.name, set())
        assert written == {name: ours[name] for name in written}


# (check, the optimize descent config it runs at quick scale, its file label)
DESCENT_RUNS = (
    ("plain_method_rate", {"algorithm": "descent", "p": 2, "K": 300}, "quadratic_p2"),
    ("plain_method_rate", {"algorithm": "descent", "p": 3, "K": 300}, "quadratic_p3"),
    ("uniformly_convex_discrete", {"algorithm": "descent", "epsilon": 0.1, "K": 200},
     "geometric_descent"),
)


def test_discrete_checks_write_the_bytes_of_the_descent_runs(monkeypatch, tmp_path):
    _registry(monkeypatch, _subset({check for check, _, _ in DESCENT_RUNS}), 2)
    suite = acceptance_suite(scale="quick", out_dir=tmp_path / "suite", seed=0)
    assert suite.all_pass, suite.failing()
    for check, method, label in DESCENT_RUNS:
        out = tmp_path / label
        assert run_experiment(ExperimentConfig(kind="optimize", method=method,
                                               out=str(out))).all_pass
        for suffix in (".csv", "_gap_loglog.dat"):
            assert ((out / f"iterates{suffix}").read_bytes()
                    == (tmp_path / "suite" / check / f"{label}{suffix}").read_bytes())


def test_discrete_checks_take_their_verdicts_from_the_kinds(monkeypatch, tmp_path):
    # a failing kind check fails each suite check that reads it, by name
    report_checks = experiments.report_checks

    def increments_fail(report):
        return [replace(c, status="fail") if c.name == "inverse_gap_increments" else c
                for c in report_checks(report)]

    monkeypatch.setattr(experiments, "report_checks", increments_fail)
    ctx = SuiteContext(scale="quick", seed=0, root=tmp_path)
    plain = acceptance._check_plain_method_rate(ctx)
    assert plain.status == "fail"
    assert plain.detail.count("failing: ['inverse_gap_increments']") == 2
    uniform = acceptance._check_uniformly_convex_discrete(ctx)
    assert uniform.status == "fail" and "increments VIOLATED" in uniform.detail


def test_discrete_run_that_stops_short_fails_each_check_that_reads_it(monkeypatch, tmp_path):
    # every 40th Taylor step of the methods raises: every discrete run the
    # five checks read stops short, and each check fails, naming the
    # termination, instead of passing on a short run or crashing
    g_step = accel.g_step
    calls = [0]

    def failing_every_40th(f, x, cfg):
        calls[0] += 1
        if calls[0] % 40 == 0:
            raise SolverError("injected", residual=0.25)
        return g_step(f, x, cfg)

    monkeypatch.setattr(accel, "g_step", failing_every_40th)
    _registry(monkeypatch, _subset(DISCRETE_READERS), 1)
    suite = acceptance_suite(scale="quick", out_dir=tmp_path, seed=0)
    assert [c.name for c in suite.checks] == list(DISCRETE_READERS)
    for check in suite.checks:
        assert check.status == "fail", (check.name, check.detail)
        assert "internal_error" not in check.extras, check.detail
        assert check.extras["termination"]["status"] == "solver_error"
        assert check.extras["termination"]["message"] == "injected"
        assert "run terminated solver_error at k=" in check.detail


def test_suite_reaches_the_discrete_methods_only_through_the_kinds():
    for name in ("accelerated", "higher_order_descent", "restart_accelerated", "AccelConfig"):
        assert not hasattr(acceptance, name), name


def test_naive_scheme_that_completes_fails_the_check(monkeypatch, tmp_path):
    # with a step budget below its divergence at k = 33 the naive scheme
    # completes: the check fails and reports no divergence step
    monkeypatch.setattr(experiments, "NAIVE_STEP_BUDGET", 20)
    ctx = SuiteContext(scale="quick", seed=0, root=tmp_path)
    check = acceptance._check_naive_vs_matched(ctx)
    assert check.status == "fail"
    assert check.measured is None and check.bound == 20.0
    assert check.extras["diverged"] is False and check.extras["bound_ok"] is True
    assert check.detail.startswith("naive scheme terminated completed;")
