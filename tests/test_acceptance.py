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

import pytest

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
from accelflow.harness.acceptance import CheckSpec
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


# ---------------------------------------------------------------------------
# the worker pool: tasks, merge order, worker death, the duplicate-file guard

POOL_SUBSET = ("accelerated_gap_bound", "estimate_sequence_invariants",
               "taylor_step_certificates", "naive_vs_matched", "force_free_motion")


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


def test_tasks_group_checks_that_share_cached_runs():
    index = {spec.name: i for i, spec in enumerate(CHECKS)}
    tasks = acceptance._tasks(range(len(CHECKS)))
    assert sorted(i for task in tasks for i in task) == list(range(len(CHECKS)))
    assert tasks[0] == (index["polynomial_flow_rate"], index["energy_monotonicity"])
    trio = tuple(index[n] for n in POOL_SUBSET[:3])
    assert trio in tasks
    assert len(tasks) == len(CHECKS) - 3
    assert [task[0] for task in tasks] == sorted(task[0] for task in tasks)


def test_pool_starts_the_slowest_tasks_first():
    tasks = acceptance._tasks(range(len(CHECKS)))
    order = acceptance._start_order(tasks)
    slow = len(acceptance._SLOW_FIRST)
    assert sorted(order) == sorted(tasks)
    assert [CHECKS[task[0]].name for task in order[:slow]] == list(acceptance._SLOW_FIRST)
    assert order[slow:] == [task for task in tasks if task not in order[:slow]]


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
def test_cached_run_read_outside_its_task_trips_the_guard(monkeypatch, tmp_path, cpus):
    def stray(ctx):
        acceptance._accelerated_runs(ctx)
        return CheckResult(name="stray_accel_reader", status="pass")

    specs = _subset(POOL_SUBSET[:3]) + [CheckSpec("stray_accel_reader", "reads accel_runs",
                                                  stray)]
    _registry(monkeypatch, specs, cpus)
    with pytest.raises(RuntimeError, match="emitted twice"):
        acceptance_suite(scale="quick", out_dir=tmp_path, seed=0)


def test_raising_runner_is_still_exit_three(monkeypatch, tmp_path):
    def boom(ctx):
        raise ValueError("wires crossed")

    _registry(monkeypatch, [CheckSpec("raises", "runner raises", boom)], 1)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["acceptance", "--scale", "quick", "--out", str(tmp_path), "--seed", "0"])
    assert code == 3
    check = json.loads((tmp_path / "summary.json").read_text())["checks"][0]
    assert check["extras"] == {"internal_error": True}
