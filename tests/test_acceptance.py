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

import json

import pytest

from accelflow.harness import (
    CHECKS,
    DEFAULT_SUITE_SEED,
    ExperimentConfig,
    acceptance_suite,
    run_experiment,
    validate_summary,
)

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
