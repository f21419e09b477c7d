"""Tests for the experiment harness: configs, runners, reporting, CLI.

Oracles used here, written before the implementations they check:

* the config surface is a closed whitelist — every unknown kind, problem id,
  mirror id, method key, or top-level field must be rejected with the
  input-error type, never silently ignored;
* re-running any experiment with the same config must reproduce every CSV
  and plot file byte for byte (summaries carry wall-clock times and are
  compared structurally instead);
* the summary schema shipped in schemas/ must equal the in-code schema
  object exactly, and every emitted summary must validate against the file;
* a deliberately mis-declared smoothness constant (epsilon far too large)
  must fail the gap-bound check and drive a nonzero exit code — the harness
  exists to catch exactly this lie.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import accelflow
from accelflow.errors import CapabilityError, InputError
from accelflow.harness import (
    CHECKS,
    CONFIG_FIELDS,
    EXPERIMENT_KINDS,
    SUMMARY_SCHEMA,
    CheckResult,
    ExperimentConfig,
    ReportSummary,
    config_from,
    load_config,
    log_gap_columns,
    run_experiment,
    validate_summary,
    write_plot_data,
)
from accelflow.harness.cli import main
from accelflow.harness.reporting import jsonable

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "summary.json"


# ---------------------------------------------------------------------------
# configuration validation


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        ExperimentConfig(kind="benchmark")


def test_unknown_problem_rejected():
    with pytest.raises(InputError):
        ExperimentConfig(kind="flow", problem="rosenbrock")


def test_unknown_mirror_rejected():
    with pytest.raises(InputError):
        ExperimentConfig(kind="flow", method={"mirror": "entropic"})


def test_unknown_method_key_rejected():
    with pytest.raises(InputError):
        ExperimentConfig(kind="flow", method={"stepsize": 0.1})


def test_method_keys_are_per_kind():
    # epochs belongs to restart, not flow
    with pytest.raises(InputError):
        ExperimentConfig(kind="flow", method={"epochs": 3})
    ExperimentConfig(kind="restart", method={"epochs": 3})


def test_unknown_config_field_rejected():
    with pytest.raises(InputError):
        config_from({"kind": "flow", "tolerance": 1e-6})


def test_kind_conflict_rejected():
    with pytest.raises(InputError):
        config_from({"kind": "flow"}, kind="optimize")


def test_kind_required():
    with pytest.raises(InputError):
        config_from({"problem": "quadratic"})


def test_overrides_apply_and_none_is_absent():
    cfg = config_from({"kind": "flow", "seed": 3}, seed=None, out="somewhere")
    assert cfg.seed == 3
    assert cfg.out == "somewhere"
    cfg = config_from({"kind": "flow", "seed": 3}, seed=11)
    assert cfg.seed == 11


@pytest.mark.parametrize("bad", [
    {"x0": [1.0, float("nan")]},
    {"x0": []},
    {"window": [2.0, 2.0]},
    {"window": [3.0]},
    {"seed": -1},
    {"seed": True},
    {"scale": "huge"},
    {"integration": {"dt": 0.1}},
    {"method": {"family": "spiral"}},
])
def test_bad_field_values_rejected(bad):
    with pytest.raises(InputError):
        ExperimentConfig(kind="flow", **bad)


def test_bad_optimize_algorithm_rejected():
    with pytest.raises(InputError):
        ExperimentConfig(kind="optimize", method={"algorithm": "bfgs"})


def test_dimension_free_problem_needs_x0():
    cfg = ExperimentConfig(kind="flow", problem="zero")
    with pytest.raises(InputError):
        cfg.resolved_x0()
    cfg = ExperimentConfig(kind="flow", problem="zero", x0=[1.0, 2.0])
    assert cfg.resolved_x0().tolist() == [1.0, 2.0]


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    doc = {"kind": "optimize", "method": {"algorithm": "descent", "K": 50}}
    path.write_text(json.dumps(doc))
    assert load_config(path) == doc
    with pytest.raises(InputError):
        load_config(tmp_path / "missing.json")
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(InputError):
        load_config(tmp_path / "broken.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(InputError):
        load_config(tmp_path / "list.json")


# ---------------------------------------------------------------------------
# reporting primitives


def test_check_result_rejects_unknown_status():
    with pytest.raises(InputError):
        CheckResult(name="x", status="maybe")


def test_jsonable_scalars_and_arrays():
    assert jsonable(np.True_) is True
    assert jsonable(np.int64(3)) == 3
    assert jsonable(float("inf")) is None
    assert jsonable(float("nan")) is None
    small = jsonable(np.arange(4.0))
    assert small == [0.0, 1.0, 2.0, 3.0]
    big = jsonable(np.linspace(0.0, 1.0, 100))
    assert set(big) == {"n", "min", "max", "final"} and big["n"] == 100


def test_write_plot_data_drops_nonfinite_rows(tmp_path):
    path = tmp_path / "curve.dat"
    write_plot_data(path, [1.0, 2.0, 3.0, 4.0],
                    [0.5, float("nan"), float("inf"), 2.0], "x   y")
    lines = path.read_text().splitlines()
    assert lines[0] == "# x   y"
    assert len(lines) == 3  # header + the two finite rows
    assert lines[1].split() == [repr(1.0), repr(0.5)]


def test_log_gap_columns_filters_floor_and_sign():
    xs, ys = log_gap_columns([0.0, 1.0, 10.0, 100.0], [1.0, 0.0, 1e-3, -2.0])
    # t=0 (no log), gap=0, and gap<0 rows all drop; only t=10 survives
    assert xs.tolist() == [1.0]
    assert ys.tolist() == [-3.0]


def test_validate_summary_rejects_malformed_docs():
    good = ReportSummary(kind="flow", seed=0, checks=[
        CheckResult(name="a", status="pass", measured=1.0, bound=2.0),
    ]).to_doc()
    validate_summary(good)
    for mutate in (
        lambda d: d.pop("seed"),
        lambda d: d.update(kind="benchmark"),
        lambda d: d["checks"][0].update(status="ok"),
        lambda d: d.update(extra_field=1),
        lambda d: d["checks"][0].update(measured="big"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(InputError):
            validate_summary(doc)


def test_schema_file_matches_inline_schema():
    assert json.loads(SCHEMA_PATH.read_text()) == SUMMARY_SCHEMA


# ---------------------------------------------------------------------------
# experiment kinds


def _assert_emitted_exactly(summary, root, expected):
    """The files under root and the summary's file list agree both ways, and
    they are exactly the expected data files plus the summary."""
    on_disk = sorted(str(p.relative_to(root)) for p in Path(root).rglob("*") if p.is_file())
    assert sorted(summary.files) == on_disk
    assert on_disk == sorted([*expected, "summary.json"])


def _flow_config(out=None):
    return ExperimentConfig(
        kind="flow",
        method={"family": "polynomial", "p": 2},
        integration={"t_end": 5.0},
        out=out,
    )


def test_flow_experiment_passes_and_emits(tmp_path):
    summary = run_experiment(_flow_config(out=str(tmp_path)))
    assert summary.all_pass
    assert {c.name for c in summary.checks} == {
        "rate_slope", "energy_monotone", "pointwise_certificate",
    }
    slope = next(c for c in summary.checks if c.name == "rate_slope")
    assert slope.measured <= -2 + 0.3
    doc = json.loads((tmp_path / "summary.json").read_text())
    validate_summary(doc)
    _assert_emitted_exactly(summary, tmp_path,
                            ["trajectory.csv", "trajectory_gap_loglog.dat"])


def test_flow_rerun_is_bitwise_identical(tmp_path):
    for sub in ("a", "b"):
        run_experiment(_flow_config(out=str(tmp_path / sub)))
    names = sorted(
        p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
        if p.suffix in (".csv", ".dat")
    )
    assert names, "the flow experiment emitted no data files"
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_flow_without_out_emits_nothing(tmp_path):
    summary = run_experiment(_flow_config())
    assert summary.files == []
    assert not list(tmp_path.iterdir())


def test_exponential_flow_checks(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="flow", method={"family": "exponential", "c": 1.0},
        integration={"t_end": 4.0}, out=str(tmp_path),
    ))
    assert summary.all_pass
    assert {c.name for c in summary.checks} == {
        "energy_monotone", "pointwise_certificate",
    }
    _assert_emitted_exactly(summary, tmp_path,
                            ["trajectory.csv", "trajectory_gap_loglog.dat"])


def test_rescaled_flow_checks(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="flow", method={"family": "rescaled", "p": 3},
        integration={"t_end": 10.0, "steps": 4000}, out=str(tmp_path),
    ))
    assert summary.all_pass
    names = {c.name for c in summary.checks}
    assert names == {"rate_slope", "primary_monitor", "alternative_monitor"}
    _assert_emitted_exactly(summary, tmp_path,
                            ["trajectory.csv", "trajectory_gap_loglog.dat"])


def test_massless_flow_checks(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="flow", method={"family": "massless", "m": 0.01},
        integration={"steps": 8000}, out=str(tmp_path),
    ))
    assert summary.all_pass
    limit = next(c for c in summary.checks if c.name == "limit_distance")
    assert math.isfinite(limit.measured)
    _assert_emitted_exactly(summary, tmp_path, [
        "limit_flow.csv", "limit_flow_gap_loglog.dat",
        "trajectory.csv", "trajectory_gap_loglog.dat",
    ])


def test_optimize_accelerated_all_invariants(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="optimize",
        method={"algorithm": "accelerated", "p": 3, "K": 150}, out=str(tmp_path),
    ))
    assert summary.all_pass
    assert {c.name for c in summary.checks} == {
        "step_certificates", "estimate_lower", "estimate_upper",
        "dual_optimality", "rate_bound",
    }
    _assert_emitted_exactly(summary, tmp_path,
                            ["iterates.csv", "iterates_gap_loglog.dat"])


def test_optimize_descent_all_invariants():
    summary = run_experiment(ExperimentConfig(
        kind="optimize",
        method={"algorithm": "descent", "p": 2, "K": 150},
    ))
    assert summary.all_pass
    assert {c.name for c in summary.checks} == {
        "monotone_descent", "step_certificates", "gap_bound",
        "gap_recursion", "inverse_gap_increments",
    }
    # the quadratic certifies its level-set radius; the bounds resting on it say so
    sources = {c.name: c.extras.get("level_radius_source") for c in summary.checks}
    assert sources == {
        "monotone_descent": None, "step_certificates": None, "gap_bound": "declared",
        "gap_recursion": "declared", "inverse_gap_increments": "declared",
    }


def test_optimize_exponential_is_diagnostic_only(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="optimize",
        method={"algorithm": "exponential", "c": 1.0, "delta": 0.1, "K": 100},
        out=str(tmp_path),
    ))
    assert summary.all_pass  # a skip is not a failure
    assert summary.counts() == {"pass": 0, "fail": 0, "skip": 1}
    assert summary.checks[0].name == "certified_rate"
    _assert_emitted_exactly(summary, tmp_path,
                            ["iterates.csv", "iterates_gap_loglog.dat"])


def test_misdeclared_smoothness_fails_gap_bound():
    # epsilon = 10 claims far more smoothness than the quadratic has; the
    # certificate checks must catch the lie
    summary = run_experiment(ExperimentConfig(
        kind="optimize",
        method={"algorithm": "accelerated", "p": 2, "epsilon": 10.0, "K": 200},
    ))
    assert not summary.all_pass
    assert "rate_bound" in summary.failing()


def test_compare_kind_within_factor(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="compare", method={"delta": 0.05}, window=[1.0, 3.0],
        out=str(tmp_path),
    ))
    assert summary.all_pass
    check = summary.checks[0]
    assert check.name == "within_factor"
    assert check.measured <= 10.0
    _assert_emitted_exactly(summary, tmp_path, [
        "flow.csv", "flow_gap_loglog.dat", "gap_ratio.dat",
        "iterates.csv", "iterates_gap_loglog.dat",
    ])


def test_dilation_check_kind(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="dilation_check", method={"p": 3}, out=str(tmp_path),
    ))
    assert summary.all_pass
    assert {c.name for c in summary.checks} == {"trajectory_match", "triple_identity"}
    _assert_emitted_exactly(summary, tmp_path,
                            ["direct.csv", "direct_gap_loglog.dat", "mismatch.dat"])


def test_dilation_check_rejects_other_orders():
    with pytest.raises(InputError):
        run_experiment(ExperimentConfig(kind="dilation_check", method={"p": 5}))


def test_restart_kind(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="restart", method={"epochs": 2}, out=str(tmp_path),
    ))
    assert summary.all_pass
    assert {c.name for c in summary.checks} == {
        "epoch_contraction", "anchor_envelope", "final_bound",
        "inner_epochs_completed",
    }
    _assert_emitted_exactly(summary, tmp_path, [
        "anchors.csv", "anchors_gap_loglog.dat",
        "epoch_0.csv", "epoch_0_gap_loglog.dat",
        "epoch_1.csv", "epoch_1_gap_loglog.dat",
    ])


def test_restart_needs_uniform_convexity_for_default_epsilon():
    with pytest.raises(InputError):
        run_experiment(ExperimentConfig(kind="restart", problem="log_sum_exp"))


def test_naive_demo_extras(tmp_path):
    summary = run_experiment(ExperimentConfig(
        kind="naive_demo", method={"accel_K": 200}, out=str(tmp_path),
    ))
    assert summary.all_pass
    naive = next(c for c in summary.checks if c.name == "naive_diverges")
    assert naive.extras["diverged"] is True
    assert 0 < naive.extras["terminated_at"] < 100000
    accel = next(c for c in summary.checks if c.name == "accelerated_bound")
    assert accel.extras["bound_ok"] is True
    doc = json.loads((tmp_path / "summary.json").read_text())
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["naive_diverges"]["extras"]["diverged"] is True
    assert by_name["accelerated_bound"]["extras"]["bound_ok"] is True
    _assert_emitted_exactly(summary, tmp_path, [
        "accelerated.csv", "accelerated_gap_loglog.dat",
        "naive.csv", "naive_gap_loglog.dat",
    ])


def test_experiment_summary_validates_against_schema_file(tmp_path):
    import jsonschema

    summary = run_experiment(_flow_config(out=str(tmp_path)))
    doc = json.loads((tmp_path / "summary.json").read_text())
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    assert doc["kind"] == "flow"
    assert doc["counts"] == summary.counts()


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_pass_is_exit_zero(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "method": {"algorithm": "descent", "p": 2, "K": 100},
    }))
    code = main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "gap_bound" in out and "artifacts:" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_check_failure_is_exit_one(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "method": {"algorithm": "accelerated", "p": 2, "epsilon": 10.0, "K": 200},
    }))
    code = main(["optimize", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "failing:" in out and "rate_bound" in out


def test_cli_config_error_is_exit_two(tmp_path, capsys):
    assert main(["optimize", "--config", str(tmp_path / "nope.json")]) == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "flow"}))
    assert main(["optimize", "--config", str(path)]) == 2  # kind conflict
    path.write_text(json.dumps({"problem": "mystery"}))
    assert main(["flow", "--config", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("integration", [
    {"method": "rk4"},
    {"method": "rk4_adaptive", "initial_step": -1},
    {"method": "rk4_adaptive", "abs_tol": 0},
], ids=["rk4_without_steps", "negative_initial_step", "zero_abs_tol"])
def test_cli_bad_integrator_controls_are_exit_two(tmp_path, capsys, integration):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"integration": integration}))
    assert main(["flow", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exponential_weight_overflow_is_exit_two(tmp_path, capsys):
    # e^(c delta k) overflows past k = 709 at c = delta = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": "zero", "x0": [1, 1],
        "method": {"algorithm": "exponential", "c": 1.0, "delta": 1.0, "K": 1000},
    }))
    assert main(["optimize", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "largest admissible K is 710" in err


def test_cli_module_runs_under_warnings_as_errors():
    # `python -m accelflow.harness.cli` must not find the module already
    # imported by its package (runpy's RuntimeWarning)
    src = str(Path(accelflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "accelflow.harness.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: accelflow" in proc.stdout


@pytest.mark.parametrize("family, skipped", [
    ("polynomial", ["rate_slope", "energy_monotone", "pointwise_certificate"]),
    ("exponential", ["energy_monotone", "pointwise_certificate"]),
    ("rescaled", ["rate_slope", "primary_monitor", "alternative_monitor"]),
])
def test_cli_flow_without_known_minimum_skips_checks(tmp_path, capsys, family, skipped):
    # "zero" declares neither f* nor x*: the checks that need them skip
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": "zero", "x0": [1.0, 1.0], "method": {"family": family},
    }))
    out = tmp_path / "out"
    assert main(["flow", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "summary.json").read_text())
    assert [(c["name"], c["status"]) for c in doc["checks"]] == [
        (name, "skip") for name in skipped
    ]
    assert doc["files"] == ["trajectory.csv"]
    assert (out / "trajectory.csv").read_text().count("\n") > 1


def test_cli_usage_error_is_exit_two(capsys):
    assert main(["flow", "--scale", "gigantic"]) == 2
    capsys.readouterr()


def test_cli_internal_error_is_exit_three(monkeypatch, capsys):
    import accelflow.harness.cli as cli_module

    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_module, "run_experiment", boom)
    assert cli_module.main(["flow"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_capability_error_is_exit_two(tmp_path, capsys):
    # log_sum_exp declares no uniform convexity: restarting it is a
    # configuration problem, not a crash
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "log_sum_exp",
                                "method": {"epsilon": 1.0}}))
    code = main(["restart", "--config", str(path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_seed_is_recorded(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "method": {"algorithm": "descent", "p": 2, "K": 60},
    }))
    code = main(["optimize", "--config", str(path),
                 "--out", str(tmp_path / "out"), "--seed", "42"])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert doc["seed"] == 42


# ---------------------------------------------------------------------------
# registry shape (full execution lives in the acceptance tests)


def test_acceptance_registry_names_unique_and_complete():
    names = [spec.name for spec in CHECKS]
    assert len(names) == 17
    assert len(set(names)) == 17


def test_experiment_kinds_cover_cli_surface():
    assert set(EXPERIMENT_KINDS) == {
        "flow", "optimize", "compare", "dilation_check",
        "restart", "naive_demo", "acceptance",
    }
    assert "kind" in CONFIG_FIELDS
