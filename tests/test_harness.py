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
    assert config_from({"kind": "acceptance"}, scale="full").scale == "full"


@pytest.mark.parametrize("bad", [
    {"x0": [1.0, float("nan")]},
    {"x0": []},
    {"window": [2.0, 2.0]},
    {"window": [3.0]},
    {"seed": -1},
    {"seed": True},
    {"scale": "huge"},
    {"scale": "full"},  # only acceptance reads a scale
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
        "run_completed", "step_certificates", "estimate_lower", "estimate_upper",
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
        "run_completed", "monotone_descent", "step_certificates", "gap_bound",
        "gap_recursion", "inverse_gap_increments", "geometric_bound",
    }
    # the quadratic certifies its level-set radius; the bounds resting on it say so
    sources = {c.name: c.extras.get("level_radius_source") for c in summary.checks}
    assert sources == {
        "run_completed": None, "monotone_descent": None, "step_certificates": None,
        "gap_bound": "declared",
        "gap_recursion": "declared", "inverse_gap_increments": "declared",
        "geometric_bound": None,
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
        "run_completed", "epoch_contraction", "anchor_envelope", "final_bound",
        "final_step_certificate", "inner_epochs_completed",
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
    {"method": "rk4", "steps": 2000, "rel_tol": 1e-12},
    {"method": "rk4_adaptive", "steps": 3},
    {"t_end": "20"},
    {"method": []},
    {"method": {}},
], ids=["rk4_without_steps", "negative_initial_step", "zero_abs_tol",
        "rk4_rel_tol", "adaptive_steps", "string_t_end", "list_method",
        "dict_method"])
def test_cli_bad_integrator_controls_are_exit_two(tmp_path, capsys, integration):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"integration": integration}))
    assert main(["flow", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


NAN = float("nan")


@pytest.mark.parametrize("command, method", [
    ("flow", {"family": "rescaled", "p": NAN}),
    ("compare", {"delta": NAN}),
    ("optimize", {"algorithm": "descent", "p": 2, "K": "many"}),
    ("optimize", {"algorithm": "accelerated", "p": 2, "C": NAN}),
    ("naive-demo", {"C": NAN}),
    ("optimize", {"p": 2.5}),
    ("optimize", {"algorithm": "descent", "p": 2, "N": "3", "K": 50}),
    ("optimize", {"algorithm": "accelerated", "p": 2, "C": True}),
    ("optimize", {"algorithm": "descent", "p": 0}),
    ("optimize", {"algorithm": "descent", "p": -1}),
    ("optimize", {"algorithm": "accelerated", "p": 0}),
    ("optimize", {"algorithm": "accelerated", "p": -1}),
], ids=["flow_nan_p", "compare_nan_delta", "optimize_string_K",
        "accelerated_nan_C", "naive_nan_C", "optimize_fractional_p",
        "descent_string_N", "accelerated_bool_C", "descent_p0",
        "descent_negative_p", "accelerated_p0", "accelerated_negative_p"])
def test_cli_bad_method_numbers_are_exit_two(tmp_path, capsys, command, method):
    # json reads NaN; a number that cannot run as given is a config error,
    # not a crash, a truncated order, or a run that checks nothing; an order
    # is checked before epsilon is derived from it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": method}))
    assert main([command, "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, method", [
    ("flow", {"family": "rescaled", "mirror": "pth_power_4", "C": 5.0, "c": 3.0}),
    ("flow", {"family": "rescaled", "mirror": "pth_power_4"}),
    ("optimize", {"algorithm": "exponential", "epsilon": 0.1}),
    ("optimize", {"algorithm": "exponential", "N": 3.0}),
    ("optimize", {"algorithm": "exponential", "C": 0.01}),
    ("optimize", {"algorithm": "accelerated", "c": 1.0}),
    ("optimize", {"algorithm": "accelerated", "delta": 0.1}),
    ("optimize", {"algorithm": "descent", "C": 0.01}),
    ("optimize", {"algorithm": "descent", "mirror": "euclidean"}),
], ids=["rescaled_mirror_C_c", "rescaled_mirror", "exponential_epsilon",
        "exponential_N", "exponential_C", "accelerated_c", "accelerated_delta",
        "descent_C", "descent_mirror"])
def test_cli_keys_the_variant_ignores_are_exit_two(tmp_path, capsys, command, method):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": method}))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "are not used by" in err


@pytest.mark.parametrize("command, doc", [
    ("optimize", {"integration": {"t_end": 5.0}}),
    ("optimize", {"window": [1, 3]}),
    ("dilation-check", {"window": [1, 5]}),
    ("flow", {"method": {"family": "exponential"}, "window": [1, 5]}),
], ids=["optimize_integration", "optimize_window", "dilation_window",
        "exponential_window"])
def test_cli_fields_the_run_ignores_are_exit_two(tmp_path, capsys, command, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_polynomial_flow_takes_another_method_without_its_defaults(tmp_path, capsys):
    # rk4 on the polynomial family runs without the adaptive tolerances
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"integration": {"method": "rk4", "steps": 2000}}))
    out = tmp_path / "out"
    assert main(["flow", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "summary.json").read_text())
    assert doc["config"]["integration"] == {"method": "rk4", "steps": 2000}


@pytest.mark.parametrize("command, doc, error", [
    ("flow", {"x0": [1e9, 1]}, "DivergenceError"),
    ("flow", {"x0": [1e9, 1], "method": {"family": "exponential"}}, "DivergenceError"),
    ("compare", {"x0": [1e9, 1]}, "DivergenceError"),
    ("dilation-check", {"x0": [1e9, 1], "method": {"p": 3}}, "DivergenceError"),
    ("flow", {"integration": {"max_steps": 5}}, "SolverError"),
], ids=["polynomial_diverges", "exponential_diverges", "compare_diverges",
        "dilation_diverges", "step_budget"])
def test_cli_typed_run_failures_are_exit_two(tmp_path, capsys, command, doc, error):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert error in err and "internal error" not in err


@pytest.mark.parametrize("command, doc", [
    ("flow", {"problem": "quadratic_10d", "x0": [1, 0],
              "method": {"family": "rescaled"}}),
    ("flow", {"problem": "quadratic_10d", "x0": [1, 0],
              "method": {"family": "massless"}}),
    ("flow", {"problem": "quadratic_10d", "x0": [1, 0],
              "method": {"family": "polynomial"}}),
    ("dilation-check", {"problem": "quadratic_10d", "x0": [1, 0]}),
    ("flow", {"problem": "least_squares",
              "method": {"family": "polynomial", "mirror": "diagonal_2_5"}}),
], ids=["rescaled_x0", "massless_x0", "polynomial_x0", "dilation_x0",
        "polynomial_mirror"])
def test_cli_flow_dimension_mismatch_is_exit_two(tmp_path, capsys, command, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "-dimensional" in err


@pytest.mark.parametrize("problem, p", [
    ("quadratic", 2), ("quadratic_10d", 2), ("least_squares", 2), ("power_2", 2),
    ("power_3", 3), ("power_4", 4),
])
def test_cli_descent_checks_the_geometric_bound(tmp_path, capsys, problem, p):
    # each problem is uniformly convex of the method's order
    code, doc = _run_cli(tmp_path, capsys, "optimize", {
        "problem": problem, "method": {"algorithm": "descent", "p": p},
    })
    assert code == 0
    geometric = next(c for c in doc["checks"] if c["name"] == "geometric_bound")
    assert geometric["status"] == "pass" and geometric["measured"] >= 0


@pytest.mark.parametrize("doc, message", [
    ({"problem": "power_3", "x0": [1e154, 1, 1],
      "method": {"family": "polynomial", "p": 2}},
     "infeasible run: DivergenceError: state norm exceeded 1e+08 at t = 0.1"),
    ({"method": {"family": "exponential"},
      "integration": {"t_end": 1e300, "abs_tol": 1e300}},
     "config error: the flow's weight e^(alpha + beta)"),
], ids=["diverged_x0", "exponential_weight_overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_cli_flow_out_of_float_range_is_exit_two(tmp_path, capsys, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["flow", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def _run_cli(tmp_path, capsys, command, doc):
    """Exit code and summary.json of one CLI run writing under tmp_path."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    capsys.readouterr()
    return code, json.loads((out / "summary.json").read_text())


def test_cli_optimize_summary_is_json_and_complete(tmp_path, capsys):
    code, doc = _run_cli(tmp_path, capsys, "optimize", {
        "method": {"algorithm": "accelerated", "p": 3, "K": 30},
    })
    assert code == 0 and doc["all_pass"] is True
    assert doc["config"]["method"]["p"] == 3
    checks = {c["name"]: c for c in doc["checks"]}
    assert set(checks) == {
        "run_completed", "step_certificates", "estimate_lower", "estimate_upper",
        "dual_optimality", "rate_bound",
    }
    assert checks["run_completed"]["extras"]["termination"] == {
        "status": "completed", "k": None,
    }
    assert all(c["status"] == "pass" for c in checks.values())


@pytest.mark.parametrize("problem, x0, source", [
    ("quadratic", [1.0, 1.0], "declared"),
    ("log_sum_exp", [0.3, 0.3, 0.3, 0.3], "empirical"),
])
def test_cli_summary_says_where_the_level_radius_came_from(tmp_path, capsys,
                                                           problem, x0, source):
    code, doc = _run_cli(tmp_path, capsys, "optimize", {
        "problem": problem, "x0": x0,
        "method": {"algorithm": "descent", "p": 2, "K": 40},
    })
    assert code == 0
    gap_bound = next(c for c in doc["checks"] if c["name"] == "gap_bound")
    assert gap_bound["extras"]["level_radius_source"] == source


def _failing_g_step(monkeypatch, residual):
    """Make accel's Taylor step raise SolverError on its fourth call."""
    import accelflow.accel as accel_module
    from accelflow.errors import SolverError

    real = accel_module.g_step
    calls = [0]

    def g_step(f, x, cfg):
        calls[0] += 1
        if calls[0] == 4:
            raise SolverError("inner solve stalled", best=None, residual=residual)
        return real(f, x, cfg)

    monkeypatch.setattr(accel_module, "g_step", g_step)


@pytest.mark.parametrize("residual, written", [(0.25, 0.25), (NAN, None)],
                         ids=["residual", "nan_residual"])
@pytest.mark.parametrize("algorithm", ["accelerated", "descent"])
def test_cli_summary_records_a_solver_failure(tmp_path, capsys, monkeypatch,
                                              algorithm, residual, written):
    _failing_g_step(monkeypatch, residual)
    code, doc = _run_cli(tmp_path, capsys, "optimize", {
        "method": {"algorithm": algorithm, "p": 3, "K": 10},
    })
    assert code == 1  # the run stopped early
    check = next(c for c in doc["checks"] if c["name"] == "run_completed")
    assert check["status"] == "fail"
    assert check["extras"]["termination"] == {
        "status": "solver_error", "k": 3, "message": "inner solve stalled",
        "residual": written,
    }
    assert "stalled" not in (tmp_path / "out" / "iterates.csv").read_text()


def test_cli_restart_records_the_epoch_that_failed(tmp_path, capsys, monkeypatch):
    _failing_g_step(monkeypatch, 0.25)
    code, doc = _run_cli(tmp_path, capsys, "restart", {"method": {"epochs": 2}})
    assert code == 1
    check = next(c for c in doc["checks"] if c["name"] == "run_completed")
    assert check["status"] == "fail"
    assert check["extras"]["termination"]["status"] == "solver_error"
    assert check["extras"]["termination"]["k"] == 0  # the epoch


@pytest.mark.parametrize("doc, failing", [
    # the accelerated run diverges at k = 0 and records no iteration
    ({"x0": [1e9, 1]}, ["run_completed", "accelerated_bound"]),
    # "zero" declares no f*, and the naive scheme runs all K steps
    ({"problem": "zero", "x0": [1, 1], "method": {"K": 50, "accel_K": 20}},
     ["naive_diverges", "accelerated_bound"]),
], ids=["accelerated_diverges_at_once", "no_optimal_value"])
def test_cli_naive_demo_without_a_rate_bound_is_exit_one(tmp_path, capsys, doc, failing):
    code, summary = _run_cli(tmp_path, capsys, "naive-demo", doc)
    assert code == 1
    assert [c["name"] for c in summary["checks"] if c["status"] == "fail"] == failing
    checks = {c["name"]: c for c in summary["checks"]}
    assert checks["accelerated_bound"]["measured"] is None


def test_cli_restart_fails_when_its_trailing_step_certificate_fails(tmp_path, capsys,
                                                                   monkeypatch):
    import dataclasses

    import accelflow.accel as accel_module

    real = accel_module.g_step
    calls, fail_at = [0], [None]

    def g_step(f, x, cfg):
        calls[0] += 1
        y, cert = real(f, x, cfg)
        return y, dataclasses.replace(cert, ok=False) if calls[0] == fail_at[0] else cert

    monkeypatch.setattr(accel_module, "g_step", g_step)
    cfg = {"method": {"epochs": 2}}
    run_experiment(ExperimentConfig(kind="restart", **cfg))
    fail_at[0], calls[0] = calls[0], 0  # the trailing step is the run's last
    code, doc = _run_cli(tmp_path, capsys, "restart", cfg)
    assert code == 1
    assert [c["name"] for c in doc["checks"] if c["status"] == "fail"] == [
        "final_step_certificate",
    ]


def test_cli_diverged_optimize_run_is_exit_one(tmp_path, capsys):
    code, doc = _run_cli(tmp_path, capsys, "optimize", {
        "x0": [1e9, 1.0], "method": {"algorithm": "accelerated", "p": 2, "K": 50},
    })
    assert code == 1
    check = next(c for c in doc["checks"] if c["name"] == "run_completed")
    assert check["extras"]["termination"] == {"status": "diverged", "k": 0}


def test_polynomial_flow_runs_the_configured_real_order(tmp_path):
    # p = 2.5 is a real flow order: the rate bound is -2.5 + slack, not the
    # bound of a truncated p = 2
    summary = run_experiment(ExperimentConfig(
        kind="flow", method={"family": "polynomial", "p": 2.5},
        integration={"t_end": 5.0},
    ))
    slope = next(c for c in summary.checks if c.name == "rate_slope")
    assert slope.bound == -2.5 + 0.3


def test_method_numbers_read_with_their_kind_types():
    cfg = ExperimentConfig(kind="optimize", method={"p": 3.0, "K": 1e2, "N": 3})
    assert (cfg.number("p"), cfg.number("K"), cfg.number("N")) == (3, 100, 3.0)
    assert type(cfg.number("p")) is int and type(cfg.number("N")) is float
    assert cfg.number("epsilon") is None and cfg.number("C", 0.5) == 0.5
    flow = ExperimentConfig(kind="flow", method={"p": 3})
    assert type(flow.number("p")) is float
    with pytest.raises(InputError):
        ExperimentConfig(kind="restart", method={"epochs": True})
    with pytest.raises(InputError):
        ExperimentConfig(kind="flow", method={"mirror": ["euclidean"]})


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


def _cli_process(*args, timeout=120):
    """Run `python <args>` on this source tree in a child process."""
    src = str(Path(accelflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_cli_module_runs_under_warnings_as_errors():
    # `python -m accelflow.harness.cli` must not find the module already
    # imported by its package (runpy's RuntimeWarning)
    proc = _cli_process("-W", "error", "-m", "accelflow.harness.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: accelflow" in proc.stdout


@pytest.mark.parametrize("command, doc, cap", [
    ("optimize", {"method": {"algorithm": "descent", "K": 1e12}}, "MAX_ITERS"),
    ("restart", {"method": {"epochs": 1e12}}, "MAX_ITERS"),
    ("naive-demo", {"problem": "zero", "x0": [1, 1], "method": {"K": 1e12}},
     "MAX_ITERS"),
    ("optimize", {"problem": "zero", "x0": [1, 1], "method": {
        "algorithm": "exponential", "c": 1e-9, "delta": 1e-9, "K": 1e12}}, "MAX_ITERS"),
    ("flow", {"method": {"family": "rescaled"}, "integration": {"steps": 1e300}},
     "MAX_STEPS"),
], ids=["descent", "restart", "naive", "exponential", "rk4_steps"])
def test_cli_iterations_past_the_cap_are_exit_two(tmp_path, command, doc, cap):
    # each would allocate terabytes or run until killed; a child process
    # with a timeout keeps a regression from hanging the suite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    proc = _cli_process("-m", "accelflow.harness.cli", command, "--config", str(path),
                        timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and cap in proc.stderr


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
    assert main(["dilation-check", "--scale", "full"]) == 2  # acceptance only
    capsys.readouterr()


def test_cli_internal_error_is_exit_three(monkeypatch, capsys):
    import accelflow.harness.cli as cli_module

    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_module, "run_experiment", boom)
    assert cli_module.main(["flow"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_cli_non_finite_state_is_exit_three(monkeypatch, capsys):
    # a NaN or Inf state is a bug, not a run that diverged
    import accelflow.harness.experiments as experiments
    from accelflow.errors import NumericalError

    def poisoned(*args, **kwargs):
        raise NumericalError("non-finite state during integration at t = 1.0")

    monkeypatch.setattr(experiments, "integrate", poisoned)
    assert main(["flow"]) == 3
    assert "internal error: NumericalError" in capsys.readouterr().err


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
