"""The benchmark's own tests: every workload end to end at reduced size, and
the correctness checks rejecting corrupted outputs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from accelflow.accel import AccelConfig, accelerated  # noqa: E402
from accelflow.core import builtin_mirror_maps, builtin_problems, polynomial_triple  # noqa: E402
from accelflow.flows import build_el_system, integrate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_mode_runs_checks_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", str(trace), "--fast")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_committed_reference_matches_direct_integration_of_a_seed():
    committed = reference.load_references(5, reference.T_END_FAST)
    for i, (problem, p, q, _) in enumerate(reference.FLOW_CASES):
        label = reference.case_label(problem, p, q, i)
        x0 = reference.flow_x0(5, problem, i)
        direct = reference.reference_final_x(problem, p, q, x0, reference.T0,
                                             reference.T_END_FAST)
        assert checks.relative_error(committed[label], direct) < 1e-10, label


@pytest.fixture(scope="module")
def quartic_flow():
    """The quartic-mirror p = 4 flow over the fast horizon, and its reference."""
    i = 5
    problem, p, q, every = reference.FLOW_CASES[i]
    x0 = reference.flow_x0(3, problem, i)
    system = build_el_system(builtin_mirror_maps()["pth_power_4"],
                             builtin_problems()[problem], polynomial_triple(p, 1.0))
    traj = integrate(system, x0, reference.T0, reference.T_END_FAST,
                     {"method": "rk4_adaptive", "rel_tol": 1e-7, "abs_tol": 1e-11,
                      "record_every": every})
    x_ref = reference.load_references(3, reference.T_END_FAST)[
        reference.case_label(problem, p, q, i)]
    return problem, p, q, traj.times, traj.states, x_ref


def flow_check(flow, states):
    problem, p, q, times, _, x_ref = flow
    return checks.flow_failures("quartic", problem, p, q, times, states,
                                reference.T0, reference.T_END_FAST, x_ref)


def test_flow_check_passes_the_program_output(quartic_flow):
    fails, err = flow_check(quartic_flow, quartic_flow[4])
    assert fails == [] and 0.0 < err < checks.FLOW_FINAL_REL_LIMIT


def test_flow_check_rejects_a_perturbed_final_state(quartic_flow):
    states = quartic_flow[4].copy()
    states[-1, :2] *= 1.0 + 2.0 * checks.FLOW_FINAL_REL_LIMIT
    fails, _ = flow_check(quartic_flow, states)
    assert any("final X" in f for f in fails)


def test_flow_check_rejects_a_gap_above_its_certificate(quartic_flow):
    states = quartic_flow[4].copy()
    mid = len(states) // 2
    states[mid, :2] *= 1e3
    fails, _ = flow_check(quartic_flow, states)
    assert any("certificate" in f for f in fails)
    assert any("energy rises" in f for f in fails)


@pytest.fixture(scope="module")
def accel_run():
    f = builtin_problems()["least_squares"]
    p, K = 3, 60
    x0 = f.minimizer + 1.0
    eps = checks.epsilon_from(f.smoothness, p)
    rec = accelerated(f, AccelConfig(p=p, epsilon=eps, x0=x0), K)
    obj = checks.Objective("least_squares", f)
    return obj, p, eps, x0, rec, K


def accel_check(run, xs=None, ys=None):
    obj, p, eps, x0, rec, K = run
    return checks.accel_failures("ls", obj, p, 2.0, eps, checks.default_C(p, 2.0), x0,
                                 rec.xs if xs is None else xs,
                                 rec.ys if ys is None else ys, K)


def test_accel_check_passes_the_program_output(accel_run):
    fails, gap = accel_check(accel_run)
    assert fails == [] and 0.0 <= gap < 1.0


def test_accel_check_rejects_a_gap_above_its_bound(accel_run):
    obj, rec = accel_run[0], accel_run[4]
    ys = rec.ys.copy()
    ys[-1] = obj.x_star + 10.0 * (ys[-1] - obj.x_star) + 0.1
    fails, _ = accel_check(accel_run, ys=ys)
    assert any("above the certified" in f for f in fails)


def test_accel_check_rejects_a_step_that_breaks_its_certificate(accel_run):
    xs = accel_run[4].xs.copy()
    xs[7] = xs[7] + 0.5
    fails, _ = accel_check(accel_run, xs=xs)
    assert any("step certificate fails at row 7" in f for f in fails)


def _summary(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_text("t\n0.0\n")
    doc = {"kind": "acceptance", "scale": "quick", "seed": 1, "config": None,
           "checks": [{"name": "one", "status": "pass", "measured": 0.0, "bound": 1.0,
                       "runtime": 0.1, "detail": "", "extras": {}}],
           "counts": {"pass": 1, "fail": 0, "skip": 0}, "all_pass": True,
           "files": ["a/x.csv"], "total_runtime": 0.1}
    return doc


def suite_check(tmp_path, doc, code=0):
    (tmp_path / "summary.json").write_text(json.dumps(doc))
    schema = json.loads((ROOT / "schemas" / "summary.json").read_text())
    return checks.suite_failures(code, tmp_path, schema, ["one"])


def test_suite_check_passes_a_valid_summary(tmp_path):
    assert suite_check(tmp_path, _summary(tmp_path)) == []


def test_suite_check_rejects_failed_checks_missing_files_and_bad_schema(tmp_path):
    doc = _summary(tmp_path)
    assert suite_check(tmp_path, doc, code=1)
    failing = json.loads(json.dumps(doc))
    failing["checks"][0]["status"] = "fail"
    failing["counts"] = {"pass": 0, "fail": 1, "skip": 0}
    failing["all_pass"] = False
    assert any("not passing" in f for f in suite_check(tmp_path, failing))
    missing = dict(doc, files=["a/x.csv", "a/gone.dat"])
    assert any("missing" in f for f in suite_check(tmp_path, missing))
    invalid = dict(doc, extra_key=1)
    assert any("schemas/summary.json" in f for f in suite_check(tmp_path, invalid))


def test_suite_direct_errors_reject_a_perturbed_csv(tmp_path):
    refs = {}
    folder = tmp_path / "time_dilation_match"
    folder.mkdir()
    for name, p in checks.SUITE_DIRECT_FLOWS:
        x = reference.reference_final_x("quadratic", p, 2, checks.SUITE_DIRECT_X0,
                                        checks.SUITE_DIRECT_T0, 1.0)
        (folder / name).write_text(f"t,X_0,X_1\n1.0,{float(x[0])!r},{float(x[1])!r}\n")
    fails, err = checks.suite_direct_errors(tmp_path, refs)
    assert fails == [] and err < 1e-12
    path = folder / checks.SUITE_DIRECT_FLOWS[0][0]
    t, x0, x1 = path.read_text().splitlines()[1].split(",")
    path.write_text(f"t,X_0,X_1\n{t},{float(x0) * 1.01!r},{x1}\n")
    fails, _ = checks.suite_direct_errors(tmp_path, refs)
    assert len(fails) == 1
