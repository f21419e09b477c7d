"""The demo scripts and ready-made configs against the current package.

Each demo module is imported without running its main(), then run with its
output directory in a temporary one, and each config under demos/configs is
loaded through the same validation the CLI uses, so a removed public name,
a demo that raises at run time or a newly rejected config field fails here
rather than in front of a reader.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from accelflow.harness import EXPERIMENT_KINDS, config_from, load_config

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _load(script):
    spec = importlib.util.spec_from_file_location(f"demo_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __name__ is not "__main__": main() stays idle
    return module


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports_without_running(script):
    assert callable(_load(script).main)


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs_and_writes_under_its_output_directory(script, monkeypatch, tmp_path):
    module = _load(script)
    monkeypatch.setattr(module, "OUT", tmp_path)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        module.main()
    assert f"artifacts in {tmp_path}" in stdout.getvalue()
    assert any(path.is_file() for path in tmp_path.rglob("*"))


@pytest.mark.parametrize("path", sorted((DEMOS / "configs").glob("*.json")),
                         ids=lambda p: p.stem)
def test_demo_config_is_valid(path):
    cfg = config_from(load_config(path))
    assert cfg.kind in EXPERIMENT_KINDS


def test_demos_are_found():
    # an empty parametrization would skip the two tests above silently
    assert list(DEMOS.glob("*.py")) and list((DEMOS / "configs").glob("*.json"))
