"""Check results, experiment summaries, schema validation, plot-data files.

Every experiment reduces to a list of named checks (pass/fail/skip with a
measured value and the bound it was held to) wrapped in a summary that can be
serialized to JSON. The JSON layout is pinned by SUMMARY_SCHEMA; the same
schema ships in the repository as schemas/summary.json so other tools can
validate summaries without importing this package.

Plot emission is deliberately dumb: two-column text files that gnuplot,
matplotlib, or a spreadsheet ingest directly. No rendering here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError

EXPERIMENT_KINDS = (
    "flow",
    "optimize",
    "compare",
    "dilation_check",
    "restart",
    "naive_demo",
    "acceptance",
)

STATUSES = ("pass", "fail", "skip")

_CHECK_SCHEMA = {
    "type": "object",
    "required": ["name", "status", "runtime"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "status": {"type": "string", "enum": list(STATUSES)},
        "measured": {"type": ["number", "null"]},
        "bound": {"type": ["number", "null"]},
        "runtime": {"type": "number", "minimum": 0},
        "detail": {"type": "string"},
        "extras": {"type": "object"},
    },
}

SUMMARY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "accelflow experiment summary",
    "type": "object",
    "required": ["kind", "seed", "checks", "counts", "all_pass", "files"],
    "additionalProperties": False,
    "properties": {
        "kind": {"type": "string", "enum": list(EXPERIMENT_KINDS)},
        "scale": {"type": ["string", "null"], "enum": ["quick", "full", None]},
        "seed": {"type": "integer", "minimum": 0},
        "config": {"type": ["object", "null"]},
        "checks": {"type": "array", "items": _CHECK_SCHEMA},
        "counts": {
            "type": "object",
            "required": ["pass", "fail", "skip"],
            "additionalProperties": False,
            "properties": {
                "pass": {"type": "integer", "minimum": 0},
                "fail": {"type": "integer", "minimum": 0},
                "skip": {"type": "integer", "minimum": 0},
            },
        },
        "all_pass": {"type": "boolean"},
        "files": {"type": "array", "items": {"type": "string"}},
        "total_runtime": {"type": "number", "minimum": 0},
    },
}


def jsonable(value):
    """Recursively coerce a value into something json.dump accepts.

    Numpy scalars and small arrays become Python numbers and lists; long
    arrays are summarized (length, min, max, final) — summaries are for
    reading, the full series lives in the CSVs. Non-finite floats become
    null: JSON has no spelling for them.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if len(value) > 64:
            arr = np.asarray(value, dtype=np.float64)
            return {
                "n": int(arr.size),
                "min": jsonable(np.min(arr)),
                "max": jsonable(np.max(arr)),
                "final": jsonable(arr[-1]),
            }
        return [jsonable(v) for v in value]
    return repr(value)


@dataclass
class CheckResult:
    """One named verdict: what was measured, what it was held to, and how."""

    name: str
    status: str
    measured: float | None = None
    bound: float | None = None
    runtime: float = 0.0
    detail: str = ""
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise InputError(f"check status must be one of {STATUSES}, got {self.status!r}")

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "measured": jsonable(self.measured),
            "bound": jsonable(self.bound),
            "runtime": float(self.runtime),
            "detail": self.detail,
            "extras": jsonable(self.extras),
        }


@dataclass
class ReportSummary:
    """The outcome of one experiment (or of the whole acceptance suite)."""

    kind: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    scale: str | None = None
    config: dict | None = None
    files: list[str] = field(default_factory=list)
    total_runtime: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if c.status == "fail"]

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "scale": self.scale,
            "seed": int(self.seed),
            "config": jsonable(self.config),
            "checks": [c.to_doc() for c in self.checks],
            "counts": self.counts(),
            "all_pass": self.all_pass,
            "files": sorted(self.files),
            "total_runtime": float(self.total_runtime),
        }

    def write(self, path) -> dict:
        """Validate against the summary schema, then write; returns the doc."""
        doc = self.to_doc()
        validate_summary(doc)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out, indent=2, sort_keys=True)
            out.write("\n")
        return doc


def validate_summary(doc: dict) -> None:
    """jsonschema validation against the pinned summary layout.

    jsonschema is imported here, not at the top, so that a run that writes
    no summary never loads it.
    """
    from jsonschema import ValidationError, validate

    try:
        validate(instance=doc, schema=SUMMARY_SCHEMA)
    except ValidationError as exc:
        raise InputError(f"summary document violates its schema: {exc.message}") from exc


def write_plot_data(path, xs, ys, comment: str) -> None:
    """Two-column plot file: a `# comment` header line, then `x y` rows.

    Floats are written with repr so reruns are byte-identical. Rows where
    either column is non-finite are dropped (they plot as gaps anyway).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InputError("plot data needs two equally long 1-d columns")
    keep = np.isfinite(xs) & np.isfinite(ys)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {comment}\n")
        for x, y in zip(xs[keep], ys[keep]):
            out.write(f"{float(x)!r} {float(y)!r}\n")


def log_gap_columns(axis, gaps) -> tuple[np.ndarray, np.ndarray]:
    """log10 of both columns, keeping only rows with positive gap and axis.

    The standard transform behind every convergence plot here: slopes in
    these coordinates are the polynomial rates the checks assert.
    """
    axis = np.asarray(axis, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    keep = (axis > 0) & (gaps > 0) & np.isfinite(gaps)
    return np.log10(axis[keep]), np.log10(gaps[keep])
