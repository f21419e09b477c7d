"""Experiment configuration: one JSON document, validated against the catalogs.

A config is a single flat JSON object; command-line flags override its
top-level fields. Problems and mirror maps are referenced by their catalog
identifiers so configs stay diffable and machine-checkable. Method parameter
constraints (admissible C, N > 1, epsilon > 0, ...) are owned by the method
constructors themselves — validation here checks identifiers, field names,
shapes, that every method number is finite (and integral where the runner
needs an integer), and that integration controls and a scale go only to
runs that read them, then lets the modules reject bad numbers. A config
picks the experiment and its inputs; the kind owns how it is computed and
judged: the integration method, the rate-fit window and every bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..core import builtin_mirror_maps, builtin_problems
from ..core.points import as_integer, as_real
from ..errors import InputError
from ..flows.integrate import METHOD_CONTROLS
from .reporting import EXPERIMENT_KINDS

# top-level fields a config document may carry
CONFIG_FIELDS = (
    "kind",
    "problem",
    "x0",
    "method",
    "integration",
    "out",
    "seed",
    "scale",
)

# method-dict keys admitted per experiment kind and variant (the flow family
# or the optimize algorithm); anything else is a typo or a key the variant
# would ignore
METHOD_KEYS = {
    ("flow", "polynomial"): {"family", "p", "C", "mirror"},
    ("flow", "exponential"): {"family", "c", "mirror"},
    ("flow", "rescaled"): {"family", "p"},
    ("flow", "massless"): {"family", "m", "mirror"},
    ("optimize", "accelerated"): {"algorithm", "p", "epsilon", "N", "C", "K", "mirror"},
    ("optimize", "descent"): {"algorithm", "p", "epsilon", "N", "K"},
    ("optimize", "exponential"): {"algorithm", "c", "delta", "K", "mirror"},
    ("compare", None): {"p", "delta", "N", "C"},
    ("dilation_check", None): {"p", "C"},
    ("restart", None): {"epsilon", "epochs"},
    ("naive_demo", None): {"p", "C", "epsilon", "K", "accel_K"},
    ("acceptance", None): set(),
}

FLOW_FAMILIES = tuple(v for kind, v in METHOD_KEYS if kind == "flow")
OPTIMIZE_ALGORITHMS = tuple(v for kind, v in METHOD_KEYS if kind == "optimize")

# method keys that name catalog entries or variants rather than numbers
_NAME_KEYS = {"family", "algorithm", "mirror"}
# method numbers that count something; the discrete kinds' order p is one too
_INTEGER_KEYS = {"K", "epochs", "accel_K"}

# t0, t_end and the controls each family's own integrator reads, its method
# name aside: a family runs the method its defaults name
_INTEGRATION_KEYS = {"t0", "t_end"}.union(*METHOD_CONTROLS.values()) - {"method"}


@dataclass
class ExperimentConfig:
    """One experiment: what to run, on which problem, where to put files."""

    kind: str
    problem: str = "quadratic"
    x0: list | None = None
    method: dict = field(default_factory=dict)
    integration: dict = field(default_factory=dict)
    out: str | None = None
    seed: int = 0
    scale: str = "quick"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise InputError(
                f"unknown experiment kind {self.kind!r}; choose from {EXPERIMENT_KINDS}"
            )
        problems = builtin_problems()
        if not isinstance(self.problem, str) or self.problem not in problems:
            raise InputError(
                f"unknown problem id {self.problem!r}; "
                f"catalog has {sorted(problems)}"
            )
        if not isinstance(self.method, dict):
            raise InputError("method must be an object of method parameters")
        variant = self.variant()
        if variant not in [v for kind, v in METHOD_KEYS if kind == self.kind]:
            label = "family" if self.kind == "flow" else "algorithm"
            choices = FLOW_FAMILIES if self.kind == "flow" else OPTIMIZE_ALGORITHMS
            raise InputError(
                f"{self.kind} {label} must be one of {choices}, got {variant!r}"
            )
        admitted = METHOD_KEYS[self.kind, variant]
        extra = set(self.method) - admitted
        if extra:
            used_by = self.kind if variant is None else f"{self.kind} {variant}"
            raise InputError(
                f"method keys {sorted(extra)} are not used by {used_by}; "
                f"admitted keys: {sorted(admitted)}"
            )
        mirror = self.method.get("mirror")
        if mirror is not None and (not isinstance(mirror, str)
                                   or mirror not in builtin_mirror_maps()):
            raise InputError(
                f"unknown mirror id {mirror!r}; "
                f"catalog has {sorted(builtin_mirror_maps())}"
            )
        for key in set(self.method) - _NAME_KEYS:
            value = self.number(key)
            if isinstance(value, float) and not math.isfinite(value):
                raise InputError(f"method {key} must be finite, got {value!r}")
        if not isinstance(self.integration, dict):
            raise InputError("integration must be an object of integrator controls")
        if self.integration and self.kind != "flow":
            raise InputError(f"integration controls are not used by {self.kind}")
        unknown = set(self.integration) - _INTEGRATION_KEYS
        if unknown:
            raise InputError(
                f"unknown integration controls {sorted(unknown)}; "
                f"admitted: {sorted(_INTEGRATION_KEYS)}"
            )
        if self.x0 is not None and not (
            isinstance(self.x0, (list, tuple)) and self.x0
            and all(math.isfinite(as_real("x0 coordinate", v)) for v in self.x0)
        ):
            raise InputError("x0 must be a non-empty list of finite numbers")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise InputError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.scale not in ("quick", "full"):
            raise InputError(f"scale must be 'quick' or 'full', got {self.scale!r}")
        if self.scale != "quick" and self.kind != "acceptance":
            raise InputError(f"scale is used only by acceptance, not by {self.kind}")

    def variant(self):
        """The flow family or optimize algorithm; None for the other kinds."""
        if self.kind == "flow":
            return self.method.get("family", "polynomial")
        if self.kind == "optimize":
            return self.method.get("algorithm", "accelerated")
        return None

    def number(self, key: str, default=None):
        """Method number key, or default when it is unset or null.

        Counts (K, epochs, accel_K) and the discrete kinds' order p are
        integers, integral floats admitted; the flow families take a real p,
        as their builders do. A value of the wrong type raises InputError.
        """
        value = self.method.get(key)
        if value is None:
            value = default
        if value is None:
            return None
        if key in _INTEGER_KEYS or (key == "p" and self.kind != "flow"):
            return as_integer(key, value)
        return as_real(key, value)

    def problem_oracle(self):
        return builtin_problems()[self.problem]

    def mirror_map(self):
        """The configured mirror map instance, or None when unset."""
        mirror = self.method.get("mirror")
        return None if mirror is None else builtin_mirror_maps()[mirror]

    def resolved_x0(self) -> np.ndarray:
        """Explicit x0, or all-ones in the problem's dimension."""
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=np.float64)
        f = self.problem_oracle()
        if f.dimension is None:
            raise InputError(
                f"{self.problem} has no fixed dimension; the config must give x0"
            )
        return np.ones(f.dimension)

    def to_doc(self) -> dict:
        return {
            "kind": self.kind,
            "problem": self.problem,
            "x0": None if self.x0 is None else [float(v) for v in self.x0],
            "method": dict(self.method),
            "integration": dict(self.integration),
            "out": self.out,
            "seed": int(self.seed),
            "scale": self.scale,
        }


def load_config(path) -> dict:
    """Read a JSON config document; IO and parse problems become InputError."""
    try:
        with open(path, encoding="utf-8") as src:
            doc = json.load(src)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"config {path} must hold a JSON object at top level")
    return doc


def config_from(doc: dict, **overrides) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a document plus CLI overrides.

    Overrides with value None mean "not given on the command line" and leave
    the document's value alone; anything else replaces the top-level field.
    """
    merged = dict(doc)
    unknown = set(merged) - set(CONFIG_FIELDS)
    if unknown:
        raise InputError(
            f"unknown config fields {sorted(unknown)}; "
            f"admitted: {sorted(CONFIG_FIELDS)}"
        )
    for key, value in overrides.items():
        if key not in CONFIG_FIELDS:
            raise InputError(f"unknown override field {key!r}")
        if value is not None:
            if key == "kind" and "kind" in merged and merged["kind"] != value:
                raise InputError(
                    f"config says kind={merged['kind']!r} but the command line "
                    f"asks for {value!r}; drop one of them"
                )
            merged[key] = value
    if "kind" not in merged:
        raise InputError("experiment kind is required (config field or subcommand)")
    return ExperimentConfig(**merged)
