"""Continuous-time dynamics: system builders, integration, energies, dilation."""

from .dilation import TimeDilation, dilate_trajectory, dilate_triple
from .energy import energy_at, fit_rate
from .integrate import DIVERGENCE_THRESHOLD, Trajectory, integrate, integrate_family
from .systems import (
    GRADIENT_FLOOR,
    FlowSystem,
    build_el_system,
    build_hamiltonian_system,
    build_natural_gradient_flow,
    build_rescaled_gradient_flow,
)

__all__ = [
    "DIVERGENCE_THRESHOLD",
    "FlowSystem",
    "GRADIENT_FLOOR",
    "TimeDilation",
    "Trajectory",
    "build_el_system",
    "build_hamiltonian_system",
    "build_natural_gradient_flow",
    "build_rescaled_gradient_flow",
    "dilate_trajectory",
    "dilate_triple",
    "energy_at",
    "fit_rate",
    "integrate",
    "integrate_family",
]
