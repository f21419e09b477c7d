"""Foundational types: points, objective oracles, mirror maps, scaling triples."""

from .mirrors import (
    DiagonalMap,
    EuclideanMap,
    MirrorMap,
    PthPowerMap,
    ScaledPthPowerMap,
    builtin_mirror_maps,
)
from .numerics import (
    central_diff_directional,
    central_diff_gradient,
    central_diff_scalar,
    rising_factorial,
    taylor_model,
)
from .oracles import (
    CATALOG_SEED,
    DiagonalQuadratic,
    LeastSquares,
    LogSumExp,
    ObjectiveOracle,
    PowerNorm,
    ZeroObjective,
    builtin_problems,
)
from .points import Point, as_point, check_same_dim
from .scalings import (
    IdealScalingReport,
    ScalingTriple,
    exponential_triple,
    ideal_scaling_check,
    massless_triple,
    polynomial_triple,
    r_damped_triple,
)

__all__ = [
    "CATALOG_SEED",
    "DiagonalMap",
    "DiagonalQuadratic",
    "EuclideanMap",
    "IdealScalingReport",
    "LeastSquares",
    "LogSumExp",
    "MirrorMap",
    "ObjectiveOracle",
    "Point",
    "PowerNorm",
    "PthPowerMap",
    "ScaledPthPowerMap",
    "ScalingTriple",
    "ZeroObjective",
    "as_point",
    "builtin_mirror_maps",
    "builtin_problems",
    "central_diff_directional",
    "central_diff_gradient",
    "central_diff_scalar",
    "check_same_dim",
    "exponential_triple",
    "ideal_scaling_check",
    "massless_triple",
    "polynomial_triple",
    "r_damped_triple",
    "rising_factorial",
    "taylor_model",
]
