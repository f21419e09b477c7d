"""Error taxonomy shared across the package.

Five failure classes: bad arguments, missing capabilities, inner solvers
missing their residual target, trajectories blowing up, and NaN poisoning.
Divergence and solver errors carry the partial result so callers can inspect
how far a run got before it failed.
"""


class InputError(ValueError):
    """Arguments violate a documented precondition."""


class CapabilityError(RuntimeError):
    """The object lacks a derivative order or closed form the operation needs."""


class SolverError(RuntimeError):
    """An inner solver missed its residual target or ran out of steps."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class DivergenceError(RuntimeError):
    """State norm crossed the divergence threshold during integration."""

    def __init__(self, message, partial=None, t=None):
        super().__init__(message)
        self.partial = partial
        self.t = t


class NumericalError(RuntimeError):
    """NaN or Inf appeared where finite values are required."""
