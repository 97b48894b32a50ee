"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SparsewatchError",
    "DimensionError",
    "DataError",
    "StateError",
    "CapabilityError",
    "CalibrationError",
    "NumericalError",
]


class SparsewatchError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionError(SparsewatchError, ValueError):
    """Shapes or index sets disagree with the declared model dimensions."""


class DataError(SparsewatchError, ValueError):
    """An input file or observation is malformed or missing required values."""


class StateError(SparsewatchError, RuntimeError):
    """An operation was called in a state that cannot serve it."""


class CapabilityError(SparsewatchError, RuntimeError):
    """The requested computation exceeds a documented size limit."""


class CalibrationError(SparsewatchError, RuntimeError):
    """Threshold calibration cannot meet its target within tolerance."""


class NumericalError(SparsewatchError, ArithmeticError):
    """A computation on finite inputs produced a non-finite result."""
