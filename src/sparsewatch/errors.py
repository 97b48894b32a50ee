"""Exception types shared across the package, and the one rule for an
integer argument (``_count``) that every module applies at its boundary."""

from __future__ import annotations

import numbers

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


def _count(name: str, value, least: int = 1):
    """``value``, or ValueError if it is not an integer of at least ``least``
    (a bool is not one): 1 for a count, 0 for a seed or a change point."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
    return value
