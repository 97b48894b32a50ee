"""Exception types shared across the package, and the one rule for an
integer argument.

``_count`` checks every size, count, budget, index, seed and change point
the library takes outside the command line, which names its own flags:
an integer (a bool is not one) of at least ``least`` and, given ``most``,
at most ``most``, else ``DimensionError`` naming the argument.  An exact
``int`` in range returns after one class test and the bound comparisons:
about 0.06 µs a call against 0.49 µs through the ``numbers.Integral``
test (``timeit`` on one pinned core of a 2-vCPU Xeon), so ``fit`` and
``select_top_m``, which call it every step, pay no more than a
hand-written comparison.
"""

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
    """An integer argument out of range, or shapes that disagree with the
    model's dimensions."""


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


def _count(name: str, value, least: int = 1, most: int | None = None):
    """``value``, or DimensionError if it is not an integer (a bool is not
    one) in [``least``, ``most``]: ``least`` is 1 for a count or a size, 0
    for a seed, an index or a change point; no ``most`` means no upper
    bound."""
    if value.__class__ is int and least <= value and (most is None or value <= most):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DimensionError(f"{name} must be an integer of at least {least}, got {value!r}")
    if most is not None and value > most:
        raise DimensionError(f"{name} must lie in [{least}, {most}], got {value!r}")
    return value
