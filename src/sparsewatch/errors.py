"""Exception types shared across the package, and the one rule for an
integer argument and the one for a real-valued argument.

``_count`` checks every size, count, budget, index, seed and change point
the library takes outside the command line, which names its own flags:
an integer (a bool is not one) of at least ``least`` and, given ``most``,
at most ``most``, else ``DimensionError`` naming the argument.  An exact
``int`` in range returns after one class test and the bound comparisons:
about 0.06 µs a call against 0.49 µs through the ``numbers.Integral``
test (``timeit`` on one pinned core of a 2-vCPU Xeon), so ``fit`` and
``select_top_m``, which call it every step, pay no more than a
hand-written comparison.

``_number`` checks every real-valued argument: a scale, a prior, a rate,
a threshold, a target or a tolerance.  It returns a Python float, or
raises ``DataError`` naming the argument if the value is not a real
number (a bool, a string, None or an array is not one), is an integer too
large for a float, or lies outside the bounds given; a NaN meets no
bound.  An exact ``float`` skips the type test and the conversion, so a
call costs about 0.1 µs, and ``fit`` can check its ``tol`` every step.
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
    """An input file or observation is malformed or missing required
    values, or a real-valued argument is not a number in its range."""


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


def _number(name: str, value, least=None, most=None, *, above=False, below=False,
            low=None, high=None) -> float:
    """``value`` as a float, or DataError if it is not a real number (a
    bool, a string, None or an array is not one) of at least ``least`` and
    at most ``most``; ``above`` and ``below`` make those bounds strict, and
    no bound is no limit.  ``low`` and ``high`` word the rule a value
    below or above the range breaks, in place of "must be positive",
    "must be at least ...", "must be below ..." or "must be at most ...".
    """
    if value.__class__ is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DataError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise DataError(f"{name} is too large for a float") from None
    if least is not None and not (least < value if above else least <= value):
        low = low or ("must be positive" if above and least == 0 else
                      f"must be {'above' if above else 'at least'} {least}")
        raise DataError(f"{name} {low}, got {value!r}")
    if most is not None and not (value < most if below else value <= most):
        high = high or f"must be {'below' if below else 'at most'} {most}"
        raise DataError(f"{name} {high}, got {value!r}")
    return value
