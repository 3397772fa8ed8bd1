"""The argument checks shared by every public entry point.

Kept in their own module so that `paths`, the enumeration oracle, can use them
without importing anything from the counting layer it is checked against.
"""

from __future__ import annotations

from fractions import Fraction


def check_int(value: int, name: str, minimum: int) -> None:
    """Reject a non-int (bool included) with TypeError and an int below
    minimum with ValueError; both messages name the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_probability(p: Fraction | float) -> Fraction | float:
    """Reject a bool or non-numeric p with TypeError and one outside [0, 1]
    with ValueError; return p, an int converted to Fraction."""
    if isinstance(p, bool):
        raise TypeError("p must be a Fraction or float, got bool")
    if isinstance(p, int):
        p = Fraction(p)
    if not isinstance(p, (Fraction, float)):
        raise TypeError(f"p must be a Fraction or float, got {type(p).__name__}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p
