"""The integer-argument check shared by every public entry point.

Kept in its own module so that `paths`, the enumeration oracle, can use it
without importing anything from the counting layer it is checked against.
"""

from __future__ import annotations


def check_int(value: int, name: str, minimum: int) -> None:
    """Reject a non-int (bool included) with TypeError and an int below
    minimum with ValueError; both messages name the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
