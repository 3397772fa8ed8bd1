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


def check_probability(
    p: Fraction | float, name: str = "p", upper: Fraction | int = 1
) -> Fraction | float:
    """Reject a bool or non-numeric p with TypeError and one outside [0, upper]
    with ValueError, both naming it; return p, an int converted to Fraction
    and -0.0 to 0.0."""
    if isinstance(p, bool):
        raise TypeError(f"{name} must be a Fraction or float, got bool")
    if isinstance(p, int):
        p = Fraction(p)
    if not isinstance(p, (Fraction, float)):
        raise TypeError(f"{name} must be a Fraction or float, got {type(p).__name__}")
    if not 0 <= p <= upper:
        raise ValueError(f"{name} must lie in [0, {upper}], got {p}")
    return abs(p)


def check_float_k(k: int, p: Fraction | float) -> None:
    """Reject k >= 2**511 at a float p with ValueError naming k.  Every float
    route takes the limit of the float series, whose integer factor
    (2n+k)(2n+k+1) must convert to a float: below 2**511 it does for every
    n < 2**509, while just below 2**512 it overflows already at n = 0."""
    if isinstance(p, float) and k >= 2**511:
        raise ValueError("k must be < 2**511 when p is a float")
