"""Exact Catalan and ballot counts with the recurrences that relate them.

C(n) counts first-passage walks from position 1 with n right steps; the
ballot count C_k(n) generalises this to start position k.  Everything here
is arbitrary-precision integer arithmetic; no result is ever rounded.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from ._validate import check_int

__all__ = ["BallotCount", "ballot_count", "ballot_via_recurrence", "catalan",
           "catalan_via_convolution"]

# Arbitrary-precision nonnegative count.  Plain int already gives exactness
# at any magnitude, so no wrapper type is needed.
BallotCount = int


@lru_cache(maxsize=None)
def catalan(n: int) -> BallotCount:
    """n-th Catalan number (2n)! / (n! (n+1)!), exactly.

    Cached in a grow-only table; safe for concurrent readers because
    entries are only ever inserted, never mutated.
    """
    check_int(n, "n", 0)
    return comb(2 * n, n) // (n + 1)


def ballot_count(k: int, n: int) -> BallotCount:
    """Number of first-passage walks from k with n right steps.

    Closed form k/(2n+k) * binomial(2n+k, n); the division is exact
    (the cycle-lemma argument guarantees it), so integer division loses
    nothing.
    """
    # k = 0 means the walk is already absorbed; the count is undefined.
    check_int(k, "k", 1)
    check_int(n, "n", 0)
    return k * comb(2 * n + k, n) // (2 * n + k)


def catalan_via_convolution(n: int) -> BallotCount:
    """C(n) rebuilt from the first-return convolution sum_{a=1..n} C(a-1) C(n-a).

    Rejects n = 0: the sum is empty there while C(0) = 1, and silently
    returning 1 would hide misuse.
    """
    check_int(n, "n", 1)
    return sum(catalan(a - 1) * catalan(n - a) for a in range(1, n + 1))


# Grow-only table of C_j(m): _RECURRENCE_ROWS[j - 1][m], filled from m = 0 up.
_RECURRENCE_ROWS: list[list[BallotCount]] = []


def ballot_via_recurrence(k: int, n: int) -> BallotCount:
    """C_k(n) computed from recurrences only, never the closed form.

    Base cases C_1(n) = C(n) and C_2(n) = C(n+1); for k >= 3 use
    C_k(n) = C_{k-1}(n+1) - C_{k-2}(n+1).  Must agree with ballot_count.
    Rows 1..k are extended in order, row j up to m = n + k - j, so the
    cells it reads one step further out are already filled.  Concurrent
    callers must not share the table: two threads extending one row would
    misalign it.
    """
    check_int(k, "k", 1)
    check_int(n, "n", 0)
    rows = _RECURRENCE_ROWS
    rows += ([] for _ in range(len(rows), k))
    for j in range(1, k + 1):
        row = rows[j - 1]
        for m in range(len(row), n + k - j + 1):
            if j <= 2:
                row.append(catalan(m + j - 1))
            else:
                row.append(rows[j - 2][m + 1] - rows[j - 3][m + 1])
    return rows[k - 1][n]
